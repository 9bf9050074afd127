"""The benchmark's three closed-loop workloads.

Every configuration is admissible: it comes from ``make_config`` with
``suggest_prime_modulus`` and odd s.  A workload generates its inputs from
the workload seed, sets itself up (timed, repeatable), and runs one op per
input index.  Each op returns its latency, the verifier's CPU time, its
wire counts and whether its output was right; the checks run outside the
timed region.

* ``eval-d1m``: the ``polycommit eval``/``verify`` traffic at d = 999**2.
  One verifier runs rounds back to back on one thread; all the work is
  per-round prover and verifier work, with no OT or commitment work timed.
* ``commit-s63``: the ``polycommit commit`` traffic at s = 63 with the CLI
  defaults r = c = 10: a commitment over the ideal OT box, in process, on
  two threads; no evaluation rounds and no OT frames on the wire.
* ``session-bs-tcp``: a full bounded-storage session over loopback TCP at
  the README configuration; the OT and wire layers do the work.
"""

from __future__ import annotations

import contextlib
import random
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from polycommit import field, ot, polymat, protocol, session, wire
from polycommit.seeds import derive_seed, substream

_FRAME_HEADER = len(wire.encode_frame(wire.Tag.ABORT, b""))


@dataclass(frozen=True)
class WireCounts:
    """Exact per-op wire counts: frames and bytes (header included) per
    tag, and round trips, i.e. direction changes halved and rounded up, so
    a request and its reply are one round trip."""

    frames: dict
    bytes: dict
    round_trips: int

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())


class DirectedRecorder(wire.TranscriptRecorder):
    """TranscriptRecorder that also logs each frame's direction."""

    def __init__(self, inner):
        super().__init__(inner)
        self.sent: list[bool] = []

    def send(self, tag, payload):
        self.sent.append(True)
        super().send(tag, payload)

    def recv(self):
        frame = super().recv()
        self.sent.append(False)
        return frame


def wire_counts(recorder: DirectedRecorder) -> WireCounts:
    frames, nbytes = Counter(), Counter()
    changes = 0
    for i, ((tag, payload), sent) in enumerate(zip(recorder.frames, recorder.sent)):
        name = wire.Tag(tag).name
        frames[name] += 1
        nbytes[name] += _FRAME_HEADER + len(payload)
        changes += i > 0 and sent != recorder.sent[i - 1]
    return WireCounts(dict(frames), dict(nbytes), (changes + 1) // 2)


@dataclass
class OpResult:
    seconds: float
    verifier_cpu_s: float
    wire: WireCounts
    ok: bool
    output: object


def direct_verification_key(cfg, matrix, prover_key, verifier_key):
    """(Gamma, Omega) = (Lambda(A+B), B Theta^T) built directly, without the
    commitment phase."""
    f = cfg.field
    masked = f.vadd(matrix, prover_key.mask)
    return protocol.VerificationKey(
        gamma=f.matmul(protocol.lambda_matrix(cfg, verifier_key), masked),
        omega=f.matmul(prover_key.mask, protocol.theta_matrix(cfg, verifier_key).T),
    )


def same_key(a, b) -> bool:
    return np.array_equal(a.gamma, b.gamma) and np.array_equal(a.omega, b.omega)


def reference_eval(coeffs: np.ndarray, x: int, q: int) -> int:
    """f(x) by plain int64 numpy, sharing no code with the package."""
    s = int(round(len(coeffs) ** 0.5))
    if s * (q - 1) ** 2 >= 1 << 63:
        raise ValueError("q too large for the int64 reference")
    a = np.asarray(coeffs, dtype=np.int64).reshape(s, s)
    low = np.array([pow(x, k, q) for k in range(s)], dtype=np.int64)
    xs = pow(x, s, q)
    high = np.array([pow(xs, k, q) for k in range(s)], dtype=np.int64)
    return int(high @ (a @ low % q) % q)


class Workload:
    name = ""
    # Inputs j and j + cycle give identical wire counts.
    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.role = lambda name: contextlib.nullcontext()

    def params(self) -> dict:
        cfg = self.cfg
        return {"q": cfg.field.q, "d": cfg.d, "s": cfg.s, "r": cfg.r, "c": cfg.c, "xi": cfg.xi}

    def setup(self) -> None:
        raise NotImplementedError

    def self_check(self) -> None:
        """Runs after set-up, untimed; raises AssertionError on a mismatch."""

    def op(self, j: int) -> OpResult:
        raise NotImplementedError


class EvalD1m(Workload):
    name = "eval-d1m"
    S, R, C, XI = 999, 2, 10, 10**6
    FORGE_EVERY = 10  # every 10th response gets one coordinate forged

    def setup(self):
        protocol.lambda_matrix.cache_clear()
        protocol.theta_matrix.cache_clear()
        d = self.S**2
        q = protocol.suggest_prime_modulus(d, self.R, self.XI)
        cfg = protocol.make_config(field.PrimeField(q), d=d, r=self.R, c=self.C, xi=self.XI)
        self.cfg = cfg
        self.coeffs = session.honest_coefficients(cfg, self.seed)
        self.matrix = polymat.poly_to_matrix(cfg.field, self.coeffs, cfg.s)
        self.prover_key = protocol.keygen_prover(cfg, substream(self.seed, "prover"))
        self.verifier_key = protocol.keygen_verifier(cfg, substream(self.seed, "verifier"))
        # commitment at s=999 is out of reach, so (Gamma, Omega) is built
        # directly; self_check ties this shortcut to protocol.commit
        self.vk = direct_verification_key(cfg, self.matrix, self.prover_key, self.verifier_key)

    def self_check(self):
        s, r, c, xi = 7, 2, 3, 50
        q = protocol.suggest_prime_modulus(s * s, r, xi)
        cfg = protocol.make_config(field.PrimeField(q), d=s * s, r=r, c=c, xi=xi)
        coeffs = session.honest_coefficients(cfg, self.seed)
        matrix = polymat.poly_to_matrix(cfg.field, coeffs, s)
        pkey = protocol.keygen_prover(cfg, substream(self.seed, "prover"))
        vkey = protocol.keygen_verifier(cfg, substream(self.seed, "verifier"))
        committed = protocol.commit(
            matrix, vkey, pkey, cfg, ot.IdealOt(), substream(self.seed, "commit")
        )
        assert same_key(committed, direct_verification_key(cfg, matrix, pkey, vkey)), (
            "direct (Gamma, Omega) differs from protocol.commit"
        )
        for x in (0, 1, xi // 2, xi):
            assert reference_eval(coeffs, x, q) == polymat.horner_eval(cfg.field, coeffs, x)
        x = self.XI // 3
        assert reference_eval(self.coeffs, x, self.cfg.field.q) == polymat.bilinear_eval(
            self.cfg.field, self.matrix, x
        ), "int64 reference differs from polymat.bilinear_eval at d=999^2"

    def op(self, j):
        cfg, f = self.cfg, self.cfg.field
        rng = random.Random(derive_seed(self.seed, "eval", j))
        x = rng.randint(0, self.XI)
        forge = j % self.FORGE_EVERY == self.FORGE_EVERY - 1
        forged_side, forged_pos = rng.randrange(2), rng.randrange(cfg.s)
        chan_v, chan_p = wire.duplex_pair()
        rec = DirectedRecorder(chan_p)

        t0, c0 = time.perf_counter(), time.thread_time()
        with self.role("verifier"):
            chan_v.send(wire.Tag.EVAL_REQ, wire.Writer().elem(f, x).bytes())
        c1 = time.thread_time()
        with self.role("prover"):
            _, payload = rec.recv()
            resp = protocol.evaluate(wire.Reader(payload).elem(f), self.matrix, self.prover_key, cfg)
            w = wire.Writer().u8(0).vector(f, resp.v).vector(f, resp.u)
            rec.send(wire.Tag.EVAL_RESP, w.bytes())
        c2 = time.thread_time()
        with self.role("verifier"):
            _, payload = chan_v.recv()
            r = wire.Reader(payload)
            r.u8()
            got = protocol.EvalResponse(v=r.vector(f), u=r.vector(f))
            r.done()
            if forge:
                vec = got.v if forged_side == 0 else got.u
                vec[forged_pos] = f.add(int(vec[forged_pos]), 1)
            accepted = protocol.verify(x, got, self.vk, self.verifier_key, cfg)
            value = protocol.recover(x, got, cfg) if accepted else None
        t1, c3 = time.perf_counter(), time.thread_time()

        if forge:
            ok = not accepted
        else:
            ok = accepted and value == reference_eval(self.coeffs, x, f.q)
        return OpResult(t1 - t0, (c1 - c0) + (c3 - c2), wire_counts(rec), ok, (accepted, value))


class _SessionWorkload(Workload):
    """Shared harness for the workloads that run ``session.run_pair``."""

    def __init__(self, seed):
        super().__init__(seed)
        session.TranscriptRecorder = DirectedRecorder
        self._verifier_cpu: list[float] = []
        run = session.VerifierSession.run

        def timed_run(verifier, chan):
            c0 = time.thread_time()
            try:
                return run(verifier, chan)
            finally:
                self._verifier_cpu.append(time.thread_time() - c0)

        session.VerifierSession.run = timed_run

    def run_session(self, queries, seed, **kwargs):
        self._verifier_cpu.clear()
        t0 = time.perf_counter()
        res_p, res_v, outcome = session.run_pair(self.cfg, self.coeffs, queries, seed=seed, **kwargs)
        seconds = time.perf_counter() - t0
        res_p.transcript.close()
        res_v.transcript.close()
        exits_ok = res_p.exit_code == session.EXIT_OK and res_v.exit_code == session.EXIT_OK
        return seconds, self._verifier_cpu[0], wire_counts(res_p.transcript), exits_ok, outcome


class CommitS63(_SessionWorkload):
    name = "commit-s63"
    S, R, C, XI = 63, 10, 10, 10**6

    def setup(self):
        d = self.S**2
        q = protocol.suggest_prime_modulus(d, self.R, self.XI)
        self.cfg = protocol.make_config(field.PrimeField(q), d=d, r=self.R, c=self.C, xi=self.XI)
        self.coeffs = session.honest_coefficients(self.cfg, self.seed)

    def op(self, j):
        seed = derive_seed(self.seed, "commit", j)
        seconds, cpu, counts, exits_ok, outcome = self.run_session(
            [], seed, backend="ideal", transport="inproc"
        )
        vk = outcome.verification_key
        ok = exits_ok and vk is not None
        if ok:
            # the keys re-derive from the role substreams, as cmd_commit does
            cfg = self.cfg
            prover = session.ProverSession(cfg, self.coeffs, None, seed)
            vkey = protocol.keygen_verifier(cfg, substream(seed, "verifier"))
            ok = same_key(vk, direct_verification_key(cfg, prover.matrix, prover.prover_key, vkey))
        output = (vk.gamma.tobytes(), vk.omega.tobytes()) if vk is not None else None
        return OpResult(seconds, cpu, counts, ok, output)


class SessionBsTcp(_SessionWorkload):
    name = "session-bs-tcp"
    Q, D, R, C, XI, M = 11, 9, 2, 3, 6, 5
    # Session seeds are a fixed list, so broadcast retries per op are the
    # same from run to run; the workload seed picks polynomial and queries.
    SESSION_SEEDS = (1, 2, 3, 4)
    cycle = len(SESSION_SEEDS)

    def setup(self):
        self.cfg = protocol.make_config(
            field.PrimeField(self.Q), d=self.D, r=self.R, c=self.C, xi=self.XI
        )
        self.coeffs = session.honest_coefficients(self.cfg, self.seed)
        self.bs_params = ot.make_bs_params()

    def op(self, j):
        queries = session.default_queries(self.cfg, self.M, derive_seed(self.seed, "queries", j))
        seconds, cpu, counts, exits_ok, outcome = self.run_session(
            queries,
            self.SESSION_SEEDS[j % self.cycle],
            backend="bs",
            transport="tcp",
            bs_params=self.bs_params,
        )
        f = self.cfg.field
        expected = [(x, polymat.horner_eval(f, self.coeffs, x)) for x in queries]
        ok = exits_ok and outcome.recovered == expected
        return OpResult(seconds, cpu, counts, ok, outcome.recovered)


WORKLOADS = {w.name: w for w in (EvalD1m, CommitS63, SessionBsTcp)}
