"""Two-party session driver: role state machines over a frame transport.

One session walks NEGOTIATE -> 2c secure-computation sub-sessions ->
COMMIT_DONE -> an evaluation loop of EVAL_REQ / EVAL_RESP / VERDICT ->
orderly ABORT(0).  Any out-of-order frame aborts with a protocol-violation
code.  The prover refuses queries above the agreed bound without ending
the session.

OT backends supply the 1-of-2 steps of the S2PC halves as ``send(chan,
m0, m1, rng)`` / ``receive(chan, b, rng)``.  "ideal" shares a trusted
in-process box between co-hosted roles (only S2PC_BEGIN markers touch the
wire); "bs" realizes every transfer on the wire with TAPE_CHUNK /
OMEGA_REVEAL / IH_ROUND / ENCODED_PAIR frames, so a bounded-storage run
works across real sockets.  Its wire roles below are the only end-to-end
bounded-storage transfer.  A malformed frame or element (an S2PC output
must be s elements), or MAX_BROADCASTS declined broadcasts, ends the
session with exit 4 and an ABORT frame.

Exit codes: 0 ok, 2 config, 3 transport, 4 protocol violation,
5 verification reject.
"""

from __future__ import annotations

import logging
import random
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import encode_elements  # noqa: F401  perfbench's tracer test reads this binding
from .ot import (
    MAX_BROADCASTS,
    BsOtParams,
    EncodedPair,
    IdealOt,
    IhSender,
    OtError,
    SetPair,
    TapeSampler,
    _solve_pair,
    decode_pair,
    encode_pair,
    ih_encoding_bits,
    ih_sets,
    iter_tape_chunks,
    make_bs_params,
    pick_encoding,
)
from .polymat import poly_to_matrix
from .protocol import (
    EvalResponse,
    ProtocolConfig,
    RefusalError,
    VerificationKey,
    commitment_specs,
    evaluate,
    keygen_prover,
    keygen_verifier,
    recover,
    verify,
)
from .s2pc import s2pc_receive, s2pc_send
from .seeds import substream
from .wire import (
    DecodeError,
    Reader,
    Tag,
    TranscriptRecorder,
    TransportError,
    Writer,
    config_digest,
    duplex_pair,
    set_digest,
    SocketChannel,
)

__all__ = [
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_TRANSPORT",
    "EXIT_PROTOCOL",
    "EXIT_REJECT",
    "SessionAbort",
    "ProverSession",
    "VerifierSession",
    "VerifierOutcome",
    "RoleResult",
    "run_pair",
    "run_role",
    "TamperingChannel",
]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_PROTOCOL = 4
EXIT_REJECT = 5

# IH_ROUND subtypes
_IH_STATUS = 0
_IH_CONSTRAINT = 1
_IH_REPLY = 2
_IH_SWAP = 3

_KIND_LEFT = 1
_KIND_RIGHT = 2


class SessionAbort(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _expect(chan, *tags) -> tuple[int, bytes]:
    tag, payload = chan.recv()
    if tag == Tag.ABORT and Tag.ABORT not in tags:
        r = Reader(payload)
        code = r.u8()
        raise SessionAbort(code or EXIT_PROTOCOL, r.blob().decode())
    if tag not in tags:
        raise SessionAbort(
            EXIT_PROTOCOL, f"out-of-order frame {Tag(tag).name}, wanted "
            f"{'/'.join(Tag(t).name for t in tags)}"
        )
    return tag, payload


def _send_abort(chan, code: int, message: str) -> None:
    try:
        chan.send(Tag.ABORT, Writer().u8(code).blob(message.encode()).bytes())
    except (TransportError, OSError):
        pass


# ---------------------------------------------------------------------------
# Wire-level bounded-storage 1-of-2
# ---------------------------------------------------------------------------


def _expect_ih(chan, subtype: int) -> Reader:
    _, payload = _expect(chan, Tag.IH_ROUND)
    r = Reader(payload)
    if r.u8() != subtype:
        raise SessionAbort(EXIT_PROTOCOL, f"expected an IH frame of subtype {subtype}")
    return r


def _read_bit(r: Reader) -> int:
    v = r.u8()
    if v > 1:
        raise OtError(f"expected a bit, got {v}")
    return v


def _read_reveal(payload: bytes, params: BsOtParams) -> np.ndarray:
    """The sender's stored positions: exactly n distinct sorted positions
    on the tape."""
    r = Reader(payload)
    count = r.u32()
    if count != params.n:
        raise OtError(f"OMEGA_REVEAL holds {count} positions, expected {params.n}")
    omega = np.array([r.u32() for _ in range(count)])
    r.done()
    if np.any(np.diff(omega) <= 0) or omega[-1] >= params.K:
        raise OtError("OMEGA_REVEAL positions must be distinct, sorted and on the tape")
    return omega


def ot2_wire_send(chan, params: BsOtParams, m0: bytes, m1: bytes, rng: random.Random) -> None:
    """Sender side of one bounded-storage transfer over the channel."""
    for _ in range(MAX_BROADCASTS):
        sampler = TapeSampler(params, rng)
        for offset, chunk in iter_tape_chunks(params, rng):
            sampler.consume(offset, chunk)
            payload = (
                Writer()
                .u64(offset)
                .u32(len(chunk))
                .blob(np.packbits(chunk).tobytes())
                .bytes()
            )
            chan.send(Tag.TAPE_CHUNK, payload)
        sample = sampler.finish()
        w = Writer().u32(len(sample.indices))
        for idx in sample.indices:
            w.u32(int(idx))
        chan.send(Tag.OMEGA_REVEAL, w.bytes())
        if _read_bit(_expect_ih(chan, _IH_STATUS)):  # receiver asks for a fresh broadcast
            continue
        t = ih_encoding_bits(params.n, params.subset_size)
        sender = IhSender(t, rng)
        while sender.need_more():
            h = sender.next_constraint()
            hb = h.to_bytes((t + 7) // 8, "little")
            chan.send(Tag.IH_ROUND, Writer().u8(_IH_CONSTRAINT).blob(hb).bytes())
            sender.push_reply(_read_bit(_expect_ih(chan, _IH_REPLY)))
        swap = _read_bit(_expect_ih(chan, _IH_SWAP))
        w0, w1 = sender.solutions()
        x0, x1 = ih_sets(sample.indices, w0, w1, swap, params.subset_size)
        enc = encode_pair(m0, m1, x0, x1, sample, rng)
        payload = (
            Writer()
            .u64(enc.seeds[0])
            .blob(enc.ciphertexts[0])
            .u64(enc.seeds[1])
            .blob(enc.ciphertexts[1])
            .bytes()
        )
        chan.send(Tag.ENCODED_PAIR, payload)
        return
    raise OtError(f"receiver declined {MAX_BROADCASTS} broadcasts in a row")


def ot2_wire_receive(chan, params: BsOtParams, b: int, rng: random.Random) -> bytes:
    """Receiver side of one bounded-storage transfer over the channel."""
    for _ in range(MAX_BROADCASTS):
        sampler = TapeSampler(params, rng)
        omega_a = None
        while omega_a is None:
            tag, payload = _expect(chan, Tag.TAPE_CHUNK, Tag.OMEGA_REVEAL)
            if tag == Tag.TAPE_CHUNK:
                r = Reader(payload)
                offset, nbits = r.u64(), r.u32()
                packed = np.frombuffer(r.blob(), dtype=np.uint8)
                sampler.consume(offset, np.unpackbits(packed)[:nbits])
            else:
                omega_a = _read_reveal(payload, params)
        sample = sampler.finish()
        shared = np.nonzero(np.isin(omega_a, sample.indices))[0]
        ell_x = params.subset_size
        t = ih_encoding_bits(params.n, ell_x)
        w = pick_encoding(shared, ell_x, t, rng) if len(shared) >= params.ell else None
        if w is None:
            chan.send(Tag.IH_ROUND, Writer().u8(_IH_STATUS).u8(1).bytes())
            continue
        chan.send(Tag.IH_ROUND, Writer().u8(_IH_STATUS).u8(0).bytes())
        rounds = []
        for _ in range(t - 1):
            h = int.from_bytes(_expect_ih(chan, _IH_CONSTRAINT).blob(), "little")
            reply = (h & w).bit_count() & 1
            rounds.append((h, reply))
            chan.send(Tag.IH_ROUND, Writer().u8(_IH_REPLY).u8(reply).bytes())
        w0, w1 = _solve_pair(rounds, t)
        swap = (0 if w == w0 else 1) ^ b
        chan.send(Tag.IH_ROUND, Writer().u8(_IH_SWAP).u8(swap).bytes())
        _, payload = _expect(chan, Tag.ENCODED_PAIR)
        r = Reader(payload)
        seed0 = r.u64()
        ct0 = r.blob()
        seed1 = r.u64()
        ct1 = r.blob()
        enc = EncodedPair(seeds=(seed0, seed1), ciphertexts=(ct0, ct1))
        x0, x1 = ih_sets(omega_a, w0, w1, swap, ell_x)
        return decode_pair(enc, SetPair(x0=x0, x1=x1, choice=b), sample)
    raise OtError(f"no usable broadcast in {MAX_BROADCASTS} attempts")


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@dataclass
class IdealBackend:
    """Shared trusted box; usable only when both roles live in one process."""

    box: IdealOt = dc_field(default_factory=IdealOt)
    name: str = "ideal"

    def send(self, chan, m0, m1, rng):
        self.box.send_pair(m0, m1)

    def receive(self, chan, b, rng):
        return self.box.receive(b)


@dataclass
class BsBackend:
    """Every transfer runs the bounded-storage protocol on the wire."""

    params: BsOtParams = dc_field(default_factory=make_bs_params)
    name: str = "bs"

    def send(self, chan, m0, m1, rng):
        ot2_wire_send(chan, self.params, m0, m1, rng)

    def receive(self, chan, b, rng):
        return ot2_wire_receive(chan, self.params, b, rng)


def make_backend(name: str, bs_params: BsOtParams | None = None):
    if name == "ideal":
        return IdealBackend()
    if name == "bs":
        return BsBackend(params=bs_params or make_bs_params())
    raise ValueError(f"unknown backend {name!r}")


# ---------------------------------------------------------------------------
# Role sessions
# ---------------------------------------------------------------------------


@dataclass
class ProverStats:
    rounds: int = 0
    refusals: int = 0
    duplicate_queries: int = 0
    verdicts: list[bool] = dc_field(default_factory=list)


class ProverSession:
    """Serves one verifier: commitment sub-sessions, then evaluations."""

    def __init__(
        self,
        cfg: ProtocolConfig,
        coeffs,
        backend,
        seed: int,
    ):
        self.cfg = cfg
        self.matrix = poly_to_matrix(cfg.field, coeffs, cfg.s)
        self.backend = backend
        self.rng = substream(seed, "prover")
        self.prover_key = keygen_prover(cfg, self.rng)
        self._specs = commitment_specs(cfg)
        self.stats = ProverStats()
        self._seen_queries: set[int] = set()

    def _serve_s2pc(self, chan, kind: int) -> None:
        if kind not in (_KIND_LEFT, _KIND_RIGHT):
            raise SessionAbort(EXIT_PROTOCOL, f"unknown S2PC kind {kind}")
        f = self.cfg.field
        spec = self._specs[kind - _KIND_LEFT]
        secret = self.prover_key.mask
        if kind == _KIND_LEFT:
            secret = f.vadd(self.matrix, secret)
        s2pc_send(
            f,
            spec,
            secret,
            lambda m0, m1: self.backend.send(chan, m0, m1, self.rng),
            self.rng,
        )

    def run(self, chan) -> int:
        cfg = self.cfg
        f = cfg.field
        try:
            _, payload = _expect(chan, Tag.NEGOTIATE)
            r = Reader(payload)
            digest = r.blob()
            xi = r.elem(f)
            if digest != config_digest(cfg) or xi != cfg.xi:
                _send_abort(chan, EXIT_CONFIG, "configuration digest mismatch")
                return EXIT_CONFIG
            chan.send(Tag.SET_AGREE, Writer().blob(set_digest(cfg)).bytes())

            committed = False
            sessions = 0
            while True:
                tag, payload = chan.recv()
                if tag == Tag.S2PC_BEGIN:
                    if committed:
                        raise SessionAbort(
                            EXIT_PROTOCOL, "S2PC_BEGIN after COMMIT_DONE"
                        )
                    r = Reader(payload)
                    kind, _index = r.u8(), r.u32()
                    self._serve_s2pc(chan, kind)
                    sessions += 1
                elif tag == Tag.COMMIT_DONE:
                    if sessions != 2 * cfg.c:
                        raise SessionAbort(
                            EXIT_PROTOCOL,
                            f"commitment closed after {sessions} of {2 * cfg.c} runs",
                        )
                    committed = True
                elif tag == Tag.EVAL_REQ:
                    if not committed:
                        raise SessionAbort(EXIT_PROTOCOL, "evaluation before commitment")
                    r = Reader(payload)
                    x = r.elem(f)
                    if x in self._seen_queries:
                        self.stats.duplicate_queries += 1
                        log.warning("duplicate query point %d", x)
                    self._seen_queries.add(x)
                    try:
                        resp = evaluate(x, self.matrix, self.prover_key, cfg)
                    except RefusalError:
                        self.stats.refusals += 1
                        chan.send(Tag.EVAL_RESP, Writer().u8(1).bytes())
                        continue
                    self.stats.rounds += 1
                    w = Writer().u8(0)
                    w.vector(f, resp.v).vector(f, resp.u)
                    chan.send(Tag.EVAL_RESP, w.bytes())
                elif tag == Tag.VERDICT:
                    r = Reader(payload)
                    self.stats.verdicts.append(bool(r.u8()))
                elif tag == Tag.ABORT:
                    r = Reader(payload)
                    code = r.u8()
                    return EXIT_OK if code == 0 else code
                else:
                    raise SessionAbort(
                        EXIT_PROTOCOL, f"unexpected frame {Tag(tag).name}"
                    )
        except SessionAbort as abort:
            _send_abort(chan, abort.code, str(abort))
            return abort.code
        except (DecodeError, OtError) as exc:
            _send_abort(chan, EXIT_PROTOCOL, str(exc))
            return EXIT_PROTOCOL
        except TransportError:
            return EXIT_TRANSPORT


@dataclass
class VerifierOutcome:
    verification_key: VerificationKey | None = None
    recovered: list[tuple[int, int]] = dc_field(default_factory=list)
    rejected: list[int] = dc_field(default_factory=list)
    refused: list[int] = dc_field(default_factory=list)

    def exit_code(self) -> int:
        return EXIT_REJECT if self.rejected else EXIT_OK


class VerifierSession:
    """Drives the commitment, then queries, verifies, and recovers."""

    def __init__(self, cfg: ProtocolConfig, queries, backend, seed: int):
        self.cfg = cfg
        self.queries = list(queries)
        self.backend = backend
        self.rng = substream(seed, "verifier")
        self.key = keygen_verifier(cfg, self.rng)
        self._specs = commitment_specs(cfg)
        self.outcome = VerifierOutcome()

    def _request_s2pc(self, chan, kind: int, index: int, point: int) -> np.ndarray:
        chan.send(Tag.S2PC_BEGIN, Writer().u8(kind).u32(index).bytes())
        return s2pc_receive(
            self.cfg.field,
            self._specs[kind - _KIND_LEFT],
            point,
            lambda b: self.backend.receive(chan, b, self.rng),
            self.cfg.s,
        )

    def run(self, chan) -> int:
        cfg = self.cfg
        f = cfg.field
        try:
            w = Writer().blob(config_digest(cfg))
            w.elem(f, cfg.xi)
            chan.send(Tag.NEGOTIATE, w.bytes())
            _, payload = _expect(chan, Tag.SET_AGREE)
            if Reader(payload).blob() != set_digest(cfg):
                raise SessionAbort(EXIT_CONFIG, "reserved-set digest mismatch")

            gamma_rows = [
                self._request_s2pc(chan, _KIND_LEFT, i, lam)
                for i, lam in enumerate(self.key.lambdas)
            ]
            omega_cols = [
                self._request_s2pc(chan, _KIND_RIGHT, i, th)
                for i, th in enumerate(self.key.thetas)
            ]
            vk = VerificationKey(
                gamma=np.stack(gamma_rows), omega=np.stack(omega_cols, axis=1)
            )
            self.outcome.verification_key = vk
            chan.send(Tag.COMMIT_DONE, b"")

            budget = cfg.query_budget
            if budget is not None and len(self.queries) > budget:
                log.warning(
                    "query count %d exceeds the privacy budget %d; "
                    "entropy floor d-(m+c)^2 keeps degrading",
                    len(self.queries),
                    budget,
                )
            for x in self.queries:
                chan.send(Tag.EVAL_REQ, Writer().elem(f, x).bytes())
                _, payload = _expect(chan, Tag.EVAL_RESP)
                r = Reader(payload)
                if r.u8() == 1:
                    self.outcome.refused.append(x)
                    continue
                resp = EvalResponse(v=r.vector(f), u=r.vector(f))
                if verify(x, resp, vk, self.key, cfg):
                    value = recover(x, resp, cfg)
                    self.outcome.recovered.append((x, value))
                    chan.send(Tag.VERDICT, Writer().u8(1).elem(f, value).bytes())
                else:
                    self.outcome.rejected.append(x)
                    chan.send(Tag.VERDICT, Writer().u8(0).bytes())
            chan.send(Tag.ABORT, Writer().u8(0).blob(b"end of session").bytes())
            return self.outcome.exit_code()
        except SessionAbort as abort:
            _send_abort(chan, abort.code, str(abort))
            return abort.code
        except (DecodeError, OtError) as exc:
            _send_abort(chan, EXIT_PROTOCOL, str(exc))
            return EXIT_PROTOCOL
        except TransportError:
            return EXIT_TRANSPORT


# ---------------------------------------------------------------------------
# Harness: co-hosted roles over a chosen transport
# ---------------------------------------------------------------------------


class TamperingChannel:
    """Verifier-side fault injector: adds 1 to the first v-coordinate of
    the first successful evaluation response that passes through."""

    def __init__(self, inner, cfg: ProtocolConfig):
        self._inner = inner
        self._cfg = cfg
        self._armed = True

    def send(self, tag, payload):
        self._inner.send(tag, payload)

    def recv(self):
        tag, payload = self._inner.recv()
        if self._armed and tag == Tag.EVAL_RESP:
            f = self._cfg.field
            r = Reader(payload)
            if r.u8() == 0:
                v = r.vector(f)
                u = r.vector(f)
                v[0] = f.add(int(v[0]), 1)
                payload = Writer().u8(0).vector(f, v).vector(f, u).bytes()
                self._armed = False
        return tag, payload

    def close(self):
        self._inner.close()


@dataclass
class RoleResult:
    exit_code: int | None = None
    error: BaseException | None = None
    transcript: TranscriptRecorder | None = None


def _run_threaded(role_fns) -> list[RoleResult]:
    results = [RoleResult() for _ in role_fns]
    threads = []
    for i, fn in enumerate(role_fns):
        def runner(i=i, fn=fn):
            try:
                results[i].exit_code = fn()
            except BaseException as exc:  # surfaced to the caller
                results[i].error = exc
                results[i].exit_code = EXIT_TRANSPORT
        t = threading.Thread(target=runner, daemon=True)
        threads.append(t)
        t.start()
    for t in threads:
        t.join(timeout=600)
    return results


def _tcp_pair() -> tuple[SocketChannel, SocketChannel]:
    import socket as socket_mod

    listener = socket_mod.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    addr = listener.getsockname()
    client = socket_mod.socket()
    client.connect(addr)
    server_side, _ = listener.accept()
    listener.close()
    return SocketChannel(server_side), SocketChannel(client)


def run_pair(
    cfg: ProtocolConfig,
    coeffs,
    queries,
    seed: int,
    backend: str = "ideal",
    transport: str = "inproc",
    tamper: bool = False,
    bs_params: BsOtParams | None = None,
    verifier_seed: int | None = None,
):
    """Host both roles (prover on one thread, verifier on another) over the
    chosen transport.  Returns (prover RoleResult, verifier RoleResult,
    VerifierOutcome); transcripts are recorded per role.  ``verifier_seed``
    varies the verifier's key while the prover's randomness stays matched."""
    shared = make_backend(backend, bs_params)
    if transport == "inproc":
        chan_p, chan_v = duplex_pair()
    elif transport == "tcp":
        chan_p, chan_v = _tcp_pair()
    else:
        raise ValueError(f"unknown transport {transport!r}")
    rec_p = TranscriptRecorder(chan_p)
    base_v = TamperingChannel(chan_v, cfg) if tamper else chan_v
    rec_v = TranscriptRecorder(base_v)

    prover = ProverSession(cfg, coeffs, shared, seed)
    verifier = VerifierSession(
        cfg, queries, shared, seed if verifier_seed is None else verifier_seed
    )
    res_p, res_v = _run_threaded(
        [lambda: prover.run(rec_p), lambda: verifier.run(rec_v)]
    )
    rec_p.close()
    rec_v.close()
    res_p.transcript = rec_p
    res_v.transcript = rec_v
    for res in (res_p, res_v):
        if res.error is not None:
            raise res.error
    return res_p, res_v, verifier.outcome


def run_role(
    role: str,
    cfg: ProtocolConfig,
    seed: int,
    address: tuple[str, int],
    coeffs=None,
    queries=(),
    backend: str = "bs",
    bs_params: BsOtParams | None = None,
    listen: bool | None = None,
):
    """Run a single role over TCP.  The prover listens, the verifier
    connects (override with ``listen``).  The ideal backend cannot span
    processes, so standalone roles default to the bounded-storage backend.
    Returns (exit_code, TranscriptRecorder, outcome-or-None)."""
    import socket as socket_mod

    if backend == "ideal":
        raise ValueError(
            "the ideal backend is an in-process trusted box; standalone "
            "roles must use the bounded-storage backend"
        )
    shared = make_backend(backend, bs_params)
    should_listen = (role == "prover") if listen is None else listen
    try:
        if should_listen:
            listener = socket_mod.socket()
            listener.setsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_REUSEADDR, 1)
            listener.bind(address)
            listener.listen(1)
            sock, _ = listener.accept()
            listener.close()
        else:
            sock = socket_mod.create_connection(address, timeout=30)
    except OSError as exc:
        raise TransportError(str(exc)) from exc
    chan = TranscriptRecorder(SocketChannel(sock))
    if role == "prover":
        if coeffs is None:
            raise ValueError("the prover role needs polynomial coefficients")
        session = ProverSession(cfg, coeffs, shared, seed)
        code = session.run(chan)
        outcome = None
    elif role == "verifier":
        session = VerifierSession(cfg, queries, shared, seed)
        code = session.run(chan)
        outcome = session.outcome
    else:
        raise ValueError(f"unknown role {role!r}")
    chan.close()
    return code, chan, outcome


def honest_coefficients(cfg: ProtocolConfig, seed: int) -> np.ndarray:
    rng = substream(seed, "poly")
    return cfg.field.asarray([cfg.field.sample(rng) for _ in range(cfg.d)])


def default_queries(cfg: ProtocolConfig, m: int, seed: int) -> list[int]:
    rng = substream(seed, "queries")
    pool = list(range(cfg.xi + 1))
    if m <= len(pool):
        return rng.sample(pool, m)
    return [rng.randrange(cfg.xi + 1) for _ in range(m)]
