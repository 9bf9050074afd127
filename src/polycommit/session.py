"""Two-party session: the roles as sans-IO steps over a frame transport.

One session walks NEGOTIATE (the config digest) -> SET_AGREE -> the
commitment -> COMMIT_DONE -> an evaluation loop of EVAL_REQ / EVAL_RESP /
VERDICT -> orderly ABORT(0).  Each role is a sans-IO step (see
:mod:`polycommit.wire`), and its ``run(chan)`` drives that step through
one driver, which turns a failure into an exit code and, unless the
transport failed, an ABORT frame.  The config fixes the order of the 2c
S2PC runs, c left then c right, so no frame marks a run.  Any frame out
of order aborts with a protocol-violation code.  The prover refuses
queries above the agreed bound, and new points past the config's query
budget, without ending the session.

An OT backend's ``send(batches, rng)`` and ``receive(bits, rng)`` return
steps the roles run with ``yield from``: one batch per commitment, the
batches of :func:`~polycommit.protocol.commit_send` (each pulled (2, |S|-1,
w) array draws its masks) and the bits of
:func:`~polycommit.protocol.commit_choices`, whose picks come back as one
(L, w) array.  "ideal" shares a trusted in-process box between co-hosted
roles (the batch joined into one queue item, so the sender may run ahead
and no OT frame touches the wire); "bs" is the lane steps
:func:`~polycommit.ot.bs_send` and :func:`~polycommit.ot.bs_receive`, the
batch as L = 2c(|S|-1) lanes with one interactive-hashing run of t-1
rounds, so a bounded-storage run works across real sockets.  No frame
marks the batch, so a peer still on the older schedule of one batch per
S2PC ends in exit 4 where the two schedules part: after |S|-1 lanes'
broadcasts, one side sends its first IH constraint frame while the other
waits for the next lane's TAPE_CHUNK.

Each frame a role receives, ABORT included, is parsed to its last byte by
:func:`~polycommit.wire.expect`; the role checks what needs its context,
such as S2PC picks of s elements.  Exit codes: 0 ok, 2 config, 3
transport, 4 protocol violation, 5 verification reject.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import encode_elements  # noqa: F401  perfbench's tracer test reads this binding
from .ot import (
    BsOtParams,
    IdealOt,
    OtError,
    bs_receive,
    bs_send,
    make_bs_params,
)
from .polymat import poly_to_matrix
from .protocol import (
    EvalResponse,
    ProtocolConfig,
    RefusalError,
    VerificationKey,
    commit_choices,
    commit_receive,
    commit_send,
    config_digest,
    evaluate,
    keygen_prover,
    keygen_verifier,
    recover,
    set_digest,
    verify,
)
from .seeds import substream
from .wire import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_REJECT,
    EXIT_TRANSPORT,
    DecodeError,
    SessionAbort,
    Tag,
    TranscriptRecorder,
    TransportError,
    Writer,
    drive,
    duplex_pair,
    expect,
    parse,
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


def _run_role(chan, step) -> int:
    """Drive a role's ``step`` over ``chan``: the exit code it returns, or
    the one its failure ends it with; unless the transport failed, the peer
    gets that code in an ABORT frame."""
    try:
        return drive(chan, step)
    except TransportError:
        return EXIT_TRANSPORT
    except (SessionAbort, DecodeError, OtError) as exc:
        code = exc.code if isinstance(exc, SessionAbort) else EXIT_PROTOCOL
        try:
            chan.send(Tag.ABORT, Writer().u8(code).blob(str(exc).encode()).bytes())
        except OSError:
            pass
        return code


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@dataclass
class IdealBackend:
    """Shared trusted box for co-hosted roles; its steps trade no frame."""

    box: IdealOt = dc_field(default_factory=IdealOt)

    def send(self, batches, rng):
        yield from ()
        self.box.send(batches)

    def receive(self, bits, rng):
        yield from ()
        try:
            return self.box.receive(bits)
        except queue.Empty as exc:  # the sender never deposited this batch
            raise TransportError("the ideal OT box stayed empty") from exc


@dataclass
class BsBackend:
    """Each batch runs the bounded-storage protocol on the wire, one lane
    per transfer: the lane steps."""

    params: BsOtParams = dc_field(default_factory=make_bs_params)

    def send(self, batches, rng):
        return bs_send(self.params, batches, rng)

    def receive(self, bits, rng):
        return bs_receive(self.params, bits, rng)


def make_backend(name: str, bs_params: BsOtParams | None = None):
    if name == "ideal":
        return IdealBackend()
    if name == "bs":
        return BsBackend(params=bs_params or make_bs_params())
    raise ValueError(f"unknown backend {name!r}")


# ---------------------------------------------------------------------------
# Role sessions
# ---------------------------------------------------------------------------


class ProverSession:
    """Serves one verifier: the commitment's sender half, then evaluations."""

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
        self._seen_queries: set[int] = set()

    def run(self, chan) -> int:
        return _run_role(chan, self.step())

    def step(self):
        """The prover as a sans-IO step; returns the verifier's closing
        code."""
        cfg = self.cfg
        f = cfg.field
        if expect((yield), f, Tag.NEGOTIATE)[1] != config_digest(cfg):
            raise SessionAbort(EXIT_CONFIG, "configuration digest mismatch")
        yield Tag.SET_AGREE, Writer().blob(set_digest(cfg)).bytes()
        batches = commit_send(cfg, self.matrix, self.prover_key, self.rng)
        yield from self.backend.send(batches, self.rng)
        expect((yield), f, Tag.COMMIT_DONE)

        budget = cfg.query_budget
        while True:
            # a VERDICT is parsed and needs no reply
            tag, value = expect((yield), f, Tag.EVAL_REQ, Tag.VERDICT, Tag.ABORT)
            if tag == Tag.EVAL_REQ:
                x = value
                new = x not in self._seen_queries
                if not new:
                    log.warning("duplicate query point %d", x)
                try:
                    # a repeated point reveals nothing new and costs nothing
                    if new and budget is not None and len(self._seen_queries) >= budget:
                        raise RefusalError(f"query {x} is past the budget {budget}")
                    resp = evaluate(x, self.matrix, self.prover_key, cfg)
                except RefusalError:
                    yield Tag.EVAL_RESP, Writer().u8(1).bytes()
                    continue
                self._seen_queries.add(x)
                yield Tag.EVAL_RESP, Writer().u8(0).vector(f, resp.v).vector(f, resp.u).bytes()
            elif tag == Tag.ABORT:
                return value[0]  # the verifier's closing code


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
        self.outcome = VerifierOutcome()

    def run(self, chan) -> int:
        return _run_role(chan, self.step())

    def step(self):
        """The verifier as a sans-IO step; returns its exit code."""
        cfg = self.cfg
        f = cfg.field
        yield Tag.NEGOTIATE, Writer().blob(config_digest(cfg)).bytes()
        if expect((yield), f, Tag.SET_AGREE)[1] != set_digest(cfg):
            raise SessionAbort(EXIT_CONFIG, "reserved-set digest mismatch")
        positions, bits = commit_choices(cfg, self.key)
        picks = yield from self.backend.receive(bits, self.rng)
        vk = self.outcome.verification_key = commit_receive(cfg, positions, picks)
        yield Tag.COMMIT_DONE, b""

        budget = cfg.query_budget
        if budget is not None and len(self.queries) > budget:
            log.warning(
                "query count %d exceeds the privacy budget %d; "
                "the prover refuses new points past it",
                len(self.queries),
                budget,
            )
        for x in self.queries:
            yield Tag.EVAL_REQ, Writer().elem(f, x).bytes()
            resp = expect((yield), f, Tag.EVAL_RESP)[1]
            if resp is None:
                self.outcome.refused.append(x)
                continue
            resp = EvalResponse(*resp)
            if verify(x, resp, vk, self.key, cfg):
                value = recover(x, resp, cfg)
                self.outcome.recovered.append((x, value))
                yield Tag.VERDICT, Writer().u8(1).elem(f, value).bytes()
            else:
                self.outcome.rejected.append(x)
                yield Tag.VERDICT, Writer().u8(0).bytes()
        yield Tag.ABORT, Writer().u8(0).blob(b"end of session").bytes()
        return self.outcome.exit_code()


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
            resp = parse(tag, payload, f)
            if resp is not None:
                v, u = resp
                v[0] = f.add(int(v[0]), 1)
                payload = Writer().u8(0).vector(f, v).vector(f, u).bytes()
                self._armed = False
        return tag, payload

    def close(self):
        self._inner.close()


@dataclass
class RoleResult:
    session: ProverSession | VerifierSession
    transcript: TranscriptRecorder
    exit_code: int | None = None
    error: BaseException | None = None


def _tcp_pair() -> tuple[SocketChannel, SocketChannel]:
    try:
        with socket.create_server(("127.0.0.1", 0), backlog=1) as listener:
            client = socket.create_connection(listener.getsockname())
            server_side, _ = listener.accept()
        return SocketChannel(server_side), SocketChannel(client)
    except OSError as exc:
        raise TransportError(str(exc)) from exc


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
    """Host both roles over the chosen transport: the prover on a worker
    thread, the verifier on the caller's thread.  Returns (prover
    RoleResult, verifier RoleResult, VerifierOutcome) and re-raises the
    prover's exception.  ``verifier_seed`` varies the verifier's key while
    the prover's randomness stays matched."""
    shared = make_backend(backend, bs_params)
    prover = ProverSession(cfg, coeffs, shared, seed)
    verifier = VerifierSession(
        cfg, queries, shared, seed if verifier_seed is None else verifier_seed
    )
    if transport == "inproc":
        chan_p, chan_v = duplex_pair()
    elif transport == "tcp":
        chan_p, chan_v = _tcp_pair()
    else:
        raise ValueError(f"unknown transport {transport!r}")
    res_p = RoleResult(prover, TranscriptRecorder(chan_p))
    base_v = TamperingChannel(chan_v, cfg) if tamper else chan_v
    res_v = RoleResult(verifier, TranscriptRecorder(base_v))

    def serve():
        try:
            res_p.exit_code = prover.run(res_p.transcript)
        except BaseException as exc:  # re-raised on the caller's thread
            res_p.error = exc

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        res_v.exit_code = verifier.run(res_v.transcript)
    finally:
        # verifier's end first: a waiting prover's recv ends at once, not at its timeout
        res_v.transcript.close()
        thread.join(timeout=600)
        res_p.transcript.close()
    if res_p.error is not None:
        raise res_p.error
    return res_p, res_v, verifier.outcome


def run_role(
    role: str,
    cfg: ProtocolConfig,
    seed: int,
    address: tuple[str, int],
    coeffs=None,
    queries=(),
    bs_params: BsOtParams | None = None,
):
    """Run a single role over TCP.  The prover listens, the verifier
    connects.  The ideal backend cannot span processes, so standalone roles
    use the bounded-storage backend.  The arguments are checked before any
    socket opens.  Returns (exit_code, TranscriptRecorder,
    outcome-or-None)."""
    if not 0 <= address[1] < 1 << 16:
        raise ValueError(f"port {address[1]} is not in 0-65535")
    shared = BsBackend(params=bs_params or make_bs_params())
    if role == "prover":
        if coeffs is None:
            raise ValueError("the prover role needs polynomial coefficients")
        session = ProverSession(cfg, coeffs, shared, seed)
    elif role == "verifier":
        session = VerifierSession(cfg, queries, shared, seed)
    else:
        raise ValueError(f"unknown role {role!r}")
    try:
        if role == "prover":
            with socket.create_server(address, backlog=1) as listener:
                sock, _ = listener.accept()
        else:
            sock = socket.create_connection(address, timeout=30)
    except OSError as exc:
        raise TransportError(str(exc)) from exc
    chan = TranscriptRecorder(SocketChannel(sock))
    try:
        code = session.run(chan)
    finally:
        chan.close()
    return code, chan, session.outcome if role == "verifier" else None


def honest_coefficients(cfg: ProtocolConfig, seed: int) -> np.ndarray:
    rng = substream(seed, "poly")
    return cfg.field.vsample(rng, cfg.d)


def default_queries(cfg: ProtocolConfig, m: int, seed: int) -> list[int]:
    rng = substream(seed, "queries")
    pool = list(range(cfg.xi + 1))
    if m <= len(pool):
        return rng.sample(pool, m)
    return [rng.randrange(cfg.xi + 1) for _ in range(m)]
