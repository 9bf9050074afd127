"""Two-party session driver: role state machines over a frame transport.

One session walks NEGOTIATE (the config digest) -> SET_AGREE -> the
commitment -> COMMIT_DONE -> an evaluation loop of EVAL_REQ / EVAL_RESP /
VERDICT -> orderly ABORT(0).  The prover runs
:func:`~polycommit.protocol.commit_send` and the verifier
:func:`~polycommit.protocol.commit_receive`; the config fixes their
schedule (c left runs, then c right runs), so no frame marks a run.  Any
frame out of order aborts with a protocol-violation code.  The prover
refuses queries above the agreed bound without ending the session.

OT backends supply the 1-of-2 steps of the commitment halves one batch per
S2PC: ``send(chan, m0s, m1s, rng)`` carries the |S|-1 message pairs of the
sender's reduction table and ``receive(chan, bits, rng)`` returns one pick
per bit.  "ideal" shares a trusted in-process box between co-hosted roles
(one queue item per S2PC, so the sender may run ahead of the receiver and
no OT frame touches the wire); "bs" runs the batch on the wire as
L = |S|-1 lanes, one transfer per lane, so a bounded-storage run works
across real sockets:

- broadcasts, lane after lane: TAPE_CHUNK frames, OMEGA_REVEAL, and an
  IH_ROUND status byte (1 asks for a fresh broadcast, 0 accepts it);
- t-1 rounds, each one IH_ROUND constraint frame holding L constraints of
  ceil(t/8) little-endian bytes, each below 2^t, answered by one IH_ROUND
  reply frame of L bits;
- one IH_ROUND swap frame of L bits, then one ENCODED_PAIR frame holding
  L (seed, ciphertext, seed, ciphertext) pairs.

Each lane's tape, positions, constraints, replies, swap, seeds and
ciphertexts are those of the same transfer run alone.  Honest storage is
n bits per lane, L*n bits per party during a batch.  These wire roles are
the only end-to-end bounded-storage transfer.  Each frame a role receives,
ABORT included, is parsed to its last byte by :func:`~polycommit.wire.parse`;
the role checks what needs its context: S2PC picks of s elements, lane
counts, constraint widths, tape chunks in order, and k IH rounds.  Any
failure, or MAX_BROADCASTS declined broadcasts, ends the session with exit
4 and an ABORT frame; the receiver checks every constraint before he replies.

Exit codes: 0 ok, 2 config, 3 transport, 4 protocol violation,
5 verification reject.
"""

from __future__ import annotations

import logging
import queue
import random
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import encode_elements  # noqa: F401  perfbench's tracer test reads this binding
from .ot import (
    MAX_BROADCASTS,
    TAPE_CHUNK_BITS,
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
    hashing_bits,
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
    commit_receive,
    commit_send,
    evaluate,
    keygen_prover,
    keygen_verifier,
    recover,
    verify,
)
from .seeds import substream
from .wire import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_REJECT,
    EXIT_TRANSPORT,
    IH_CONSTRAINT,
    IH_REPLY,
    IH_STATUS,
    IH_SWAP,
    DecodeError,
    Tag,
    TranscriptRecorder,
    TransportError,
    Writer,
    config_digest,
    duplex_pair,
    parse,
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


class SessionAbort(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _expect(chan, field, *tags, subtype=None) -> tuple[int, object]:
    """The next frame, one of ``tags`` (an IH_ROUND of ``subtype``), as (tag,
    value of :func:`~polycommit.wire.parse`); a peer ABORT ends the role."""
    tag, payload = chan.recv()
    if tag not in tags and tag != Tag.ABORT:
        raise SessionAbort(
            EXIT_PROTOCOL, f"out-of-order frame {Tag(tag).name}, wanted "
            f"{'/'.join(Tag(t).name for t in tags)}"
        )
    value = parse(tag, payload, field)
    if tag not in tags:
        code, message = value
        raise SessionAbort(code or EXIT_PROTOCOL, message)
    if subtype is not None:
        got, value = value
        if got != subtype:
            raise SessionAbort(EXIT_PROTOCOL, f"IH_ROUND subtype {got}, wanted {subtype}")
    return tag, value


def _ended_by(chan, exc: Exception) -> int:
    """The exit code ``exc`` ends a role with; unless the transport failed,
    the peer gets it in an ABORT frame."""
    if isinstance(exc, TransportError):
        return EXIT_TRANSPORT
    code = exc.code if isinstance(exc, SessionAbort) else EXIT_PROTOCOL
    try:
        chan.send(Tag.ABORT, Writer().u8(code).blob(str(exc).encode()).bytes())
    except OSError:
        pass
    return code


# ---------------------------------------------------------------------------
# Wire-level bounded-storage 1-of-2
# ---------------------------------------------------------------------------


def _read_constraints(chan, lanes: int, t: int) -> list[int]:
    """An IH constraint frame: exactly one ceil(t/8)-byte little-endian
    constraint per lane, each below 2^t.  A wider constraint would leave the
    receiver's own encoding out of the solution pair and let the swap bit
    give away his choice."""
    data = _expect(chan, None, Tag.IH_ROUND, subtype=IH_CONSTRAINT)[1]
    width = (t + 7) // 8
    if len(data) != lanes * width:
        raise DecodeError(f"expected {lanes} constraints of {width} bytes, got {len(data)} bytes")
    hs = [int.from_bytes(data[j : j + width], "little") for j in range(0, len(data), width)]
    if any(h >> t for h in hs):
        raise OtError(f"an IH constraint is wider than t = {t} bits")
    return hs


def _broadcast_send(chan, params: BsOtParams, rng: random.Random):
    """Broadcast tapes until the receiver accepts one; its stored sample."""
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
        chan.send(Tag.OMEGA_REVEAL, Writer().u32s(sample.indices).bytes())
        if not _expect(chan, None, Tag.IH_ROUND, subtype=IH_STATUS)[1]:
            return sample
    raise OtError(f"receiver declined {MAX_BROADCASTS} broadcasts in a row")


def _broadcast_receive(chan, params: BsOtParams, t: int, rng: random.Random):
    """Store broadcasts until one yields an encodable shared subset;
    returns the sender's positions, the stored sample and the encoding."""
    for _ in range(MAX_BROADCASTS):
        sampler = TapeSampler(params, rng)
        offset = 0
        while offset < params.K:
            got, chunk = _expect(chan, None, Tag.TAPE_CHUNK)[1]
            if got != offset or len(chunk) != min(TAPE_CHUNK_BITS, params.K - offset):
                raise OtError(f"TAPE_CHUNK of {len(chunk)} bits at {got}, wanted one at {offset}")
            sampler.consume(offset, chunk)
            offset += len(chunk)
        sample = sampler.finish()
        omega_a = _expect(chan, None, Tag.OMEGA_REVEAL)[1]
        if len(omega_a) != params.n or np.any(np.diff(omega_a) <= 0) or omega_a[-1] >= params.K:
            raise OtError(f"OMEGA_REVEAL must be {params.n} distinct sorted positions on the tape")
        shared = np.nonzero(np.isin(omega_a, sample.indices))[0]
        w = None
        if len(shared) >= params.ell:
            w = pick_encoding(shared, params.subset_size, t, rng)
        chan.send(Tag.IH_ROUND, Writer().u8(IH_STATUS).u8(w is None).bytes())
        if w is not None:
            return omega_a, sample, w
    raise OtError(f"no usable broadcast in {MAX_BROADCASTS} attempts")


def ot2_wire_send(chan, params: BsOtParams, m0s, m1s, rng: random.Random) -> None:
    """Sender side of one batch of bounded-storage transfers, one lane per
    transfer.  Each lane's broadcasts come first, lane after lane; right
    after a lane's accepted broadcast she draws its t-1 constraints and its
    two extractor seeds, so each lane draws what the same transfer run
    alone would.  Then each IH round is one constraint frame for every
    lane, answered by one reply frame; one swap frame and one ENCODED_PAIR
    frame close the batch."""
    t = hashing_bits(params.n, params.subset_size, params.k)
    lanes = []
    for _ in m0s:
        sample = _broadcast_send(chan, params, rng)
        ih = IhSender(t, rng)
        while ih.need_more():
            ih.next_constraint()
        lanes.append((sample, ih, (rng.getrandbits(64), rng.getrandbits(64))))
    width = (t + 7) // 8
    for j in range(t - 1):
        hb = b"".join(ih.constraints[j].to_bytes(width, "little") for _, ih, _ in lanes)
        chan.send(Tag.IH_ROUND, Writer().u8(IH_CONSTRAINT).blob(hb).bytes())
        replies = _expect(chan, None, Tag.IH_ROUND, subtype=IH_REPLY)[1]
        if len(replies) != len(lanes):
            raise DecodeError(f"expected {len(lanes)} replies, got {len(replies)}")
        for (_, ih, _), bit in zip(lanes, replies):
            ih.push_reply(bit)
    swaps = _expect(chan, None, Tag.IH_ROUND, subtype=IH_SWAP)[1]
    if len(swaps) != len(lanes):
        raise DecodeError(f"expected {len(lanes)} swap bits, got {len(swaps)}")
    w = Writer()
    for (sample, ih, seeds), swap, m0, m1 in zip(lanes, swaps, m0s, m1s):
        w0, w1 = ih.solutions()
        x0, x1 = ih_sets(sample.indices, w0, w1, swap, params.subset_size)
        enc = encode_pair(m0, m1, x0, x1, sample, seeds)
        w.u64(enc.seeds[0]).blob(enc.ciphertexts[0]).u64(enc.seeds[1]).blob(enc.ciphertexts[1])
    chan.send(Tag.ENCODED_PAIR, w.bytes())


def ot2_wire_receive(chan, params: BsOtParams, bits, rng: random.Random) -> list[bytes]:
    """Receiver side of one batch of bounded-storage transfers: pick
    bits[j] of lane j.  Each constraint is checked as it arrives and every
    lane is solved before the swap frame goes out, so a malformed
    constraint ends the batch before the choice bits touch the wire."""
    ell_x = params.subset_size
    t = hashing_bits(params.n, ell_x, params.k)
    lanes = [_broadcast_receive(chan, params, t, rng) for _ in bits]
    rounds = [[] for _ in lanes]
    for _ in range(t - 1):
        replies = bytearray()
        for lane_rounds, h, (_, _, w) in zip(rounds, _read_constraints(chan, len(lanes), t), lanes):
            reply = (h & w).bit_count() & 1
            lane_rounds.append((h, reply))
            replies.append(reply)
        chan.send(Tag.IH_ROUND, Writer().u8(IH_REPLY).blob(bytes(replies)).bytes())
    sols = [_solve_pair(lane_rounds, t) for lane_rounds in rounds]
    swaps = bytes((w != w0) ^ b for (w0, _), (_, _, w), b in zip(sols, lanes, bits))
    chan.send(Tag.IH_ROUND, Writer().u8(IH_SWAP).blob(swaps).bytes())
    pairs = _expect(chan, None, Tag.ENCODED_PAIR)[1]
    if len(pairs) != len(lanes):
        raise DecodeError(f"expected {len(lanes)} encoded pairs, got {len(pairs)}")
    picks = []
    for (omega_a, sample, _), (w0, w1), swap, (p0, p1), b in zip(lanes, sols, swaps, pairs, bits):
        x0, x1 = ih_sets(omega_a, w0, w1, swap, ell_x)
        enc = EncodedPair(seeds=(p0[0], p1[0]), ciphertexts=(p0[1], p1[1]))
        picks.append(decode_pair(enc, SetPair(x0=x0, x1=x1, choice=b), sample))
    return picks


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@dataclass
class IdealBackend:
    """Shared trusted box; usable only when both roles live in one process."""

    box: IdealOt = dc_field(default_factory=IdealOt)
    name: str = "ideal"

    def send(self, chan, m0s, m1s, rng):
        self.box.send(m0s, m1s)

    def receive(self, chan, bits, rng):
        try:
            return self.box.receive(bits)
        except queue.Empty as exc:  # the sender never deposited this batch
            raise TransportError("the ideal OT box stayed empty") from exc


@dataclass
class BsBackend:
    """Each batch runs the bounded-storage protocol on the wire, one lane
    per transfer."""

    params: BsOtParams = dc_field(default_factory=make_bs_params)
    name: str = "bs"

    def send(self, chan, m0s, m1s, rng):
        ot2_wire_send(chan, self.params, m0s, m1s, rng)

    def receive(self, chan, bits, rng):
        return ot2_wire_receive(chan, self.params, bits, rng)


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
        cfg = self.cfg
        f = cfg.field
        try:
            if _expect(chan, f, Tag.NEGOTIATE)[1] != config_digest(cfg):
                raise SessionAbort(EXIT_CONFIG, "configuration digest mismatch")
            chan.send(Tag.SET_AGREE, Writer().blob(set_digest(cfg)).bytes())
            commit_send(
                cfg,
                self.matrix,
                self.prover_key,
                lambda m0s, m1s: self.backend.send(chan, m0s, m1s, self.rng),
                self.rng,
            )
            _expect(chan, f, Tag.COMMIT_DONE)

            while True:
                # a VERDICT is parsed and needs no reply
                tag, value = _expect(chan, f, Tag.EVAL_REQ, Tag.VERDICT, Tag.ABORT)
                if tag == Tag.EVAL_REQ:
                    x = value
                    if x in self._seen_queries:
                        log.warning("duplicate query point %d", x)
                    self._seen_queries.add(x)
                    try:
                        resp = evaluate(x, self.matrix, self.prover_key, cfg)
                    except RefusalError:
                        chan.send(Tag.EVAL_RESP, Writer().u8(1).bytes())
                        continue
                    w = Writer().u8(0)
                    w.vector(f, resp.v).vector(f, resp.u)
                    chan.send(Tag.EVAL_RESP, w.bytes())
                elif tag == Tag.ABORT:
                    return value[0]  # the verifier's closing code
        except (SessionAbort, DecodeError, OtError, TransportError) as exc:
            return _ended_by(chan, exc)


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
        cfg = self.cfg
        f = cfg.field
        try:
            chan.send(Tag.NEGOTIATE, Writer().blob(config_digest(cfg)).bytes())
            if _expect(chan, f, Tag.SET_AGREE)[1] != set_digest(cfg):
                raise SessionAbort(EXIT_CONFIG, "reserved-set digest mismatch")
            vk = commit_receive(
                cfg,
                self.key,
                lambda bits: self.backend.receive(chan, bits, self.rng),
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
                resp = _expect(chan, f, Tag.EVAL_RESP)[1]
                if resp is None:
                    self.outcome.refused.append(x)
                    continue
                resp = EvalResponse(*resp)
                if verify(x, resp, vk, self.key, cfg):
                    value = recover(x, resp, cfg)
                    self.outcome.recovered.append((x, value))
                    chan.send(Tag.VERDICT, Writer().u8(1).elem(f, value).bytes())
                else:
                    self.outcome.rejected.append(x)
                    chan.send(Tag.VERDICT, Writer().u8(0).bytes())
            chan.send(Tag.ABORT, Writer().u8(0).blob(b"end of session").bytes())
            return self.outcome.exit_code()
        except (SessionAbort, DecodeError, OtError, TransportError) as exc:
            return _ended_by(chan, exc)


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
):
    """Run a single role over TCP.  The prover listens, the verifier
    connects.  The ideal backend cannot span processes, so standalone roles
    default to the bounded-storage backend.  The arguments are checked
    before any socket opens.  Returns (exit_code, TranscriptRecorder,
    outcome-or-None)."""
    import socket as socket_mod

    if backend == "ideal":
        raise ValueError(
            "the ideal backend is an in-process trusted box; standalone "
            "roles must use the bounded-storage backend"
        )
    shared = make_backend(backend, bs_params)
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
            with socket_mod.create_server(address, backlog=1) as listener:
                sock, _ = listener.accept()
        else:
            sock = socket_mod.create_connection(address, timeout=30)
    except OSError as exc:
        raise TransportError(str(exc)) from exc
    chan = TranscriptRecorder(SocketChannel(sock))
    code = session.run(chan)
    chan.close()
    return code, chan, session.outcome if role == "verifier" else None


def honest_coefficients(cfg: ProtocolConfig, seed: int) -> np.ndarray:
    rng = substream(seed, "poly")
    return cfg.field.asarray([cfg.field.sample(rng) for _ in range(cfg.d)])


def default_queries(cfg: ProtocolConfig, m: int, seed: int) -> list[int]:
    rng = substream(seed, "queries")
    pool = list(range(cfg.xi + 1))
    if m <= len(pool):
        return rng.sample(pool, m)
    return [rng.randrange(cfg.xi + 1) for _ in range(m)]
