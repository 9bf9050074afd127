"""Two-party session driver: end-to-end runs, refusals, faults, transcripts."""

import hashlib
import random
import socket
import threading
import time

import numpy as np
import pytest

from polycommit import PrimeField, ot, s2pc, wire
from polycommit.field import elem_size, encode_elements
from polycommit.ot import (
    MAX_BROADCASTS,
    IdealOt,
    TapeSampler,
    ih_encoding_bits,
    iter_tape_chunks,
    make_bs_params,
)
from polycommit.polymat import horner_eval
from polycommit.protocol import config_digest, make_config, set_digest
from polycommit.s2pc import LEFT, RIGHT
from polycommit.session import (
    BsBackend,
    IdealBackend,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_REJECT,
    EXIT_TRANSPORT,
    ProverSession,
    VerifierSession,
    _tcp_pair,
    default_queries,
    honest_coefficients,
    make_backend,
    run_pair,
    run_role,
)
from polycommit.wire import (
    IH_CONSTRAINT,
    IH_STATUS,
    IH_SWAP,
    TAPE_CHUNK_BITS,
    Tag,
    Writer,
    duplex_pair,
    parse,
)

GF11 = PrimeField(11)


def desk_config(c=3):
    return make_config(GF11, d=9, r=2, c=c, xi=6)


SMALL_BS = make_bs_params(N=4096, ell=16, k=8)
TWO_CHUNKS = make_bs_params(N=2**18, ell=8, k=8)  # K = TAPE_CHUNK_BITS + 1


def test_honest_session_recovers_all():
    cfg = desk_config()
    coeffs = honest_coefficients(cfg, 11)
    queries = default_queries(cfg, 5, 11)
    res_p, res_v, outcome = run_pair(cfg, coeffs, queries, seed=11)
    assert res_p.exit_code == EXIT_OK and res_v.exit_code == EXIT_OK
    assert len(outcome.recovered) == 5 and not outcome.rejected
    for x, value in outcome.recovered:
        assert value == horner_eval(GF11, coeffs, x)


def test_refusal_keeps_session_alive():
    cfg = desk_config()
    coeffs = honest_coefficients(cfg, 12)
    queries = [2, 8, 3]  # 8 is a reserved point
    res_p, res_v, outcome = run_pair(cfg, coeffs, queries, seed=12)
    assert res_p.exit_code == EXIT_OK and res_v.exit_code == EXIT_OK
    assert outcome.refused == [8]
    assert [x for x, _ in outcome.recovered] == [2, 3]


def test_tamper_injection_rejects():
    cfg = desk_config()
    coeffs = honest_coefficients(cfg, 13)
    res_p, res_v, outcome = run_pair(
        cfg, coeffs, default_queries(cfg, 3, 13), seed=13, tamper=True
    )
    assert res_v.exit_code == EXIT_REJECT
    assert len(outcome.rejected) == 1


def test_bounded_storage_backend_end_to_end():
    cfg = desk_config(c=1)
    coeffs = honest_coefficients(cfg, 14)
    res_p, res_v, outcome = run_pair(
        cfg, coeffs, [1, 2], seed=14, backend="bs", bs_params=SMALL_BS
    )
    assert res_p.exit_code == EXIT_OK and res_v.exit_code == EXIT_OK
    for x, value in outcome.recovered:
        assert value == horner_eval(GF11, coeffs, x)


def test_bounded_storage_wire_is_stable():
    # Golden digest of the prover's whole transcript (135 frames, 21,444
    # bytes, 7 broadcasts for 6 transfers in one batch of 6 lanes).  A
    # change to an RNG stream or to the wire format must update it on
    # purpose.
    cfg = desk_config(c=1)
    res_p, res_v, _ = run_pair(
        cfg, honest_coefficients(cfg, 14), [1, 2], seed=14, backend="bs",
        bs_params=SMALL_BS,
    )
    assert res_p.exit_code == EXIT_OK and res_v.exit_code == EXIT_OK
    blob = b"".join(wire.encode_frame(t, p) for t, p in res_p.transcript.frames)
    assert (len(res_p.transcript.frames), len(blob)) == (135, 21_444)
    assert hashlib.sha256(blob).hexdigest() == (
        "6f80abfa55d8daa5257e4ebb1b5035f2dbc13641bba4d04c27bbe0e15bbfd99f"
    )


def test_roles_pumped_on_one_thread_trade_the_frames_run_pair_records():
    # the role steps need no thread: pumped against each other, an honest
    # bs session trades exactly the frames the prover's transcript holds
    # when run_pair drives the roles over a channel, and recovers the same
    cfg = desk_config(c=1)
    coeffs = honest_coefficients(cfg, 14)
    res_p, _, outcome = run_pair(cfg, coeffs, [1, 2], seed=14, backend="bs", bs_params=SMALL_BS)
    backend = BsBackend(SMALL_BS)
    verifier = VerifierSession(cfg, [1, 2], backend, 14)
    prover = ProverSession(cfg, coeffs, backend, 14)
    code_v, code_p, frames = wire.pump(verifier.step(), prover.step())
    assert code_v == code_p == EXIT_OK
    assert frames == res_p.transcript.frames
    assert verifier.outcome.recovered == outcome.recovered and len(outcome.recovered) == 2


def lane_digests(frames, t):
    """Per transfer, in order, the SHA-256 of its TAPE_CHUNK and
    OMEGA_REVEAL payloads, its t-1 constraints as ceil(t/8)-byte
    little-endian values, its replies, its swap bit, and its two
    (u64 seed, ciphertext) pairs, read from a transcript in lane framing."""
    width = (t + 7) // 8
    out, lanes, broadcast = [], [], []
    for tag, payload in frames:
        if tag in (Tag.TAPE_CHUNK, Tag.OMEGA_REVEAL):
            broadcast.append(payload)
        elif tag == Tag.IH_ROUND:
            sub, value = parse(tag, payload)
            if sub == IH_STATUS:
                if value == 0:  # accepted: the lane's broadcast is over
                    lanes.append({0: broadcast, 1: [], 2: [], 3: []})
                    broadcast = []
            else:
                step = width if sub == IH_CONSTRAINT else 1
                assert len(value) == step * len(lanes)
                for lane, j in zip(lanes, range(0, len(value), step)):
                    lane[sub].append(value[j : j + step])
        elif tag == Tag.ENCODED_PAIR:
            pairs = parse(tag, payload)
            assert len(pairs) == len(lanes)
            for lane, pair in zip(lanes, pairs):
                h = hashlib.sha256(b"".join(b"".join(lane[k]) for k in range(4)))
                for seed, ciphertext in pair:
                    h.update(seed.to_bytes(8, "big") + ciphertext)
                out.append(h.digest())
            lanes = []
    return out


def test_bounded_storage_lanes_keep_each_transfer():
    # Each transfer's tape, positions, constraints, replies, swap, seeds and
    # ciphertexts, recorded when every transfer ran alone on the wire: lanes
    # change the framing and the order of frames, not what one transfer is.
    cfg = desk_config(c=1)
    res_p, _, _ = run_pair(
        cfg, honest_coefficients(cfg, 14), [1, 2], seed=14, backend="bs",
        bs_params=SMALL_BS,
    )
    t = ih_encoding_bits(SMALL_BS.n, SMALL_BS.subset_size)
    digests = lane_digests(res_p.transcript.frames, t)
    assert len(digests) == 6
    assert hashlib.sha256(b"".join(digests)).hexdigest() == (
        "9db72882f751129a16fcaa7065d4de2cb709e82242dc699093cb413ff2d5d70c"
    )


def test_bounded_storage_ciphertexts_are_one_byte_per_element():
    # At the session-bs-tcp config (GF(11), d = 9, c = 3) each 1-of-2
    # message is s = 3 one-byte elements, so each ciphertext is 3 bytes.
    cfg = desk_config()
    res_p, _, _ = run_pair(
        cfg, honest_coefficients(cfg, 14), [1], seed=14, backend="bs", bs_params=SMALL_BS
    )
    ciphertexts = [
        ct
        for tag, payload in res_p.transcript.frames
        if tag == Tag.ENCODED_PAIR
        for pair in parse(tag, payload)
        for _, ct in pair
    ]
    assert ciphertexts and {len(ct) for ct in ciphertexts} == {3}


def test_bounded_storage_commitment_is_one_batch():
    # the 2c S2PCs share one interactive-hashing run: t-1 constraint frames
    # for the whole commitment, each holding 2c(|S|-1) constraints, then one
    # swap frame and one ENCODED_PAIR frame
    cfg = desk_config()
    params = make_bs_params()
    res_p, res_v, _ = run_pair(
        cfg, honest_coefficients(cfg, 14), [1], seed=14, backend="bs", bs_params=params
    )
    assert res_p.exit_code == res_v.exit_code == EXIT_OK
    t = ih_encoding_bits(params.n, params.subset_size)
    lanes = 2 * cfg.c * (len(cfg.prohibited) - 1)
    rounds = [
        parse(tag, payload)
        for tag, payload in res_p.transcript.frames
        if tag == Tag.IH_ROUND
    ]
    constraints = [value for sub, value in rounds if sub == IH_CONSTRAINT]
    assert len(constraints) == t - 1
    assert {len(value) for value in constraints} == {lanes * ((t + 7) // 8)}
    assert [len(value) for sub, value in rounds if sub == IH_SWAP] == [lanes]
    (pairs,) = [
        parse(tag, payload) for tag, payload in res_p.transcript.frames if tag == Tag.ENCODED_PAIR
    ]
    assert len(pairs) == lanes


def test_receiver_lanes_keep_only_the_shared_positions(monkeypatch):
    # Right after its accepted broadcast a receiver lane keeps the bits at
    # the positions it shares with the sender's OMEGA_REVEAL and drops the
    # rest, so while the last lane's tape streams in the receiver holds at
    # most n + (L-1)max|shared| bits: not L*n, and at c = 3 fewer than the
    # (|S|-1)*n of one S2PC's lanes kept whole.
    lanes = []
    accept_receive = ot._accept_receive

    def spy_accept_receive(params, full, pick):
        lane = yield from accept_receive(params, full, pick)
        if lane is not None:
            omega_a, kept, _ = lane
            lanes.append((full, omega_a, kept))
        return lane

    monkeypatch.setattr(ot, "_accept_receive", spy_accept_receive)
    cfg = desk_config()
    params = make_bs_params()
    res_p, res_v, outcome = run_pair(
        cfg, honest_coefficients(cfg, 14), [1], seed=14, backend="bs", bs_params=params
    )
    assert res_p.exit_code == res_v.exit_code == EXIT_OK and outcome.recovered
    assert len(lanes) == 2 * cfg.c * (len(cfg.prohibited) - 1)
    for full, omega_a, kept in lanes:
        assert len(full.indices) == params.n
        shared = np.isin(full.indices, omega_a)
        assert np.array_equal(kept.indices, full.indices[shared])
        assert np.array_equal(kept.bits, full.bits[shared])
    held = params.n + sum(len(kept.bits) for _, _, kept in lanes[:-1])
    assert held <= params.n + (len(lanes) - 1) * max(len(kept.bits) for _, _, kept in lanes)
    assert held < (len(cfg.prohibited) - 1) * params.n


def test_inproc_run_pair_returns_at_once_when_the_verifier_raises(monkeypatch):
    # closing the verifier's in-process channel wakes the prover's recv, so
    # the prover ends in exit 3 instead of waiting out its receive timeout
    codes = []
    prover_run = ProverSession.run

    def recorded(session, chan):
        codes.append(prover_run(session, chan))
        return codes[-1]

    def crash(verifier, chan):
        chan.send(Tag.NEGOTIATE, Writer().blob(config_digest(verifier.cfg)).bytes())
        raise RuntimeError("verifier crashed")

    monkeypatch.setattr(ProverSession, "run", recorded)
    monkeypatch.setattr(VerifierSession, "run", crash)
    cfg = desk_config(c=1)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="verifier crashed"):
        run_pair(cfg, honest_coefficients(cfg, 23), [1], seed=23)
    assert time.monotonic() - start < 1
    assert codes == [EXIT_TRANSPORT]


def test_tcp_channels_send_without_nagle():
    # small frames go out at once instead of waiting for the peer's
    # delayed ACK of the previous one
    chans = _tcp_pair()
    try:
        for chan in chans:
            assert chan._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        for chan in chans:
            chan.close()


def test_transport_independence():
    cfg = desk_config()
    coeffs = honest_coefficients(cfg, 15)
    queries = default_queries(cfg, 4, 15)
    runs = {}
    for transport in ("inproc", "tcp"):
        res_p, res_v, outcome = run_pair(
            cfg, coeffs, queries, seed=15, transport=transport
        )
        runs[transport] = (res_p.transcript.frames, res_v.transcript.frames, outcome)
    assert runs["inproc"][0] == runs["tcp"][0]
    assert runs["inproc"][1] == runs["tcp"][1]
    assert runs["inproc"][2].recovered == runs["tcp"][2].recovered


def test_matched_seeds_replay_identically():
    cfg = desk_config()
    coeffs = honest_coefficients(cfg, 16)
    queries = default_queries(cfg, 3, 16)
    a = run_pair(cfg, coeffs, queries, seed=16)
    b = run_pair(cfg, coeffs, queries, seed=16)
    assert a[0].transcript.frames == b[0].transcript.frames
    assert a[1].transcript.frames == b[1].transcript.frames
    assert a[2].recovered == b[2].recovered


def test_prover_transcript_independent_of_verifier_key():
    # With the ideal backend and matched prover randomness the prover's
    # whole view is invariant under a change of the verifier's key points.
    cfg = desk_config()
    coeffs = honest_coefficients(cfg, 17)
    queries = default_queries(cfg, 4, 17)
    frames = []
    for vseed in (901, 902, 903):
        res_p, _, outcome = run_pair(
            cfg, coeffs, queries, seed=17, verifier_seed=vseed
        )
        assert not outcome.rejected
        frames.append(res_p.transcript.frames)
    assert frames[0] == frames[1] == frames[2]


def test_query_budget_warns_but_never_stops():
    # the verifier warns; the prover refuses the third distinct point as it
    # refuses one above xi, answers a repeat of the first, and the session
    # goes on to its end
    import logging

    cfg = make_config(GF11, d=9, r=2, c=3, xi=6, query_budget=2)
    coeffs = honest_coefficients(cfg, 30)
    logger = logging.getLogger("polycommit.session")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    try:
        res_p, res_v, outcome = run_pair(cfg, coeffs, [0, 1, 2, 0], seed=30)
    finally:
        logger.removeHandler(handler)
    assert res_p.exit_code == res_v.exit_code == EXIT_OK
    assert outcome.refused == [2]
    assert outcome.recovered == [(x, horner_eval(GF11, coeffs, x)) for x in (0, 1, 0)]
    assert any("budget" in r.getMessage() for r in records)


def test_duplicate_queries_answered_and_flagged():
    import logging

    cfg = desk_config()
    coeffs = honest_coefficients(cfg, 31)
    logger = logging.getLogger("polycommit.session")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    try:
        res_p, res_v, outcome = run_pair(cfg, coeffs, [2, 2, 5], seed=31)
    finally:
        logger.removeHandler(handler)
    assert res_v.exit_code == EXIT_OK
    assert [x for x, _ in outcome.recovered] == [2, 2, 5]
    assert any("duplicate query" in r.getMessage() for r in records)


def test_out_of_order_frame_aborts():
    cfg = desk_config()
    chan_p, chan_v = duplex_pair(timeout=5)
    backend = make_backend("ideal")
    prover = ProverSession(cfg, honest_coefficients(cfg, 18), backend, 18)
    result = {}

    def run():
        result["code"] = prover.run(chan_p)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    # speak a well-formed NEGOTIATE, then jump straight to EVAL_REQ
    chan_v.send(Tag.NEGOTIATE, Writer().blob(config_digest(cfg)).bytes())
    chan_v.recv()  # SET_AGREE
    chan_v.send(Tag.EVAL_REQ, Writer().elem(GF11, 1).bytes())
    tag, payload = chan_v.recv()
    t.join(timeout=10)
    assert tag == Tag.ABORT
    assert result["code"] == EXIT_PROTOCOL


def test_config_digest_mismatch_is_config_error():
    cfg = desk_config()
    other = make_config(GF11, d=9, r=2, c=2, xi=6)  # differs in c
    chan_p, chan_v = duplex_pair(timeout=5)
    backend = make_backend("ideal")
    prover = ProverSession(cfg, honest_coefficients(cfg, 19), backend, 19)
    verifier = VerifierSession(other, [], backend, 19)
    codes = {}
    tp = threading.Thread(target=lambda: codes.update(p=prover.run(chan_p)), daemon=True)
    tv = threading.Thread(target=lambda: codes.update(v=verifier.run(chan_v)), daemon=True)
    tp.start(), tv.start()
    tp.join(10), tv.join(10)
    assert codes["p"] == EXIT_CONFIG
    assert codes["v"] == EXIT_CONFIG


def test_run_role_over_tcp():
    cfg = desk_config(c=1)
    coeffs = honest_coefficients(cfg, 20)
    queries = [0, 1]
    addr = ("127.0.0.1", 29173)
    results = {}

    def prover():
        code, _, _ = run_role(
            "prover", cfg, 20, addr, coeffs=coeffs, bs_params=SMALL_BS
        )
        results["p"] = code

    def verifier():
        import time

        time.sleep(0.2)  # let the prover listen first
        code, _, outcome = run_role(
            "verifier",
            cfg,
            20,
            addr,
            queries=queries,
            bs_params=SMALL_BS,
        )
        results["v"] = code
        results["outcome"] = outcome

    tp = threading.Thread(target=prover, daemon=True)
    tv = threading.Thread(target=verifier, daemon=True)
    tp.start(), tv.start()
    tp.join(60), tv.join(60)
    assert results["p"] == EXIT_OK and results["v"] == EXIT_OK
    for x, value in results["outcome"].recovered:
        assert value == horner_eval(GF11, coeffs, x)


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
@pytest.mark.parametrize("backend", ["ideal", "bs"])
def test_run_pair_runs_the_verifier_on_the_calling_thread(monkeypatch, backend, transport):
    # the prover runs on the one thread run_pair starts, and that thread
    # has ended when run_pair returns
    ran_on = {}
    for cls in (ProverSession, VerifierSession):
        def spy(session, chan, run=cls.run, role=cls):
            ran_on[role] = threading.current_thread()
            return run(session, chan)

        monkeypatch.setattr(cls, "run", spy)
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    cfg = desk_config(c=1)
    res_p, res_v, _ = run_pair(
        cfg, honest_coefficients(cfg, 21), [1, 2], seed=21, backend=backend,
        transport=transport, bs_params=SMALL_BS,
    )
    assert res_p.exit_code == res_v.exit_code == EXIT_OK
    assert ran_on[VerifierSession] is threading.current_thread()
    assert started == [ran_on[ProverSession]]
    assert not started[0].is_alive()


def test_run_role_closes_its_socket_when_the_role_raises(monkeypatch):
    # an exception the role does not turn into an exit code still closes
    # the role's socket, so the peer reads EOF
    def crash(session, chan):
        raise RuntimeError("role crashed")

    monkeypatch.setattr(VerifierSession, "run", crash)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with pytest.raises(RuntimeError, match="role crashed"):
            run_role("verifier", desk_config(c=1), 0, listener.getsockname(), bs_params=SMALL_BS)
        peer, _ = listener.accept()
        with peer:
            peer.settimeout(5)
            assert peer.recv(1) == b""


@pytest.mark.parametrize("port", [-1, 65536, 99999])
@pytest.mark.parametrize("role", ["prover", "verifier"])
def test_run_role_refuses_a_port_out_of_range_before_any_socket_opens(role, port, monkeypatch):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "create_server", no_socket)
    monkeypatch.setattr(socket, "create_connection", no_socket)
    cfg = desk_config(c=1)
    with pytest.raises(ValueError, match=f"port {port} "):
        run_role(role, cfg, 0, ("127.0.0.1", port), coeffs=honest_coefficients(cfg, 0))


def test_run_role_rejects_a_prover_without_coefficients_before_it_listens():
    result = {}

    def prover():
        try:
            run_role("prover", desk_config(), 0, ("127.0.0.1", 0), coeffs=None)
        except ValueError as exc:
            result["error"] = exc

    t = threading.Thread(target=prover, daemon=True)
    t.start()
    t.join(timeout=5)
    assert not t.is_alive() and "error" in result


def test_run_role_rejects_an_unknown_role_before_it_connects():
    with pytest.raises(ValueError, match="unknown role"):
        run_role("observer", desk_config(), 0, ("127.0.0.1", 1))


def test_no_key_material_on_the_wire():
    # Bounded-storage backend puts all OT traffic on the wire; the
    # serialized verifier key points and prover mask must appear nowhere in
    # either transcript or index.
    cfg = desk_config(c=2)
    coeffs = honest_coefficients(cfg, 21)
    res_p, res_v, _ = run_pair(
        cfg, coeffs, [0, 1], seed=21, backend="bs", bs_params=SMALL_BS
    )
    verifier = VerifierSession(cfg, [], make_backend("ideal"), 21)
    prover = ProverSession(cfg, coeffs, make_backend("ideal"), 21)
    key_bytes = encode_elements(GF11, list(verifier.key.lambdas)) + encode_elements(
        GF11, list(verifier.key.thetas)
    )
    mask_bytes = encode_elements(GF11, prover.prover_key.mask.reshape(-1))
    for rec in (res_p.transcript, res_v.transcript):
        blob = b"".join(payload for _, payload in rec.frames)
        assert key_bytes not in blob
        assert mask_bytes not in blob


def test_transcript_dump_format(tmp_path):
    cfg = desk_config()
    coeffs = honest_coefficients(cfg, 22)
    res_p, _, _ = run_pair(cfg, coeffs, [0], seed=22)
    res_p.transcript.dump(tmp_path / "t.bin", tmp_path / "t.idx")
    raw = (tmp_path / "t.bin").read_bytes()
    lines = (tmp_path / "t.idx").read_text().splitlines()
    from polycommit.wire import FrameReader

    frames = list(FrameReader(raw))
    assert len(frames) == len(lines) == len(res_p.transcript.frames)
    offset = 0
    for (tag, payload), line in zip(frames, lines):
        off, name, length = line.split()
        assert int(off) == offset and name == Tag(tag).name
        assert int(length) == len(payload)
        offset += 5 + len(payload)


# -- hostile OT peers: each ends in exit 4 and an ABORT frame --


def run_against(session, script):
    """Run one role on a thread against a scripted peer; returns the role's
    exit code and the script's result."""
    chan_role, chan_peer = duplex_pair(timeout=10)
    result = {}
    t = threading.Thread(target=lambda: result.update(code=session.run(chan_role)), daemon=True)
    t.start()
    out = script(chan_peer)
    t.join(timeout=10)
    assert not t.is_alive()
    return result["code"], out


def abort_code(chan):
    """The peer's next frame must be its ABORT; return its exit code."""
    tag, payload = chan.recv()
    assert tag == Tag.ABORT, Tag(tag).name
    return parse(tag, payload)[0]


def reveal(positions):
    w = Writer().u32(len(positions))
    for p in positions:
        w.u32(int(p))
    return w.bytes()


def hostile_prover(cfg, attack, params=SMALL_BS):
    """Answer NEGOTIATE honestly, then run ``attack(chan, rng)`` as the
    first commitment run against a bs verifier."""
    verifier = VerifierSession(cfg, [1], BsBackend(params), 40)

    def script(chan):
        assert chan.recv()[0] == Tag.NEGOTIATE
        chan.send(Tag.SET_AGREE, Writer().blob(set_digest(cfg)).bytes())
        attack(chan, random.Random(41))
        return abort_code(chan)

    return run_against(verifier, script)


def tape_chunk(offset, bits, nbits=None):
    nbits = len(bits) if nbits is None else nbits
    return Writer().u64(offset).u32(nbits).blob(np.packbits(bits).tobytes()).bytes()


def send_tape(chan, rng):
    sampler = TapeSampler(SMALL_BS, rng)
    for offset, chunk in iter_tape_chunks(SMALL_BS, rng):
        sampler.consume(offset, chunk)
        chan.send(Tag.TAPE_CHUNK, tape_chunk(offset, chunk))
    return sampler.finish()


# 1-of-2 transfers per commitment at c = 1: 2c runs of |S|-1, one batch
LANES = 2 * (len(desk_config(c=1).prohibited) - 1)
T = ih_encoding_bits(SMALL_BS.n, SMALL_BS.subset_size)
WIDTH = (T + 7) // 8  # bytes per constraint


def ih_frame(subtype, data):
    return Writer().u8(subtype).blob(data).bytes()


def accepted_broadcasts(chan, rng):
    """Honest broadcasts until the verifier has accepted one per lane."""
    for _ in range(LANES):
        while True:
            chan.send(Tag.OMEGA_REVEAL, reveal(send_tape(chan, rng).indices))
            if parse(*chan.recv()) == (IH_STATUS, 0):
                break


def test_dependent_ih_constraints_abort():
    # the same constraint in every round of every lane: the verifier answers
    # each round, then aborts instead of sending its swap frame
    def repeat_one_constraint(chan, rng):
        accepted_broadcasts(chan, rng)
        for _ in range(T - 1):
            chan.send(Tag.IH_ROUND, ih_frame(1, (1).to_bytes(WIDTH, "little") * LANES))
            assert chan.recv()[0] == Tag.IH_ROUND

    assert hostile_prover(desk_config(c=1), repeat_one_constraint) == (
        EXIT_PROTOCOL, EXIT_PROTOCOL,
    )


@pytest.mark.parametrize("case", ["above-t", "wide"])
def test_constraints_beyond_t_bits_abort_before_any_reply(case):
    # Constraints on bits at or above t leave the verifier's own encoding
    # out of the solution pair, so his swap bit would be 1 ^ b, his choice
    # in clear.  He must abort at the first such constraint: no reply, no
    # swap.  "wide" sends them the way a per-transfer wire once took them,
    # as many bytes as the bits need.
    def beyond_t(chan, rng):
        accepted_broadcasts(chan, rng)
        width = WIDTH if case == "above-t" else (2 * T + 6) // 8
        chan.send(Tag.IH_ROUND, ih_frame(1, (1 << T).to_bytes(width, "little") * LANES))

    assert hostile_prover(desk_config(c=1), beyond_t) == (EXIT_PROTOCOL, EXIT_PROTOCOL)


@pytest.mark.parametrize("case", ["empty", "before-tape", "too-few", "unsorted", "off-tape"])
def test_malformed_omega_reveal_aborts(case):
    def bad_reveal(chan, rng):
        if case == "before-tape":
            positions = range(SMALL_BS.n)
        else:
            positions = list(send_tape(chan, rng).indices)
            if case == "empty":
                positions = []
            elif case == "too-few":
                positions = positions[:20]
            elif case == "unsorted":
                positions[0], positions[1] = positions[1], positions[0]
            else:
                positions[-1] = SMALL_BS.K
        chan.send(Tag.OMEGA_REVEAL, reveal(positions))

    assert hostile_prover(desk_config(c=1), bad_reveal) == (EXIT_PROTOCOL, EXIT_PROTOCOL)


# SMALL_BS streams each tape as one chunk of K bits at offset 0
TAPE_STREAMS = {
    "trailing": lambda bits: [tape_chunk(0, bits) + b"\x00"],
    "nbits-beyond-blob": lambda bits: [tape_chunk(0, bits, nbits=len(bits) + 10**6)],
    "short": lambda bits: [tape_chunk(0, bits[:-1])],
    "at-K": lambda bits: [tape_chunk(SMALL_BS.K, bits)],
    "repeated": lambda bits: [tape_chunk(0, bits)] * 2,
}


@pytest.mark.parametrize("case", TAPE_STREAMS)
def test_malformed_tape_stream_aborts(case):
    # each chunk must parse to its last byte and come in order from offset
    # 0, min(TAPE_CHUNK_BITS, K - offset) bits long; OMEGA_REVEAL only after
    # the whole tape
    def bad_tape(chan, rng):
        sampler = TapeSampler(SMALL_BS, rng)
        (offset, bits), = iter_tape_chunks(SMALL_BS, rng)
        sampler.consume(offset, bits)
        for payload in TAPE_STREAMS[case](bits):
            chan.send(Tag.TAPE_CHUNK, payload)
        chan.send(Tag.OMEGA_REVEAL, reveal(sampler.finish().indices))

    assert hostile_prover(desk_config(c=1), bad_tape) == (EXIT_PROTOCOL, EXIT_PROTOCOL)


def test_second_tape_chunk_at_the_wrong_offset_aborts():
    assert TWO_CHUNKS.K == TAPE_CHUNK_BITS + 1

    def skewed_tape(chan, rng):
        (_, first), (offset, second) = iter_tape_chunks(TWO_CHUNKS, rng)
        chan.send(Tag.TAPE_CHUNK, tape_chunk(0, first))
        chan.send(Tag.TAPE_CHUNK, tape_chunk(offset - 1, second))

    assert hostile_prover(desk_config(c=1), skewed_tape, TWO_CHUNKS) == (
        EXIT_PROTOCOL, EXIT_PROTOCOL,
    )


def hostile_verifier(cfg, on_frame):
    """Open a commitment against a bs prover, then answer each frame with
    ``on_frame(chan, tag)`` until the prover's ABORT; returns the prover's
    exit code, the ABORT's code and the number of broadcasts seen."""
    prover = ProverSession(cfg, honest_coefficients(cfg, 42), BsBackend(SMALL_BS), 42)

    def script(chan):
        chan.send(Tag.NEGOTIATE, Writer().blob(config_digest(cfg)).bytes())
        assert chan.recv()[0] == Tag.SET_AGREE
        broadcasts = 0
        while True:
            tag, payload = chan.recv()
            if tag == Tag.ABORT:
                return parse(tag, payload)[0], broadcasts
            broadcasts += tag == Tag.OMEGA_REVEAL
            on_frame(chan, tag)

    code, (aborted, broadcasts) = run_against(prover, script)
    return code, aborted, broadcasts


def test_set_agree_with_a_trailing_byte_aborts():
    cfg = desk_config(c=1)
    verifier = VerifierSession(cfg, [1], IdealBackend(), 44)

    def script(chan):
        assert chan.recv()[0] == Tag.NEGOTIATE
        chan.send(Tag.SET_AGREE, Writer().blob(set_digest(cfg)).bytes() + b"\x00")
        return abort_code(chan)

    assert run_against(verifier, script) == (EXIT_PROTOCOL, EXIT_PROTOCOL)


# -- the commitment: the config fixes its 2c runs, c left then c right, so
# no frame opens a run; COMMIT_DONE closes it --


def serve_commitment(chan, cfg, backend, batches):
    """Open a session with an ideal-backend prover and take ``batches`` (0
    or 1) batches from the box: the commitment's 2c runs are one batch."""
    chan.send(Tag.NEGOTIATE, Writer().blob(config_digest(cfg)).bytes())
    assert chan.recv()[0] == Tag.SET_AGREE
    for _ in range(batches):
        backend.box.receive([0] * (2 * cfg.c * (len(cfg.prohibited) - 1)))


def stale_begin(kind, index):
    """A frame opening run ``index`` of ``kind``, as S2PC_BEGIN once did;
    tag 3 is unassigned now."""
    return (3, Writer().u8(kind).u32(index).bytes())


# (batches taken from the box first, the frame that follows them): whatever
# run a stale S2PC_BEGIN names, and however it is framed, the prover keeps
# to the schedule the config fixes and refuses it; "repeated-index" names a
# run the batch already carried
STALE_BEGINS = {
    "right-before-left": (0, stale_begin(RIGHT, 0)),
    "skipped-index": (0, stale_begin(LEFT, 1)),
    "repeated-index": (1, stale_begin(LEFT, 0)),
    "unknown-kind": (0, stale_begin(3, 0)),
    "begin-trailing": (0, (3, stale_begin(LEFT, 0)[1] + b"\x00")),
}


@pytest.mark.parametrize("case", STALE_BEGINS)
def test_prover_holds_the_commitment_schedule(case):
    # A verifier that tries to open a run of its own ends the prover in
    # exit 4 and an ABORT frame.
    cfg = desk_config(c=2)
    backend = IdealBackend()
    prover = ProverSession(cfg, honest_coefficients(cfg, 46), backend, 46)
    batches, (tag, payload) = STALE_BEGINS[case]

    def script(chan):
        serve_commitment(chan, cfg, backend, batches)
        chan.send(tag, payload)
        return abort_code(chan)

    assert run_against(prover, script) == (EXIT_PROTOCOL, EXIT_PROTOCOL)


CLOSE = (Tag.ABORT, Writer().u8(EXIT_OK).blob(b"end of session").bytes())

# (batches taken from the box first, the frames that follow them, the
# prover's exit code, the code of the ABORT it sends or None)
AROUND_THE_COMMITMENT = {
    # the prover cannot tell whether the verifier took the batch
    "done-early": (0, [(Tag.COMMIT_DONE, b""), CLOSE], EXIT_OK, None),
    "done-trailing": (1, [(Tag.COMMIT_DONE, b"\x00")], EXIT_PROTOCOL, EXIT_PROTOCOL),
    "begin-after-done": (
        1, [(Tag.COMMIT_DONE, b""), stale_begin(LEFT, 0)], EXIT_PROTOCOL, EXIT_PROTOCOL,
    ),
    # the batch is deposited but still in the box
    "abort-mid-batch": (
        0, [(Tag.ABORT, Writer().u8(EXIT_CONFIG).blob(b"stop").bytes())], EXIT_CONFIG, None,
    ),
}


@pytest.mark.parametrize("case", AROUND_THE_COMMITMENT)
def test_prover_ends_the_commitment_on_commit_done_alone(case):
    # After its batch the prover takes COMMIT_DONE and nothing else: a
    # tag-3 frame or a malformed COMMIT_DONE ends it in exit 4 and an ABORT
    # frame, and a verifier's ABORT ends it with the verifier's code.
    cfg = desk_config(c=2)
    backend = IdealBackend()
    prover = ProverSession(cfg, honest_coefficients(cfg, 46), backend, 46)
    batches, frames, code, aborted = AROUND_THE_COMMITMENT[case]

    def script(chan):
        serve_commitment(chan, cfg, backend, batches)
        for tag, payload in frames:
            chan.send(tag, payload)
        return None if tag == Tag.ABORT else abort_code(chan)

    assert run_against(prover, script) == (code, aborted)


def test_each_value_table_is_built_once_per_commitment(monkeypatch):
    calls = []
    build = s2pc.build_value_table

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(s2pc, "build_value_table", counting)
    cfg = desk_config(c=3)
    res_p, res_v, _ = run_pair(cfg, honest_coefficients(cfg, 45), [], seed=45)
    assert res_p.exit_code == res_v.exit_code == EXIT_OK
    assert len(calls) == 2  # one per kind, not one per run
    assert [args[3] for args in calls] == [LEFT, RIGHT]


def test_endless_rerun_requests_hit_the_broadcast_cap():
    def always_rerun(chan, tag):
        if tag == Tag.OMEGA_REVEAL:
            chan.send(Tag.IH_ROUND, Writer().u8(0).u8(1).bytes())

    assert hostile_verifier(desk_config(c=1), always_rerun) == (
        EXIT_PROTOCOL, EXIT_PROTOCOL, MAX_BROADCASTS,
    )


def test_swap_that_is_not_a_bit_aborts():
    replies = []

    def bad_swap(chan, tag):
        if tag == Tag.OMEGA_REVEAL:
            chan.send(Tag.IH_ROUND, Writer().u8(0).u8(0).bytes())
        elif tag == Tag.IH_ROUND:
            chan.send(Tag.IH_ROUND, ih_frame(2, bytes(LANES)))
            replies.append(0)
            if len(replies) == T - 1:
                chan.send(Tag.IH_ROUND, ih_frame(3, bytes(LANES - 1) + b"\x02"))

    assert hostile_verifier(desk_config(c=1), bad_swap) == (
        EXIT_PROTOCOL, EXIT_PROTOCOL, LANES,
    )


# -- hostile field elements and malformed payloads: the receiving role ends
# in exit 4 and an ABORT frame, and so does its peer, instead of waiting
# out its receive timeout or accepting the payload --


class Outbox:
    """Channel wrapper keeping the frames its role sends; payloads of
    ``tag`` go out rewritten by ``mangle``."""

    def __init__(self, inner, tag=None, mangle=None):
        self._inner, self._tag, self._mangle = inner, tag, mangle
        self.sent = []

    def send(self, tag, payload):
        if tag == self._tag:
            payload = self._mangle(payload)
        self.sent.append((tag, payload))
        self._inner.send(tag, payload)

    def recv(self):
        return self._inner.recv()


W = elem_size(GF11)  # bytes per element


def q_at(data, offset):
    """``data`` with the element at byte ``offset`` replaced by q = 11."""
    return data[:offset] + GF11.q.to_bytes(W, "little") + data[offset + W :]


def q_first(pairs):
    """A (2, L, w) batch ``pairs`` with the first element of every message
    replaced by q = 11."""
    out = pairs.copy()
    out[..., :W] = np.frombuffer(GF11.q.to_bytes(W, "little"), np.uint8)
    return out


def mangled(backend_cls, mangle, *args):
    """A ``backend_cls`` whose sender passes each (2, L, w) batch through
    ``mangle`` as it is pulled."""

    class Mangled(backend_cls):
        def send(self, batches, rng):
            return super().send(map(mangle, batches), rng)

    return Mangled(*args)


WIDE = make_config(PrimeField(257), d=9, r=2, c=1, xi=6)  # 2-byte elements

# Batches the ideal box can carry, rewritten as a whole.
OT_MANGLES = {
    "ot-non-canonical": q_first,
    # run at WIDE, so the cut leaves half an element
    "ot-odd-length": lambda pairs: pairs[..., :-1],
    "ot-one-element": lambda pairs: pairs[..., :W],
}


def lane_ciphertexts(edit):
    """An ENCODED_PAIR rewrite passing both ciphertexts of lane n through
    ``edit(ciphertext, n)``."""

    def rewrite(payload):
        w = Writer()
        for n, pair in enumerate(parse(Tag.ENCODED_PAIR, payload)):
            for seed, ciphertext in pair:
                w.u64(seed).blob(edit(ciphertext, n))
        return w.bytes()

    return rewrite


# Lanes of unequal length, which an ideal box cannot hold and the
# bounded-storage wire can carry.
RAGGED_LANES = {
    "ot-mixed-length": lambda m, n: m[: W * (3 - n % 2)],
    # 4, 2, 3 elements in each three lanes: wrong one by one, right in total
    "ot-compensating-lengths": lambda m, n: (m + m[:W], m[:-W], m)[n % 3],
}

# Payloads that decode but do not parse: (sending role, tag, rewrite).
MALFORMED = {
    "negotiate-junk": ("verifier", Tag.NEGOTIATE, lambda p: p + b"junk"),
    # the digest followed by xi, as NEGOTIATE was once framed
    "negotiate-with-xi": ("verifier", Tag.NEGOTIATE, lambda p: p + encode_elements(GF11, [6])),
    "eval-resp-status": ("prover", Tag.EVAL_RESP, lambda p: b"\x07" + p[1:]),
    "eval-resp-junk": ("prover", Tag.EVAL_RESP, lambda p: p + b"junk"),
}


def ih_only(subtype, rewrite):
    """``rewrite`` for the IH_ROUND payloads of ``subtype``, identity for
    the others."""
    return lambda p: rewrite(p) if p[0] == subtype else p


def lane_data(subtype, edit):
    """An IH frame of ``subtype`` with its per-lane bytes passed through
    ``edit``."""
    return ih_only(subtype, lambda p: ih_frame(subtype, edit(parse(Tag.IH_ROUND, p)[1])))


# Bounded-storage lane frames that do not parse, in the same shape.  The
# first such frame of the commitment's batch ends the session.
LANE_FRAMES = {
    "constraints-missing": ("prover", Tag.IH_ROUND, lane_data(1, lambda d: d[:-WIDTH])),
    "constraints-extra": ("prover", Tag.IH_ROUND, lane_data(1, lambda d: d + d[:WIDTH])),
    "constraint-wide": (
        "prover", Tag.IH_ROUND, lane_data(1, lambda d: d[:WIDTH] + b"\x00" + d[WIDTH:]),
    ),
    "constraints-trailing": ("prover", Tag.IH_ROUND, ih_only(1, lambda p: p + b"\x00")),
    "replies-missing": ("verifier", Tag.IH_ROUND, lane_data(2, lambda d: d[:-1])),
    "replies-extra": ("verifier", Tag.IH_ROUND, lane_data(2, lambda d: d + b"\x00")),
    "reply-not-a-bit": ("verifier", Tag.IH_ROUND, lane_data(2, lambda d: b"\x02" + d[1:])),
    "replies-trailing": ("verifier", Tag.IH_ROUND, ih_only(2, lambda p: p + b"\x00")),
    "swaps-missing": ("verifier", Tag.IH_ROUND, lane_data(3, lambda d: d[:-1])),
    "swaps-extra": ("verifier", Tag.IH_ROUND, lane_data(3, lambda d: d + b"\x00")),
    "swap-not-a-bit": ("verifier", Tag.IH_ROUND, lane_data(3, lambda d: b"\x02" + d[1:])),
    "swaps-trailing": ("verifier", Tag.IH_ROUND, ih_only(3, lambda p: p + b"\x00")),
    # every pair has the same length, so the last one is the last 1/LANES
    "pair-missing": ("prover", Tag.ENCODED_PAIR, lambda p: p[: len(p) // LANES * (LANES - 1)]),
    "pair-trailing": ("prover", Tag.ENCODED_PAIR, lambda p: p + b"\x00"),
    "status-trailing": ("verifier", Tag.IH_ROUND, ih_only(IH_STATUS, lambda p: p + b"\x00")),
}


@pytest.mark.parametrize(
    "case",
    [
        "eval-resp", "eval-req", *OT_MANGLES, *RAGGED_LANES, "bs-non-canonical",
        *MALFORMED, *LANE_FRAMES,
    ],
)
def test_hostile_element_ends_both_roles_in_exit_4(case):
    cfg = WIDE if case == "ot-odd-length" else desk_config(c=1)
    backend, prover_out, verifier_out = IdealBackend(), (), ()
    if case == "eval-resp":  # first v element is q
        prover_out = (Tag.EVAL_RESP, lambda p: q_at(p, 5))
    elif case == "eval-req":  # x = q
        verifier_out = (Tag.EVAL_REQ, lambda p: q_at(p, 0))
    elif case in MALFORMED or case in LANE_FRAMES:
        sender, tag, rewrite = MALFORMED.get(case) or LANE_FRAMES[case]
        if case in LANE_FRAMES:
            backend = BsBackend(SMALL_BS)
        if sender == "prover":
            prover_out = (tag, rewrite)
        else:
            verifier_out = (tag, rewrite)
    elif case == "bs-non-canonical":
        backend = mangled(BsBackend, OT_MANGLES["ot-non-canonical"], SMALL_BS)
    elif case in RAGGED_LANES:
        backend = BsBackend(SMALL_BS)
        prover_out = (Tag.ENCODED_PAIR, lane_ciphertexts(RAGGED_LANES[case]))
    else:
        backend = mangled(IdealBackend, OT_MANGLES[case])
    chan_p, chan_v = duplex_pair(timeout=3)
    sides = {
        "prover": (ProverSession(cfg, honest_coefficients(cfg, 43), backend, 43),
                   Outbox(chan_p, *prover_out)),
        "verifier": (VerifierSession(cfg, [1, 2], backend, 43), Outbox(chan_v, *verifier_out)),
    }
    codes = {}
    threads = [
        threading.Thread(
            target=lambda role=role, s=s, ch=ch: codes.update({role: s.run(ch)}), daemon=True
        )
        for role, (s, ch) in sides.items()
    ]
    deadline = time.monotonic() + 5
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=max(0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads)
    assert codes == {"prover": EXIT_PROTOCOL, "verifier": EXIT_PROTOCOL}
    receiver = "prover" if verifier_out else "verifier"
    tag, payload = sides[receiver][1].sent[-1]
    assert tag == Tag.ABORT and parse(tag, payload)[0] == EXIT_PROTOCOL


def test_too_few_hashing_rounds_end_both_roles_before_any_broadcast():
    # k is a floor on the IH rounds: at N=256, ell=8 a transfer has only 18
    cfg = desk_config(c=1)
    weak = make_bs_params(N=256, ell=8, k=40)
    res_p, res_v, _ = run_pair(
        cfg, honest_coefficients(cfg, 14), [1, 2], seed=14, backend="bs", bs_params=weak
    )
    assert res_p.exit_code == res_v.exit_code == EXIT_PROTOCOL
    assert Tag.TAPE_CHUNK not in [tag for tag, _ in res_p.transcript.frames]


class QuickBox(IdealOt):
    """An ideal box whose receiver waits 0.2 s for a batch."""

    def receive(self, bits, timeout=0.2):
        return super().receive(bits, timeout)


def test_ideal_box_left_empty_ends_the_verifier_in_exit_3():
    # the prover aborts instead of depositing the batch; the verifier, who
    # waits on the box and not on the wire, times out as a transport fault
    cfg = desk_config(c=1)
    verifier = VerifierSession(cfg, [1], IdealBackend(QuickBox()), 47)

    def script(chan):
        assert chan.recv()[0] == Tag.NEGOTIATE
        chan.send(Tag.SET_AGREE, Writer().blob(set_digest(cfg)).bytes())
        chan.send(Tag.ABORT, Writer().u8(EXIT_PROTOCOL).blob(b"stop").bytes())

    assert run_against(verifier, script) == (EXIT_TRANSPORT, None)


# (role, ABORT payload it receives after NEGOTIATE or at the close, the
# role's exit code)
PEER_ABORTS = {
    # a message that is not UTF-8 still ends the role with the peer's code
    "message-not-utf8": (
        "verifier", Writer().u8(EXIT_CONFIG).blob(b"\xff\xfe").bytes(), EXIT_CONFIG,
    ),
    "unknown-code": ("verifier", Writer().u8(1).blob(b"").bytes(), EXIT_PROTOCOL),
    "closing-trailing": (
        "prover", Writer().u8(EXIT_OK).blob(b"end of session").bytes() + b"\x00", EXIT_PROTOCOL,
    ),
}


@pytest.mark.parametrize("case", PEER_ABORTS)
def test_peer_abort_is_parsed_like_any_frame(case):
    cfg = desk_config(c=1)
    role, payload, code = PEER_ABORTS[case]
    backend = IdealBackend()
    if role == "verifier":
        session = VerifierSession(cfg, [1], backend, 48)
    else:
        session = ProverSession(cfg, honest_coefficients(cfg, 48), backend, 48)

    def script(chan):
        if role == "verifier":
            assert chan.recv()[0] == Tag.NEGOTIATE
        else:  # the whole commitment, then the closing ABORT
            serve_commitment(chan, cfg, backend, 1)
            chan.send(Tag.COMMIT_DONE, b"")
        chan.send(Tag.ABORT, payload)
        return abort_code(chan)

    assert run_against(session, script) == (code, code)
