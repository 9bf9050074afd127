"""Two-party session driver: end-to-end runs, refusals, faults, transcripts."""

import hashlib
import random
import threading
import time

import numpy as np
import pytest

from polycommit import PrimeField, wire
from polycommit.field import encode_elements
from polycommit.ot import (
    MAX_BROADCASTS,
    TapeSampler,
    ih_encoding_bits,
    iter_tape_chunks,
    make_bs_params,
)
from polycommit.polymat import horner_eval
from polycommit.protocol import make_config
from polycommit.session import (
    BsBackend,
    IdealBackend,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_REJECT,
    ProverSession,
    VerifierSession,
    default_queries,
    honest_coefficients,
    make_backend,
    run_pair,
    run_role,
)
from polycommit.wire import Reader, Tag, Writer, config_digest, duplex_pair, set_digest

GF11 = PrimeField(11)


def desk_config(c=3):
    return make_config(GF11, d=9, r=2, c=c, xi=6)


SMALL_BS = make_bs_params(N=4096, ell=16, k=8)


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
    # Golden digest of the prover's whole transcript (657 frames, 25,763
    # bytes, 7 broadcasts for 6 transfers).  A change to an RNG stream or
    # to the wire format must update it on purpose.
    cfg = desk_config(c=1)
    res_p, res_v, _ = run_pair(
        cfg, honest_coefficients(cfg, 14), [1, 2], seed=14, backend="bs",
        bs_params=SMALL_BS,
    )
    assert res_p.exit_code == EXIT_OK and res_v.exit_code == EXIT_OK
    blob = b"".join(wire.encode_frame(t, p) for t, p in res_p.transcript.frames)
    assert (len(res_p.transcript.frames), len(blob)) == (657, 25_763)
    assert hashlib.sha256(blob).hexdigest() == (
        "72a54abcc9561f67c37c96bbdafb8403d6b3b3dadbb017c77d1db2c9367a197e"
    )


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
    import logging

    cfg = make_config(GF11, d=9, r=2, c=3, xi=6, query_budget=2)
    coeffs = honest_coefficients(cfg, 30)
    logger = logging.getLogger("polycommit.session")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    try:
        res_p, res_v, outcome = run_pair(cfg, coeffs, [0, 1, 2], seed=30)
    finally:
        logger.removeHandler(handler)
    assert res_v.exit_code == EXIT_OK and len(outcome.recovered) == 3
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
    from polycommit.wire import config_digest

    w = Writer().blob(config_digest(cfg))
    w.elem(GF11, cfg.xi)
    chan_v.send(Tag.NEGOTIATE, w.bytes())
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
            "prover", cfg, 20, addr, coeffs=coeffs, backend="bs", bs_params=SMALL_BS
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
            backend="bs",
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


def test_run_role_rejects_ideal_backend():
    cfg = desk_config()
    with pytest.raises(ValueError):
        run_role("verifier", cfg, 0, ("127.0.0.1", 1), backend="ideal")


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
    """Read frames until the peer's ABORT; return its exit code."""
    while True:
        tag, payload = chan.recv()
        if tag == Tag.ABORT:
            return Reader(payload).u8()


def reveal(positions):
    w = Writer().u32(len(positions))
    for p in positions:
        w.u32(int(p))
    return w.bytes()


def hostile_prover(cfg, after_begin):
    """Answer NEGOTIATE and the first S2PC_BEGIN honestly, then run
    ``after_begin(chan, rng)`` against a bs verifier."""
    verifier = VerifierSession(cfg, [1], BsBackend(SMALL_BS), 40)

    def script(chan):
        assert chan.recv()[0] == Tag.NEGOTIATE
        chan.send(Tag.SET_AGREE, Writer().blob(set_digest(cfg)).bytes())
        assert chan.recv()[0] == Tag.S2PC_BEGIN
        after_begin(chan, random.Random(41))
        return abort_code(chan)

    return run_against(verifier, script)


def send_tape(chan, rng):
    sampler = TapeSampler(SMALL_BS, rng)
    for offset, chunk in iter_tape_chunks(SMALL_BS, rng):
        sampler.consume(offset, chunk)
        payload = Writer().u64(offset).u32(len(chunk)).blob(np.packbits(chunk).tobytes())
        chan.send(Tag.TAPE_CHUNK, payload.bytes())
    return sampler.finish()


def test_dependent_ih_constraints_abort():
    def repeat_one_constraint(chan, rng):
        while True:  # honest broadcasts until the verifier goes on to hashing
            chan.send(Tag.OMEGA_REVEAL, reveal(send_tape(chan, rng).indices))
            r = Reader(chan.recv()[1])
            r.u8()
            if r.u8() == 0:
                break
        t = ih_encoding_bits(SMALL_BS.n, SMALL_BS.subset_size)
        for _ in range(t - 1):
            chan.send(Tag.IH_ROUND, Writer().u8(1).blob(b"\x01").bytes())
            assert chan.recv()[0] == Tag.IH_ROUND

    assert hostile_prover(desk_config(c=1), repeat_one_constraint) == (
        EXIT_PROTOCOL, EXIT_PROTOCOL,
    )


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


def hostile_verifier(cfg, on_frame):
    """Open a commitment against a bs prover, then answer each frame with
    ``on_frame(chan, tag)`` until the prover's ABORT; returns the prover's
    exit code, the ABORT's code and the number of broadcasts seen."""
    prover = ProverSession(cfg, honest_coefficients(cfg, 42), BsBackend(SMALL_BS), 42)

    def script(chan):
        chan.send(Tag.NEGOTIATE, Writer().blob(config_digest(cfg)).elem(GF11, cfg.xi).bytes())
        assert chan.recv()[0] == Tag.SET_AGREE
        chan.send(Tag.S2PC_BEGIN, Writer().u8(1).u32(0).bytes())
        broadcasts = 0
        while True:
            tag, payload = chan.recv()
            if tag == Tag.ABORT:
                return Reader(payload).u8(), broadcasts
            broadcasts += tag == Tag.OMEGA_REVEAL
            on_frame(chan, tag)

    code, (aborted, broadcasts) = run_against(prover, script)
    return code, aborted, broadcasts


def test_endless_rerun_requests_hit_the_broadcast_cap():
    def always_rerun(chan, tag):
        if tag == Tag.OMEGA_REVEAL:
            chan.send(Tag.IH_ROUND, Writer().u8(0).u8(1).bytes())

    assert hostile_verifier(desk_config(c=1), always_rerun) == (
        EXIT_PROTOCOL, EXIT_PROTOCOL, MAX_BROADCASTS,
    )


def test_swap_that_is_not_a_bit_aborts():
    t = ih_encoding_bits(SMALL_BS.n, SMALL_BS.subset_size)
    replies = []

    def bad_swap(chan, tag):
        if tag == Tag.OMEGA_REVEAL:
            chan.send(Tag.IH_ROUND, Writer().u8(0).u8(0).bytes())
        elif tag == Tag.IH_ROUND:
            chan.send(Tag.IH_ROUND, Writer().u8(2).u8(0).bytes())
            replies.append(0)
            if len(replies) == t - 1:
                chan.send(Tag.IH_ROUND, Writer().u8(3).u8(2).bytes())

    assert hostile_verifier(desk_config(c=1), bad_swap) == (EXIT_PROTOCOL, EXIT_PROTOCOL, 1)


# -- hostile field elements: the receiving role ends in exit 4 and an ABORT
# frame, and so does its peer, instead of waiting out its receive timeout --


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


def q_at(data, offset):
    """``data`` with the element at byte ``offset`` replaced by q = 11."""
    return data[:offset] + GF11.q.to_bytes(8, "little") + data[offset + 8 :]


def mangled(backend_cls, mangle, *args):
    """A ``backend_cls`` whose sender passes both messages of its n-th
    1-of-2 through ``mangle(message, n)``."""

    class Mangled(backend_cls):
        calls = 0

        def send(self, chan, m0, m1, rng):
            n, self.calls = self.calls, self.calls + 1
            super().send(chan, mangle(m0, n), mangle(m1, n), rng)

    return Mangled(*args)


OT_MANGLES = {
    "ot-non-canonical": lambda m, n: q_at(m, 0),
    "ot-odd-length": lambda m, n: m[:-1],
    "ot-one-element": lambda m, n: m[:8],
    "ot-mixed-length": lambda m, n: m[: 8 * (3 - n % 2)],
}


@pytest.mark.parametrize("case", ["eval-resp", "eval-req", *OT_MANGLES, "bs-non-canonical"])
def test_hostile_element_ends_both_roles_in_exit_4(case):
    cfg = desk_config(c=1)
    backend, prover_out, verifier_out = IdealBackend(), (), ()
    if case == "eval-resp":  # first v element is q
        prover_out = (Tag.EVAL_RESP, lambda p: q_at(p, 5))
    elif case == "eval-req":  # x = q
        verifier_out = (Tag.EVAL_REQ, lambda p: q_at(p, 0))
    elif case == "bs-non-canonical":
        backend = mangled(BsBackend, OT_MANGLES["ot-non-canonical"], SMALL_BS)
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
    receiver = "prover" if case == "eval-req" else "verifier"
    tag, payload = sides[receiver][1].sent[-1]
    assert tag == Tag.ABORT and Reader(payload).u8() == EXIT_PROTOCOL
