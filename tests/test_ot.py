"""Oblivious transfer: ideal functionality, bounded-storage sketch, 1-of-c."""

import functools
import hashlib
import itertools
import math
import operator
import random
import threading
from collections import Counter, defaultdict

import numpy as np
import pytest

from polycommit import PrimeField, gf4, ot, substream, wire
from polycommit.field import decode_elements, encode_elements
from polycommit.ot import (
    BsOtParams,
    IdealOt,
    IhSender,
    IntersectionShortfall,
    OtError,
    StoredSample,
    TapeSampler,
    _solve_pair,
    bs_phase1,
    bs_setpair,
    bs_transfer,
    build_reduction_table,
    colex_rank,
    colex_unrank,
    decode_c_of_1,
    decode_pair,
    encode_pair,
    ih_encoding_bits,
    ih_narrow,
    make_bs_params,
    ot_c_of_1,
    ot_c_of_1_receive,
    ot_c_of_1_send,
    row_picks,
)
from polycommit.session import BsBackend, IdealBackend
from polycommit.wire import (
    IH_CONSTRAINT,
    IH_REPLY,
    IH_STATUS,
    IH_SWAP,
    TAPE_CHUNK_BITS,
    DecodeError,
    Tag,
    Writer,
    drive,
    duplex_pair,
    parse,
)

GF11 = PrimeField(11)


# -- ideal 1-of-2 --


def batch(m0s, m1s):
    """The (2, L, w) uint8 batch of the pairs (m0s[j], m1s[j]); the box
    takes a list of batches."""
    return np.array([[list(m) for m in m0s], [list(m) for m in m1s]], dtype=np.uint8)


def test_ideal_ot_selects():
    ot = IdealOt()
    ot.send([batch([b"\x05", b"\x06"], [b"\x09", b"\x0a"])])
    picks = ot.receive((1, 0))
    assert picks.dtype == np.uint8 and picks.tolist() == [[9], [6]]
    ot.send([batch([b"\x05\x07"], [b"\x09\x0b"])])
    assert ot.receive(np.array([0])).tolist() == [[5, 7]]


def test_ideal_ot_identical_messages():
    ot = IdealOt()
    for b in (0, 1):
        ot.send([batch([b"same"], [b"same"])])
        assert ot.receive((b,)).tobytes() == b"same"


def test_ideal_ot_sender_trace_is_choice_free():
    # one read-only record per batch, the same whatever the receiver picks
    # and whatever the sender or the receiver later does to its own array
    traces = []
    for bits in ((0, 1), (1, 0)):
        ot = IdealOt()
        sent = batch([b"\x01\x02", b"\x05\x00"], [b"\x03\x04", b"\x06\x00"])
        ot.send([sent])
        sent[:] = 0
        ot.receive(bits)[:] = 0
        assert len(ot.sender_trace) == 1 and not ot.sender_trace[0].flags.writeable
        traces.append(ot.sender_trace[0].tobytes())
    assert traces[0] == traces[1] == b"\x01\x02\x05\x00\x03\x04\x06\x00"


def test_ideal_ot_rejects_length_mismatch():
    with pytest.raises(ValueError):  # a ragged batch is not even an array
        batch([b"x"], [b"xy"])
    for bad in (
        np.zeros((2, 1), np.uint8),  # no message axis
        np.zeros((3, 1, 1), np.uint8),  # not pairs
        np.zeros((2, 1, 1), np.int64),  # not bytes
    ):
        with pytest.raises(OtError):
            IdealOt().send([bad])
    ot = IdealOt()
    ot.send([batch([b"x", b"y"], [b"z", b"w"])])
    with pytest.raises(OtError):
        ot.receive((0,))  # one choice for a batch of two
    with pytest.raises(OtError):
        ot.receive((2, 0))


# -- reduction table --


def test_reduction_table_example():
    secrets = [GF11.asarray([3]), GF11.asarray([7]), GF11.asarray([2])]
    table = build_reduction_table(GF11, secrets, None, masks=[GF11.asarray([4])])
    assert table.shape == (2, 2, 1)
    assert table[:, :, 0].T.tolist() == [[3, 4], [0, 6]]  # 7+4 = 0 and 2+4 = 6 mod 11


def test_reduction_table_columns_match_definition():
    # column 0 is (a0, r0), middle column j is (a_j + r_{j-1}, r_{j-1} + r_j),
    # the last is (a_{c-2} + r_{c-3}, a_{c-1} + r_{c-3}); rows are vectors
    rng = substream(2024, "ot", "columns")
    for f in (GF11, gf4(), PrimeField(2**61 - 1)):
        for c in (3, 4, 7):
            a = [f.asarray([f.sample(rng) for _ in range(3)]) for _ in range(c)]
            r = [f.asarray([f.sample(rng) for _ in range(3)]) for _ in range(c - 2)]
            want = [(a[0], r[0])]
            want += [(f.vadd(a[j], r[j - 1]), f.vadd(r[j - 1], r[j])) for j in range(1, c - 2)]
            want += [(f.vadd(a[c - 2], r[c - 3]), f.vadd(a[c - 1], r[c - 3]))]
            table = build_reduction_table(f, a, None, masks=r)
            assert table.shape == (2, c - 1, 3)
            for j, (top, bottom) in enumerate(want):
                assert table[0, j].tolist() == top.tolist()
                assert table[1, j].tolist() == bottom.tolist()


def test_reduction_table_c2_degenerate():
    table = build_reduction_table(GF11, [GF11.asarray([5]), GF11.asarray([9])], None)
    assert table.shape == (2, 1, 1)
    assert (int(table[0, 0, 0]), int(table[1, 0, 0])) == (5, 9)


def test_reduction_table_mask_uniformity():
    rng = substream(2024, "ot", "mask-chi2")
    secrets = [GF11.asarray([1]), GF11.asarray([2]), GF11.asarray([3])]
    n = 22_000
    counts = Counter()
    for _ in range(n):
        table = build_reduction_table(GF11, secrets, rng)
        counts[int(table[1, 0, 0])] += 1  # r0 sits in column 0, row 2
    p = 1 / 11
    sigma = math.sqrt(n * p * (1 - p))
    for v in range(11):
        assert abs(counts[v] - n * p) <= 5 * sigma


def test_row_picks_patterns():
    assert row_picks(0, 3).tolist() == [0, 1]
    assert row_picks(2, 3).tolist() == [1, 1]
    assert row_picks(1, 3).tolist() == [1, 0]
    assert row_picks(0, 2).tolist() == [0]
    assert row_picks(1, 2).tolist() == [1]
    with pytest.raises(OtError):
        row_picks(3, 3)


def test_decode_examples():
    # table for secrets (3, 7, 2), r0 = 4 over GF(11): [(3,4), (0,6)]
    col = lambda *vals: [GF11.asarray([v]) for v in vals]
    assert int(decode_c_of_1(GF11, col(4, 6), 2, 3)[0]) == 2  # 6 - 4
    assert int(decode_c_of_1(GF11, col(4, 0), 1, 3)[0]) == 7  # 0 - 4
    assert int(decode_c_of_1(GF11, col(3, 6), 0, 3)[0]) == 3  # direct


@pytest.mark.parametrize(
    "field, c, width",
    [
        (PrimeField(1_000_667), 620, 63),  # commit-s63: the int64 product
        (PrimeField((1 << 31) - 1), 40, 5),  # blocked int64 product
        (PrimeField((1 << 31) + 11), 40, 5),  # object dtype
        (gf4(), 40, 5),
    ],
)
def test_decode_every_index_of_a_reduction_table(field, c, width):
    rng = substream(2024, "ot", "decode-every", field.q)
    secrets = field.vsample(rng, c * width).reshape(c, width)
    table = build_reduction_table(field, secrets, rng)
    for i in range(c):
        received = table[list(row_picks(i, c)), np.arange(c - 1)]
        assert decode_c_of_1(field, received, i, c).tolist() == secrets[i].tolist()


def test_ot_c_of_1_exhaustive_indices():
    rng = substream(2024, "ot", "exhaustive")
    for c in (2, 3, 5, 8, 16, 32):
        for _ in range(6):
            secrets = [
                GF11.asarray([GF11.sample(rng) for _ in range(3)]) for _ in range(c)
            ]
            for i in range(c):
                got = ot_c_of_1(GF11, secrets, i, IdealOt(), rng)
                assert got.tolist() == secrets[i].tolist()


def test_ot_c_of_1_gf4():
    rng = substream(2024, "ot", "gf4")
    f = gf4()
    secrets = [f.asarray([f.sample(rng) for _ in range(2)]) for _ in range(4)]
    for i in range(4):
        assert ot_c_of_1(f, secrets, i, IdealOt(), rng).tolist() == secrets[i].tolist()


def test_ot_c_of_1_sender_trace_independent_of_target():
    # With the ideal backend and matched sender randomness the deposited
    # table is identical whatever the receiver wants.
    traces = []
    for i in (0, 1, 2):
        rng = substream(2024, "ot", "trace")  # matched sender randomness
        backend = IdealOt()
        secrets = [GF11.asarray([j + 1]) for j in range(3)]
        ot_c_of_1(GF11, secrets, i, backend, rng)
        traces.append([pairs.tobytes() for pairs in backend.sender_trace])
    assert traces[0] == traces[1] == traces[2]


def test_reduction_sender_privacy_posterior_uniform():
    # Enumerate all (secrets, mask) over GF(3) consistent with a fixed
    # receiver view; the posterior on the unchosen secrets must be uniform.
    f = PrimeField(3)
    c = 3
    for i in range(c):
        picks = row_picks(i, c)
        views = defaultdict(list)
        for a0, a1, a2, r0 in itertools.product(range(3), repeat=4):
            secrets = [f.asarray([a]) for a in (a0, a1, a2)]
            table = build_reduction_table(f, secrets, None, masks=[f.asarray([r0])])
            view = tuple(int(table[picks[j], j, 0]) for j in range(c - 1))
            views[view].append((a0, a1, a2))
        others = [j for j in range(c) if j != i]
        for view, tuples in views.items():
            # target secret is pinned by the view
            assert len({t[i] for t in tuples}) == 1
            counts = Counter(tuple(t[j] for j in others) for t in tuples)
            assert len(counts) == 9  # all 3^2 combinations appear
            assert len(set(counts.values())) == 1  # uniformly


# -- bounded-storage phase 1 --


TWO_CHUNKS = make_bs_params(N=2**18, ell=8, k=8)  # K = TAPE_CHUNK_BITS + 1


def test_bs_params_formula():
    p = make_bs_params(N=4096, alpha=2.0, ell=16)
    assert p.n == 363  # ceil(sqrt(2*16*4096)) = ceil(362.04)
    assert p.K == 2 * 4096 + 1
    assert p.n <= p.N
    with pytest.raises(OtError):
        make_bs_params(N=4096, alpha=0.5)
    with pytest.raises(OtError):
        make_bs_params(ell=4)


def test_bs_params_refuse_tapes_past_u32():
    # positions travel as u32 words and are drawn as 32-bit words
    assert make_bs_params(N=(1 << 31) - 1, alpha=2.0, k=1).K == (1 << 32) - 1
    for N, alpha in (((1 << 31) - 1, 2.0000001), (1 << 31, 2.0), (1 << 32, 1.5)):
        with pytest.raises(OtError, match="below 2\\^32"):
            make_bs_params(N=N, alpha=alpha, k=1)


def test_phase1_bookkeeping_and_meter():
    # a tape of one chunk; one whose second chunk is a single bit; and one
    # whose second chunk is full, so about half the stored bits come from it
    three_chunks = make_bs_params(N=2**19, ell=8, k=8)
    for params in (make_bs_params(N=4096, ell=16), TWO_CHUNKS, three_chunks):
        rng = substream(2024, "ot", "phase1")
        tape, sa, sb = bs_phase1(params, rng)
        assert len(tape) == params.K
        for sample in (sa, sb):
            assert len(sample.indices) == len(sample.bits) == params.n <= params.N
            assert np.array_equal(sample.bits, tape[sample.indices])


@pytest.mark.parametrize(
    "params",
    [
        make_bs_params(),
        make_bs_params(N=4096, ell=16, k=8),
        make_bs_params(N=1024, ell=16),
        make_bs_params(N=256, ell=8),
        BsOtParams(N=1 << 15, K=1 << 16, alpha=2.0, ell=64, n=2048, k=1),
        BsOtParams(N=1 << 15, K=(1 << 16) - 1, alpha=2.0, ell=64, n=2048, k=1),
    ],
    ids=["default", "N4096", "N1024", "N256", "K-2^16", "K-2^16-1"],
)
def test_tape_positions_are_the_sample_stream(params):
    # the bulk draw takes the words rng.sample would, no more; K = 2^16
    # draws 17-bit values and rejects about half of them
    for seed in range(20):
        ours, ref = random.Random(seed), random.Random(seed)
        indices = TapeSampler(params, ours).indices
        expected = np.array(sorted(ref.sample(range(params.K), params.n)))
        assert indices.dtype == expected.dtype
        assert np.array_equal(indices, expected)
        assert ours.getstate() == ref.getstate()


def test_phase1_intersection_mean():
    # E|intersection| = n^2/K for two uniform n-subsets of [K].
    params = make_bs_params(N=1024, ell=16)
    rng = substream(2024, "ot", "hyper")
    runs = 200
    sizes = []
    for _ in range(runs):
        _, sa, sb = bs_phase1(params, rng)
        sizes.append(len(np.intersect1d(sa.indices, sb.indices)))
    n, K = params.n, params.K
    mean = n * n / K
    var = n * (n / K) * (1 - n / K) * (K - n) / (K - 1)
    sigma_mean = math.sqrt(var / runs)
    assert abs(np.mean(sizes) - mean) <= 3 * sigma_mean


# -- colex encoding --


def test_colex_rank_unrank_round_trip():
    for size, universe in ((1, 8), (3, 10), (5, 12)):
        for subset in itertools.combinations(range(universe), size):
            r = colex_rank(subset)
            assert colex_unrank(r, size, universe) == sorted(subset)
    # ranks enumerate [0, C(n, k)) exactly
    ranks = sorted(colex_rank(s) for s in itertools.combinations(range(9), 4))
    assert ranks == list(range(math.comb(9, 4)))


# -- interactive hashing --


def tiny_params(K=16, n=8, ell=2, k=1):
    return BsOtParams(N=K, K=K, alpha=1.0, ell=ell, n=n, k=k)


def make_sample(params, indices, tape):
    idx = np.array(sorted(indices))
    return StoredSample(params, idx, tape[idx])


def test_setpair_contract_holds():
    params = make_bs_params(N=1024, ell=16)
    master = substream(2024, "ot", "setpair")
    done = 0
    attempt = 0
    while done < 5:
        attempt += 1
        rng = substream(2024, "ot", "setpair", attempt)
        _, sa, sb = bs_phase1(params, rng)
        b = master.randrange(2)
        try:
            pair, transcript = bs_setpair(sa, sb, b, params.k, rng, rng)
        except IntersectionShortfall:
            continue
        done += 1
        assert len(pair.x0) == len(pair.x1) == params.subset_size
        assert set(pair.x0) <= set(sa.indices) and set(pair.x1) <= set(sa.indices)
        assert set(pair.chosen()) <= set(sb.indices)
        assert len(transcript.rounds) == transcript.t - 1 >= params.k


def test_setpair_transcripts_identical_for_both_choices():
    # Exhaustive tiny instance: fixed tape, sender positions and sender
    # randomness; enumerate the receiver tape = (position set, subset pick).
    # The transcript multisets for b = 0 and b = 1 must coincide exactly.
    params = tiny_params()
    rng = substream(2024, "ot", "tiny-tape")
    tape = np.array([rng.randrange(2) for _ in range(params.K)], dtype=np.uint8)
    omega_a = list(range(0, 16, 2))  # fixed sender positions, n = 8
    sa = make_sample(params, omega_a, tape)
    t = ih_encoding_bits(params.n, params.subset_size)

    # Sender constraints depend only on her own randomness, so the accepted
    # h-sequence is one fixed sequence; memoize the narrowing per encoding.
    narrowed = {}
    for w in range(math.comb(params.n, params.subset_size)):
        if w >= 1 << t:
            continue
        rounds, w0, w1 = ih_narrow(t, w, random.Random(7))
        narrowed[w] = (tuple(r for _, r in rounds), w0, w1)

    multisets = {0: Counter(), 1: Counter()}
    for omega_b in itertools.combinations(range(params.K), params.n):
        shared = [p for p in range(params.n) if omega_a[p] in omega_b]
        if len(shared) < params.ell:
            continue
        for pick in itertools.combinations(shared, params.subset_size):
            w = colex_rank(pick)
            if w >= 1 << t:
                continue
            replies, w0, w1 = narrowed[w]
            mine = 0 if w == w0 else 1
            for b in (0, 1):
                multisets[b][(replies, mine ^ b)] += 1
    assert sum(multisets[0].values()) > 0
    assert multisets[0] == multisets[1]

    # and the memoized math path agrees with bs_setpair itself
    omega_b = list(range(0, 16, 2))[:4] + [1, 3, 5, 7]
    sb = make_sample(params, omega_b, tape)
    shared = [p for p in range(params.n) if omega_a[p] in omega_b]
    pick = (shared[0],)  # positions within the sender's index list
    pair, transcript = bs_setpair(
        sa, sb, 1, params.k, random.Random(7), None, subset_choice=pick
    )
    replies, w0, w1 = narrowed[colex_rank(pick)]
    assert tuple(r for _, r in transcript.rounds) == replies
    assert transcript.swap == (0 if colex_rank(pick) == w0 else 1) ^ 1


@pytest.mark.parametrize(
    "choice", [(2, 2), (0, 5), (0, 1, 2)], ids=["repeated", "unshared", "wrong-size"]
)
def test_setpair_refuses_a_malformed_subset_choice(choice):
    # the receiver shares the sender's first four positions; a repeated
    # position would rank to a set the caller never named
    params = tiny_params(ell=4)
    tape = np.zeros(params.K, dtype=np.uint8)
    sa = make_sample(params, range(0, 16, 2), tape)
    sb = make_sample(params, [0, 2, 4, 6, 1, 3, 5, 7], tape)
    with pytest.raises(OtError, match="subset_choice"):
        bs_setpair(sa, sb, 0, params.k, random.Random(7), None, subset_choice=choice)


def gf2_rank(rows):
    pivots = {}
    for row in rows:
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


def parities(hs, w):
    return [(h & w).bit_count() & 1 for h in hs]


@pytest.mark.parametrize("t", range(2, 13))
def test_solve_pair_matches_brute_force(t):
    # For random independent constraints and every t-bit w, the solve
    # returns exactly the t-bit words with w's replies, sorted.
    rng = random.Random(t)
    for _ in range(3):
        hs = []
        while gf2_rank(hs) < t - 1:
            hs = [rng.getrandbits(t) for _ in range(t - 1)]
        words = defaultdict(list)
        for w in range(1 << t):
            words[tuple(parities(hs, w))].append(w)
        assert all(len(ws) == 2 for ws in words.values())
        for w in range(1 << t):
            replies = parities(hs, w)
            assert _solve_pair(list(zip(hs, replies)), t) == tuple(words[tuple(replies)])
        w = rng.getrandbits(t)
        replies = parities(hs, w)
        total = functools.reduce(operator.xor, hs)
        with pytest.raises(OtError, match="inconsistent"):
            _solve_pair(
                [*zip(hs, replies), (total, functools.reduce(operator.xor, replies) ^ 1)], t
            )
        dependent = hs[:-1] + [functools.reduce(operator.xor, hs[:-1], 0)]
        with pytest.raises(OtError, match="not independent"):
            _solve_pair(list(zip(dependent, parities(dependent, w))), t)


@pytest.mark.parametrize("t", [3, 4, 5, 8, 60, 250])
def test_ih_sender_solutions_match_solve_pair(t):
    # the sender's back-substitution over her kept rows solves what the
    # full elimination solves; replies are random bits, not those of one w
    for seed in range(30):
        replies = random.Random(-seed)
        sender = IhSender(t, random.Random(seed))
        assert len(sender.constraints) == t - 1  # all drawn when built
        for _ in range(t - 1):
            sender.push_reply(replies.getrandbits(1))
        assert sender.solutions() == _solve_pair(sender.rounds, t)


def test_ih_sender_solves_only_after_every_reply():
    sender = IhSender(8, random.Random(1))
    sender.push_reply(1)
    with pytest.raises(OtError, match="replies"):
        sender.solutions()


def test_setpair_insufficient_intersection_is_retriable():
    params = tiny_params(ell=6)
    tape = np.zeros(params.K, dtype=np.uint8)
    sa = make_sample(params, range(0, 16, 2), tape)
    sb = make_sample(params, [0, 2, 1, 3, 5, 7, 9, 11], tape)  # only 2 shared
    with pytest.raises(IntersectionShortfall):
        bs_setpair(sa, sb, 0, 1, random.Random(1), random.Random(2))


# -- transfer and extractor --


def run_tiny_session(b, seed=5):
    params = tiny_params(K=32, n=12, ell=4, k=1)
    rng = substream(2024, "ot", "tiny-session", seed)
    tape = np.array([rng.randrange(2) for _ in range(params.K)], dtype=np.uint8)
    sa = make_sample(params, rng.sample(range(params.K), params.n), tape)
    while True:
        sb = make_sample(params, rng.sample(range(params.K), params.n), tape)
        try:
            pair, _ = bs_setpair(sa, sb, b, params.k, rng, rng)
            return params, tape, sa, sb, pair, rng
        except IntersectionShortfall:
            continue


def test_transfer_recovers_chosen_message():
    for b in (0, 1):
        _, _, sa, sb, pair, rng = run_tiny_session(b)
        m0, m1 = b"\xaa\x01", b"\x5b\x02"
        assert bs_transfer(m0, m1, pair, sa, sb, rng) == (m0, m1)[b]


def test_pad_reads_the_stored_bits():
    # the pad against a per-position reference; an unstored position raises
    _, _, sa, sb, pair, _ = run_tiny_session(1)
    positions = pair.chosen()
    r = sum(int(sb.bits[np.searchsorted(sb.indices, p)]) << j for j, p in enumerate(positions))
    rows = random.Random(99)
    pad = sum(((rows.getrandbits(len(positions)) & r).bit_count() & 1) << j for j in range(24))
    assert decode_pair(99, bytes(3), positions, sb) == pad.to_bytes(3, "little")
    unstored = next(p for p in range(sb.params.K) if p not in set(sb.indices.tolist()))
    with pytest.raises(OtError, match=f"position {unstored} was not stored"):
        decode_pair(99, bytes(3), np.append(positions, unstored), sb)


def test_transfer_equal_messages_agree():
    _, _, sa, sb, pair, rng = run_tiny_session(0)
    assert bs_transfer(b"zz", b"zz", pair, sa, sb, rng) == b"zz"


def test_unknown_bits_make_other_decode_a_coinflip():
    # Enumerate every assignment of the tape bits the receiver is missing
    # from the other set: extractor output bits whose parity row touches a
    # missing position are right for exactly half the assignments; rows
    # supported on known positions are always right.
    params, tape, sa, sb, pair, rng = run_tiny_session(0, seed=3)
    other = pair.other()
    known = [int(p) for p in other if p in set(sb.indices.tolist())]
    missing = [int(p) for p in other if p not in set(sb.indices.tolist())]
    assert missing, "seed chosen so the receiver misses at least one bit"
    m0, m1 = b"\x37", b"\xc4"
    enc = encode_pair(m0, m1, pair.x0, pair.x1, sa, (rng.getrandbits(64), rng.getrandbits(64)))
    truth = (m0, m1)[1 - pair.choice]
    seed, ct = enc[1 - pair.choice]

    rows = random.Random(seed)
    row_masks = [rows.getrandbits(len(other)) for _ in range(8 * len(truth))]
    pos_index = {int(p): j for j, p in enumerate(other)}
    correct_counts = np.zeros(8 * len(truth))
    n_assignments = 1 << len(missing)
    for assign in range(n_assignments):
        r = 0
        for p in known:
            r |= int(sb.bits[np.searchsorted(sb.indices, p)]) << pos_index[p]
        for j, p in enumerate(missing):
            r |= ((assign >> j) & 1) << pos_index[p]
        for bit in range(8 * len(truth)):
            pad_bit = (row_masks[bit] & r).bit_count() & 1
            ct_bit = (ct[bit // 8] >> (bit % 8)) & 1
            truth_bit = (truth[bit // 8] >> (bit % 8)) & 1
            correct_counts[bit] += (ct_bit ^ pad_bit) == truth_bit
    for bit in range(8 * len(truth)):
        touches_missing = any(
            (row_masks[bit] >> pos_index[p]) & 1 for p in missing
        )
        if touches_missing:
            assert correct_counts[bit] == n_assignments // 2
        else:
            assert correct_counts[bit] == n_assignments


def test_missing_bit_statistics_over_200_runs():
    # Pooled over 200 desk runs with random tapes: extractor output bits
    # whose parity row touches a tape bit the receiver is missing decode
    # correctly half the time (the receiver guesses missing bits as 0);
    # bits with fully known support decode correctly always.  Per-run rates
    # are independent, so a 4-sigma band on their mean is a sound check.
    params = make_bs_params(N=1024, ell=16, k=4)
    clean_correct = clean_total = 0
    per_run_rates = []
    done = attempt = 0
    while done < 200:
        attempt += 1
        rng = substream(2024, "ot", "missing-stats", attempt)
        _, sa, sb = bs_phase1(params, rng)
        b = rng.randrange(2)
        try:
            pair, _ = bs_setpair(sa, sb, b, params.k, rng, rng)
        except IntersectionShortfall:
            continue
        done += 1
        m0 = bytes([done % 256, 17, (done * 5) % 256, 91])
        m1 = bytes([(done * 3) % 256, 44, done % 251, 7])
        enc = encode_pair(m0, m1, pair.x0, pair.x1, sa, (rng.getrandbits(64), rng.getrandbits(64)))
        other = pair.other()
        known = set(sb.indices.tolist())
        r_guess = 0
        missing_mask = 0
        for j, pos in enumerate(other):
            if int(pos) in known:
                r_guess |= int(sb.bits[np.searchsorted(sb.indices, pos)]) << j
            else:
                missing_mask |= 1 << j
        truth = (m0, m1)[1 - b]
        seed, ct = enc[1 - b]
        rows = random.Random(seed)
        affected = correct = 0
        for bit in range(8 * len(truth)):
            row = rows.getrandbits(len(other))
            pad_bit = (row & r_guess).bit_count() & 1
            got = ((ct[bit // 8] >> (bit % 8)) & 1) ^ pad_bit
            want = (truth[bit // 8] >> (bit % 8)) & 1
            if row & missing_mask:
                affected += 1
                correct += got == want
            else:
                clean_total += 1
                clean_correct += got == want
        if affected:
            per_run_rates.append(correct / affected)
    assert clean_correct == clean_total
    assert len(per_run_rates) >= 190
    mean = sum(per_run_rates) / len(per_run_rates)
    var = sum((r - mean) ** 2 for r in per_run_rates) / (len(per_run_rates) - 1)
    stderr = math.sqrt(var / len(per_run_rates))
    assert abs(mean - 0.5) <= 4 * max(stderr, 1e-6)


def test_criterion_8_draws_keep_their_order():
    # Pinned before the one-lane functions ran the lane steps: the sender's
    # positions, then the receiver's, then the tape; the receiver's subset
    # before the sender's constraints; then the seeds.  Any reordered draw
    # moves the samples, the transcript or the generator's final state.
    params = make_bs_params()
    h = hashlib.sha256()
    for run in range(3):
        rng = substream(2024, "ot", "draw-order", run)
        b = rng.randrange(2)
        m0, m1 = bytes([run, 1]), bytes([run * 7 % 256, 2])
        while True:
            tape, sa, sb = bs_phase1(params, rng)
            try:
                pair, transcript = bs_setpair(sa, sb, b, params.k, rng, rng)
            except IntersectionShortfall:
                continue
            break
        got = bs_transfer(m0, m1, pair, sa, sb, rng)
        assert got == (m0, m1)[b]
        for a in (tape, sa.indices, sa.bits, sb.indices, sb.bits, pair.x0, pair.x1):
            h.update(a.tobytes())
        h.update(repr((pair.choice, transcript.t, transcript.rounds, transcript.swap, got)).encode())
        h.update(repr(rng.getstate()).encode())
    assert h.hexdigest() == "bd6c74e6cd045b10f5cac15498ae645ffabe11b88339bfcb3fe648907386cf34"


def test_criterion_8_runs_the_lane_steps(monkeypatch):
    # One criterion-8 transfer at the desk parameters pumps the frames a
    # one-lane batch sends on the wire, each parsed to its last byte: one
    # tape chunk, the reveal, the status, t-1 constraint/reply rounds, the
    # swap and the encoded pair.
    frames = []

    def recording(sender, receiver):
        out = wire.pump(sender, receiver)
        frames.extend(out[2])
        return out

    monkeypatch.setattr(ot, "pump", recording)
    params = make_bs_params()
    rng = substream(2024, "ot", "lane-steps")
    b = rng.randrange(2)
    while True:
        frames.clear()
        _, sa, sb = bs_phase1(params, rng)
        try:
            pair, transcript = bs_setpair(sa, sb, b, params.k, rng, rng)
        except IntersectionShortfall:
            continue
        break
    assert bs_transfer(b"\x01\x02", b"\x03\x04", pair, sa, sb, rng) == (b"\x01\x02", b"\x03\x04")[b]
    t = transcript.t
    kinds = [(Tag.TAPE_CHUNK, None), (Tag.OMEGA_REVEAL, None), (Tag.IH_ROUND, IH_STATUS)]
    kinds += [(Tag.IH_ROUND, IH_CONSTRAINT), (Tag.IH_ROUND, IH_REPLY)] * (t - 1)
    kinds += [(Tag.IH_ROUND, IH_SWAP), (Tag.ENCODED_PAIR, None)]
    values = [parse(tag, payload) for tag, payload in frames]
    assert [(tag, v[0] if tag == Tag.IH_ROUND else None) for (tag, _), v in zip(frames, values)] == kinds
    assert values[2] == (IH_STATUS, 0) and values[-2] == (IH_SWAP, bytes([transcript.swap]))
    replies = [v[1] for v in values[4:-2:2]]
    assert replies == [bytes([reply]) for _, reply in transcript.rounds]


def over_duplex(backend, batches, bits, seed, wrap=lambda chan: chan):
    """A list of (2, L_k, w) batches, sent as one, through ``backend``: the
    sender's step on its own thread over ``wrap`` of its end of a duplex
    pair, the receiver's here; the receiver's picks."""
    chan_s, chan_r = duplex_pair(timeout=10)
    step = backend.send(batches, random.Random(seed))
    sender = threading.Thread(target=drive, args=(wrap(chan_s), step))
    sender.start()
    try:
        return drive(chan_r, backend.receive(bits, random.Random(1000 + seed)))
    finally:
        sender.join(timeout=10)
        assert not sender.is_alive()


def test_bs_backend_end_to_end():
    # the shipped transfer: both wire roles over a duplex pair, the sender
    # on its own thread; 20 random transfers in batches of 1 to 5
    backend = BsBackend(make_bs_params(N=4096, ell=16))
    rng = substream(2024, "ot", "bs-wire")
    for run, size in enumerate((1, 5, 4, 3, 2, 5)):
        pairs = np.frombuffer(rng.randbytes(2 * size * 6), np.uint8).reshape(2, size, 6)
        bits = [rng.randrange(2) for _ in range(size)]
        got = over_duplex(backend, [pairs], bits, run)
        assert got.tolist() == [pairs[b, j].tolist() for j, b in enumerate(bits)]


def test_bs_backend_streams_each_tape_in_two_chunks():
    # every broadcast is one full chunk and then one bit at offset
    # TAPE_CHUNK_BITS, which the receiver checks before storing it
    assert TWO_CHUNKS.K == TAPE_CHUNK_BITS + 1
    rng = substream(2024, "ot", "two-chunks")
    pairs = np.frombuffer(rng.randbytes(2 * 3 * 4), np.uint8).reshape(2, 3, 4)
    bits = [1, 0, 1]
    got = over_duplex(BsBackend(TWO_CHUNKS), [pairs], bits, 0)
    assert got.tolist() == [pairs[b, j].tolist() for j, b in enumerate(bits)]


@pytest.mark.parametrize("c, width", [(2, 1), (2, 3), (5, 1), (4, 2)])
def test_ideal_and_bs_backends_return_the_same_picks(c, width):
    # two reductions' batches of 1-byte GF(11) elements, sent as one the
    # way a commitment sends its runs, through both backends; c = 2 is one
    # column and no masks
    rng = substream(2024, "ot", "backends", c, width)
    secrets = [GF11.vsample(rng, c * width).reshape(c, width) for _ in range(2)]
    batches = [ot_c_of_1_send(GF11, run, rng) for run in secrets]
    targets = [rng.randrange(c) for _ in secrets]
    bits = np.concatenate([row_picks(i, c) for i in targets])
    ideal = over_duplex(IdealBackend(), batches, bits, 0)
    bs = over_duplex(BsBackend(make_bs_params(N=4096, ell=16)), batches, bits, 0)
    lanes = 2 * (c - 1)
    assert ideal.dtype == bs.dtype == np.uint8 and ideal.shape == bs.shape == (lanes, width)
    assert np.array_equal(ideal, bs)
    assert np.array_equal(ideal, np.concatenate(batches, axis=1)[bits, np.arange(lanes)])
    for run, i, picks in zip(secrets, targets, np.split(bs, 2)):
        assert ot_c_of_1_receive(GF11, picks, i, c, width).tolist() == run[i].tolist()


def test_bs_backend_refuses_ragged_lane_messages():
    # a sender whose ENCODED_PAIR cuts j bytes off both ciphertexts of lane j
    class Ragged:
        def __init__(self, inner):
            self.inner, self.recv = inner, inner.recv

        def send(self, tag, payload):
            if tag == Tag.ENCODED_PAIR:
                w = Writer()
                for j, pair in enumerate(parse(tag, payload)):
                    for seed, ciphertext in pair:
                        w.u64(seed).blob(ciphertext[: len(ciphertext) - j])
                payload = w.bytes()
            self.inner.send(tag, payload)

    backend = BsBackend(make_bs_params(N=4096, ell=16))
    with pytest.raises(DecodeError):
        over_duplex(backend, [np.zeros((2, 2, 3), np.uint8)], [0, 1], 0, wrap=Ragged)


def test_element_codec_round_trip():
    f = gf4()
    data = encode_elements(f, [0, 3, 2])
    assert len(data) == 3
    assert decode_elements(f, data).tolist() == [0, 3, 2]
    data11 = encode_elements(GF11, [7])
    assert data11 == b"\x07"
    assert decode_elements(GF11, data11).tolist() == [7]
