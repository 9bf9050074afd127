"""The commitment's one-sided secure two-party computations: value tables,
and what one S2PC of each kind delivers through ``protocol.commit``."""

import itertools
import queue

import numpy as np
import pytest

from polycommit import PrimeField, gf4, substream
from polycommit.ot import IdealOt
from polycommit.polymat import power_row
from polycommit.protocol import (
    ConfigError,
    ProverKey,
    VerifierKey,
    commit,
    make_config,
    random_matrix,
)
from polycommit.s2pc import LEFT, RIGHT, build_value_table

GF11 = PrimeField(11)
GF4 = gf4()
CFG = make_config(GF11, d=9, r=2, c=1, xi=6)  # reserved set (7, 8, 9, 10)


def test_value_table_high_row_example():
    # the left table of the identity matrix holds the high power rows:
    # x**3, x**6 mod 11 for x = 7, 8, 9, 10
    table = build_value_table(GF11, (7, 8, 9, 10), 3, LEFT, GF11.asarray(np.eye(3, dtype=np.int64)))
    assert [row.tolist() for row in table] == [
        [1, 2, 4],
        [1, 6, 3],
        [1, 3, 9],
        [1, 10, 1],
    ]


def test_value_table_zero_input():
    table = build_value_table(GF11, (7, 8, 9, 10), 3, LEFT, GF11.zeros((3, 3)))
    assert all(row.tolist() == [0, 0, 0] for row in table)
    assert len(table) == 4


def test_right_functional_is_column():
    rng = substream(2024, "s2pc", "right")
    m = GF11.asarray([[GF11.sample(rng) for _ in range(3)] for _ in range(3)])
    got = build_value_table(GF11, (5,), 3, RIGHT, m)[0]
    low = [1, 5, GF11.mul(5, 5)]
    want = [
        (int(m[i, 0]) * low[0] + int(m[i, 1]) * low[1] + int(m[i, 2]) * low[2]) % 11
        for i in range(3)
    ]
    assert got.tolist() == want


def test_value_tables_match_power_row_reference():
    # one matrix product per table equals one power row product per
    # domain element, in int64, object-dtype and table fields
    rng = substream(2024, "s2pc", "reference")
    for f, s, domain in (
        (GF11, 3, (7, 8, 9, 10)),
        (GF4, 2, (2, 3)),
        (PrimeField(2**61 - 1), 4, (5, 6, 2**61 - 2)),
    ):
        m = f.asarray([[f.sample(rng) for _ in range(s)] for _ in range(s)])
        left = build_value_table(f, domain, s, LEFT, m)
        right = build_value_table(f, domain, s, RIGHT, m)
        assert left.shape == right.shape == (len(domain), s)
        for j, z in enumerate(domain):
            high, low = power_row(f, z, s, "high"), power_row(f, z, s, "low")
            assert left[j].tolist() == f.matmul(high[None, :], m)[0].tolist()
            assert right[j].tolist() == f.matmul(m, low).tolist()


def test_run_returns_requested_row():
    # A + B = identity, so the left pick at lambda = 7 is 7's high power
    # row; the right pick at theta is the right table's row at theta
    rng = substream(2024, "s2pc", "run")
    b = random_matrix(GF11, (3, 3), rng)
    a = GF11.vsub(GF11.asarray(np.eye(3, dtype=np.int64)), b)
    vk = commit(a, VerifierKey((7,), (9,)), ProverKey(b), CFG, IdealOt(), rng)
    assert vk.gamma.tolist() == [[1, 2, 4]]
    right = build_value_table(GF11, CFG.prohibited, 3, RIGHT, b)
    assert vk.omega[:, 0].tolist() == right[2].tolist()


def test_run_exhaustive_over_domain():
    rng = substream(2024, "s2pc", "exhaustive")
    for _ in range(20):
        a = random_matrix(GF11, (3, 3), rng)
        b = random_matrix(GF11, (3, 3), rng)
        left = build_value_table(GF11, CFG.prohibited, 3, LEFT, GF11.vadd(a, b))
        right = build_value_table(GF11, CFG.prohibited, 3, RIGHT, b)
        for j, x in enumerate(CFG.prohibited):
            vk = commit(a, VerifierKey((x,), (x,)), ProverKey(b), CFG, IdealOt(), rng)
            assert vk.gamma[0].tolist() == left[j].tolist()
            assert vk.omega[:, 0].tolist() == right[j].tolist()


def test_out_of_domain_aborts_before_any_message():
    # either side's point outside the reserved set: nothing is sent
    zero = GF11.zeros((3, 3))
    for key in (VerifierKey((3,), (7,)), VerifierKey((7,), (3,))):
        box = IdealOt()
        with pytest.raises(ConfigError):
            commit(zero, key, ProverKey(zero), CFG, box, substream(0))
        assert box.sender_trace == []  # no batch, so nothing to take either
        with pytest.raises(queue.Empty):
            box.receive(np.ones(len(CFG.prohibited) - 1, dtype=int), timeout=0)


def test_sender_trace_invariant_across_receiver_inputs():
    y = GF11.asarray([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    traces = []
    for x in CFG.prohibited:
        rng = substream(2024, "s2pc", "trace")  # matched sender randomness
        box = IdealOt()
        commit(y, VerifierKey((x,), (x,)), ProverKey(y), CFG, box, rng)
        assert all(not pairs.flags.writeable for pairs in box.sender_trace)
        traces.append([pairs.tobytes() for pairs in box.sender_trace])
    assert len(traces[0]) == 2 * CFG.c and all(t == traces[0] for t in traces)


def test_receiver_posterior_uniform_on_fiber():
    # Tiny instance: GF(4), s = 2, reserved set {2, 3}, zero mask.  Enumerate
    # every left input A; the receiver's whole view is (Gamma, Omega), so
    # grouping A by view must partition the A-space into equal-size fibers
    # (cosets of a linear map) and the posterior within a fiber is uniform.
    cfg = make_config(GF4, d=4, r=2, c=1, xi=1)
    assert cfg.prohibited == (2, 3)
    mask = ProverKey(GF4.zeros((2, 2)))
    rng = substream(2024, "s2pc", "fiber")
    for x in cfg.prohibited:
        fibers: dict[tuple, list] = {}
        for entries in itertools.product(range(4), repeat=4):
            a = GF4.asarray(entries).reshape(2, 2)
            vk = commit(a, VerifierKey((x,), (x,)), mask, cfg, IdealOt(), rng)
            fibers.setdefault((vk.gamma.tobytes(), vk.omega.tobytes()), []).append(entries)
        assert sum(len(v) for v in fibers.values()) == 256
        sizes = {len(v) for v in fibers.values()}
        assert sizes == {256 // len(fibers)}  # uniform posterior on each fiber
