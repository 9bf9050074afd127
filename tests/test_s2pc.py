"""One-sided secure two-party computation over the OT table."""

import itertools

import numpy as np
import pytest

from polycommit import PrimeField, gf4, substream
from polycommit.ot import IdealOt
from polycommit.polymat import power_row
from polycommit.s2pc import (
    S2pcError,
    S2pcSpec,
    build_value_table,
    left_functional,
    right_functional,
    s2pc_run,
)

GF11 = PrimeField(11)
GF4 = gf4()


def test_value_table_high_row_example():
    # left functional on the identity matrix tabulates the high power rows:
    # x**3, x**6 mod 11 for x = 7, 8, 9, 10
    spec = S2pcSpec("left", (7, 8, 9, 10), left_functional(GF11, 3))
    table = build_value_table(GF11, spec, GF11.asarray(np.eye(3, dtype=np.int64)))
    assert [row.tolist() for row in table] == [
        [1, 2, 4],
        [1, 6, 3],
        [1, 3, 9],
        [1, 10, 1],
    ]


def test_value_table_zero_input():
    spec = S2pcSpec("left", (7, 8, 9, 10), left_functional(GF11, 3))
    table = build_value_table(GF11, spec, GF11.zeros((3, 3)))
    assert all(row.tolist() == [0, 0, 0] for row in table)
    assert len(table) == 4


def test_right_functional_is_column():
    rng = substream(2024, "s2pc", "right")
    m = GF11.asarray([[GF11.sample(rng) for _ in range(3)] for _ in range(3)])
    f = right_functional(GF11, 3)
    got = f((5,), m)[0]
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
        left = build_value_table(f, S2pcSpec("left", domain, left_functional(f, s)), m)
        right = build_value_table(f, S2pcSpec("right", domain, right_functional(f, s)), m)
        assert left.shape == right.shape == (len(domain), s)
        for j, z in enumerate(domain):
            high, low = power_row(f, z, s, "high"), power_row(f, z, s, "low")
            assert left[j].tolist() == f.matmul(high[None, :], m)[0].tolist()
            assert right[j].tolist() == f.matmul(m, low).tolist()


def test_spec_rejects_bad_domains():
    f = left_functional(GF11, 3)
    with pytest.raises(S2pcError):
        S2pcSpec("one", (7,), f)
    with pytest.raises(S2pcError):
        S2pcSpec("unsorted", (8, 7), f)
    with pytest.raises(S2pcError):
        S2pcSpec("dup", (7, 7, 8), f)


def test_run_returns_requested_row():
    rng = substream(2024, "s2pc", "run")
    spec = S2pcSpec("left", (7, 8, 9, 10), left_functional(GF11, 3))
    y = GF11.asarray(np.eye(3, dtype=np.int64))
    assert s2pc_run(GF11, 7, y, spec, IdealOt(), rng).tolist() == [1, 2, 4]
    table = build_value_table(GF11, spec, y)
    assert s2pc_run(GF11, spec.domain[0], y, spec, IdealOt(), rng).tolist() == table[0].tolist()


def test_run_exhaustive_over_domain():
    rng = substream(2024, "s2pc", "exhaustive")
    spec = S2pcSpec("left", (7, 8, 9, 10), left_functional(GF11, 3))
    for _ in range(20):
        y = GF11.asarray([[GF11.sample(rng) for _ in range(3)] for _ in range(3)])
        table = build_value_table(GF11, spec, y)
        for j, x in enumerate(spec.domain):
            got = s2pc_run(GF11, x, y, spec, IdealOt(), rng)
            assert got.tolist() == table[j].tolist()


def test_out_of_domain_aborts_before_any_message():
    backend = IdealOt()
    spec = S2pcSpec("left", (7, 8, 9, 10), left_functional(GF11, 3))
    with pytest.raises(S2pcError):
        s2pc_run(GF11, 3, GF11.zeros((3, 3)), spec, backend, substream(0))
    assert backend.sender_trace == []  # nothing was sent


def test_sender_trace_invariant_across_receiver_inputs():
    spec = S2pcSpec("left", (7, 8, 9, 10), left_functional(GF11, 3))
    y = GF11.asarray([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    traces = []
    for x in spec.domain:
        rng = substream(2024, "s2pc", "trace")  # matched sender randomness
        backend = IdealOt()
        s2pc_run(GF11, x, y, spec, backend, rng)
        traces.append(backend.sender_trace)
    assert all(t == traces[0] for t in traces)


def test_receiver_posterior_uniform_on_fiber():
    # Tiny instance: GF(4), s = 2, domain {2, 3}.  Enumerate every sender
    # input y; the receiver's whole view is the output row, so grouping y
    # by output must partition the y-space into equal-size fibers (cosets
    # of a linear map) and the posterior within a fiber is uniform.
    f = left_functional(GF4, 2)
    spec = S2pcSpec("left", (2, 3), f)
    rng = substream(2024, "s2pc", "fiber")
    for x in spec.domain:
        fibers: dict[tuple, list] = {}
        for entries in itertools.product(range(4), repeat=4):
            y = GF4.asarray(entries).reshape(2, 2)
            out = tuple(s2pc_run(GF4, x, y, spec, IdealOt(), rng).tolist())
            fibers.setdefault(out, []).append(entries)
        assert sum(len(v) for v in fibers.values()) == 256
        sizes = {len(v) for v in fibers.values()}
        assert sizes == {256 // len(fibers)}  # uniform posterior on each fiber
