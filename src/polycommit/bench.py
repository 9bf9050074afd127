"""Instrumented operation counts and wall-clock probes.

A counting proxy wraps a field backend and tallies elementwise operations
(vector and matrix calls add their element counts), so the prover/verifier
work per evaluation round can be measured rather than argued.  The
expected shape: prover ~ a few s**2 = d per round, verifier ~ a few c*s =
c*sqrt(d), so a 4x degree step multiplies prover counts by ~4 and verifier
counts by ~2.

The benchmark degrees have even s (100, 200, 400 and 1000), and only even
s has no admissible configuration: gcd(s, q-1) = 1 fails for every odd
prime q, and table fields cannot hold the reserved set.  So benchmarks
assemble the raw configuration directly; the asymptotics do not depend on
those validity constraints.  Every odd s has admissible prime-field
configurations (``suggest_prime_modulus`` finds one).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .field import PrimeField
from .protocol import (
    EvalResponse,
    ProtocolConfig,
    VerificationKey,
    VerifierKey,
    evaluate,
    keygen_prover,
    lambda_matrix,
    matrix_side,
    random_matrix,
    recover,
    theta_matrix,
    verify,
)
from .seeds import substream

__all__ = ["OpCounter", "CountingField", "BenchReport", "bench_round", "run_bench", "wall_clock_probe"]


@dataclass
class OpCounter:
    mul: int = 0
    add: int = 0
    other: int = 0

    @property
    def total(self) -> int:
        return self.mul + self.add + self.other

    def reset(self):
        self.mul = self.add = self.other = 0


class CountingField:
    """Field proxy tallying elementwise operation counts."""

    def __init__(self, inner):
        self._inner = inner
        self.counter = OpCounter()
        self.q = inner.q
        self.dtype = inner.dtype

    # scalar ops
    def check(self, a):
        return self._inner.check(a)

    def add(self, a, b):
        self.counter.add += 1
        return self._inner.add(a, b)

    def sub(self, a, b):
        self.counter.add += 1
        return self._inner.sub(a, b)

    def mul(self, a, b):
        self.counter.mul += 1
        return self._inner.mul(a, b)

    def neg(self, a):
        self.counter.add += 1
        return self._inner.neg(a)

    def inv(self, a):
        self.counter.other += 1
        return self._inner.inv(a)

    def pow(self, a, e):
        self.counter.mul += 2 * max(int(e).bit_length(), 1)
        return self._inner.pow(a, e)

    def sample(self, rng):
        return self._inner.sample(rng)

    def vsample(self, rng, n):
        return self._inner.vsample(rng, n)

    # array ops
    def asarray(self, values):
        return self._inner.asarray(values)

    def zeros(self, shape):
        return self._inner.zeros(shape)

    def _size(self, a):
        return int(np.asarray(a).size)

    def vadd(self, a, b):
        self.counter.add += max(self._size(a), self._size(b))
        return self._inner.vadd(a, b)

    def vsub(self, a, b):
        self.counter.add += max(self._size(a), self._size(b))
        return self._inner.vsub(a, b)

    def vmul(self, a, b):
        self.counter.mul += max(self._size(a), self._size(b))
        return self._inner.vmul(a, b)

    def matmul(self, a, b):
        a2 = np.atleast_2d(a)
        cols = 1 if b.ndim == 1 else b.shape[1]
        self.counter.mul += a2.shape[0] * a2.shape[1] * cols
        self.counter.add += a2.shape[0] * max(a2.shape[1] - 1, 0) * cols
        return self._inner.matmul(a, b)


@dataclass
class BenchReport:
    d: int
    s: int
    c: int
    prover_ops: int
    verifier_ops: int
    prover_seconds: float
    verifier_seconds: float


def _raw_config(field, d: int, c: int) -> ProtocolConfig:
    s = matrix_side(d)
    # no validation: see module docstring; the reserved set only needs
    # distinct points for the key matrices here
    prohibited = tuple(range(2, 2 + max(c, 2)))
    return ProtocolConfig(
        field=field, d=d, s=s, r=2, c=c, xi=field.q - 1, prohibited=prohibited
    )


def _round_setup(field, d: int, c: int, rng):
    """The raw configuration, A and B drawn from ``rng``, a fixed verifier
    key, and (Gamma, Omega) built directly."""
    cfg = _raw_config(field, d, c)
    a = random_matrix(field, (cfg.s, cfg.s), rng)
    pk = keygen_prover(cfg, rng)
    key = VerifierKey(tuple(range(2, 2 + c)), tuple(range(2, 2 + c)))
    vk = VerificationKey(
        gamma=field.matmul(lambda_matrix(cfg, key), field.vadd(a, pk.mask)),
        omega=field.matmul(pk.mask, theta_matrix(cfg, key).T),
    )
    return cfg, a, pk, key, vk


def bench_round(
    d: int, c: int = 10, q: int = 1_000_003, rounds: int = 3, seed: int = 7
) -> BenchReport:
    """Measure per-round prover and verifier operation counts at degree d."""
    field = CountingField(PrimeField(q))
    rng = substream(seed, "bench", d)
    cfg, a, pk, key, vk = _round_setup(field, d, c, rng)
    xs = [rng.randrange(2) + 3 * i + 1 for i in range(rounds)]
    responses: list[EvalResponse] = []
    field.counter.reset()
    t0 = time.perf_counter()
    for x in xs:
        responses.append(evaluate(x, a, pk, cfg))
    prover_seconds = (time.perf_counter() - t0) / rounds
    prover_ops = field.counter.total // rounds

    # warm the cached key matrices so steady-state per-round cost is measured
    verify(xs[0], responses[0], vk, key, cfg)
    field.counter.reset()
    t0 = time.perf_counter()
    for x, resp in zip(xs, responses):
        assert verify(x, resp, vk, key, cfg)
        recover(x, resp, cfg)
    verifier_seconds = (time.perf_counter() - t0) / rounds
    verifier_ops = field.counter.total // rounds
    return BenchReport(
        d=d,
        s=cfg.s,
        c=c,
        prover_ops=prover_ops,
        verifier_ops=verifier_ops,
        prover_seconds=prover_seconds,
        verifier_seconds=verifier_seconds,
    )


def run_bench(
    d_values=(10_000, 40_000, 160_000), c: int = 10, rounds: int = 3, seed: int = 7
) -> list[BenchReport]:
    return [bench_round(d, c=c, rounds=rounds, seed=seed) for d in d_values]


def wall_clock_probe(d: int = 1_000_000, c: int = 10, seed: int = 7) -> BenchReport:
    """Un-instrumented timing at large degree (the soft latency target)."""
    cfg, a, pk, key, vk = _round_setup(PrimeField(1_000_003), d, c, substream(seed, "wall", d))
    t0 = time.perf_counter()
    resp = evaluate(5, a, pk, cfg)
    prover_seconds = time.perf_counter() - t0
    verify(5, resp, vk, key, cfg)  # warm key-matrix cache
    t0 = time.perf_counter()
    reps = 5
    for _ in range(reps):
        assert verify(5, resp, vk, key, cfg)
        recover(5, resp, cfg)
    verifier_seconds = (time.perf_counter() - t0) / reps
    return BenchReport(
        d=d,
        s=cfg.s,
        c=c,
        prover_ops=0,
        verifier_ops=0,
        prover_seconds=prover_seconds,
        verifier_seconds=verifier_seconds,
    )
