"""Commit, evaluate, verify, recover: the protocol core.

Parameters: a degree bound d = s**2 over GF(q) with gcd(s, q-1) = 1, a
query upper bound xi announced by the verifier, and the reserved set S of
the r(s-1) smallest field elements strictly above xi.  Key points come
from S, evaluation queries stay at or below xi, so key rows and query rows
can never collide and their stacked Vandermonde structures stay full-rank.

Commitment: the prover masks his coefficient matrix A with a uniform
matrix B and the parties run 2c secure two-party computations so the
verifier learns Gamma = Lambda(A+B) and Omega = B Theta^T for his secret
key points, while the prover learns nothing about the points.  Evaluation
returns v = (A+B) lowRow(x)^T and u = highRow(x) B; verification checks
the two parities

    Gamma lowRow(x)^T == Lambda v    and    highRow(x) Omega == u Theta^T

in O(c*s) field operations, and recovery returns
highRow(x) v - u lowRow(x)^T, which equals f(x) for honest responses.

:func:`commit` runs the 2c secure computations locally over the ideal box;
the session roles run the same S2PC halves and specs over the wire.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .field import Field, FieldError, compare, is_probable_prime, validate_spec
from .polymat import power_row, structured_matrix
from .s2pc import S2pcSpec, left_functional, right_functional, s2pc_run

__all__ = [
    "ConfigError",
    "RefusalError",
    "ProtocolConfig",
    "VerifierKey",
    "ProverKey",
    "VerificationKey",
    "EvalResponse",
    "derive_prohibited_set",
    "suggest_prime_modulus",
    "make_config",
    "random_matrix",
    "keygen_verifier",
    "keygen_prover",
    "lambda_matrix",
    "theta_matrix",
    "commitment_specs",
    "commit",
    "evaluate",
    "verify",
    "recover",
]


class ConfigError(ValueError):
    """Inadmissible protocol parameters."""


class RefusalError(Exception):
    """The prover refuses to evaluate above the agreed query bound."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Public protocol parameters.  Use :func:`make_config` for validated
    construction; the bare constructor performs no checks (benchmarks build
    partial configurations through it)."""

    field: Field
    d: int
    s: int
    r: int
    c: int
    xi: int
    prohibited: tuple[int, ...]
    query_budget: int | None = None


@dataclass(frozen=True)
class VerifierKey:
    """c distinct reserved points per side."""

    lambdas: tuple[int, ...]
    thetas: tuple[int, ...]


@dataclass(frozen=True)
class ProverKey:
    """The uniform mask matrix B (the matrix form of the masking
    polynomial)."""

    mask: np.ndarray


@dataclass(frozen=True)
class VerificationKey:
    """Gamma = Lambda(A+B) is c x s; Omega = B Theta^T is s x c."""

    gamma: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True)
class EvalResponse:
    """One evaluation round: v = (A+B) lowRow(x)^T, u = highRow(x) B."""

    v: np.ndarray
    u: np.ndarray


def derive_prohibited_set(field: Field, s: int, r: int, xi: int) -> tuple[int, ...]:
    """The r(s-1) smallest elements strictly greater than xi in canonical
    order."""
    field.check(xi)
    size = r * (s - 1)
    available = field.q - 1 - xi
    if available < size:
        raise ConfigError(
            f"only {available} elements exceed xi={xi} in GF({field.q}) but the "
            f"reserved set needs r(s-1) = {size}; lower xi or use a larger "
            f"field with gcd(s, q-1) = 1 (see suggest_prime_modulus)"
        )
    return tuple(range(xi + 1, xi + 1 + size))


def suggest_prime_modulus(d: int, r: int, xi: int) -> int:
    """Smallest odd prime q with gcd(s, q-1) = 1 and room for the reserved
    set above xi.  Only odd s can succeed: q-1 is even for every odd prime."""
    s = math.isqrt(d)
    if s * s != d:
        raise ConfigError(f"degree bound {d} is not a perfect square")
    if s % 2 == 0:
        raise ConfigError(
            f"s = {s} is even, so gcd(s, q-1) >= 2 for every odd prime q; "
            "use a table field whose order q has odd q-1"
        )
    q = max(3, xi + r * (s - 1) + 2)
    if q % 2 == 0:
        q += 1
    while True:
        if is_probable_prime(q) and math.gcd(s, q - 1) == 1:
            return q
        q += 2


def make_config(
    field: Field,
    d: int,
    r: int,
    c: int,
    xi: int,
    query_budget: int | None = None,
) -> ProtocolConfig:
    """Validate every parameter invariant and derive the reserved set."""
    s = math.isqrt(d)
    if s * s != d:
        raise ConfigError(f"degree bound {d} is not a perfect square")
    if r < 2:
        raise ConfigError(f"reserved-set multiplier r must be >= 2, got {r}")
    if c < 1:
        raise ConfigError(f"key width c must be >= 1, got {c}")
    problems = validate_spec(field, s)
    if problems:
        raise ConfigError("; ".join(problems))
    prohibited = derive_prohibited_set(field, s, r, xi)
    if c > len(prohibited):
        raise ConfigError(
            f"key width c={c} exceeds the reserved set size {len(prohibited)}"
        )
    if query_budget is not None and query_budget < 1:
        raise ConfigError("query budget must be positive when set")
    return ProtocolConfig(
        field=field,
        d=d,
        s=s,
        r=r,
        c=c,
        xi=xi,
        prohibited=prohibited,
        query_budget=query_budget,
    )


def random_matrix(field: Field, shape: tuple[int, int], rng: random.Random) -> np.ndarray:
    rows, cols = shape
    return field.asarray(
        [[field.sample(rng) for _ in range(cols)] for _ in range(rows)]
    )


def keygen_verifier(cfg: ProtocolConfig, rng: random.Random) -> VerifierKey:
    """c distinct reserved points for each side, sampled without
    replacement; the two sides may overlap each other."""
    if cfg.c > len(cfg.prohibited):
        raise ConfigError("key width exceeds the reserved set size")
    lambdas = tuple(rng.sample(cfg.prohibited, cfg.c))
    thetas = tuple(rng.sample(cfg.prohibited, cfg.c))
    return VerifierKey(lambdas=lambdas, thetas=thetas)


def keygen_prover(cfg: ProtocolConfig, rng: random.Random) -> ProverKey:
    return ProverKey(mask=random_matrix(cfg.field, (cfg.s, cfg.s), rng))


@functools.lru_cache(maxsize=256)
def lambda_matrix(cfg: ProtocolConfig, key: VerifierKey) -> np.ndarray:
    """c x s matrix of high power rows over the lambda points.  Cached per
    session key (commitment-phase work, not per-round); treat as read-only."""
    return structured_matrix(cfg.field, key.lambdas, cfg.s, "high")


@functools.lru_cache(maxsize=256)
def theta_matrix(cfg: ProtocolConfig, key: VerifierKey) -> np.ndarray:
    """c x s matrix of low power rows over the theta points.  Cached per
    session key; treat as read-only."""
    return structured_matrix(cfg.field, key.thetas, cfg.s, "low")


def commitment_specs(cfg: ProtocolConfig) -> tuple[S2pcSpec, S2pcSpec]:
    """The (left, right) S2PCs: a row of Gamma from A+B, a column of Omega
    from B, each at a reserved point."""
    f = cfg.field
    return (
        S2pcSpec("left", cfg.prohibited, left_functional(f, cfg.s)),
        S2pcSpec("right", cfg.prohibited, right_functional(f, cfg.s)),
    )


def commit(
    coeff_matrix: np.ndarray,
    verifier_key: VerifierKey,
    prover_key: ProverKey,
    cfg: ProtocolConfig,
    box,
    rng: random.Random,
) -> VerificationKey:
    """Run the 2c secure computations and assemble (Gamma, Omega).

    Local two-party simulation over the ideal box: the verifier's side
    supplies the key points, the prover's side the masked matrices.  Any
    failed run raises before a partial key is assembled.
    """
    f = cfg.field
    if coeff_matrix.shape != (cfg.s, cfg.s):
        raise ConfigError(f"coefficient matrix must be {cfg.s}x{cfg.s}, got {coeff_matrix.shape}")
    masked = f.vadd(coeff_matrix, prover_key.mask)
    left, right = commitment_specs(cfg)
    gamma_rows = [
        s2pc_run(f, lam, masked, left, box, rng) for lam in verifier_key.lambdas
    ]
    omega_cols = [
        s2pc_run(f, th, prover_key.mask, right, box, rng)
        for th in verifier_key.thetas
    ]
    return VerificationKey(
        gamma=np.stack(gamma_rows), omega=np.stack(omega_cols, axis=1)
    )


def evaluate(
    x: int, coeff_matrix: np.ndarray, prover_key: ProverKey, cfg: ProtocolConfig
) -> EvalResponse:
    """Prover side of one round over the canonical s x s matrix and mask;
    refuses any x above xi (hence any x in the reserved set)."""
    f = cfg.field
    f.check(x)
    if compare(x, cfg.xi) > 0:
        raise RefusalError(
            f"query {x} exceeds the agreed bound {cfg.xi}; reserved points "
            "are not evaluable"
        )
    masked = f.vadd(coeff_matrix, prover_key.mask)
    v = f.matmul(masked, power_row(f, x, cfg.s, "low"))
    u = f.matmul(power_row(f, x, cfg.s, "high")[None, :], prover_key.mask)[0]
    return EvalResponse(v=v, u=u)


def verify(
    x: int,
    response: EvalResponse,
    vk: VerificationKey,
    verifier_key: VerifierKey,
    cfg: ProtocolConfig,
) -> bool:
    """Check the two parities of a canonical response, rejecting a
    misshapen one; O(c*s) field operations."""
    f = cfg.field
    v, u = np.asarray(response.v), np.asarray(response.u)
    if v.shape != (cfg.s,) or u.shape != (cfg.s,):
        return False  # malformed response is a rejection, with dims as the diagnostic
    low = power_row(f, x, cfg.s, "low")
    high = power_row(f, x, cfg.s, "high")
    left_expected = f.matmul(vk.gamma, low)
    left_actual = f.matmul(lambda_matrix(cfg, verifier_key), v)
    if not np.array_equal(left_expected, left_actual):
        return False
    # highRow(x) . Omega == u . Theta^T: both sides equal highRow . B . Theta^T
    # for an honest u, and a forged u must place a degree < s polynomial's
    # roots on all c theta points to slip through.
    right_expected = f.matmul(high[None, :], vk.omega)[0]
    right_actual = f.matmul(theta_matrix(cfg, verifier_key), u)
    return bool(np.array_equal(right_expected, right_actual))


def recover(x: int, response: EvalResponse, cfg: ProtocolConfig) -> int:
    """highRow(x) . v - u . lowRow(x) over a canonical response; equals f(x)
    for honest responses."""
    f = cfg.field
    low = power_row(f, x, cfg.s, "low")
    high = power_row(f, x, cfg.s, "high")
    masked_val = int(f.matmul(high[None, :], np.asarray(response.v))[0])
    mask_val = int(f.matmul(np.asarray(response.u)[None, :], low)[0])
    return f.sub(masked_val, mask_val)
