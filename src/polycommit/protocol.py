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
returns v = (A+B) lowRow(x)^T and u = highRow(x) B; the prover computes v
by linearity as A lowRow(x)^T + B lowRow(x)^T, two products and one
s-vector sum, so no round forms the s x s sum A+B.  Where s(q-1)**2 <
2**53 the prover key also holds B in float64, and both products with B
are exact float64 BLAS products.  Verification checks
the two parities

    Gamma lowRow(x)^T == Lambda v    and    highRow(x) Omega == u Theta^T

in O(c*s) field operations, and recovery returns
highRow(x) v - u lowRow(x)^T, which equals f(x) for honest responses.

A forged response passes with probability at most 2/r^c against a prover
that tabulates one matrix: the value tables hold highRow(z) M with the same
M for every z in S, and nothing checks that.  A prover that tabulated
A1+B on one half of S and A2+B on the other answers x = 1 with either
value; counted exactly over every verifier key, each answer passed at
0.214 / 0.214 (q, s, r, c = 17, 5, 2, 2; 2/r^c = 0.500), 0.091 / 0.091
(23, 7, 2, 3; 0.250), 0.227 / 0.318 (23, 5, 3, 2; 0.222), 0.233 / 0.233
(29, 5, 4, 2; 0.125) and 0.113 / 0.113 (43, 5, 8, 3; 0.004).  So a split
stays under 2/r^c at r = 2, the default, and not for r >= 3.

The commitment has one implementation, whose halves take and return
data: :func:`commit_send` builds the left table P_high(S)(A+B) and the
right table (B P_low(S)^T)^T once each and returns the batches of c left
runs, then c right runs, over them, for one OT ``send``;
:func:`commit_choices` gives the choice bits at each key point's position
in S for one OT ``receive``, and :func:`commit_receive` decodes the picks
into Gamma and Omega.  The config fixes the run order, so nothing about it
travels.  The session roles run the halves over a backend, and
:func:`commit` runs them back to back over an ideal box.

The config travels as versioned JSON (human-edited), and its SHA-256 is
what the roles compare in NEGOTIATE.  Each role's keys and round count
persist between CLI calls as a versioned binary state file
(machine-only), written whole or not at all.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from .field import (
    DecodeError,
    Field,
    FieldError,
    PrimeField,
    TableField,
    compare,
    encode_elements,
    float_exact,
    is_probable_prime,
    validate_spec,
)
from . import s2pc
from .ot import ot_c_of_1_receive, ot_c_of_1_send, row_picks
from .polymat import power_row, structured_matrix
from .s2pc import LEFT, RIGHT
from .wire import FORMAT_VERSION, Reader, Writer

__all__ = [
    "ConfigError",
    "RefusalError",
    "ProtocolConfig",
    "VerifierKey",
    "ProverKey",
    "VerificationKey",
    "EvalResponse",
    "derive_prohibited_set",
    "matrix_side",
    "suggest_prime_modulus",
    "make_config",
    "random_matrix",
    "keygen_verifier",
    "keygen_prover",
    "lambda_matrix",
    "theta_matrix",
    "commit_send",
    "commit_choices",
    "commit_receive",
    "commit",
    "evaluate",
    "verify",
    "recover",
    "config_to_json",
    "config_from_json",
    "config_digest",
    "set_digest",
    "save_verifier_state",
    "load_verifier_state",
    "save_prover_state",
    "load_prover_state",
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
    polynomial), in canonical elements; the commitment, the state file and
    anything that reads the key's elements read ``mask``.

    ``mask_f64`` is the same B in float64, read only by :func:`evaluate`.
    :func:`keygen_prover` and :func:`load_prover_state` build it once, and
    only where the config's field is a :class:`PrimeField` whose float64
    product is exact at inner dimension s (s(q-1)**2 < 2**53, see
    :func:`~polycommit.field.float_exact`); a key made from ``mask`` alone,
    or over any other field, has None and evaluates on the int64 path."""

    mask: np.ndarray
    mask_f64: np.ndarray | None = dataclasses.field(default=None, repr=False, compare=False)


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
    if not 0 <= xi < field.q:
        raise ConfigError(f"xi={xi} is not an element of GF({field.q})")
    size = r * (s - 1)
    available = field.q - 1 - xi
    if available < size:
        raise ConfigError(
            f"only {available} elements exceed xi={xi} in GF({field.q}) but the "
            f"reserved set needs r(s-1) = {size}; lower xi or use a larger "
            f"field with gcd(s, q-1) = 1 (see suggest_prime_modulus)"
        )
    return tuple(range(xi + 1, xi + 1 + size))


def matrix_side(d: int) -> int:
    """The side s of the s x s coefficient matrix of a degree bound d."""
    if d < 1 or math.isqrt(d) ** 2 != d:
        raise ConfigError(f"degree bound {d} is not a perfect square s*s with s >= 1")
    return math.isqrt(d)


def suggest_prime_modulus(d: int, r: int, xi: int) -> int:
    """Smallest odd prime q with gcd(s, q-1) = 1 and room for the reserved
    set above xi.  Only odd s can succeed: q-1 is even for every odd prime."""
    s = matrix_side(d)
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
    s = matrix_side(d)
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
    return field.vsample(rng, rows * cols).reshape(rows, cols)


def keygen_verifier(cfg: ProtocolConfig, rng: random.Random) -> VerifierKey:
    """c distinct reserved points for each side, sampled without
    replacement; the two sides may overlap each other."""
    if cfg.c > len(cfg.prohibited):
        raise ConfigError("key width exceeds the reserved set size")
    lambdas = tuple(rng.sample(cfg.prohibited, cfg.c))
    thetas = tuple(rng.sample(cfg.prohibited, cfg.c))
    return VerifierKey(lambdas=lambdas, thetas=thetas)


def _prover_key(cfg: ProtocolConfig, mask: np.ndarray) -> ProverKey:
    """The key over ``mask``, with its float64 form where that is exact."""
    if float_exact(cfg.field, cfg.s):
        mask_f64 = mask.astype(np.float64)
        mask_f64.flags.writeable = False
        return ProverKey(mask, mask_f64)
    return ProverKey(mask)


def keygen_prover(cfg: ProtocolConfig, rng: random.Random) -> ProverKey:
    return _prover_key(cfg, random_matrix(cfg.field, (cfg.s, cfg.s), rng))


@functools.lru_cache(maxsize=256)
def lambda_matrix(cfg: ProtocolConfig, key: VerifierKey) -> np.ndarray:
    """c x s matrix of high power rows over the lambda points.  Cached per
    session key (commitment-phase work, not per-round) and read-only: every
    caller shares the one array."""
    matrix = structured_matrix(cfg.field, key.lambdas, cfg.s, "high")
    matrix.flags.writeable = False
    return matrix


@functools.lru_cache(maxsize=256)
def theta_matrix(cfg: ProtocolConfig, key: VerifierKey) -> np.ndarray:
    """c x s matrix of low power rows over the theta points.  Cached per
    session key and read-only, like :func:`lambda_matrix`."""
    matrix = structured_matrix(cfg.field, key.thetas, cfg.s, "low")
    matrix.flags.writeable = False
    return matrix


def commit_send(cfg: ProtocolConfig, coeff_matrix, prover_key: ProverKey, rng):
    """Prover half: one value table per kind, and the 2c runs' batches, c
    left then c right: each run's 1-of-|S| sender half over its kind's
    table, a (2, |S|-1, w) array that draws its masks only when pulled."""
    f = cfg.field
    left = s2pc.build_value_table(
        f, cfg.prohibited, cfg.s, LEFT, f.vadd(coeff_matrix, prover_key.mask)
    )
    right = s2pc.build_value_table(f, cfg.prohibited, cfg.s, RIGHT, prover_key.mask)
    return (ot_c_of_1_send(f, table, rng) for table in [left] * cfg.c + [right] * cfg.c)


def commit_choices(cfg: ProtocolConfig, verifier_key: VerifierKey) -> tuple[list, np.ndarray]:
    """Verifier half, before the transfers: each key point's position in
    S, the lambdas' then the thetas', and the 2c runs' choice bits, each
    run's the row picks at its position."""
    size = len(cfg.prohibited)
    positions = [cfg.prohibited.index(z) for z in verifier_key.lambdas + verifier_key.thetas]
    return positions, np.concatenate([row_picks(i, size) for i in positions])


def commit_receive(cfg: ProtocolConfig, positions, picks) -> VerificationKey:
    """Verifier half, after the transfers: the picks of the choice bits at
    ``positions`` split back into runs of |S|-1, each decoded to s
    elements; the c left runs give the rows of Gamma, the c right runs the
    columns of Omega."""
    size = len(cfg.prohibited)
    rows = [
        ot_c_of_1_receive(cfg.field, run, i, size, cfg.s)
        for i, run in zip(positions, np.split(picks, len(positions)))
    ]
    return VerificationKey(
        gamma=np.stack(rows[: cfg.c]), omega=np.stack(rows[cfg.c :], axis=1)
    )


def commit(
    coeff_matrix: np.ndarray,
    verifier_key: VerifierKey,
    prover_key: ProverKey,
    cfg: ProtocolConfig,
    box,
    rng: random.Random,
) -> VerificationKey:
    """Run both commitment halves locally over the ideal box and return
    (Gamma, Omega).  Every key point is checked against S before any
    message exists, so a bad key aborts with nothing sent."""
    if coeff_matrix.shape != (cfg.s, cfg.s):
        raise ConfigError(f"coefficient matrix must be {cfg.s}x{cfg.s}, got {coeff_matrix.shape}")
    outside = set(verifier_key.lambdas + verifier_key.thetas) - set(cfg.prohibited)
    if outside:
        raise ConfigError(f"key points {sorted(outside)} lie outside the reserved set")
    box.send(commit_send(cfg, coeff_matrix, prover_key, rng))
    positions, bits = commit_choices(cfg, verifier_key)
    return commit_receive(cfg, positions, box.receive(bits))


def evaluate(
    x: int, coeff_matrix: np.ndarray, prover_key: ProverKey, cfg: ProtocolConfig
) -> EvalResponse:
    """Prover side of one round over the canonical s x s matrix and mask;
    refuses any x above xi (hence any x in the reserved set).

    v = (A+B) lowRow(x)^T is computed as A lowRow(x)^T + B lowRow(x)^T:
    two matrix-vector products and one s-vector sum, never the s x s A+B.
    Where the key holds B in float64, B lowRow(x)^T and highRow(x) B are
    float64 BLAS products, each reduced mod q once and returned as
    canonical int64, so the response is the int64 path's to the element;
    A lowRow(x)^T stays on the int64 path."""
    f = cfg.field
    f.check(x)
    if compare(x, cfg.xi) > 0:
        raise RefusalError(
            f"query {x} exceeds the agreed bound {cfg.xi}; reserved points "
            "are not evaluable"
        )
    mask = prover_key.mask if prover_key.mask_f64 is None else prover_key.mask_f64
    low = power_row(f, x, cfg.s, "low")
    v = f.vadd(f.matmul(coeff_matrix, low), f.matmul(mask, low))
    u = f.matmul(power_row(f, x, cfg.s, "high")[None, :], mask)[0]
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


# ---------------------------------------------------------------------------
# Config JSON
# ---------------------------------------------------------------------------


def _field_to_json(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"kind": "prime", "modulus": field.p}
    if isinstance(field, TableField):
        return {
            "kind": "table",
            "order": field.q,
            "add": field.add_table.tolist(),
            "mul": field.mul_table.tolist(),
        }
    raise ConfigError(f"unknown field backend {field!r}")


def _json_int(doc: dict, key: str) -> int:
    """``doc[key]`` if a JSON integer: not null, a string, a bool or a float."""
    if type(doc[key]) is not int:
        raise ConfigError(f"config {key} must be an integer, got {doc[key]!r}")
    return doc[key]


def _json_table(doc: dict, key: str) -> list:
    """``doc[key]`` if q rows of q JSON integers."""
    rows = doc[key]
    if not isinstance(rows, list) or any(
        not isinstance(row, list) or len(row) != len(rows) or {type(v) for v in row} - {int}
        for row in rows
    ):
        raise ConfigError(f"config {key} table must be q rows of q integers")
    return rows


def _field_from_json(obj) -> Field:
    if not isinstance(obj, dict):
        raise ConfigError(f"config field must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "prime":
        return PrimeField(_json_int(obj, "modulus"))
    if kind == "table":
        field = TableField(_json_table(obj, "add"), _json_table(obj, "mul"))
        if _json_int(obj, "order") != field.q:
            raise ConfigError(f"config field order must be the table size {field.q}")
        return field
    raise ConfigError(f"unknown field kind {kind!r}")


# Config versions that load: every one so far has the same fields with the
# same meaning, since each bump changed the wire, not what a config says.
# A config is written with the wire's version, so the NEGOTIATE digest
# still tells wire versions apart.
_CONFIG_VERSIONS = range(1, FORMAT_VERSION + 1)


def config_to_json(cfg: ProtocolConfig, seed: int | None = None) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "field": _field_to_json(cfg.field),
        "d": cfg.d,
        "r": cfg.r,
        "c": cfg.c,
        "xi": cfg.xi,
    }
    if cfg.query_budget is not None:
        doc["query_budget"] = cfg.query_budget
    if seed is not None:
        doc["seed"] = seed
    return json.dumps(doc, indent=2, sort_keys=True)


def config_from_json(text: str) -> tuple[ProtocolConfig, int | None]:
    """Parse and fully re-validate; returns (config, seed-or-None)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version not in _CONFIG_VERSIONS:
        raise ConfigError(f"unsupported config version {version!r}")
    try:
        field = _field_from_json(doc["field"])
        cfg = make_config(
            field,
            d=_json_int(doc, "d"),
            r=_json_int(doc, "r"),
            c=_json_int(doc, "c"),
            xi=_json_int(doc, "xi"),
            query_budget=_json_int(doc, "query_budget") if "query_budget" in doc else None,
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing {exc}") from exc
    except (FieldError, OverflowError) as exc:  # a table entry past int64 overflows
        raise ConfigError(str(exc)) from exc
    seed = _json_int(doc, "seed") if "seed" in doc else None
    return cfg, seed


def config_digest(cfg: ProtocolConfig) -> bytes:
    return hashlib.sha256(config_to_json(cfg).encode()).digest()


def set_digest(cfg: ProtocolConfig) -> bytes:
    return hashlib.sha256(encode_elements(cfg.field, cfg.prohibited)).digest()


# ---------------------------------------------------------------------------
# Persisted role state
# ---------------------------------------------------------------------------

_VERIFIER_MAGIC = b"PCV1"
_PROVER_MAGIC = b"PCP1"


def _write_state(path, magic: bytes, cfg: ProtocolConfig, body: Writer) -> None:
    """Write a state file whole or not at all: the bytes go to a temporary
    file beside ``path``, which then replaces it in one rename, so a crash
    mid-write leaves the previous state in place."""
    w = Writer()
    w.u8(FORMAT_VERSION)
    w.blob(config_to_json(cfg).encode())
    payload = magic + w.bytes() + body.bytes()
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_state(path, magic: bytes) -> tuple[ProtocolConfig, Reader]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != magic:
        raise DecodeError(f"not a {magic.decode()} state file")
    r = Reader(raw[4:])
    version = r.u8()
    if version != FORMAT_VERSION:
        raise DecodeError(f"unsupported state version {version}")
    cfg, _ = config_from_json(r.blob().decode())
    return cfg, r


def save_verifier_state(
    path, cfg: ProtocolConfig, key: VerifierKey, vk: VerificationKey, rounds: int
) -> None:
    f = cfg.field
    body = Writer()
    body.vector(f, list(key.lambdas)).vector(f, list(key.thetas))
    body.matrix(f, vk.gamma).matrix(f, vk.omega)
    body.u32(rounds)
    _write_state(path, _VERIFIER_MAGIC, cfg, body)


def _expect_shape(name: str, array: np.ndarray, shape: tuple[int, ...]) -> None:
    if array.shape != shape:
        raise DecodeError(f"state {name} has shape {array.shape}, expected {shape}")


def load_verifier_state(path) -> tuple[ProtocolConfig, VerifierKey, VerificationKey, int]:
    """Read a verifier state; keys of any shape other than the config's
    (c points per side, Gamma c x s, Omega s x c) are a ``DecodeError``."""
    cfg, r = _read_state(path, _VERIFIER_MAGIC)
    f = cfg.field
    lambdas = r.vector(f)
    thetas = r.vector(f)
    gamma = r.matrix(f)
    omega = r.matrix(f)
    rounds = r.u32()
    r.done()
    _expect_shape("lambda points", lambdas, (cfg.c,))
    _expect_shape("theta points", thetas, (cfg.c,))
    _expect_shape("Gamma", gamma, (cfg.c, cfg.s))
    _expect_shape("Omega", omega, (cfg.s, cfg.c))
    key = VerifierKey(tuple(int(v) for v in lambdas), tuple(int(v) for v in thetas))
    return cfg, key, VerificationKey(gamma, omega), rounds


def save_prover_state(
    path, cfg: ProtocolConfig, coeffs, prover_key: ProverKey, rounds: int
) -> None:
    f = cfg.field
    body = Writer()
    body.vector(f, coeffs).matrix(f, prover_key.mask)
    body.u32(rounds)
    _write_state(path, _PROVER_MAGIC, cfg, body)


def load_prover_state(path) -> tuple[ProtocolConfig, np.ndarray, ProverKey, int]:
    """Read a prover state; d coefficients and an s x s mask, or a
    ``DecodeError``."""
    cfg, r = _read_state(path, _PROVER_MAGIC)
    f = cfg.field
    coeffs = r.vector(f)
    mask = r.matrix(f)
    rounds = r.u32()
    r.done()
    _expect_shape("coefficients", coeffs, (cfg.d,))
    _expect_shape("mask", mask, (cfg.s, cfg.s))
    return cfg, coeffs, _prover_key(cfg, mask), rounds
