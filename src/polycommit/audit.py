"""Exact and Monte-Carlo audits of the protocol's quantitative guarantees.

Soundness.  A forged response differs from the honest one by a nonzero
perturbation vector, read as the coefficients of a polynomial of degree
below s.  The left parity accepts iff every lambda**s is a root of the
v-side perturbation polynomial, the right parity iff every theta is a root
of the u-side one.  Since key points are c distinct uniform draws from the
reserved set S and the perturbation is chosen without seeing them, the
exact acceptance probability is C(t, c)/C(|S|, c) with t the number of
roots inside the relevant image of S; with |S| = r(s-1) and t <= s-1 this
never exceeds 1/r**c per side.  ``soundness_exact`` computes the exact
rational; ``monte_carlo_detection`` measures shipped adversaries against
it.

Privacy.  Every observable the verifier collects - the commitment pair
(Gamma, Omega) and the per-query vectors (v, u) - is a linear functional
of the 2d-long vector vec(A) || vec(B), vec row-major.  Each block of
that view is a Kronecker product with the s x s identity I:

    Gamma = Lambda (A+B)      Lambda x I on the A and the B half
    Omega = B Theta^T         I x Theta on the B half
    v = (A+B) lowRow(x)^T     I x lowRow(x) on the A and the B half
    u = highRow(x) B          highRow(x) x I on the B half

stacked as vec(Gamma), vec(Omega), then (v, u) per query.  The unmasked
baseline keeps only the A halves of Gamma and v.  For uniform (A, B) the
conditional entropy of A given linear observations M (vec(A)||vec(B)) is
exactly

    H_q(A | obs) = d + rank(M_B) - rank(M)

in log_q units, where M_B is the mask-block submatrix.  This rank oracle
is itself validated against the entropy definition by exhaustive
enumeration on instances small enough to enumerate (canonically GF(4),
d = 4: 65536 matrix pairs), and then carries the audit everywhere
enumeration cannot reach.  The masked scheme's floor is d - (m+c)**2
after m queries; the unmasked baseline leaks (c+m)s - cm symbols; the
unit-vector attack shows what happens when the key-structure restriction
is dropped.

Two rank statements used by the privacy argument are checked directly:
``conditional_entropy_bound_check`` (H(FE | EG) >= c*s - c*w for uniform
square E and full-rank F, G) and ``kronecker_stack_rank_check``
(rank((I x F) || (G x I)) >= (c+w)s - c*w).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .field import Field, FieldError
from .polymat import horner_eval, power_row, rank, structured_matrix
from .protocol import (
    EvalResponse,
    ProtocolConfig,
    VerificationKey,
    VerifierKey,
    evaluate,
    keygen_prover,
    keygen_verifier,
    lambda_matrix,
    random_matrix,
    theta_matrix,
    verify,
)

__all__ = [
    "soundness_exact",
    "RandomPerturbation",
    "RootCrafting",
    "Replay",
    "MonteCarloReport",
    "monte_carlo_detection",
    "ObservationSystem",
    "masked_observation_system",
    "basic_observation_system",
    "entropy_given_rows",
    "privacy_rank_oracle",
    "privacy_enumeration_oracle",
    "unit_vector_attack",
    "adaptive_worst_case",
    "baseline_leakage",
    "conditional_entropy_bound_check",
    "kronecker_stack_rank_check",
]


# ---------------------------------------------------------------------------
# Soundness
# ---------------------------------------------------------------------------


def soundness_exact(
    field: Field,
    delta: np.ndarray,
    prohibited: Sequence[int],
    c: int,
    s: int,
    side: str = "v",
) -> Fraction:
    """Exact acceptance probability of a fixed nonzero perturbation.

    side "v": the left parity accepts iff every lambda**s is a root of the
    perturbation polynomial, so roots are counted over {y**s : y in S}.
    side "u": the right parity counts roots over S itself.
    """
    d = field.asarray(delta)
    if d.ndim != 1 or d.size != s:
        raise FieldError(f"perturbation must be an s-vector, got shape {d.shape}")
    if not d.any():
        raise FieldError("zero perturbation is not an attack")
    if side not in ("v", "u"):
        raise FieldError(f"side must be 'v' or 'u', got {side!r}")
    points = [field.pow(y, s) if side == "v" else y for y in prohibited]
    if len(set(points)) != len(points):
        raise FieldError("reserved-set image is not distinct; need gcd(s, q-1) = 1")
    t = sum(1 for p in points if horner_eval(field, d, p) == 0)
    return Fraction(math.comb(t, c), math.comb(len(prohibited), c))


def _acceptance_probability(
    cfg: ProtocolConfig, delta_v: np.ndarray | None, delta_u: np.ndarray | None
) -> Fraction:
    pv = (
        Fraction(1)
        if delta_v is None or not delta_v.any()
        else soundness_exact(cfg.field, delta_v, cfg.prohibited, cfg.c, cfg.s, "v")
    )
    pu = (
        Fraction(1)
        if delta_u is None or not delta_u.any()
        else soundness_exact(cfg.field, delta_u, cfg.prohibited, cfg.c, cfg.s, "u")
    )
    return pv * pu


class RandomPerturbation:
    """Adds a uniform nonzero perturbation on the given coordinate supports.

    Strategy state is public; the adversary never sees the verifier's key.
    """

    name = "random-perturbation"

    def __init__(self, v_support: Sequence[int] | None = None, u_support: Sequence[int] | None = None):
        self.v_support = v_support
        self.u_support = u_support

    def forge(
        self, x: int, honest: EvalResponse, cfg: ProtocolConfig, rng: random.Random
    ) -> tuple[EvalResponse, np.ndarray, np.ndarray]:
        f = cfg.field
        vs = list(self.v_support) if self.v_support is not None else list(range(cfg.s))
        us = list(self.u_support) if self.u_support is not None else []
        while True:
            dv = f.zeros(cfg.s)
            dv[vs] = f.vsample(rng, len(vs))
            du = f.zeros(cfg.s)
            du[us] = f.vsample(rng, len(us))
            if dv.any() or du.any():
                break
        return (
            EvalResponse(v=f.vadd(honest.v, dv), u=f.vadd(honest.u, du)),
            dv,
            du,
        )


class RootCrafting:
    """Plants a v-side perturbation polynomial whose roots are the s-power
    image of ``num_roots`` reserved points.  Knows S but never the key."""

    name = "root-crafting"

    def __init__(self, num_roots: int | None = None, side: str = "v"):
        self.num_roots = num_roots
        self.side = side

    def craft_delta(self, cfg: ProtocolConfig, rng: random.Random) -> np.ndarray:
        f = cfg.field
        t = self.num_roots if self.num_roots is not None else cfg.s - 1
        if not 1 <= t <= cfg.s - 1:
            raise FieldError(f"root count {t} out of range [1, {cfg.s - 1}]")
        picks = rng.sample(cfg.prohibited, t)
        roots = [f.pow(y, cfg.s) if self.side == "v" else y for y in picks]
        coeffs = [1]  # expand prod (y - root)
        for root in roots:
            nxt = [0] * (len(coeffs) + 1)
            for i, a in enumerate(coeffs):
                nxt[i + 1] = f.add(nxt[i + 1], a)
                nxt[i] = f.sub(nxt[i], f.mul(a, root))
            coeffs = nxt
        delta = f.zeros(cfg.s)
        for i, a in enumerate(coeffs):
            delta[i] = a
        return delta

    def forge(self, x, honest, cfg, rng):
        delta = self.craft_delta(cfg, rng)
        f = cfg.field
        if self.side == "v":
            return EvalResponse(v=f.vadd(honest.v, delta), u=honest.u), delta, f.zeros(cfg.s)
        return EvalResponse(v=honest.v, u=f.vadd(honest.u, delta)), f.zeros(cfg.s), delta


class Replay:
    """Replays the honest response of a different query point."""

    name = "replay"

    def __init__(self, source_x: int = 0):
        self.source_x = source_x

    def forge(self, x, honest, cfg, rng, coeff_matrix=None, prover_key=None):
        if coeff_matrix is None or prover_key is None:
            raise FieldError("replay needs the session state to re-evaluate")
        if x == self.source_x:
            raise FieldError("replay source must differ from the live query")
        f = cfg.field
        old = evaluate(self.source_x, coeff_matrix, prover_key, cfg)
        return old, f.vsub(old.v, honest.v), f.vsub(old.u, honest.u)


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    accepted: int
    rate: float
    sigma: float
    exact_mean: float

    def within(self, n_sigma: float = 3.0) -> bool:
        return abs(self.rate - self.exact_mean) <= n_sigma * max(self.sigma, 1e-12)


def monte_carlo_detection(
    adversary,
    cfg: ProtocolConfig,
    trials: int,
    rng: random.Random,
    x: int = 0,
) -> MonteCarloReport:
    """Fresh verifier key per trial; the adversary forges (v, u) != honest.

    The commitment pair is computed algebraically per trial (the ideal
    backend provably yields exactly these matrices).  The report carries
    the mean exact acceptance probability of the adversary's sampled
    perturbations for the oracle comparison.
    """
    if trials < 1000:
        raise FieldError("need at least 10**3 trials for a meaningful rate")
    f = cfg.field
    a = random_matrix(f, (cfg.s, cfg.s), rng)
    pk = keygen_prover(cfg, rng)
    masked = f.vadd(a, pk.mask)
    honest = evaluate(x, a, pk, cfg)
    accepted = 0
    exact_sum = Fraction(0)
    forge_kwargs = {}
    if isinstance(adversary, Replay):
        forge_kwargs = {"coeff_matrix": a, "prover_key": pk}
    for _ in range(trials):
        key = keygen_verifier(cfg, rng)
        vk = VerificationKey(
            gamma=f.matmul(lambda_matrix(cfg, key), masked),
            omega=f.matmul(pk.mask, theta_matrix(cfg, key).T),
        )
        forged, dv, du = adversary.forge(x, honest, cfg, rng, **forge_kwargs)
        if not (dv.any() or du.any()):
            raise FieldError("adversary emitted the honest response")
        if verify(x, forged, vk, key, cfg):
            accepted += 1
        exact_sum += _acceptance_probability(cfg, dv, du)
    rate = accepted / trials
    exact_mean = float(exact_sum / trials)
    sigma = math.sqrt(max(exact_mean * (1 - exact_mean), 1e-12) / trials)
    return MonteCarloReport(
        trials=trials, accepted=accepted, rate=rate, sigma=sigma, exact_mean=exact_mean
    )


# ---------------------------------------------------------------------------
# Privacy: observation systems and the rank oracle
# ---------------------------------------------------------------------------


@dataclass
class ObservationSystem:
    """Rows of linear functionals of vec(A) || vec(B)."""

    field: Field
    d: int
    rows: np.ndarray  # (n, 2d)

    def mask_block(self) -> np.ndarray:
        return self.rows[:, self.d :]


def _identity(field: Field, n: int) -> np.ndarray:
    """I_n in the field's dtype: np.kron then keeps an object-dtype field's
    entries Python ints, not int64s that a later product could overflow."""
    return field.asarray(np.eye(n, dtype=np.int64))


def _observation_system(field, s, lam, theta, xs, masked) -> ObservationSystem:
    """The verifier's view as (A half | B half) rows over row-major
    vec(A) || vec(B), with I the s x s identity.  Gamma is Lambda x I and
    v is I x lowRow(x), on both halves (the A half only when unmasked);
    Omega is I x Theta and u is highRow(x) x I, on the B half (absent when
    unmasked).  Rows run vec(Gamma), vec(Omega), then (v, u) per query,
    each vec row-major like what the verifier holds.  Every entry is a
    canonical element times 0 or 1, so np.kron is exact on every field."""
    d = s * s
    eye = _identity(field, s)
    rows = []

    def on_a_and_b(block):  # the B half stays zero when unmasked
        rows.append(np.hstack([block, block if masked else field.zeros(block.shape)]))

    def on_b(block):
        rows.append(np.hstack([field.zeros(block.shape), block]))

    if lam is not None:
        on_a_and_b(np.kron(field.asarray(np.atleast_2d(lam)), eye))
    if theta is not None:
        on_b(np.kron(eye, field.asarray(np.atleast_2d(theta))))
    for x in xs:
        on_a_and_b(np.kron(eye, power_row(field, x, s, "low")[None, :]))
        if masked:
            on_b(np.kron(power_row(field, x, s, "high")[None, :], eye))
    matrix = np.vstack(rows) if rows else field.zeros((0, 2 * d))
    return ObservationSystem(field, d, matrix)


def masked_observation_system(
    field: Field,
    s: int,
    lam: np.ndarray | None,
    theta: np.ndarray | None,
    xs: Sequence[int],
) -> ObservationSystem:
    """The full masked-scheme view: Gamma, Omega, and (v, u) per query.

    ``lam`` and ``theta`` are explicit key matrices so degenerate and
    adversarial structures can be audited alongside legal Vandermonde ones;
    None drops that commitment from the view.
    """
    return _observation_system(field, s, lam, theta, xs, masked=True)


def basic_observation_system(
    field: Field, s: int, lam: np.ndarray | None, xs: Sequence[int]
) -> ObservationSystem:
    """The unmasked baseline: Gamma = Lambda A and per-query A lowRow(x)."""
    return _observation_system(field, s, lam, None, xs, masked=False)


def entropy_given_rows(system: ObservationSystem) -> int:
    """H_q(A | observations) = d + rank(mask block) - rank(full system).

    Exact for uniform (A, B) because all observations are linear.
    """
    return (
        system.d
        + rank(system.field, system.mask_block())
        - rank(system.field, system.rows)
    )


def privacy_rank_oracle(
    cfg: ProtocolConfig,
    key: VerifierKey,
    xs: Sequence[int],
) -> int:
    """Entropy of the coefficient matrix given a legal-key masked view."""
    system = masked_observation_system(
        cfg.field, cfg.s, lambda_matrix(cfg, key), theta_matrix(cfg, key), xs
    )
    return entropy_given_rows(system)


# ---------------------------------------------------------------------------
# Privacy: definitional enumeration oracle
# ---------------------------------------------------------------------------

ENUMERATION_LIMIT_BITS = 20


def privacy_enumeration_oracle(
    field: Field,
    s: int,
    lam: np.ndarray | None,
    theta: np.ndarray | None,
    xs: Sequence[int],
) -> float:
    """H_q(A | Gamma, Omega, v, u) straight from the entropy definition,
    enumerating every (A, B) pair.  Refuses instances beyond q**(2d) pairs
    ~ 2**20 (the canonical instance is GF(4) with d = 4)."""
    d = s * s
    q = field.q
    if 2 * d * math.log2(q) > ENUMERATION_LIMIT_BITS:
        raise FieldError(
            f"enumeration needs q**(2d) <= 2**{ENUMERATION_LIMIT_BITS}; "
            f"got q={q}, d={d}"
        )
    lam = field.zeros((0, s)) if lam is None else field.asarray(np.atleast_2d(lam))
    theta = (
        field.zeros((0, s)) if theta is None else field.asarray(np.atleast_2d(theta))
    )
    lows = [power_row(field, x, s, "low") for x in xs]
    highs = [power_row(field, x, s, "high") for x in xs]

    mats = [
        field.asarray(entries).reshape(s, s)
        for entries in itertools.product(range(q), repeat=d)
    ]
    # per-matrix precomputation; A and B enter only through linear images
    lam_m = [tuple(field.matmul(lam, m).reshape(-1).tolist()) for m in mats]
    theta_m = [tuple(field.matmul(m, theta.T).reshape(-1).tolist()) for m in mats]
    low_m = [
        tuple(int(v) for low in lows for v in field.matmul(m, low)) for m in mats
    ]
    high_m = [
        tuple(int(v) for high in highs for v in field.matmul(high[None, :], m)[0])
        for m in mats
    ]

    by_obs: dict[tuple, dict[int, int]] = {}
    n = len(mats)
    flat = [tuple(m.reshape(-1).tolist()) for m in mats]
    index_of = {f: i for i, f in enumerate(flat)}
    add_row = [[field.add(a, b) for b in range(q)] for a in range(q)]
    for ai, a_flat in enumerate(flat):
        for bi, b_flat in enumerate(flat):
            summed = tuple(add_row[a_flat[t]][b_flat[t]] for t in range(d))
            si = index_of[summed]
            obs = (lam_m[si], theta_m[bi], low_m[si], high_m[bi])
            bucket = by_obs.setdefault(obs, {})
            bucket[ai] = bucket.get(ai, 0) + 1

    total = n * n
    h = 0.0
    logq = math.log(q)
    for bucket in by_obs.values():
        n_obs = sum(bucket.values())
        p_obs = n_obs / total
        h_cond = 0.0
        for count in bucket.values():
            p = count / n_obs
            h_cond -= p * math.log(p) / logq
        h += p_obs * h_cond
    return h


# ---------------------------------------------------------------------------
# Attack demo, adaptive sweep, baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackReport:
    attack_entropy: int
    legal_entropy: int
    attack_ceiling: int  # d - s
    legal_floor: int  # d - (m+c)^2


def unit_vector_attack(cfg: ProtocolConfig, key: VerifierKey | None = None) -> AttackReport:
    """Reproduce the unit-vector key attack: an unrestricted single-row key
    e1 plus one query at x = 0 pins down a whole row of the coefficient
    matrix, capping entropy at d - s.  The same-size legal configuration
    respects the d - (m+c)**2 floor, which is what the key-structure
    restriction buys."""
    f, s, d = cfg.field, cfg.s, cfg.d
    e1 = f.zeros((1, s))
    e1[0, 0] = 1
    theta_legal = structured_matrix(f, [cfg.prohibited[0]], s, "low")
    attacked = masked_observation_system(f, s, e1, theta_legal, [0])
    attack_entropy = entropy_given_rows(attacked)

    if key is None:
        key = VerifierKey((cfg.prohibited[0],), (cfg.prohibited[0],))
    legal = masked_observation_system(
        f,
        s,
        structured_matrix(f, key.lambdas[:1], s, "high"),
        structured_matrix(f, key.thetas[:1], s, "low"),
        [0],
    )
    legal_entropy = entropy_given_rows(legal)
    return AttackReport(
        attack_entropy=attack_entropy,
        legal_entropy=legal_entropy,
        attack_ceiling=d - s,
        legal_floor=d - (1 + 1) ** 2,
    )


def adaptive_worst_case(cfg: ProtocolConfig, m: int) -> tuple[int, tuple]:
    """Minimum rank-oracle entropy over every legal key and ordered-free
    query set of size m: the worst any adaptive verifier can do, since
    adaptivity reduces to a minimum over constants once the commitment is
    in the conditioning."""
    queries_pool = range(cfg.xi + 1)
    best = None
    arg = None
    key_pairs = list(itertools.combinations(cfg.prohibited, cfg.c))
    for lams in key_pairs:
        for thetas in key_pairs:
            key = VerifierKey(lams, thetas)
            for xs in itertools.combinations(queries_pool, m):
                h = privacy_rank_oracle(cfg, key, xs)
                if best is None or h < best:
                    best, arg = h, (lams, thetas, xs)
    return best, arg


def baseline_leakage(
    cfg: ProtocolConfig, key: VerifierKey | None = None, xs: Sequence[int] = ()
) -> int:
    """Entropy under the unmasked baseline scheme (Gamma = Lambda A, raw
    query responses A lowRow(x)).

    Exactly d - cs after commitment; with m fresh queries the combined
    system has rank (c+m)s - cm (the commitment and query row spaces
    intersect in the cm functionals Lambda A lowRow(x)), so each query
    costs a further s - c symbols while c + m <= s."""
    if key is None:
        key = VerifierKey(tuple(cfg.prohibited[: cfg.c]), tuple(cfg.prohibited[: cfg.c]))
    system = basic_observation_system(
        cfg.field, cfg.s, lambda_matrix(cfg, key), xs
    )
    return entropy_given_rows(system)


# ---------------------------------------------------------------------------
# Rank statements behind the privacy chain
# ---------------------------------------------------------------------------


def conditional_entropy_bound_check(
    field: Field, f_mat: np.ndarray, g_mat: np.ndarray
) -> tuple[int, int, bool]:
    """H_q(FE | EG) for uniform s x s E, full-rank F (c x s) and G (s x w):
    computed exactly as rank(joint map) - rank(EG map) over vec(E); checked
    against the floor c*s - c*w.  Returns (entropy, bound, ok)."""
    f_mat = field.asarray(np.atleast_2d(f_mat))
    g_mat = field.asarray(np.atleast_2d(g_mat))
    c, s = f_mat.shape
    s2, w = g_mat.shape
    if s2 != s:
        raise FieldError("F is c x s and G must be s x w")
    if not (c <= s and w <= s):
        raise FieldError("need c <= s and w <= s")
    if rank(field, f_mat) != c or rank(field, g_mat) != min(s2, w):
        raise FieldError("F and G must be full-rank")
    eye = _identity(field, s)
    fe = np.kron(f_mat, eye)  # (FE)[i, j] = sum_k F[i, k] E[k, j]
    eg = np.kron(eye, g_mat.T)  # (EG)[i, j] = sum_k E[i, k] G[k, j]
    entropy = rank(field, np.vstack([fe, eg])) - rank(field, eg)
    bound = c * s - c * w
    return entropy, bound, entropy >= bound


def kronecker_stack_rank_check(
    field: Field, f_mat: np.ndarray, g_mat: np.ndarray
) -> tuple[int, int, bool]:
    """rank((I x F) || (G x I)) >= (c+w)s - c*w for full-rank F (c x s) and
    G (w x s).  Every Kronecker entry is an element of F or G times 0 or
    1, so np.kron is exact on table fields too."""
    f_mat = field.asarray(np.atleast_2d(f_mat))
    g_mat = field.asarray(np.atleast_2d(g_mat))
    c, s = f_mat.shape
    w, s2 = g_mat.shape
    if s2 != s:
        raise FieldError("F is c x s and G must be w x s")
    if not (c <= s and w <= s):
        raise FieldError("need c <= s and w <= s")
    if rank(field, f_mat) != c or rank(field, g_mat) != w:
        raise FieldError("F and G must be full-rank")
    eye = _identity(field, s)
    stacked = np.vstack([np.kron(eye, f_mat), np.kron(g_mat, eye)])
    got = rank(field, stacked)
    bound = (c + w) * s - c * w
    return got, bound, got >= bound
