"""Audit oracles: soundness exact/Monte-Carlo, privacy rank/enumeration,
attack reproduction, baseline contrast, rank-statement checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from polycommit import FieldError, PrimeField, gf2, gf4, substream
from polycommit.audit import (
    RandomPerturbation,
    Replay,
    RootCrafting,
    adaptive_worst_case,
    baseline_leakage,
    basic_observation_system,
    conditional_entropy_bound_check,
    entropy_given_rows,
    kronecker_stack_rank_check,
    masked_observation_system,
    monte_carlo_detection,
    privacy_enumeration_oracle,
    privacy_rank_oracle,
    soundness_exact,
    unit_vector_attack,
)
from polycommit.ot import IdealOt
from polycommit.polymat import power_row, rank, structured_matrix
from polycommit.protocol import (
    VerifierKey,
    commit,
    evaluate,
    keygen_prover,
    keygen_verifier,
    lambda_matrix,
    make_config,
    random_matrix,
    suggest_prime_modulus,
    theta_matrix,
)

GF11 = PrimeField(11)
GF4 = gf4()


def cfg11(c=1):
    return make_config(GF11, d=9, r=2, c=c, xi=6)


def cfg4():
    return make_config(GF4, d=4, r=2, c=1, xi=1)


# -- soundness_exact --


def test_soundness_no_roots_gives_zero():
    # constant polynomial 1 has no roots anywhere
    assert soundness_exact(GF11, GF11.asarray([1, 0, 0]), (7, 8, 9, 10), 1, 3) == 0


def test_soundness_half_example():
    # delta(y) = (y - 7**3)(y - 8**3) = (y-2)(y-6) = y**2 + 3y + 1 mod 11;
    # both roots lie in the cubed image {2, 6, 3, 10} of S, so t = 2 and the
    # acceptance probability is C(2,1)/C(4,1) = 1/2 = 1/r**c exactly.
    delta = GF11.asarray([1, 3, 1])
    got = soundness_exact(GF11, delta, (7, 8, 9, 10), 1, 3, side="v")
    assert got == Fraction(1, 2)


def test_soundness_bound_for_random_deltas():
    rng = substream(2024, "audit", "bound")
    for c in (1, 2, 3):
        bound = Fraction(math.comb(2, c), math.comb(4, c))  # C(s-1,c)/C(r(s-1),c)
        assert bound <= Fraction(1, 2**c)
        for _ in range(300):
            delta = GF11.asarray([GF11.sample(rng) for _ in range(3)])
            if not delta.any():
                continue
            assert soundness_exact(GF11, delta, (7, 8, 9, 10), c, 3) <= bound


def test_soundness_rejects_zero_delta():
    with pytest.raises(FieldError):
        soundness_exact(GF11, GF11.zeros(3), (7, 8, 9, 10), 1, 3)


def test_soundness_u_side_counts_plain_roots():
    # (y-7)(y-8) = y**2 - 15y + 56 = y**2 + 7y + 1 mod 11
    delta = GF11.asarray([1, 7, 1])
    assert soundness_exact(GF11, delta, (7, 8, 9, 10), 1, 3, side="u") == Fraction(1, 2)
    # those same coefficients have no roots in the cubed image
    assert soundness_exact(GF11, delta, (7, 8, 9, 10), 1, 3, side="v") == 0


def test_root_crafting_hits_the_bound_exactly():
    rng = substream(2024, "audit", "craft")
    for c in (1, 2, 3):
        cfg = cfg11(c)
        adv = RootCrafting()  # t = s - 1 roots
        for _ in range(20):
            delta = adv.craft_delta(cfg, rng)
            got = soundness_exact(GF11, delta, cfg.prohibited, c, 3, side="v")
            assert got == Fraction(math.comb(2, c), math.comb(4, c))


# -- Monte Carlo --


def test_monte_carlo_random_perturbation_c3():
    cfg = cfg11(c=3)
    report = monte_carlo_detection(
        RandomPerturbation(), cfg, 2000, substream(2024, "audit", "mc-rand")
    )
    assert report.rate <= 2 / cfg.r**cfg.c
    assert report.within(3.0)


def test_monte_carlo_root_crafting_c1():
    cfg = cfg11(c=1)
    report = monte_carlo_detection(
        RootCrafting(), cfg, 4000, substream(2024, "audit", "mc-craft")
    )
    assert report.exact_mean == 0.5
    assert report.within(3.0)


def test_monte_carlo_root_crafting_u_side():
    # the right parity mirrors the left with roots at the theta points
    cfg = cfg11(c=1)
    report = monte_carlo_detection(
        RootCrafting(side="u"), cfg, 4000, substream(2024, "audit", "mc-u")
    )
    assert report.exact_mean == 0.5
    assert report.within(3.0)


def test_monte_carlo_replay():
    cfg = cfg11(c=2)
    report = monte_carlo_detection(
        Replay(source_x=0), cfg, 1000, substream(2024, "audit", "mc-replay"), x=3
    )
    assert report.within(3.0)
    assert report.rate <= 2 / cfg.r**cfg.c


def test_monte_carlo_rejects_honest_emission():
    class Honest:
        name = "honest"

        def forge(self, x, honest, cfg, rng):
            z = cfg.field.zeros(cfg.s)
            return honest, z, z

    with pytest.raises(FieldError):
        monte_carlo_detection(Honest(), cfg11(), 1000, substream(0))


def test_monte_carlo_enforces_trial_floor():
    with pytest.raises(FieldError):
        monte_carlo_detection(RandomPerturbation(), cfg11(), 999, substream(0))


# -- privacy rank oracle --


def test_entropy_with_no_observations_is_d():
    cfg = cfg11()
    system = masked_observation_system(GF11, cfg.s, None, None, [])
    assert entropy_given_rows(system) == cfg.d


def test_basic_scheme_full_width_reveals_everything():
    eye = GF11.asarray(np.eye(3, dtype=np.int64))
    system = basic_observation_system(GF11, 3, eye, [])
    assert entropy_given_rows(system) == 0


def test_rank_oracle_meets_floor_on_legal_instances():
    rng = substream(2024, "audit", "legal")
    for c in (1, 2):
        cfg = cfg11(c)
        for m in (1, 2, 3):
            for _ in range(40):
                key = keygen_verifier(cfg, rng)
                xs = rng.sample(range(cfg.xi + 1), m)
                h = privacy_rank_oracle(cfg, key, xs)
                assert h >= cfg.d - (m + c) ** 2


def test_masked_commitment_alone_leaks_exactly_c_squared():
    cfg = cfg11(c=1)
    assert privacy_rank_oracle(cfg, VerifierKey((7,), (8,)), []) == cfg.d - 1


@pytest.mark.parametrize(
    "cfg",
    [
        cfg11(c=2),
        cfg4(),
        make_config(PrimeField(suggest_prime_modulus(9, 2, 2**40)), d=9, r=2, c=2, xi=2**40),
    ],
    ids=["gf11-c2", "gf4-c1", "prime41-c2"],
)
def test_observation_rows_are_the_verifiers_view(cfg):
    f = cfg.field
    rng = substream(2024, "audit", "view", f.q)
    a = random_matrix(f, (cfg.s, cfg.s), rng)
    pk = keygen_prover(cfg, rng)
    key = keygen_verifier(cfg, rng)
    vk = commit(a, key, pk, cfg, IdealOt(), rng)
    xs = rng.sample(range(cfg.xi + 1), 2)
    lam, theta = lambda_matrix(cfg, key), theta_matrix(cfg, key)
    ab = np.concatenate([a.reshape(-1), pk.mask.reshape(-1)])

    want = [vk.gamma.reshape(-1), vk.omega.reshape(-1)]
    for x in xs:
        resp = evaluate(x, a, pk, cfg)
        want += [resp.v, resp.u]
    masked = masked_observation_system(f, cfg.s, lam, theta, xs)
    assert f.matmul(masked.rows, ab).tolist() == np.concatenate(want).tolist()

    want = [f.matmul(lam, a).reshape(-1)]
    want += [f.matmul(a, power_row(f, x, cfg.s, "low")) for x in xs]
    basic = basic_observation_system(f, cfg.s, lam, xs)
    assert f.matmul(basic.rows, ab).tolist() == np.concatenate(want).tolist()


# -- enumeration oracle --


def test_enumeration_matches_rank_oracle_on_legal_instances():
    cfg = cfg4()
    for lam_pt in (2, 3):
        for th_pt in (2, 3):
            key = VerifierKey((lam_pt,), (th_pt,))
            for xs in ([], [0], [1], [0, 1]):
                want = privacy_rank_oracle(cfg, key, xs)
                got = privacy_enumeration_oracle(
                    GF4, 2, lambda_matrix(cfg, key), theta_matrix(cfg, key), xs
                )
                assert abs(got - want) < 1e-9


def test_enumeration_no_observations():
    got = privacy_enumeration_oracle(GF4, 2, None, None, [])
    assert abs(got - 4) < 1e-12


def test_enumeration_degenerate_zero_row_agrees():
    zero_row = GF4.zeros((1, 2))
    theta = structured_matrix(GF4, [3], 2, "low")
    want = entropy_given_rows(masked_observation_system(GF4, 2, zero_row, theta, [0]))
    got = privacy_enumeration_oracle(GF4, 2, zero_row, theta, [0])
    assert abs(got - want) < 1e-9


def test_enumeration_refuses_large_instances():
    with pytest.raises(FieldError):
        privacy_enumeration_oracle(GF11, 3, None, None, [])


# -- attack demo --


def test_unit_vector_attack_caps_entropy():
    report = unit_vector_attack(cfg11())
    assert report.attack_entropy <= report.attack_ceiling == 9 - 3
    assert report.legal_entropy >= report.legal_floor == 9 - 4
    # the legal restricted key beats the attacked one here
    assert report.legal_entropy > report.attack_entropy


def test_unit_vector_attack_separation_grows_with_s():
    # s = 5 over GF(13): ceiling d - s = 20 falls strictly below the legal
    # floor d - (m+c)**2 = 21, so restriction is necessary, not cosmetic.
    cfg = make_config(PrimeField(13), d=25, r=2, c=1, xi=4)
    report = unit_vector_attack(cfg)
    assert report.attack_entropy <= 20 < 21 <= report.legal_entropy


def test_attacked_system_agrees_with_enumeration_on_gf4():
    e1 = GF4.zeros((1, 2))
    e1[0, 0] = 1
    theta = structured_matrix(GF4, [2], 2, "low")
    want = entropy_given_rows(masked_observation_system(GF4, 2, e1, theta, [0]))
    got = privacy_enumeration_oracle(GF4, 2, e1, theta, [0])
    assert abs(got - want) < 1e-9


def test_adaptive_worst_case_respects_floor():
    cfg = cfg4()
    worst, arg = adaptive_worst_case(cfg, m=1)
    assert worst >= cfg.d - (1 + cfg.c) ** 2
    cfg = cfg11(c=1)
    worst, arg = adaptive_worst_case(cfg, m=1)
    assert worst >= cfg.d - 4
    assert worst == 7  # every legal single-query view leaves 7 of 9 symbols


# -- baseline contrast --


def test_baseline_leakage_values():
    cfg = cfg11(c=1)
    d, s, c = cfg.d, cfg.s, cfg.c
    assert baseline_leakage(cfg) == d - c * s  # 6
    # each fresh query adds s rows of which c overlap the commitment span:
    # rank = (c+m)s - cm exactly, so entropy falls by s - c per query
    assert baseline_leakage(cfg, xs=[0]) == d - 2 * s + 1  # 4
    assert baseline_leakage(cfg, xs=[0, 1]) == d - 3 * s + 2  # 2
    full = make_config(GF11, d=9, r=2, c=3, xi=6)
    assert baseline_leakage(full) == 0  # c = s determines A entirely


def test_masked_strictly_beats_baseline_floor():
    cfg = cfg11(c=1)
    masked = privacy_rank_oracle(cfg, VerifierKey((7,), (8,)), [])
    assert masked == cfg.d - cfg.c**2 == 8
    assert baseline_leakage(cfg) == 6 < 8


# -- rank statements --


def test_conditional_entropy_tight_on_coordinate_case():
    for s, c, w in ((4, 3, 2), (5, 2, 2), (3, 1, 1)):
        f_mat = GF11.asarray(np.eye(s, dtype=np.int64))[:c]
        g_mat = GF11.asarray(np.eye(s, dtype=np.int64))[:, :w]
        entropy, bound, ok = conditional_entropy_bound_check(GF11, f_mat, g_mat)
        assert ok and entropy == bound == c * s - c * w


def test_conditional_entropy_square_g_boundary():
    s = 3
    f_mat = GF11.asarray(np.eye(s, dtype=np.int64))[:2]
    g_mat = GF11.asarray(np.eye(s, dtype=np.int64))  # invertible: EG pins E
    entropy, bound, ok = conditional_entropy_bound_check(GF11, f_mat, g_mat)
    assert ok and bound == 0 and entropy == 0


def full_rank_matrix(field, rows, cols, rng):
    while True:
        m = random_matrix(field, (rows, cols), rng)
        if rank(field, m) == min(rows, cols):
            return m


def test_conditional_entropy_randomized():
    rng = substream(2024, "audit", "lemma-rand")
    for _ in range(60):
        s = rng.randrange(2, 7)
        c = rng.randrange(1, s + 1)
        w = rng.randrange(1, s + 1)
        f_mat = full_rank_matrix(GF11, c, s, rng)
        g_mat = full_rank_matrix(GF11, s, w, rng)
        entropy, bound, ok = conditional_entropy_bound_check(GF11, f_mat, g_mat)
        assert ok


def test_conditional_entropy_rejects_rank_deficient():
    f_bad = GF11.asarray([[1, 2, 3], [2, 4, 6]])
    g = GF11.asarray(np.eye(3, dtype=np.int64))
    with pytest.raises(FieldError):
        conditional_entropy_bound_check(GF11, f_bad, g)


def test_kronecker_stack_illustrated_shape():
    rng = substream(2024, "audit", "kron")
    for _ in range(10):
        f_mat = full_rank_matrix(GF11, 3, 4, rng)
        g_mat = full_rank_matrix(GF11, 2, 4, rng)
        got, bound, ok = kronecker_stack_rank_check(GF11, f_mat, g_mat)
        assert ok and bound == (3 + 2) * 4 - 6 == 14


def test_kronecker_stack_identity_full_width():
    s = 3
    eye = GF11.asarray(np.eye(s, dtype=np.int64))
    got, bound, ok = kronecker_stack_rank_check(GF11, eye, eye)
    assert ok and got == s * s and bound == 2 * s * s - s * s


def test_kronecker_stack_exhaustive_gf2():
    f2 = gf2()
    nonzero_rows = [[0, 1], [1, 0], [1, 1]]
    for f_row in nonzero_rows:
        for g_row in nonzero_rows:
            got, bound, ok = kronecker_stack_rank_check(
                f2, f2.asarray([f_row]), f2.asarray([g_row])
            )
            assert ok and bound == (1 + 1) * 2 - 1 == 3


def test_conditional_entropy_exhaustive_gf2():
    f2 = gf2()
    nonzero = [[0, 1], [1, 0], [1, 1]]
    for f_row in nonzero:
        for g_col in nonzero:
            entropy, bound, ok = conditional_entropy_bound_check(
                f2, f2.asarray([f_row]), f2.asarray([[g_col[0]], [g_col[1]]])
            )
            assert ok and bound == 1 * 2 - 1 * 1 == 1


def test_randomized_kronecker_checks():
    rng = substream(2024, "audit", "kron-rand")
    for _ in range(60):
        s = rng.randrange(2, 7)
        c = rng.randrange(1, s + 1)
        w = rng.randrange(1, s + 1)
        f_mat = full_rank_matrix(GF11, c, s, rng)
        g_mat = full_rank_matrix(GF11, w, s, rng)
        got, bound, ok = kronecker_stack_rank_check(GF11, f_mat, g_mat)
        assert ok
