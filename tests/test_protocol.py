"""Protocol core: parameters, keys, commit, evaluate, verify, recover."""

import hashlib

import numpy as np
import pytest

from polycommit import PrimeField, TableField, gf4, session, substream
from polycommit.ot import IdealOt
from polycommit.polymat import (
    horner_eval,
    poly_to_matrix,
    rank,
    structured_matrix,
)
from polycommit.protocol import (
    ConfigError,
    EvalResponse,
    ProverKey,
    RefusalError,
    commit,
    config_from_json,
    config_to_json,
    derive_prohibited_set,
    evaluate,
    keygen_prover,
    keygen_verifier,
    lambda_matrix,
    make_config,
    random_matrix,
    recover,
    suggest_prime_modulus,
    theta_matrix,
    verify,
)
from polycommit.session import honest_coefficients
from polycommit.wire import Reader, Writer

GF11 = PrimeField(11)


def desk_config(c=3):
    return make_config(GF11, d=9, r=2, c=c, xi=6)


# -- parameters --


def test_prohibited_set_examples():
    assert derive_prohibited_set(GF11, 3, 2, 6) == (7, 8, 9, 10)
    with pytest.raises(ConfigError):
        derive_prohibited_set(GF11, 3, 2, 7)  # only 3 elements remain
    assert derive_prohibited_set(gf4(), 2, 2, 1) == (2, 3)


def test_make_config_validations():
    cfg = desk_config()
    assert (cfg.s, cfg.prohibited) == (3, (7, 8, 9, 10))
    with pytest.raises(ConfigError):
        make_config(GF11, d=4, r=2, c=1, xi=6)  # gcd(2, 10) != 1
    with pytest.raises(ConfigError):
        make_config(GF11, d=8, r=2, c=1, xi=6)  # not a square
    with pytest.raises(ConfigError):
        make_config(GF11, d=9, r=1, c=1, xi=6)
    with pytest.raises(ConfigError):
        make_config(GF11, d=9, r=2, c=5, xi=6)  # c > |S|
    with pytest.raises(ConfigError):
        make_config(GF11, d=9, r=2, c=1, xi=8)  # set does not fit


def test_table_field_axioms_are_checked_once_in_the_constructor(monkeypatch):
    calls = []
    check = TableField.check_axioms

    def counted(field):
        calls.append(field.q)
        return check(field)

    monkeypatch.setattr(TableField, "check_axioms", counted)
    cfg = make_config(gf4(), d=4, r=2, c=1, xi=1)
    assert calls == [4]
    config_from_json(config_to_json(cfg))
    assert calls == [4, 4]


def test_suggest_prime_modulus():
    q = suggest_prime_modulus(d=9, r=2, xi=6)
    assert q >= 11
    from math import gcd

    assert gcd(3, q - 1) == 1
    assert q - 1 - 6 >= 4
    with pytest.raises(ConfigError):
        suggest_prime_modulus(d=4, r=2, xi=0)  # even s never admits a prime


# -- keys --


def test_keygen_distinct_and_in_set():
    cfg = desk_config()
    rng = substream(2024, "protocol", "keys")
    for _ in range(50):
        key = keygen_verifier(cfg, rng)
        assert len(set(key.lambdas)) == cfg.c
        assert len(set(key.thetas)) == cfg.c
        assert set(key.lambdas) <= set(cfg.prohibited)
        assert set(key.thetas) <= set(cfg.prohibited)


def test_keygen_full_width_is_permutation():
    cfg = make_config(GF11, d=9, r=2, c=4, xi=6)
    key = keygen_verifier(cfg, substream(2024, "protocol", "perm"))
    assert sorted(key.lambdas) == sorted(key.thetas) == [7, 8, 9, 10]


def test_keygen_golden_seeded():
    cfg = desk_config()
    key = keygen_verifier(cfg, substream(2024, "protocol", "golden-key"))
    assert (key.lambdas, key.thetas) == ((8, 9, 7), (8, 7, 9))


@pytest.mark.parametrize(
    "cfg",
    [
        desk_config(),
        make_config(PrimeField(1_000_667), d=63 * 63, r=10, c=10, xi=10**6),
        make_config(gf4(), d=4, r=2, c=1, xi=1),
        make_config(PrimeField(2**61 - 1), d=17 * 17, r=2, c=2, xi=1000),
    ],
    ids=lambda cfg: f"q={cfg.field.q}-s={cfg.s}",
)
def test_setup_draws_are_the_scalar_stream(cfg, monkeypatch):
    # the set-up helpers draw in bulk, but give the values, dtype and final
    # generator state of one field.sample per element in row-major order
    f = cfg.field

    def scalar(rng, n):
        return f.asarray([f.sample(rng) for _ in range(n)])

    def same(got, want):
        assert got.dtype == want.dtype == f.dtype
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()

    used = []

    def recording_substream(*labels):
        used.append(substream(*labels))
        return used[-1]

    monkeypatch.setattr(session, "substream", recording_substream)
    coeffs = honest_coefficients(cfg, 7)
    ref = substream(7, "poly")
    same(coeffs, scalar(ref, cfg.d))
    assert used[0].getstate() == ref.getstate()

    a, b = substream(2024, "protocol", "setup"), substream(2024, "protocol", "setup")
    shape = (cfg.s, cfg.s + 1)
    same(random_matrix(f, shape, a), scalar(b, cfg.s * (cfg.s + 1)).reshape(shape))
    same(keygen_prover(cfg, a).mask, scalar(b, cfg.d).reshape(cfg.s, cfg.s))
    assert a.getstate() == b.getstate()


# -- commit --


def test_commit_identity_example():
    # c = 1, lambda = 7, A+B = identity: Gamma is the high power row of 7.
    cfg = make_config(GF11, d=9, r=2, c=1, xi=6)
    rng = substream(2024, "protocol", "commit-id")
    b = random_matrix(GF11, (3, 3), rng)
    a = GF11.vsub(GF11.asarray(np.eye(3, dtype=np.int64)), b)
    from polycommit.protocol import VerifierKey

    vk = commit(a, VerifierKey((7,), (8,)), ProverKey(b), cfg, IdealOt(), rng)
    assert vk.gamma.tolist() == [[1, 2, 4]]
    assert vk.gamma.shape == (1, 3) and vk.omega.shape == (3, 1)


def test_commit_zero_mask_gives_zero_omega():
    cfg = desk_config()
    rng = substream(2024, "protocol", "commit-zero")
    a = random_matrix(GF11, (3, 3), rng)
    key = keygen_verifier(cfg, rng)
    vk = commit(a, key, ProverKey(GF11.zeros((3, 3))), cfg, IdealOt(), rng)
    assert not vk.omega.any()
    assert vk.gamma.shape == (cfg.c, cfg.s) and vk.omega.shape == (cfg.s, cfg.c)


def test_commit_matches_direct_linear_algebra():
    cfg = desk_config()
    rng = substream(2024, "protocol", "commit-direct")
    for _ in range(10):
        a = random_matrix(GF11, (3, 3), rng)
        pk = keygen_prover(cfg, rng)
        key = keygen_verifier(cfg, rng)
        vk = commit(a, key, pk, cfg, IdealOt(), rng)
        masked = GF11.vadd(a, pk.mask)
        assert np.array_equal(vk.gamma, GF11.matmul(lambda_matrix(cfg, key), masked))
        assert np.array_equal(
            vk.omega, GF11.matmul(pk.mask, theta_matrix(cfg, key).T)
        )


def test_commit_prover_view_invariant_under_verifier_key():
    # With the ideal backend and matched prover randomness, everything the
    # prover-side sender deposits is independent of the verifier's points.
    cfg = desk_config()
    setup = substream(2024, "protocol", "secrecy")
    a = random_matrix(GF11, (3, 3), setup)
    pk = keygen_prover(cfg, setup)
    traces = []
    for tag in ("one", "two"):
        key = keygen_verifier(cfg, substream(2024, "protocol", "secrecy", tag))
        backend = IdealOt()
        commit(a, key, pk, cfg, backend, substream(2024, "protocol", "secrecy-rng"))
        traces.append([pairs.tobytes() for pairs in backend.sender_trace])
    assert traces[0] == traces[1]


@pytest.mark.parametrize(
    "field, d, r, c, xi, transfers, digest",
    [
        (GF11, 9, 2, 3, 6, 18,
         "40de4b0d34583f0b45496f89b1ef8298da36047afa390fde1208dd7db62b978c"),
        (PrimeField(1_099_511_627_803), 25, 3, 2, 2**40, 44,  # object dtype
         "f1887a7ddc53acba6e24200dc5df1d8493cd391312257883771a31bb731fea32"),
        (gf4(), 4, 2, 1, 0, 2,
         "de51d191b19a235bf4c077d67da5c363488db384fcf12609235574723c364006"),
    ],
    ids=["gf11", "p40", "gf4"],
)
def test_commit_sender_trace_is_stable(field, d, r, c, xi, transfers, digest):
    # Golden digest of every 1-of-2 pair the sender deposits in one
    # commitment, hashed transfer by transfer, so it reads the same whether
    # the 2c runs are deposited one by one or as one batch.  A change to the
    # value tables, the mask stream, the reduction table or the element
    # codec must update it on purpose.
    cfg = make_config(field, d=d, r=r, c=c, xi=xi)
    matrix = poly_to_matrix(field, honest_coefficients(cfg, 5), cfg.s)
    pk = keygen_prover(cfg, substream(5, "prover"))
    key = keygen_verifier(cfg, substream(5, "verifier"))
    box = IdealOt()
    commit(matrix, key, pk, cfg, box, substream(5, "commit"))
    (pairs,) = box.sender_trace  # one read-only record per commitment
    assert not pairs.flags.writeable and pairs.shape[1] == transfers
    h = hashlib.sha256(pairs.swapaxes(0, 1).tobytes())  # each transfer's m0 then m1
    assert h.hexdigest() == digest


# -- evaluate --


def test_evaluate_identity_and_zero_mask():
    cfg = desk_config()
    a = GF11.asarray(np.eye(3, dtype=np.int64))
    resp = evaluate(2, a, ProverKey(GF11.zeros((3, 3))), cfg)
    assert resp.v.tolist() == [1, 2, 4]
    assert resp.u.tolist() == [0, 0, 0]


def test_evaluate_matches_matrix_vector_oracle():
    # v = (A+B) lowRow(x)^T and u = highRow(x) B from scalar field ops, over
    # int64 primes, an object-dtype prime and GF(4)
    int64_prime = PrimeField(suggest_prime_modulus(49, 2, 100))
    cases = [
        (desk_config(), (3,)),
        (make_config(int64_prime, 49, 2, 1, 100), (0, 1, 100)),
        (make_config(PrimeField(1099511627831), 9, 2, 1, 1000), (0, 1, 1000)),
        (make_config(gf4(), 4, 2, 1, 1), (0, 1)),
    ]
    for cfg, xs in cases:
        f, s = cfg.field, cfg.s
        rng = substream(2024, "protocol", "eval-oracle", f.q)
        a = random_matrix(f, (s, s), rng)
        pk = keygen_prover(cfg, rng)
        for x in xs:
            low = [f.pow(x, j) for j in range(s)]
            high = [f.pow(x, s * i) for i in range(s)]
            v_want, u_want = [], []
            for i in range(s):
                v = u = 0
                for j in range(s):
                    v = f.add(v, f.mul(f.add(int(a[i, j]), int(pk.mask[i, j])), low[j]))
                    u = f.add(u, f.mul(high[j], int(pk.mask[j, i])))
                v_want.append(v)
                u_want.append(u)
            resp = evaluate(x, a, pk, cfg)
            assert [int(e) for e in resp.v] == v_want, (f, x)
            assert [int(e) for e in resp.u] == u_want, (f, x)


def test_evaluate_refuses_above_bound():
    cfg = desk_config()
    a = random_matrix(GF11, (3, 3), substream(1))
    pk = keygen_prover(cfg, substream(2))
    for x in cfg.prohibited:
        with pytest.raises(RefusalError):
            evaluate(x, a, pk, cfg)
    evaluate(cfg.xi, a, pk, cfg)  # the bound itself is evaluable


def test_cached_key_matrices_are_read_only():
    cfg = desk_config()
    key = keygen_verifier(cfg, substream(2024, "protocol", "read-only"))
    for matrix in (lambda_matrix(cfg, key), theta_matrix(cfg, key)):
        with pytest.raises(ValueError):
            matrix[0, 0] += 1
    a = random_matrix(GF11, (3, 3), substream(1))
    pk = keygen_prover(cfg, substream(2))
    vk = commit(a, key, pk, cfg, IdealOt(), substream(3))
    assert verify(2, evaluate(2, a, pk, cfg), vk, key, cfg)


# -- verify / recover --


def honest_setup(cfg, seed):
    rng = substream(2024, "protocol", "honest", seed)
    coeffs = [GF11.sample(rng) for _ in range(cfg.d)]
    a = poly_to_matrix(GF11, coeffs, cfg.s)
    pk = keygen_prover(cfg, rng)
    key = keygen_verifier(cfg, rng)
    vk = commit(a, key, pk, cfg, IdealOt(), rng)
    return coeffs, a, pk, key, vk


def test_honest_round_accepts_and_recovers():
    cfg = desk_config()
    for seed in range(20):
        coeffs, a, pk, key, vk = honest_setup(cfg, seed)
        for x in range(cfg.xi + 1):
            resp = evaluate(x, a, pk, cfg)
            assert verify(x, resp, vk, key, cfg)
            assert recover(x, resp, cfg) == horner_eval(GF11, coeffs, x)


def test_unit_perturbation_rejected():
    cfg = make_config(GF11, d=9, r=2, c=1, xi=6)
    rng = substream(2024, "protocol", "perturb")
    a = random_matrix(GF11, (3, 3), rng)
    pk = keygen_prover(cfg, rng)
    from polycommit.protocol import VerifierKey

    key = VerifierKey((7,), (8,))
    vk = commit(a, key, pk, cfg, IdealOt(), rng)
    resp = evaluate(2, a, pk, cfg)
    # Lambda = [[1, 2, 4]]; adding e1 to v changes the left parity by 1
    forged = EvalResponse(v=GF11.vadd(resp.v, GF11.asarray([1, 0, 0])), u=resp.u)
    assert not verify(2, forged, vk, key, cfg)


def test_crafted_root_delta_fools_verifier():
    # A perturbation whose polynomial vanishes at every lambda**s passes the
    # left parity even though v changed: the soundness-bound mechanism.
    cfg = make_config(GF11, d=9, r=2, c=1, xi=6)
    rng = substream(2024, "protocol", "crafted")
    a = random_matrix(GF11, (3, 3), rng)
    pk = keygen_prover(cfg, rng)
    from polycommit.protocol import VerifierKey

    key = VerifierKey((7,), (8,))
    vk = commit(a, key, pk, cfg, IdealOt(), rng)
    resp = evaluate(2, a, pk, cfg)
    # delta(y) = y - 7**3 = y - 2, coefficients (9, 1, 0)
    delta = GF11.asarray([9, 1, 0])
    lam = lambda_matrix(cfg, key)
    assert GF11.matmul(lam, delta).tolist() == [0]
    forged = EvalResponse(v=GF11.vadd(resp.v, delta), u=resp.u)
    assert not np.array_equal(forged.v, resp.v)
    assert verify(2, forged, vk, key, cfg)


def test_malformed_response_rejected():
    cfg = desk_config()
    _, a, pk, key, vk = honest_setup(cfg, 99)
    resp = evaluate(1, a, pk, cfg)
    assert not verify(1, EvalResponse(v=resp.v[:2], u=resp.u), vk, key, cfg)


def test_recover_with_zero_mask_is_direct_evaluation():
    cfg = desk_config()
    rng = substream(2024, "protocol", "recover-zero")
    coeffs = [GF11.sample(rng) for _ in range(9)]
    a = poly_to_matrix(GF11, coeffs, 3)
    pk = ProverKey(GF11.zeros((3, 3)))
    for x in range(7):
        resp = evaluate(x, a, pk, cfg)
        assert recover(x, resp, cfg) == horner_eval(GF11, coeffs, x)


def test_recover_specific_polynomial():
    cfg = desk_config()
    rng = substream(2024, "protocol", "recover-rand")
    coeffs = list(range(1, 10))  # 1 + 2x + ... + 9x**8
    a = poly_to_matrix(GF11, coeffs, 3)
    pk = keygen_prover(cfg, rng)
    resp = evaluate(2, a, pk, cfg)
    assert recover(2, resp, cfg) == horner_eval(GF11, coeffs, 2)


def test_full_round_trip_s5():
    # d = 25 over GF(13): gcd(5, 12) = 1, reserved set {5..12}
    f = PrimeField(13)
    cfg = make_config(f, d=25, r=2, c=2, xi=4)
    rng = substream(2024, "protocol", "s5")
    coeffs = [f.sample(rng) for _ in range(25)]
    a = poly_to_matrix(f, coeffs, 5)
    pk = keygen_prover(cfg, rng)
    key = keygen_verifier(cfg, rng)
    vk = commit(a, key, pk, cfg, IdealOt(), rng)
    for x in range(5):
        resp = evaluate(x, a, pk, cfg)
        assert verify(x, resp, vk, key, cfg)
        assert recover(x, resp, cfg) == horner_eval(f, coeffs, x)


def test_full_round_trip_large_prime():
    # a modulus past 2**31 exercises the object-dtype array path end to end
    # (2**40 + 55 is prime and = 2 mod 3, so x**3 permutes the field)
    f = PrimeField(1099511627831)
    cfg = make_config(f, d=9, r=2, c=2, xi=1000)
    rng = substream(2024, "protocol", "bigp")
    coeffs = [f.sample(rng) for _ in range(9)]
    a = poly_to_matrix(f, coeffs, 3)
    pk = keygen_prover(cfg, rng)
    key = keygen_verifier(cfg, rng)
    vk = commit(a, key, pk, cfg, IdealOt(), rng)
    for x in (0, 17, 1000):
        resp = evaluate(x, a, pk, cfg)
        assert verify(x, resp, vk, key, cfg)
        assert recover(x, resp, cfg) == horner_eval(f, coeffs, x)


def test_full_round_trip_gf4():
    f = gf4()
    cfg = make_config(f, d=4, r=2, c=1, xi=1)
    rng = substream(2024, "protocol", "gf4")
    coeffs = [f.sample(rng) for _ in range(4)]
    a = poly_to_matrix(f, coeffs, 2)
    pk = keygen_prover(cfg, rng)
    key = keygen_verifier(cfg, rng)
    vk = commit(a, key, pk, cfg, IdealOt(), rng)
    for x in (0, 1):
        resp = evaluate(x, a, pk, cfg)
        assert verify(x, resp, vk, key, cfg)
        assert recover(x, resp, cfg) == horner_eval(f, coeffs, x)


# -- structural premises --


def test_key_and_query_rows_jointly_full_rank():
    # Key points live strictly above xi, queries at or below it, so the
    # stacked Vandermonde structures keep full rank c + m (m + c <= s).
    cfg = make_config(GF11, d=9, r=2, c=1, xi=6)
    rng = substream(2024, "protocol", "rank-premise")
    for _ in range(50):
        key = keygen_verifier(cfg, rng)
        m = rng.randrange(1, cfg.s - cfg.c + 1)
        queries = rng.sample(range(cfg.xi + 1), m)
        lam_y = np.vstack(
            [lambda_matrix(cfg, key), structured_matrix(GF11, queries, cfg.s, "high")]
        )
        theta_x = np.vstack(
            [theta_matrix(cfg, key), structured_matrix(GF11, queries, cfg.s, "low")]
        )
        assert rank(GF11, lam_y) == cfg.c + m
        assert rank(GF11, theta_x) == cfg.c + m


def test_one_round_checks_each_decoded_value_once(monkeypatch):
    # EVAL_REQ -> evaluate -> EVAL_RESP -> verify -> recover: the decoder
    # checks x, v and u once each; the prover's d-entry matrix and the
    # response are never checked again.
    cfg = desk_config(c=1)
    rng = substream(2024, "protocol", "checked-once")
    a = random_matrix(GF11, (3, 3), rng)
    pk = keygen_prover(cfg, rng)
    key = keygen_verifier(cfg, rng)
    vk = commit(a, key, pk, cfg, IdealOt(), rng)
    sizes = []
    asarray = PrimeField.asarray

    def counted(self, values):
        sizes.append(np.size(values))
        return asarray(self, values)

    monkeypatch.setattr(PrimeField, "asarray", counted)
    x = Reader(Writer().elem(GF11, 2).bytes()).elem(GF11)
    resp = evaluate(x, a, pk, cfg)
    r = Reader(Writer().vector(GF11, resp.v).vector(GF11, resp.u).bytes())
    got = EvalResponse(v=r.vector(GF11), u=r.vector(GF11))
    assert verify(x, got, vk, key, cfg)
    assert recover(x, got, cfg) == horner_eval(GF11, a.reshape(-1), x)
    assert sizes == [1, cfg.s, cfg.s]
