"""Polynomial/matrix duality, power rows, structured matrices, rank."""

import numpy as np
import pytest

from polycommit import FieldError, PrimeField, gf4, substream
from polycommit.polymat import (
    bilinear_eval,
    horner_eval,
    poly_to_matrix,
    power_row,
    rank,
    structured_matrix,
)

GF11 = PrimeField(11)
GF4 = gf4()


def direct_eval(field, coeffs, x):
    """Evaluation oracle: accumulate a_i * x**i term by term."""
    total = 0
    for i, a in enumerate(coeffs):
        total = field.add(total, field.mul(int(a), field.pow(x, i)))
    return total


# -- reshaping --


def test_reshape_s2():
    m = poly_to_matrix(GF11, [1, 2, 3, 4], 2)
    assert m.tolist() == [[1, 2], [3, 4]]


def test_reshape_index_arithmetic():
    coeffs = list(range(9))
    m = poly_to_matrix(GF11, coeffs, 3)
    assert m[2, 1] == 7  # a_7 lands at (2, 1) since 7 = 3*2 + 1


def test_reshape_rejects_non_square_length():
    with pytest.raises(FieldError):
        poly_to_matrix(GF11, [1, 2, 3], 2)


def test_reshape_is_a_read_only_view_of_int64_coefficients():
    coeffs = np.arange(9, dtype=np.int64)
    m = poly_to_matrix(GF11, coeffs, 3)
    assert np.shares_memory(m, coeffs)
    assert not m.flags.writeable
    assert poly_to_matrix(GF11, list(range(9)), 3).tolist() == m.tolist()
    for bad in ([0] * 8 + [11], [-1] + [0] * 8):
        for given in (bad, np.array(bad, dtype=np.int64)):
            with pytest.raises(FieldError):
                poly_to_matrix(GF11, given, 3)


# -- horner --


def test_horner_examples():
    assert horner_eval(GF11, [1, 2, 3, 4], 2) == 5  # 1+4+12+32 = 49 = 5 mod 11
    assert horner_eval(GF11, [9, 1, 7], 0) == 9
    assert horner_eval(GF11, [0, 0, 0, 0], 6) == 0


def test_horner_matches_direct_sum():
    rng = substream(2024, "polymat", "horner")
    for _ in range(500):
        coeffs = [GF11.sample(rng) for _ in range(rng.randrange(1, 12))]
        x = GF11.sample(rng)
        assert horner_eval(GF11, coeffs, x) == direct_eval(GF11, coeffs, x)


# -- power rows --


def test_power_row_examples():
    assert power_row(GF11, 2, 3, "low").tolist() == [1, 2, 4]
    # 7**3 = 2 and 7**6 = 4 mod 11
    assert power_row(GF11, 7, 3, "high").tolist() == [1, 2, 4]
    assert power_row(GF11, 0, 5, "low").tolist() == [1, 0, 0, 0, 0]
    assert power_row(GF11, 0, 4, "high").tolist() == [1, 0, 0, 0]


def test_power_row_entries_are_powers():
    rng = substream(2024, "polymat", "powers")
    for field in (GF11, GF4, PrimeField(2**61 - 1)):
        for _ in range(200):
            x = field.sample(rng)
            s = rng.randrange(1, 12)
            low = power_row(field, x, s, "low")
            high = power_row(field, x, s, "high")
            for k in range(s):
                assert low[k] == field.pow(x, k)
                assert high[k] == field.pow(x, s * k)


# -- bilinear form --


def test_bilinear_matches_horner_example():
    m = poly_to_matrix(GF11, [1, 2, 3, 4], 2)
    assert bilinear_eval(GF11, m, 2) == horner_eval(GF11, [1, 2, 3, 4], 2)


def test_bilinear_zero_matrix_and_origin():
    z = GF11.zeros((3, 3))
    for x in range(11):
        assert bilinear_eval(GF11, z, x) == 0
    m = poly_to_matrix(GF11, list(range(2, 11)), 3)
    assert bilinear_eval(GF11, m, 0) == m[0, 0]


@pytest.mark.parametrize("field,s", [(GF11, 3), (GF11, 4), (GF4, 2)])
def test_bilinear_matches_horner_randomized(field, s):
    rng = substream(2024, "polymat", "bilinear", field.q, s)
    for _ in range(2500):
        coeffs = [field.sample(rng) for _ in range(s * s)]
        x = field.sample(rng)
        m = poly_to_matrix(field, coeffs, s)
        assert bilinear_eval(field, m, x) == horner_eval(field, coeffs, x)


# -- structured matrices --


def test_structured_matrix_example():
    # 8**3 = 6 and 8**6 = 3 mod 11
    m = structured_matrix(GF11, [7, 8], 3, "high")
    assert m.tolist() == [[1, 2, 4], [1, 6, 3]]


def test_structured_matrix_low_is_vandermonde():
    pts = [3, 5, 0]
    m = structured_matrix(GF11, pts, 4, "low")
    for i, p in enumerate(pts):
        assert m[i].tolist() == power_row(GF11, p, 4, "low").tolist()
    assert structured_matrix(GF11, [0], 4, "low").tolist() == [[1, 0, 0, 0]]


def test_structured_matrix_rejects_duplicates():
    with pytest.raises(FieldError):
        structured_matrix(GF11, [3, 3], 2, "low")


# -- mat ops and rank --


def test_rank_identity_and_duplicates():
    eye = GF11.asarray(np.eye(4, dtype=np.int64))
    assert rank(GF11, eye) == 4
    m = structured_matrix(GF11, [1, 2, 3], 4, "low")
    assert rank(GF11, np.vstack([m, m])) == rank(GF11, m) == 3


def test_vandermonde_full_rank():
    # low rows on k <= s distinct points always have rank k; high rows do
    # whenever x -> x**s is injective (gcd(s, q-1) = 1).
    rng = substream(2024, "polymat", "vdm")
    for _ in range(100):
        s = rng.randrange(2, 7)
        k = rng.randrange(1, s + 1)
        pts = rng.sample(range(11), k)
        assert rank(GF11, structured_matrix(GF11, pts, s, "low")) == k
        if s % 2 == 1 and s % 5 != 0:  # gcd(s, 10) = 1
            assert rank(GF11, structured_matrix(GF11, pts, s, "high")) == k


def test_rank_invariant_under_row_permutation_and_scaling():
    rng = substream(2024, "polymat", "rank-invariance")
    for field in (GF11, PrimeField(2**61 - 1)):  # int64 and object dtype
        for _ in range(100):
            rows, cols = rng.randrange(2, 6), rng.randrange(2, 6)
            m = field.asarray([[field.sample(rng) for _ in range(cols)] for _ in range(rows)])
            r = rank(field, m)
            perm = list(range(rows))
            rng.shuffle(perm)
            scaled = m[perm].copy()
            for i in range(rows):
                scaled[i] = field.vmul(rng.randrange(1, field.q), scaled[i])
            assert rank(field, scaled) == r


def test_rank_over_table_field():
    # rows [2,3] and [3,1] are the scalar multiples 2*[1,2] and 3*[1,2]
    assert rank(GF4, GF4.asarray([[1, 2], [2, 3], [3, 1]])) == 1
    assert rank(GF4, GF4.asarray([[1, 2], [0, 1], [1, 3]])) == 2
    assert rank(GF4, GF4.asarray([[0, 0], [0, 0]])) == 0


def test_mat_ops_shapes_and_errors():
    a = GF11.asarray([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(FieldError):
        GF11.matmul(a, a)


def test_matmul_matches_schoolbook():
    rng = substream(2024, "polymat", "matmul")
    for field in (GF11, GF4):
        for _ in range(50):
            n, k, m = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5)
            a = field.asarray([[field.sample(rng) for _ in range(k)] for _ in range(n)])
            b = field.asarray([[field.sample(rng) for _ in range(m)] for _ in range(k)])
            got = field.matmul(a, b)
            for i in range(n):
                for j in range(m):
                    want = 0
                    for t in range(k):
                        want = field.add(want, field.mul(int(a[i, t]), int(b[t, j])))
                    assert int(got[i, j]) == want
