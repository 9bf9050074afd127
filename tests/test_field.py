"""Field backends: arithmetic, validation, sampling, ordering."""

import math

import numpy as np
import pytest

from polycommit import (
    FieldError,
    PrimeField,
    TableField,
    compare,
    gf2,
    gf4,
    is_probable_prime,
    substream,
    validate_spec,
    wire,
)
from polycommit.field import DecodeError, decode_elements

GF11 = PrimeField(11)
GF4 = gf4()


def repeated_mul(field, a, e):
    """Exponentiation oracle independent of field.pow."""
    acc = 1
    for _ in range(e):
        acc = field.mul(acc, a)
    return acc


# -- construction and primality --


def test_prime_field_rejects_composites_and_evens():
    for bad in (1, 2, 4, 9, 15, 2**62 + 1):
        with pytest.raises(FieldError):
            PrimeField(bad)


def test_primality_check():
    assert is_probable_prime(2)
    assert is_probable_prime(11)
    assert is_probable_prime((1 << 61) - 1)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime((1 << 61) - 3)


def test_table_field_rejects_broken_tables():
    add = [[0, 1], [1, 0]]
    bad_mul = [[0, 0], [0, 0]]  # no multiplicative identity
    with pytest.raises(FieldError):
        TableField(add, bad_mul)
    # Z/4 is not a field: 2 has no inverse
    add4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul4 = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    with pytest.raises(FieldError):
        TableField(add4, mul4)


def test_gf4_is_a_field_with_xor_addition():
    assert GF4.check_axioms() == []
    assert GF4.add(2, 3) == 1
    assert GF4.mul(2, 2) == 3
    assert GF4.mul(2, 3) == 1
    assert GF4.inv(2) == 3


def carryless_field(bits, poly):
    """Build GF(2**bits) tables from an irreducible polynomial bitmask."""
    q = 1 << bits

    def cmul(a, b):
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            if a & q:
                a ^= poly
            b >>= 1
        return acc

    add = [[a ^ b for b in range(q)] for a in range(q)]
    mul = [[cmul(a, b) for b in range(q)] for a in range(q)]
    return TableField(add, mul)


def test_gf8_table_field():
    # x**3 + x + 1
    f8 = carryless_field(3, 0b1011)
    assert f8.check_axioms() == []
    assert validate_spec(f8, 2) == []  # gcd(2, 7) = 1: even s works here
    assert len({f8.pow(x, 2) for x in range(8)}) == 8
    for a in range(1, 8):
        assert f8.mul(a, f8.inv(a)) == 1


def test_gf256_table_field_at_the_order_cap():
    # x**8 + x**4 + x**3 + x + 1; q = 256 is the largest supported order
    f256 = carryless_field(8, 0b100011011)
    assert f256.q == 256
    assert validate_spec(f256, 2) == []  # gcd(2, 255) = 1
    assert validate_spec(f256, 3) != []  # 3 divides 255
    assert len({f256.pow(x, 2) for x in range(256)}) == 256
    assert f256.mul(0x53, 0xCA) == 0x01  # classic inverse pair under this modulus
    m = f256.asarray([[1, 2], [3, 4]])
    v = f256.matmul(m, f256.asarray([5, 6]))
    want0 = f256.add(f256.mul(1, 5), f256.mul(2, 6))
    want1 = f256.add(f256.mul(3, 5), f256.mul(4, 6))
    assert v.tolist() == [want0, want1]


def test_table_order_cap_enforced():
    with pytest.raises(FieldError):
        TableField(np.zeros((300, 300)), np.zeros((300, 300)))


# -- arith --


def test_arith_examples_gf11():
    assert GF11.add(7, 8) == 4
    assert GF11.mul(3, 4) == 1
    for a in range(11):
        assert GF11.add(a, 0) == a


# -- inv_pow --


def test_pow_examples():
    assert GF11.pow(2, 10) == 1  # Fermat
    assert GF11.pow(7, 3) == repeated_mul(GF11, 7, 3) == 2
    assert GF11.pow(3, -1) == 4
    assert GF11.pow(0, 0) == 1
    assert GF4.pow(0, 0) == 1
    assert GF4.pow(2, 3) == repeated_mul(GF4, 2, 3) == 1


def test_pow_against_repeated_multiplication():
    rng = substream(2024, "field", "pow-oracle")
    for field in (GF11, GF4, PrimeField(101)):
        for _ in range(200):
            a = field.sample(rng)
            e = rng.randrange(0, 25)
            assert field.pow(a, e) == repeated_mul(field, a, e)


def test_inverse_of_zero_errors():
    for field in (GF11, GF4):
        with pytest.raises(FieldError):
            field.inv(0)
        with pytest.raises(FieldError):
            field.pow(0, -1)


# -- sample_uniform --


def test_sampling_golden_triple():
    rng = substream(2024, "field", "golden")
    assert [GF11.sample(rng) for _ in range(3)] == [7, 0, 1]


def test_sampling_uniform_chi_square():
    # Each symbol count within 5 sigma of n/q.
    for field in (GF11, gf2()):
        rng = substream(2024, "field", "chi2", field.q)
        n = 100_000
        counts = np.zeros(field.q)
        for _ in range(n):
            counts[field.sample(rng)] += 1
        p = 1.0 / field.q
        sigma = math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 5 * sigma)


# -- validate_spec --


def test_validate_spec_gcd_cases():
    assert validate_spec(GF11, 3) == []
    assert validate_spec(GF11, 2) != []
    assert validate_spec(GF4, 2) == []


def test_power_map_is_bijection_when_valid():
    # Exhaustive for table fields, sampled collision check for prime q.
    assert len({GF4.pow(x, 2) for x in range(4)}) == 4
    assert len({GF11.pow(x, 3) for x in range(11)}) == 11
    big = PrimeField((1 << 31) - 1)  # 2**31-1 is prime; gcd(3, q-1) = 3
    s = 5
    assert math.gcd(s, big.q - 1) == 1
    rng = substream(2024, "field", "bijection")
    seen = {}
    for _ in range(10_000):
        x = big.sample(rng)
        y = big.pow(x, s)
        assert seen.setdefault(y, x) == x  # no collisions
    # and a failing s really does collide somewhere (q=11, s=2)
    assert len({GF11.pow(x, 2) for x in range(11)}) < 11


# -- compare / total order --


def test_compare_examples():
    assert compare(7, 6) == 1
    assert compare(2, 1) == 1  # GF(4): omega encoded as 2
    assert compare(5, 5) == 0


def test_compare_total_order_exhaustive_small():
    for q in (4, 11):
        for a in range(q):
            for b in range(q):
                c = compare(a, b)
                assert c == -compare(b, a)
                for k in range(q):
                    if compare(a, b) <= 0 and compare(b, k) <= 0:
                        assert compare(a, k) <= 0


# -- randomized algebraic properties --


@pytest.mark.parametrize("field", [GF11, GF4, PrimeField(257)])
def test_field_axiom_properties_randomized(field):
    rng = substream(2024, "field", "axioms", field.q)
    for _ in range(10_000):
        a, b = field.sample(rng), field.sample(rng)
        assert field.sub(field.add(a, b), b) == a
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1


def test_big_prime_array_path_is_exact():
    # p >= 2**31 falls back to object arrays; results must match Python ints.
    p = (1 << 61) - 1
    f = PrimeField(p)
    rng = substream(2024, "field", "bigpath")
    a = f.asarray([[rng.randrange(p) for _ in range(3)] for _ in range(3)])
    b = f.asarray([[rng.randrange(p) for _ in range(3)] for _ in range(3)])
    got = f.matmul(a, b)
    for i in range(3):
        for j in range(3):
            want = sum(int(a[i, k]) * int(b[k, j]) for k in range(3)) % p
            assert int(got[i, j]) == want


def test_canonical_range_enforced():
    with pytest.raises(FieldError):
        GF11.check(11)
    with pytest.raises(FieldError):
        GF11.asarray([0, 3, 12])
    with pytest.raises(FieldError):
        GF4.check(4)


BIG = PrimeField(2**61 - 1)  # object-dtype arrays


@pytest.mark.parametrize(
    "field, data, count",
    [
        (GF11, (11).to_bytes(8, "little"), None),  # q itself
        (GF11, b"\xff" * 8, None),  # beyond int64
        (BIG, (2**61 - 1).to_bytes(8, "little"), None),
        (BIG, b"\xff" * 8, None),
        (GF4, b"\x01\x04", None),
        (GF11, bytes(7), None),  # not whole elements
        (GF11, bytes(16), 3),  # wrong element count
    ],
)
def test_decode_rejects_malformed_bytes(field, data, count):
    with pytest.raises(DecodeError):
        decode_elements(field, data, count)
    assert wire.DecodeError is DecodeError
