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
from polycommit.bench import CountingField, bench_round
from polycommit.field import (
    BULK_DRAW_MIN,
    DecodeError,
    decode_elements,
    elem_size,
    encode_elements,
    float_exact,
    wire_dtype,
)

GF11 = PrimeField(11)
GF4 = gf4()


def repeated_mul(field, a, e):
    """Exponentiation oracle independent of field.pow."""
    acc = 1
    for _ in range(e):
        acc = field.mul(acc, a)
    return acc


def public_methods(cls):
    return {
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
    }


# -- construction and primality --


def test_backends_share_one_interface():
    # the op-counting proxy stands in for either backend, so all three
    # expose the same methods; only a table field has tables to show
    prime = public_methods(PrimeField)
    table = public_methods(TableField) - {"check_axioms", "add_table", "mul_table"}
    assert prime == table == public_methods(CountingField)


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
    assert GF11.inv(3) == 4
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
    # Each symbol count within 5 sigma of n/q, for n scalar draws and for
    # one bulk vsample draw of n.
    for field in (GF11, gf2()):
        rng = substream(2024, "field", "chi2", field.q)
        n = 100_000
        scalar = np.zeros(field.q)
        for _ in range(n):
            scalar[field.sample(rng)] += 1
        bulk = np.bincount(field.vsample(rng, n), minlength=field.q)
        p = 1.0 / field.q
        sigma = math.sqrt(n * p * (1 - p))
        for counts in (scalar, bulk):
            assert np.all(np.abs(counts - n * p) <= 5 * sigma)


@pytest.mark.parametrize(
    "field",
    [
        GF11,
        GF4,
        gf2(),
        PrimeField(65537),
        PrimeField(1_000_667),
        PrimeField(2**32 + 15),
        PrimeField(2**61 - 1),
    ],
    ids=lambda f: f"q={f.q}",
)
@pytest.mark.parametrize(
    "n", sorted({0, 1, 7, 31, 32, 33, BULK_DRAW_MIN - 1, BULK_DRAW_MIN, BULK_DRAW_MIN + 1, 5000})
)
def test_vector_sampling_is_the_scalar_stream(field, n):
    # below BULK_DRAW_MIN: the values and final generator state of n calls
    # of sample(), so small set-up draws keep their stream; from it on: the
    # same canonical elements from the same seed, with rng left where one
    # getrandbits(128) leaves it
    a, b, again = (substream(2024, "field", "vsample", field.q, n) for _ in range(3))
    got = field.vsample(b, n)
    assert got.dtype == field.dtype and got.shape == (n,)
    if n < BULK_DRAW_MIN:
        assert got.tolist() == [field.sample(a) for _ in range(n)]
    else:
        assert got.tolist() == field.vsample(again, n).tolist()
        assert 0 <= got.min() and got.max() < field.q
        if field.dtype == object:
            assert {type(v) for v in got} == {int}
        a.getrandbits(128)
    assert a.getstate() == b.getstate()


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


# primes at 1, 2, 4 and 8 bytes, int64 and object dtype, some with 2p past
# the top of their element width
SUM_PRIMES = [11, 251, 65_519, 1_000_667, (1 << 31) - 1, 4_294_967_291, (1 << 61) - 1]


@pytest.mark.parametrize("p", SUM_PRIMES)
def test_vadd_is_the_reduced_sum_at_the_boundaries(p):
    # sums 0, p-2, p-1, p and 2p-2, into a new array and into a wire-width one
    f = PrimeField(p)
    pairs = [(0, 0), (0, p - 2), (p - 1, 0), (1, p - 2), (1, p - 1), (p - 1, 1), (p - 1, p - 1)]
    a, b = (f.asarray(column) for column in zip(*pairs))
    want = [(x + y) % p for x, y in pairs]
    assert f.vadd(a, b).tolist() == want
    out = np.empty(len(pairs), wire_dtype(f))
    assert f.vadd(a, b, out=out) is out and out.tolist() == want
    for j, (x, y) in enumerate(pairs):
        # Python ints, numpy scalars and 0-d arrays
        assert int(f.vadd(x, y)) == want[j]
        assert int(f.vadd(a[j], b[j])) == want[j]
        assert int(f.vadd(np.array(x, f.dtype), np.array(y, f.dtype))) == want[j]
    # broadcast: a column against a row, and a vector against a scalar
    grid = [[(x + y) % p for y in b.tolist()] for x in a.tolist()]
    assert f.vadd(a[:, None], b[None, :]).tolist() == grid
    out = np.empty((len(pairs), len(pairs)), wire_dtype(f))
    assert f.vadd(a[:, None], b, out=out).tolist() == grid
    assert f.vadd(a, p - 1).tolist() == [(x + p - 1) % p for x in a.tolist()]


def test_criterion_7_counts_do_not_move():
    # the op counts criterion 7's ratios divide, as they stood before the
    # add became a conditional subtraction
    counts = [(r.prover_ops, r.verifier_ops) for r in map(bench_round, (10_000, 40_000))]
    assert counts == [(60_026, 8_811), (240_030, 17_619)]


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


def object_product(field, a, b):
    """Exact reference: the product over Python ints, reduced once."""
    return np.dot(np.asarray(a).astype(object), np.asarray(b).astype(object)) % field.p


def random_array(field, rng, shape):
    return field.vsample(rng, math.prod(shape)).reshape(shape)


@pytest.mark.parametrize(
    "q, s, c, points",
    [
        (1_000_667, 63, 10, 620),  # commit-s63
        (1_002_017, 999, 10, None),  # eval-d1m; its set-up shapes cost too much here
    ],
)
def test_int64_matmul_matches_object_product_on_workload_shapes(q, s, c, points):
    f = PrimeField(q)
    rng = substream(2024, "field", "workload-shapes", q)
    square = random_array(f, rng, (s, s))
    shapes = [((s,), (s, s)), ((s, s), (s,))]  # the round: high . B, B . low
    if points is not None:
        shapes += [((c, s), (s, s)), ((s, s), (s, c)), ((points, s), (s, s))]
    for a_shape, b_shape in shapes:
        a = square if a_shape == (s, s) else random_array(f, rng, a_shape)
        b = square if b_shape == (s, s) else random_array(f, rng, b_shape)
        got = f.matmul(a, b)
        want = object_product(f, np.atleast_2d(a), b)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist(), (a_shape, b_shape)


@pytest.mark.parametrize("p", [536_870_909, (1 << 31) - 1])  # blocks of 16 and of 1
def test_int64_matmul_exact_at_the_block_bound(p):
    f = PrimeField(p)
    block = (1 << 62) // (p - 1) ** 2
    rng = substream(2024, "field", "block-bound", p)
    for k in (0, 1, block, block + 1, 3 * block + 1):
        top = np.full((2, k), p - 1, dtype=np.int64)  # every partial sum maximal
        bottom = np.full((k, 3), p - 1, dtype=np.int64)
        assert f.matmul(top, bottom).tolist() == object_product(f, top, bottom).tolist()
        a, b = random_array(f, rng, (4, k)), random_array(f, rng, (k, 5))
        assert f.matmul(a, b).tolist() == object_product(f, a, b).tolist()


@pytest.mark.parametrize(
    "q, s",
    [(1_002_017, 999), (1_000_667, 63), (11, 3)],  # eval-d1m, commit-s63, session-bs-tcp
)
def test_float_matmul_matches_int64_on_workload_shapes(q, s):
    # the round's two products with the key's float64 B, over random and
    # all-(q-1) operands
    f = PrimeField(q)
    assert float_exact(f, s)
    rng = substream(2024, "field", "float-shapes", q)
    full = [np.full((s, s), q - 1, dtype=np.int64), np.full(s, q - 1, dtype=np.int64)]
    for square, vec in ([random_array(f, rng, (s, s)), random_array(f, rng, (s,))], full):
        square_f64 = square.astype(np.float64)
        for got, want in [
            (f.matmul(vec[None, :], square_f64), f.matmul(vec[None, :], square)),
            (f.matmul(square_f64, vec), f.matmul(square, vec)),
        ]:
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


@pytest.mark.parametrize("p, inner", [(54_794_063, 3), (1_002_017, 8_970)])
def test_float_matmul_exact_just_below_two_to_the_53(p, inner):
    f = PrimeField(p)
    assert inner * (p - 1) ** 2 < 1 << 53 <= (inner + 1) * (p - 1) ** 2
    assert float_exact(f, inner) and not float_exact(f, inner + 1)
    top = np.full((2, inner), p - 1, dtype=np.int64)  # every partial sum maximal
    bottom = np.full((inner, 3), p - 1, dtype=np.int64)
    want = object_product(f, top, bottom).tolist()
    assert f.matmul(top.astype(np.float64), bottom).tolist() == want
    assert f.matmul(top, bottom.astype(np.float64)).tolist() == want
    rng = substream(2024, "field", "float-bound", p)
    a, b = random_array(f, rng, (2, inner)), random_array(f, rng, (inner, 3))
    assert f.matmul(a.astype(np.float64), b).tolist() == object_product(f, a, b).tolist()
    wide = np.full((2, inner + 1), p - 1, dtype=np.float64)
    with pytest.raises(FieldError, match="not exact"):
        f.matmul(wide, np.full((inner + 1, 3), p - 1, dtype=np.int64))


def test_float_exact_only_for_prime_fields_under_the_bound():
    assert not float_exact(GF4, 2)
    assert not float_exact(PrimeField(2**61 - 1), 1)  # object dtype: (p-1)**2 passes 2**53
    assert not float_exact(CountingField(GF11), 3)


def test_canonical_range_enforced():
    with pytest.raises(FieldError):
        GF11.check(11)
    with pytest.raises(FieldError):
        GF11.asarray([0, 3, 12])
    with pytest.raises(FieldError):
        GF4.check(4)


BIG = PrimeField(2**61 - 1)  # object-dtype arrays


@pytest.mark.parametrize(
    "field, data",
    [
        (GF11, (11).to_bytes(8, "little")),  # q itself, then seven zeros
        (GF11, b"\xff" * 8),  # eight all-ones elements
        (BIG, (2**61 - 1).to_bytes(8, "little")),
        (BIG, b"\xff" * 8),
        (GF4, b"\x01\x04"),
        (PrimeField(257), bytes(7)),  # not whole 2-byte elements
    ],
)
def test_decode_rejects_malformed_bytes(field, data):
    with pytest.raises(DecodeError):
        decode_elements(field, data)
    assert wire.DecodeError is DecodeError


@pytest.mark.parametrize(
    "field, width",
    [
        (PrimeField(251), 1),
        (PrimeField(257), 2),
        (PrimeField(65_521), 2),
        (PrimeField(65_537), 4),
        (PrimeField(4_294_967_291), 4),
        (PrimeField(4_294_967_311), 8),
        (GF4, 1),
    ],
    ids=lambda v: str(v.q) if hasattr(v, "q") else f"{v}B",
)
def test_element_width_edges(field, width):
    # the least of 1, 2, 4 and 8 bytes that holds q - 1
    top = field.q - 1
    assert elem_size(field) == width
    data = encode_elements(field, [top, 0])
    assert data == top.to_bytes(width, "little") + bytes(width)
    assert decode_elements(field, data).tolist() == [top, 0]
    assert wire.Reader(wire.Writer().elem(field, top).bytes()).elem(field) == top
    for bad in (field.q.to_bytes(width, "little"), b"\xff" * width):
        with pytest.raises(DecodeError):
            decode_elements(field, bad)
