"""Finite field arithmetic for the commitment protocol.

Two interchangeable backends share one interface:

* :class:`PrimeField` -- GF(p) for an odd prime p < 2**62.  The fast path
  keeps vectors and matrices in int64 numpy arrays, and its matrix product
  is an exact int64 ``einsum`` kernel, blocked over the inner dimension so
  no partial sum reaches 2**62; for p >= 2**31 (where int64 products could
  overflow) arrays fall back to object dtype with exact Python integers.
  Handed a float64 operand, the product is one float64 BLAS ``@`` instead,
  which is exact only while inner * (p-1)**2 < 2**53, so that every partial
  sum is an integer float64 holds: :func:`float_exact` is that rule, and a
  caller keeps a float64 copy of a matrix only where it holds.
* :class:`TableField` -- GF(q) for q <= 256, defined by explicit addition
  and multiplication tables.  This is the enumeration-oracle path and the
  only way to get prime-power orders such as GF(4), which matter because
  the protocol needs gcd(s, q-1) = 1 and no odd prime allows an even s.

Elements are canonical unsigned integers in [0, q).  The canonical total
order on elements is plain integer order on these representatives; the
protocol relies on it when reserving the key points above the query bound.
Scalars are Python ints throughout.

:func:`decode_elements` is the one canonicity check: bytes become elements
there or raise :class:`DecodeError`; nothing downstream checks them again.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "FieldError",
    "DecodeError",
    "PrimeField",
    "TableField",
    "gf2",
    "gf4",
    "is_probable_prime",
    "validate_spec",
    "check_canonical",
    "float_exact",
    "compare",
    "elem_size",
    "wire_dtype",
    "encode_elements",
    "decode_elements",
]

# Deterministic Miller-Rabin witness set, valid for every n < 3.3e24
# (covers the whole p < 2**62 range this module accepts).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_PRIME_MODULUS = 1 << 62
MAX_TABLE_ORDER = 256

# Draw size from which :meth:`PrimeField.vsample` seeds one numpy generator
# instead of calling ``randrange`` per element: the measured crossover.
BULK_DRAW_MIN = 64


class FieldError(ValueError):
    """Invalid field definition or misuse of field arithmetic."""


class DecodeError(ValueError):
    """Malformed frame or serialized value."""


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for an odd prime p < 2**62."""

    def __init__(self, p: int):
        if not (3 <= p < MAX_PRIME_MODULUS) or p % 2 == 0:
            raise FieldError(f"modulus must be an odd prime below 2**62, got {p}")
        if not is_probable_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.q = p
        # int64 products a*b with a,b < p stay below 2**62 only for p < 2**31;
        # beyond that, arrays carry exact Python ints.
        self._small = p < (1 << 31)
        self.dtype = np.int64 if self._small else object

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("prime", self.p))

    # -- scalar arithmetic (canonical ints) --

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise FieldError(f"{a} is not a canonical element of {self!r}")
        return int(a)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise FieldError("zero has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        """a**e for e >= 0, with 0**0 = 1; inverses go through :meth:`inv`."""
        if e < 0:
            raise FieldError("exponent must be >= 0")
        return pow(a, e, self.p)

    def sample(self, rng) -> int:
        return rng.randrange(self.q)

    def vsample(self, rng, n: int) -> np.ndarray:
        """n uniform elements drawn from ``rng``.

        Below :data:`BULK_DRAW_MIN` these are the values, and the final
        state of ``rng``, of n calls of :meth:`sample`.  From it on, one
        ``rng.getrandbits(128)`` seeds a fresh PCG64 generator that draws
        all n at once: the same ``rng`` state gives the same elements, and
        ``rng`` advances by those 128 bits alone.

        The generator costs a flat 20-23 us a call and ``randrange``
        0.31-0.38 us an element, so the two cross near n = 64: 21.3 us
        scalar against 20.7 us bulk at q = 11, 20.1 against 20.6 us at
        q = 1,000,667 and 24.5 against 22.8 us at q = 2**61 - 1 (best of
        15 repeats on a 2-core VM).  Smaller draws, such as the nine
        coefficients of a d = 9 session, stay on the scalar stream.
        """
        if n < BULK_DRAW_MIN:
            return np.array([rng.randrange(self.q) for _ in range(n)], dtype=self.dtype)
        from numpy.random import PCG64, Generator

        draw = Generator(PCG64(rng.getrandbits(128))).integers(self.q, size=n)
        return draw.astype(self.dtype, copy=False)

    # -- numpy vector/matrix arithmetic --

    def asarray(self, values) -> np.ndarray:
        """A new array of ``values``, each checked canonical."""
        return check_canonical(self, np.array(values, dtype=self.dtype))

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def vadd(self, a, b, out=None):
        """a + b mod p for canonical a and b, by one add and one conditional
        subtraction of p: no division, and no reduction of inputs outside
        [0, p).  Object dtype (p >= 2**31) keeps ``%``.

        ``out``, an unsigned array that holds q - 1 (a :func:`wire_dtype`
        array), takes the sum in place, with no wider temporary."""
        if not self._small:
            if out is None:
                return (a + b) % self.p
            out[...] = (a + b) % self.p
            return out
        if out is not None:
            np.add(a, b, out=out, dtype=np.int64, casting="unsafe")
            _subtract_p_where_reached(out, a, self.p)
            return out
        # the sum as an array, even of scalars, so it is reduced in place:
        # one temporary, as ``%`` had; below 2p < 2**63
        total = np.asarray(np.add(a, b, dtype=np.int64))
        _subtract_p_where_reached(total.view(np.uint64), a, self.p)
        return total[()]

    def vsub(self, a, b):
        return (a - b) % self.p

    def vmul(self, a, b):
        return a * b % self.p

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact matrix product mod p, as canonical elements of the field's
        dtype.

        Where either operand is float64 (a canonical matrix a caller keeps
        in float64), the product is one float64 ``@``, which numpy hands to
        BLAS, reduced mod p once and cast back to int64; it requires
        :func:`float_exact` for the inner dimension and raises
        :class:`FieldError` otherwise.

        Otherwise it blocks the inner dimension so that int64 partial sums
        never overflow: the first block's product starts the sum and each
        further block is folded in, so an inner dimension of at most one
        block costs one ``einsum`` and one reduction.  The int64 product is
        ``einsum``, which streams b row by row; numpy has no BLAS for int64,
        and its ``@`` walks b's columns.  Every partial sum of a block stays
        below 2**62, so the summation order cannot change a result."""
        a = np.atleast_2d(a)
        b_vec = b.ndim == 1
        b2 = b[:, None] if b_vec else b
        if a.shape[1] != b2.shape[0]:
            raise FieldError(f"dimension mismatch: {a.shape} @ {b2.shape}")
        if a.dtype == np.float64 or b2.dtype == np.float64:
            if not float_exact(self, a.shape[1]):
                raise FieldError(
                    f"a float64 product over {a.shape[1]} terms mod {self.p} "
                    "is not exact: inner * (p-1)**2 reaches 2**53"
                )
            prod = a.astype(np.float64, copy=False) @ b2.astype(np.float64, copy=False)
            out = (prod % self.p).astype(np.int64)
        elif not self._small:
            out = np.dot(a.astype(object), b2.astype(object)) % self.p
        else:
            block = (1 << 62) // (self.p - 1) ** 2
            out = np.einsum("ik,kj->ij", a[:, :block], b2[:block]) % self.p
            for lo in range(block, a.shape[1], block):
                part = np.einsum("ik,kj->ij", a[:, lo : lo + block], b2[lo : lo + block])
                out = (out + part) % self.p
        return out[:, 0] if b_vec else out


def _subtract_p_where_reached(u: np.ndarray, a, p: int) -> None:
    """Reduce the unsigned sums u = a + b of canonical elements in place.
    Where 2p passes the top of u's dtype (q = 65,519 in 2 bytes) a sum can
    wrap, and it then lies below a: that marks it for the subtraction too."""
    p = u.dtype.type(p)
    if 2 * int(p) <= 1 << 8 * u.itemsize:
        np.minimum(u, u - p, out=u)
    else:
        u -= ((u >= p) | (u < a)) * p


class TableField:
    """GF(q), q <= 256, from explicit addition and multiplication tables.

    Tables are validated exhaustively at construction, and only there:
    commutativity, associativity, distributivity, identities 0 and 1, and
    inverses.
    """

    def __init__(self, add_table, mul_table):
        add = np.asarray(add_table, dtype=np.int64)
        mul = np.asarray(mul_table, dtype=np.int64)
        q = add.shape[0]
        if add.shape != (q, q) or mul.shape != (q, q):
            raise FieldError("tables must be square and of equal order")
        if q < 2 or q > MAX_TABLE_ORDER:
            raise FieldError(f"table order must be in [2, {MAX_TABLE_ORDER}], got {q}")
        if add.min() < 0 or add.max() >= q or mul.min() < 0 or mul.max() >= q:
            raise FieldError("table entries out of range")
        self.q = q
        self._add = add
        self._mul = mul
        self.dtype = np.int64
        problems = self.check_axioms()
        if problems:
            raise FieldError("tables do not define a field: " + "; ".join(problems))
        self._neg = np.array([int(np.nonzero(add[a] == 0)[0][0]) for a in range(q)])
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            inv[a] = int(np.nonzero(mul[a] == 1)[0][0])
        self._inv = inv

    def check_axioms(self) -> list[str]:
        """Exhaustively verify the field axioms; returns violations.

        The q**3 associativity/distributivity sweeps run in chunks over the
        first operand so q = 256 stays within a few dozen megabytes.
        """
        q, add, mul = self.q, self._add, self._mul
        problems = []
        idx = np.arange(q)
        if not np.array_equal(add, add.T):
            problems.append("addition not commutative")
        if not np.array_equal(mul, mul.T):
            problems.append("multiplication not commutative")
        if not np.array_equal(add[0], idx):
            problems.append("0 is not the additive identity")
        if not np.array_equal(mul[1], idx):
            problems.append("1 is not the multiplicative identity")
        b = idx[None, :, None]
        c = idx[None, None, :]
        assoc_add = assoc_mul = distrib = True
        chunk = max(1, (1 << 22) // (q * q))
        for lo in range(0, q, chunk):
            a = idx[lo : lo + chunk, None, None]
            assoc_add &= bool(np.array_equal(add[add[a, b], c], add[a, add[b, c]]))
            assoc_mul &= bool(np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]]))
            distrib &= bool(
                np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
            )
        if not assoc_add:
            problems.append("addition not associative")
        if not assoc_mul:
            problems.append("multiplication not associative")
        if not distrib:
            problems.append("multiplication does not distribute over addition")
        if any((add[a] == 0).sum() != 1 for a in range(q)):
            problems.append("some element lacks a unique additive inverse")
        if any((mul[a] == 1).sum() != 1 for a in range(1, q)):
            problems.append("some nonzero element lacks a unique multiplicative inverse")
        return problems

    def __repr__(self) -> str:
        return f"TableField(q={self.q})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TableField)
            and other.q == self.q
            and np.array_equal(other._add, self._add)
            and np.array_equal(other._mul, self._mul)
        )

    def __hash__(self) -> int:
        return hash(("table", self.q, self._add.tobytes(), self._mul.tobytes()))

    @property
    def add_table(self) -> np.ndarray:
        return self._add.copy()

    @property
    def mul_table(self) -> np.ndarray:
        return self._mul.copy()

    # -- scalar arithmetic (one canonical range, [0, q), for both backends) --

    check = PrimeField.check

    def add(self, a: int, b: int) -> int:
        return int(self._add[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self._add[a, self._neg[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[a, b])

    def neg(self, a: int) -> int:
        return int(self._neg[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        return int(self._inv[a])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise FieldError("exponent must be >= 0")
        result, base = 1, a
        while e:
            if e & 1:
                result = int(self._mul[result, base])
            base = int(self._mul[base, base])
            e >>= 1
        return result

    sample = PrimeField.sample
    vsample = PrimeField.vsample

    # -- numpy vector/matrix arithmetic (table lookups broadcast) --

    asarray = PrimeField.asarray
    zeros = PrimeField.zeros

    def vadd(self, a, b, out=None):
        if out is None:
            return self._add[a, b]
        out[...] = self._add[a, b]
        return out

    def vsub(self, a, b):
        return self._add[a, self._neg[b]]

    def vmul(self, a, b):
        return self._mul[a, b]

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(a)
        b_vec = b.ndim == 1
        b2 = b[:, None] if b_vec else b
        if a.shape[1] != b2.shape[0]:
            raise FieldError(f"dimension mismatch: {a.shape} @ {b2.shape}")
        out = np.zeros((a.shape[0], b2.shape[1]), dtype=np.int64)
        for k in range(a.shape[1]):
            out = self._add[out, self._mul[a[:, k][:, None], b2[k, :][None, :]]]
        return out[:, 0] if b_vec else out


Field = PrimeField | TableField


def gf2() -> TableField:
    """The two-element field as a table field (2 is not an odd prime)."""
    return TableField([[0, 1], [1, 0]], [[0, 0], [0, 1]])


def gf4() -> TableField:
    """The canonical four-element field: 2 and 3 encode the two generators,
    addition is XOR on the 2-bit coefficient vectors."""
    add = [[a ^ b for b in range(4)] for a in range(4)]
    mul = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]
    return TableField(add, mul)


def validate_spec(field: Field, s: int) -> list[str]:
    """Check that x -> x**s permutes the field, i.e. gcd(s, q-1) = 1.
    Returns violation messages, empty when the parameters are admissible.
    A table field's axioms were checked when it was constructed."""
    if s < 1:
        raise FieldError(f"s must be >= 1, got {s}")
    problems = []
    g = math.gcd(s, field.q - 1)
    if g != 1:
        problems.append(
            f"gcd(s, q-1) = gcd({s}, {field.q - 1}) = {g} != 1: "
            f"x**{s} is not a permutation of GF({field.q})"
        )
    return problems


def float_exact(field: Field, inner: int) -> bool:
    """Whether a float64 product of canonical elements of ``field`` with
    inner dimension ``inner`` is exact: ``field`` is a :class:`PrimeField`
    and inner * (p-1)**2 < 2**53, so every product and partial sum is an
    integer that float64 holds, whatever the summation order.  The bound
    needs p < 2**27, so such a field is always on the int64 path."""
    return isinstance(field, PrimeField) and inner * (field.p - 1) ** 2 < 1 << 53


def check_canonical(field: Field, arr: np.ndarray) -> np.ndarray:
    """``arr`` itself once every element lies in [0, q); a
    :class:`FieldError` otherwise."""
    if arr.size and (arr.min() < 0 or arr.max() >= field.q):
        raise FieldError("array contains non-canonical elements")
    return arr


def compare(a: int, b: int) -> int:
    """Canonical total order on representatives: -1, 0, or 1."""
    return (a > b) - (a < b)


def elem_size(field: Field) -> int:
    """Serialized element width: the least of 1, 2, 4 and 8 bytes that
    holds q - 1, little-endian, for prime and table fields alike."""
    bits = (field.q - 1).bit_length()
    return 1 if bits <= 8 else 2 if bits <= 16 else 4 if bits <= 32 else 8


_WIRE_DTYPES = {1: "u1", 2: "<u2", 4: "<u4", 8: "<u8"}


def wire_dtype(field: Field) -> str:
    """The numpy dtype of serialized elements: unsigned, little-endian,
    :func:`elem_size` bytes, so the bytes of such an array are its
    encoding."""
    return _WIRE_DTYPES[elem_size(field)]


def encode_elements(field: Field, values: Iterable[int]) -> bytes:
    """Canonical elements, in row-major order, as one byte string."""
    return np.asarray(values).astype(wire_dtype(field)).tobytes()


def decode_elements(field: Field, data: bytes) -> np.ndarray:
    """Canonical elements from bytes."""
    width = elem_size(field)
    if len(data) % width:
        raise DecodeError(f"{len(data)} bytes are not whole {width}-byte elements")
    try:
        return field.asarray(np.frombuffer(data, dtype=wire_dtype(field)))
    except FieldError as exc:
        raise DecodeError(str(exc)) from exc
