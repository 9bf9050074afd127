"""Finite field arithmetic for the commitment protocol.

Two interchangeable backends share one interface:

* :class:`PrimeField` -- GF(p) for an odd prime p < 2**62.  The fast path
  keeps vectors and matrices in int64 numpy arrays; for p >= 2**31 (where
  int64 products could overflow) arrays fall back to object dtype with
  exact Python integers.
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
    "compare",
    "elem_size",
    "encode_elements",
    "decode_elements",
]

# Deterministic Miller-Rabin witness set, valid for every n < 3.3e24
# (covers the whole p < 2**62 range this module accepts).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_PRIME_MODULUS = 1 << 62
MAX_TABLE_ORDER = 256


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

    kind = "prime"

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
        """a**e for e >= 0 (with 0**0 = 1), or the inverse for e = -1."""
        if e == -1:
            return self.inv(a)
        if e < 0:
            raise FieldError("exponent must be >= 0 or exactly -1")
        return pow(a, e, self.p)

    def sample(self, rng) -> int:
        return rng.randrange(self.p)

    # -- numpy vector/matrix arithmetic --

    def asarray(self, values) -> np.ndarray:
        arr = np.array(values, dtype=self.dtype)
        if arr.size and (arr.min() < 0 or arr.max() >= self.q):
            raise FieldError("array contains non-canonical elements")
        return arr

    def zeros(self, shape) -> np.ndarray:
        if self._small:
            return np.zeros(shape, dtype=np.int64)
        return np.full(shape, 0, dtype=object)

    def vadd(self, a, b):
        return (a + b) % self.p

    def vsub(self, a, b):
        return (a - b) % self.p

    def vneg(self, a):
        return (-a) % self.p

    def vmul(self, a, b):
        return a * b % self.p

    def smul(self, c: int, a):
        return c * a % self.p

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact matrix product mod p. Blocks the inner dimension so that
        int64 partial sums never overflow."""
        a = np.atleast_2d(a)
        b_vec = b.ndim == 1
        b2 = b[:, None] if b_vec else b
        if a.shape[1] != b2.shape[0]:
            raise FieldError(f"dimension mismatch: {a.shape} @ {b2.shape}")
        if not self._small:
            out = np.dot(a.astype(object), b2.astype(object)) % self.p
        else:
            block = max(1, int((1 << 62) // ((self.p - 1) ** 2 or 1)))
            n = a.shape[1]
            if n <= block:
                out = (a @ b2) % self.p
            else:
                out = np.zeros((a.shape[0], b2.shape[1]), dtype=np.int64)
                for lo in range(0, n, block):
                    hi = min(lo + block, n)
                    out = (out + a[:, lo:hi] @ b2[lo:hi, :]) % self.p
        return out[:, 0] if b_vec else out


class TableField:
    """GF(q), q <= 256, from explicit addition and multiplication tables.

    Tables are validated exhaustively at construction: commutativity,
    associativity, distributivity, identities 0 and 1, and inverses.
    """

    kind = "table"

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
        if e == -1:
            return self.inv(a)
        if e < 0:
            raise FieldError("exponent must be >= 0 or exactly -1")
        result, base = 1, a
        while e:
            if e & 1:
                result = int(self._mul[result, base])
            base = int(self._mul[base, base])
            e >>= 1
        return result

    def sample(self, rng) -> int:
        return rng.randrange(self.q)

    # -- numpy vector/matrix arithmetic (table lookups broadcast) --

    asarray = PrimeField.asarray

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def vadd(self, a, b):
        return self._add[a, b]

    def vsub(self, a, b):
        return self._add[a, self._neg[b]]

    def vneg(self, a):
        return self._neg[a]

    def vmul(self, a, b):
        return self._mul[a, b]

    def smul(self, c: int, a):
        return self._mul[c, a]

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
    """Check that x -> x**s permutes the field, i.e. gcd(s, q-1) = 1, plus
    the table axioms for table-backed fields.  Returns violation messages,
    empty when the parameters are admissible."""
    if s < 1:
        raise FieldError(f"s must be >= 1, got {s}")
    problems = []
    g = math.gcd(s, field.q - 1)
    if g != 1:
        problems.append(
            f"gcd(s, q-1) = gcd({s}, {field.q - 1}) = {g} != 1: "
            f"x**{s} is not a permutation of GF({field.q})"
        )
    if isinstance(field, TableField):
        problems.extend(field.check_axioms())
    return problems


def compare(a: int, b: int) -> int:
    """Canonical total order on representatives: -1, 0, or 1."""
    return (a > b) - (a < b)


def elem_size(field: Field) -> int:
    """Serialized element width: 8 bytes (little-endian) for prime fields,
    1 byte for table fields."""
    return 8 if field.kind == "prime" else 1


def encode_elements(field: Field, values: Iterable[int]) -> bytes:
    width = elem_size(field)
    out = bytearray()
    for v in np.asarray(values, dtype=object).reshape(-1):
        out += int(v).to_bytes(width, "little")
    return bytes(out)


def decode_elements(field: Field, data: bytes, count: int | None = None) -> np.ndarray:
    """Canonical elements from bytes; ``count`` pins the element count."""
    width = elem_size(field)
    if len(data) % width or (count is not None and len(data) != count * width):
        raise DecodeError(f"{len(data)} bytes are not {count or 'whole'} {width}-byte elements")
    values = [
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, len(data), width)
    ]
    try:
        return field.asarray(values)
    except (FieldError, OverflowError) as exc:  # int64 overflows at 2**63
        raise DecodeError(str(exc)) from exc
