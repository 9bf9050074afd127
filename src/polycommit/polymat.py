"""Polynomial/matrix duality and Vandermonde-row machinery.

A polynomial a_0 + a_1 x + ... + a_{d-1} x^{d-1} with d = s**2 is reshaped
row-major into an s x s coefficient matrix M with M[i, j] = a_{s*i+j}, so
that evaluation becomes the bilinear form

    f(x) = [1, x**s, ..., x**(s(s-1))] . M . [1, x, ..., x**(s-1)]^T

The "low" power row is [1, x, ..., x**(s-1)]; the "high" row steps by s.
Stacking power rows over distinct generator points gives the structured
(Vandermonde) matrices the commitment keys and query logs live in.

All functions are pure; matrices are numpy arrays of canonical
representatives and every operation is exact over the given field.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from .field import Field, FieldError

__all__ = [
    "poly_to_matrix",
    "matrix_to_poly",
    "horner_eval",
    "power_row",
    "bilinear_eval",
    "structured_matrix",
    "rank",
]

Direction = Literal["low", "high"]


def poly_to_matrix(field: Field, coeffs, s: int) -> np.ndarray:
    """Reshape d = s**2 coefficients row-major into an s x s matrix."""
    arr = field.asarray(coeffs)
    if arr.ndim != 1 or arr.size != s * s:
        raise FieldError(f"need exactly {s * s} coefficients, got shape {arr.shape}")
    return arr.reshape(s, s)


def matrix_to_poly(field: Field, matrix: np.ndarray) -> np.ndarray:
    """Inverse of :func:`poly_to_matrix`."""
    arr = field.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise FieldError(f"coefficient matrix must be square, got {arr.shape}")
    return arr.reshape(-1)


def horner_eval(field: Field, coeffs, x: int) -> int:
    """Evaluate sum(a_i x**i) by Horner's rule.

    Independent of the matrix form; used as the evaluation oracle the
    bilinear path is checked against.
    """
    acc = 0
    for a in reversed(list(coeffs)):
        acc = field.add(field.mul(acc, x), int(a))
    return acc


def power_row(field: Field, x: int, s: int, direction: Direction) -> np.ndarray:
    """[1, x, ..., x**(s-1)] ("low") or [1, x**s, ..., x**(s(s-1))] ("high").

    The first entry is always 1 (0**0 = 1), so rows at x = 0 are unit
    vectors.
    """
    if s < 1:
        raise FieldError(f"s must be >= 1, got {s}")
    field.check(x)
    step = x if direction == "low" else field.pow(x, s)
    row = field.zeros(s)
    acc = 1
    for k in range(s):
        row[k] = acc
        acc = field.mul(acc, step)
    return row


def bilinear_eval(field: Field, matrix: np.ndarray, x: int) -> int:
    """Evaluate the polynomial housed in ``matrix`` via the bilinear form."""
    m = field.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise FieldError(f"coefficient matrix must be square, got {m.shape}")
    s = m.shape[0]
    high = power_row(field, x, s, "high")
    low = power_row(field, x, s, "low")
    return int(field.matmul(high[None, :], field.matmul(m, low))[0])


def structured_matrix(
    field: Field, points: Sequence[int], s: int, kind: Direction
) -> np.ndarray:
    """Stack power rows over pairwise-distinct generator points."""
    pts = [field.check(p) for p in points]
    if len(set(pts)) != len(pts):
        raise FieldError("generator points must be pairwise distinct")
    if not pts:
        raise FieldError("need at least one generator point")
    rows = [power_row(field, p, s, kind) for p in pts]
    return np.stack(rows)


def rank(field: Field, matrix: np.ndarray) -> int:
    """Rank over F_q by Gaussian elimination; pivot = first nonzero entry
    in column order.  Exact, there is no tolerance over a finite field."""
    m = field.asarray(np.atleast_2d(matrix)).copy()
    rows, cols = m.shape
    r = 0
    for col in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i, col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        inv = field.inv(int(m[r, col]))
        m[r] = field.smul(inv, m[r])
        for i in range(r + 1, rows):
            if m[i, col] != 0:
                m[i] = field.vsub(m[i], field.smul(int(m[i, col]), m[r]))
        r += 1
        if r == rows:
            break
    return r
