"""Value tables of the commitment's one-sided secure two-party computations.

The receiver holds a key point x from the reserved set S, the sender holds
a matrix M; the receiver must learn f(x, M) and nothing else about M,
while the sender learns nothing at all.  The sender tabulates f(z, M) for
every z in S, and the receiver fetches the row at x's position through one
1-of-|S| OT (:func:`polycommit.protocol.commit_send` is the sender's half,
:func:`~polycommit.protocol.commit_choices` and
:func:`~polycommit.protocol.commit_receive` the receiver's).  The
2c computations of a commitment share one OT batch: each 1-of-|S| OT is
|S|-1 1-of-2 transfers of it, and no run waits for another.  A table
depends only on the kind and M, never on x, so each kind's table is built
once per commitment and serves all c runs of that kind.  Its power
matrix depends only on the kind and the domain, so it is built once per
domain.
"""

from __future__ import annotations

import functools

import numpy as np

from .field import Field
from .polymat import structured_matrix

__all__ = ["LEFT", "RIGHT", "power_matrix", "build_value_table"]

# The two S2PC kinds.
LEFT, RIGHT = 1, 2


@functools.lru_cache(maxsize=256)
def power_matrix(field: Field, domain: tuple[int, ...], s: int, kind: int) -> np.ndarray:
    """P_high(domain) for LEFT, P_low(domain) for RIGHT.  Cached per
    (field, domain, s, kind) and read-only, so every commitment over one
    reserved set shares the one array of each kind."""
    matrix = structured_matrix(field, domain, s, "high" if kind == LEFT else "low")
    matrix.flags.writeable = False
    return matrix


def build_value_table(field: Field, domain, s: int, kind: int, m: np.ndarray) -> np.ndarray:
    """Row j = f(domain[j], M), the whole domain in one matrix product.

    LEFT maps (a, M) to [1, a**s, ..., a**(s(s-1))] . M, one row of a
    left-sided commitment: P_high(domain) . M.  RIGHT maps (a, M) to
    M . [1, a, ..., a**(s-1)]^T, one column of a right-sided commitment:
    (M . P_low(domain)^T)^T.
    """
    power = power_matrix(field, tuple(domain), s, kind)
    if kind == LEFT:
        return field.matmul(power, m)
    return field.matmul(m, power.T).T
