"""One-sided secure two-party computation from 1-of-c oblivious transfer.

The receiver holds x from a public ordered domain, the sender holds y; the
receiver must learn f(x, y) and nothing else about y, while the sender
learns nothing at all.  Realization: the sender tabulates f(z, y) for every
domain element z, and the receiver fetches the row at x's position through
a single 1-of-|domain| OT.  The whole codomain vector travels as one OT
message, so each run costs exactly one 1-of-c invocation, which is one
batch of |domain|-1 1-of-2 transfers at the backend.

The session roles run the two halves over the wire; :func:`s2pc_run` runs
them back to back over an ideal box.

The two evaluators the commitment phase needs are shipped here, each
tabulating the whole domain with one matrix product: the "left" functional
maps (a, M) to highRow(a) . M (one row of a left-sided commitment) and the
"right" functional maps (a, M) to M . lowRow(a) (one column of a
right-sided commitment).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .field import Field
from .ot import OtError, ot_c_of_1_receive, ot_c_of_1_send
from .polymat import structured_matrix

__all__ = [
    "S2pcError",
    "S2pcSpec",
    "left_functional",
    "right_functional",
    "build_value_table",
    "s2pc_send",
    "s2pc_receive",
    "s2pc_run",
]


class S2pcError(OtError):
    """Misuse of the two-party computation wrapper."""


@dataclass(frozen=True)
class S2pcSpec:
    """Public description of one S2PC: the ordered input domain and the
    function the sender applies to (domain, private input), giving one
    output row per domain element."""

    name: str
    domain: tuple[int, ...]
    evaluator: Callable[[tuple[int, ...], np.ndarray], np.ndarray]

    def __post_init__(self):
        if len(self.domain) < 2:
            raise S2pcError("domain must hold at least two elements")
        if list(self.domain) != sorted(self.domain):
            raise S2pcError("domain must follow the canonical field order")
        if len(set(self.domain)) != len(self.domain):
            raise S2pcError("domain elements must be distinct")

    def position(self, x: int) -> int:
        """Index of the receiver's input in the domain."""
        if x not in self.domain:
            raise S2pcError(f"receiver input {x} is outside the agreed domain")
        return self.domain.index(x)


def left_functional(field: Field, s: int) -> Callable[[tuple[int, ...], np.ndarray], np.ndarray]:
    """(a, M) -> [1, a**s, ..., a**(s(s-1))] . M, for every a at once:
    P_high(domain) . M."""

    def evaluator(domain: tuple[int, ...], m: np.ndarray) -> np.ndarray:
        return field.matmul(structured_matrix(field, domain, s, "high"), m)

    return evaluator


def right_functional(field: Field, s: int) -> Callable[[tuple[int, ...], np.ndarray], np.ndarray]:
    """(a, M) -> M . [1, a, ..., a**(s-1)]^T, for every a at once:
    (M . P_low(domain)^T)^T."""

    def evaluator(domain: tuple[int, ...], m: np.ndarray) -> np.ndarray:
        return field.matmul(m, structured_matrix(field, domain, s, "low").T).T

    return evaluator


def build_value_table(field: Field, spec: S2pcSpec, y: np.ndarray) -> np.ndarray:
    """Sender side: the OT table, row j = f(domain[j], y)."""
    return spec.evaluator(spec.domain, y)


def s2pc_send(field: Field, spec: S2pcSpec, y: np.ndarray, send, rng) -> None:
    """Sender half: the value table through the 1-of-c sender half."""
    ot_c_of_1_send(field, build_value_table(field, spec, y), send, rng)


def s2pc_receive(field: Field, spec: S2pcSpec, x: int, receive, width=None) -> np.ndarray:
    """Receiver half: f(x, y), after checking x against the domain."""
    return ot_c_of_1_receive(field, spec.position(x), len(spec.domain), receive, width)


def s2pc_run(
    field: Field,
    x: int,
    y: np.ndarray,
    spec: S2pcSpec,
    box,
    rng: random.Random,
) -> np.ndarray:
    """Run one S2PC locally: both halves in turn over an ideal box.

    The receiver's input is checked against the domain before any message
    exists, so an out-of-domain x aborts with nothing sent.
    """
    spec.position(x)
    s2pc_send(field, spec, y, box.send, rng)
    return s2pc_receive(field, spec, x, box.receive)
