"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: :func:`install` replaces
chosen functions and methods of ``polycommit`` with timing wrappers and
returns an undo list, so no source file changes.  A module that imported a
function by name (``session.py`` does ``from .field import
encode_elements``) holds its own binding, so every binding of the function
object in every loaded ``polycommit`` module is replaced, not only the one
in the defining module.

Each span has a name, start, end, parent span, op id and role.  The role
is per thread: the wrappers around ``ProverSession.run`` and
``VerifierSession.run`` set it for the thread that runs them, and a
single-threaded caller sets it with :meth:`SpanRecorder.role`.  A span's
self time is its duration minus the durations of its direct children on
the same thread.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import polycommit.field
import polycommit.ot
import polycommit.polymat
import polycommit.protocol
import polycommit.s2pc
import polycommit.session
import polycommit.wire


class SpanRecorder:
    """Aggregates spans per (op id, role, name) as they close.

    Each thread aggregates into its own table, so two role threads never
    update one counter.  With ``keep_spans`` every closed span is also kept
    as ``(id, parent id, name, start, end, op, role)``.
    """

    def __init__(self, keep_spans: bool = False):
        self.op = None
        self.spans = [] if keep_spans else None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables = []

    def _thread(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._tables.append(st.table)
        return st

    def enter(self, name: str) -> None:
        self._thread().stack.append([name, next(self._ids), time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        st = self._local.st
        name, sid, start, child = st.stack.pop()
        dur = end - start
        parent = st.stack[-1] if st.stack else None
        if parent is not None:
            parent[3] += dur
        agg = st.table[(self.op, st.role, name)]
        agg[0] += 1
        agg[1] += dur - child
        agg[2] += dur
        if self.spans is not None:
            pid = parent[1] if parent is not None else 0
            self.spans.append((sid, pid, name, start, end, self.op, st.role))

    @contextlib.contextmanager
    def role(self, role: str):
        st = self._thread()
        saved, st.role = st.role, role
        try:
            yield
        finally:
            st.role = saved

    def totals(self, ops) -> dict[tuple[str, str], list]:
        """(role, name) -> [calls, self seconds, total seconds], summed over
        the given op ids."""
        ops = set(ops)
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        for table in list(self._tables):
            for (op, role, name), (calls, self_s, total_s) in list(table.items()):
                if op in ops:
                    acc = out[(role, name)]
                    acc[0] += calls
                    acc[1] += self_s
                    acc[2] += total_s
        return out


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []
        self.role = "main"
        self.table: dict = defaultdict(lambda: [0, 0.0, 0.0])


def _span(rec: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()

    return wrapper


def _span_each_step(rec: SpanRecorder, name: str, fn):
    """For a generator function: one span per step, so the consumer's loop
    body between steps is not counted."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            rec.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.exit()
            yield item

    return wrapper


def _role_span(rec: SpanRecorder, role: str, fn):
    inner = _span(rec, f"session.{role}", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.role(role):
            return inner(*args, **kwargs)

    return wrapper


# Module-level functions: (defining module, attribute, span name, step-wise).
_FUNCTIONS = [
    (polycommit.field, "encode_elements", "field.encode_elements", False),
    (polycommit.field, "decode_elements", "field.decode_elements", False),
    (polycommit.polymat, "power_row", "polymat.power_row", False),
    (polycommit.s2pc, "build_value_table", "s2pc.build_value_table", False),
    (polycommit.ot, "build_reduction_table", "ot.build_reduction_table", False),
    (polycommit.ot, "decode_c_of_1", "ot.decode_c_of_1", False),
    (polycommit.protocol, "evaluate", "protocol.evaluate", False),
    (polycommit.protocol, "verify", "protocol.verify", False),
    (polycommit.protocol, "recover", "protocol.recover", False),
    (polycommit.ot, "iter_tape_chunks", "ot.broadcast", True),
    (polycommit.ot, "_solve_pair", "ot.ih", False),
    (polycommit.ot, "colex_rank", "ot.ih", False),
    (polycommit.ot, "colex_unrank", "ot.ih", False),
    (polycommit.ot, "ih_encoding_bits", "ot.ih", False),
    (polycommit.ot, "encode_pair", "ot.pad", False),
    (polycommit.ot, "decode_pair", "ot.pad", False),
]

# Methods, patched on the class: (class, method, span name).
_METHODS = [
    (polycommit.field.PrimeField, "asarray", "field.asarray"),
    (polycommit.field.PrimeField, "matmul", "field.matmul"),
    (polycommit.ot.TapeSampler, "__init__", "ot.broadcast"),
    (polycommit.ot.TapeSampler, "consume", "ot.broadcast"),
    (polycommit.ot.TapeSampler, "finish", "ot.broadcast"),
    (polycommit.ot.IhSender, "next_constraint", "ot.ih"),
    (polycommit.ot.IhSender, "push_reply", "ot.ih"),
    (polycommit.ot.IhSender, "solutions", "ot.ih"),
    (polycommit.session.IdealBackend, "send", "session.backend_send"),
    (polycommit.session.BsBackend, "send", "session.backend_send"),
    (polycommit.session.IdealBackend, "receive", "session.backend_receive"),
    (polycommit.session.BsBackend, "receive", "session.backend_receive"),
    (polycommit.wire.DuplexChannel, "send", "wire.send"),
    (polycommit.wire.SocketChannel, "send", "wire.send"),
    (polycommit.wire.DuplexChannel, "recv", "wire.recv"),
    (polycommit.wire.SocketChannel, "recv", "wire.recv"),
]

_ROLES = [
    (polycommit.session.ProverSession, "run", "prover"),
    (polycommit.session.VerifierSession, "run", "verifier"),
]


def bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) of a loaded polycommit module bound to fn."""
    out = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "polycommit" or name.startswith("polycommit."):
            out.extend((mod, attr) for attr, val in list(vars(mod).items()) if val is fn)
    return out


def install(rec: SpanRecorder) -> list[tuple[object, str, object]]:
    """Wrap every traced layer boundary; returns the undo list for
    :func:`uninstall`."""
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for mod, attr, name, stepwise in _FUNCTIONS:
        fn = getattr(mod, attr)
        wrapped = (_span_each_step if stepwise else _span)(rec, name, fn)
        for owner, bound in bindings(fn):
            patch(owner, bound, wrapped)
    for cls, attr, name in _METHODS:
        patch(cls, attr, _span(rec, name, vars(cls)[attr]))
    for cls, attr, role in _ROLES:
        patch(cls, attr, _role_span(rec, role, vars(cls)[attr]))
    return undo


def uninstall(undo) -> None:
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)
    undo.clear()
