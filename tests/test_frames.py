"""Strict frames: a scripted peer replays one side of a recorded honest
bounded-storage session against the other role, running live on the same
thread, with one frame changed.  Whatever the change, the role ends
within a bound in a defined exit code, and a trailing byte on any frame
it receives ends it in exit 4."""

import functools
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polycommit import PrimeField
from polycommit.ot import make_bs_params
from polycommit.protocol import make_config
from polycommit.session import (
    EXIT_OK,
    EXIT_PROTOCOL,
    BsBackend,
    ProverSession,
    VerifierSession,
    honest_coefficients,
)
from polycommit.wire import (
    IH_CONSTRAINT,
    IH_REPLY,
    IH_STATUS,
    IH_SWAP,
    Tag,
    TransportError,
    pump,
)

CFG = make_config(PrimeField(11), d=9, r=2, c=1, xi=6)
SMALL_BS = make_bs_params(N=4096, ell=16, k=8)
SEED, QUERIES = 14, [1, 2]
BOUND_S = 10  # a replay ends well within this


def make_role(role):
    backend = BsBackend(SMALL_BS)
    if role == "prover":
        return ProverSession(CFG, honest_coefficients(CFG, SEED), backend, SEED)
    return VerifierSession(CFG, QUERIES, backend, SEED)


def logged(role, step, log):
    """``step``, appending (role, tag, payload) to ``log`` for each frame
    it sends."""
    frame = None
    while True:
        try:
            out = step.send(frame)
        except StopIteration as stop:
            return stop.value
        if out is not None:
            log.append((role, *out))
        frame = yield out


@functools.cache
def honest_log():
    """Every frame of the honest session, in the order the two roles trade
    them when pumped on one thread."""
    log = []
    codes = pump(
        logged("verifier", make_role("verifier").step(), log),
        logged("prover", make_role("prover").step(), log),
    )[:2]
    assert codes == (EXIT_OK, EXIT_OK)
    return tuple(log)


class Script:
    """The live role's channel to a peer that sends the other role's
    logged frames in order and takes one frame from the live role wherever
    the log holds one: ``recv`` hands over the peer's next frame only while
    it comes before the live role's next logged frame, else the peer would
    wait on the live role, which waits on it, and ``recv`` raises
    :class:`TransportError` as a silent peer's channel does.  A live ABORT
    ends the script."""

    def __init__(self, live, frames):
        self._peer, self._sent, self._ended = [], 0, False
        before = 0  # the live role's frames logged before the peer's next
        for sender, tag, payload in frames:
            if sender == live:
                before += 1
            else:
                self._peer.append((before, (tag, payload)))

    def send(self, tag, payload):
        self._sent += 1
        self._ended |= tag == Tag.ABORT

    def recv(self):
        if self._ended or not self._peer or self._peer[0][0] > self._sent:
            raise TransportError("the peer went silent")
        return self._peer.pop(0)[1]


def replay(live, frames):
    """Run role ``live`` on this thread against a peer that sends the other
    role's ``frames`` in order and takes one frame from the live role
    wherever the log holds one, until the live role aborts or goes silent;
    returns the live role's exit code."""
    start = time.monotonic()
    try:
        code = make_role(live).run(Script(live, frames))
    except Exception as exc:  # asserted absent below
        code = exc
    assert time.monotonic() - start < BOUND_S
    assert not isinstance(code, Exception), repr(code)
    return code


def kind(tag, payload):
    return tag, payload[0] if tag == Tag.IH_ROUND else None


# (receiving role, tag, IH subtype): each kind of frame a role receives in
# the honest session
RECEIVED = [
    ("prover", Tag.NEGOTIATE, None),
    ("prover", Tag.IH_ROUND, IH_STATUS),
    ("prover", Tag.IH_ROUND, IH_REPLY),
    ("prover", Tag.IH_ROUND, IH_SWAP),
    ("prover", Tag.COMMIT_DONE, None),
    ("prover", Tag.EVAL_REQ, None),
    ("prover", Tag.VERDICT, None),
    ("prover", Tag.ABORT, None),
    ("verifier", Tag.SET_AGREE, None),
    ("verifier", Tag.TAPE_CHUNK, None),
    ("verifier", Tag.OMEGA_REVEAL, None),
    ("verifier", Tag.IH_ROUND, IH_CONSTRAINT),
    ("verifier", Tag.ENCODED_PAIR, None),
    ("verifier", Tag.EVAL_RESP, None),
]
OTHER = {"prover": "verifier", "verifier": "prover"}


def test_sweep_covers_every_kind_of_frame_received():
    received = {(OTHER[sender], *kind(tag, payload)) for sender, tag, payload in honest_log()}
    assert received == set(RECEIVED)


@pytest.mark.parametrize(
    "live, tag, subtype",
    RECEIVED,
    ids=[f"{live}-{tag.name}" + ("" if sub is None else f"-{sub}") for live, tag, sub in RECEIVED],
)
def test_a_trailing_byte_on_any_received_frame_ends_the_role_in_exit_4(live, tag, subtype):
    frames = list(honest_log())
    i = next(
        i for i, (sender, t, p) in enumerate(frames)
        if sender != live and kind(t, p) == (tag, subtype)
    )
    sender, tag, payload = frames[i]
    frames[i] = (sender, tag, payload + b"\x00")
    assert replay(live, frames) == EXIT_PROTOCOL


MUTATIONS = ("flip", "truncate", "append", "retag", "drop", "repeat")


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_one_changed_frame_ends_the_role_in_a_defined_exit_code(data):
    live = data.draw(st.sampled_from(sorted(OTHER)))
    frames = list(honest_log())
    i = data.draw(st.sampled_from([i for i, f in enumerate(frames) if f[0] != live]))
    mutation = data.draw(st.sampled_from(MUTATIONS))
    sender, tag, payload = frames[i]
    if mutation in ("flip", "truncate") and not payload:
        mutation = "append"
    if mutation == "flip":
        bit = data.draw(st.integers(0, 8 * len(payload) - 1))
        flipped = payload[bit // 8] ^ (1 << bit % 8)
        frames[i] = (sender, tag, payload[: bit // 8] + bytes([flipped]) + payload[bit // 8 + 1 :])
    elif mutation == "truncate":
        frames[i] = (sender, tag, payload[: data.draw(st.integers(0, len(payload) - 1))])
    elif mutation == "append":
        frames[i] = (sender, tag, payload + data.draw(st.binary(min_size=1, max_size=8)))
    elif mutation == "retag":  # ABORT first: a role takes it at any point
        tags = sorted((t for t in Tag if t != tag), key=lambda t: t != Tag.ABORT)
        frames[i] = (sender, data.draw(st.sampled_from(tags)), payload)
    elif mutation == "drop":
        del frames[i]
    else:
        frames.insert(i, frames[i])
    # ok, config, transport, protocol violation, verification reject
    assert replay(live, frames) in (0, 2, 3, 4, 5)
