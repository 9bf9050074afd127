"""Strict frames: a scripted peer replays one side of a recorded honest
bounded-storage session against the other role, running live, with one
frame changed.  Whatever the change, the role ends within a bound in a
defined exit code, and a trailing byte on any frame it receives ends it in
exit 4."""

import functools
import threading
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
    duplex_pair,
)

CFG = make_config(PrimeField(11), d=9, r=2, c=1, xi=6)
SMALL_BS = make_bs_params(N=4096, ell=16, k=8)
SEED, QUERIES = 14, [1, 2]
BOUND_S = 10  # a replay ends well within this, timeouts included


def make_role(role):
    backend = BsBackend(SMALL_BS)
    if role == "prover":
        return ProverSession(CFG, honest_coefficients(CFG, SEED), backend, SEED)
    return VerifierSession(CFG, QUERIES, backend, SEED)


class Logged:
    """Channel wrapper appending (sending role, tag, payload) to ``log``."""

    def __init__(self, inner, role, log):
        self._inner, self._role, self._log = inner, role, log

    def send(self, tag, payload):
        self._log.append((self._role, tag, payload))
        self._inner.send(tag, payload)

    def recv(self):
        return self._inner.recv()


@functools.cache
def honest_log():
    """Every frame of the honest session, in an order that respects what
    each frame waits for."""
    chan_p, chan_v = duplex_pair(timeout=5)
    log, codes = [], {}
    threads = [
        threading.Thread(
            target=lambda role=role, chan=chan: codes.update({role: make_role(role).run(chan)}),
            daemon=True,
        )
        for role, chan in (("prover", Logged(chan_p, "prover", log)),
                           ("verifier", Logged(chan_v, "verifier", log)))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert codes == {"prover": EXIT_OK, "verifier": EXIT_OK}
    return tuple(log)


def replay(live, frames):
    """Run role ``live`` against a peer that sends the other role's
    ``frames`` in order and takes one frame from the live role wherever the
    log holds one, until the live role aborts or goes silent; returns the
    live role's exit code."""
    session = make_role(live)
    chan_live, chan_peer = duplex_pair(timeout=0.5)
    result = {}

    def run():
        try:
            result["code"] = session.run(chan_live)
        except BaseException as exc:  # asserted absent below
            result["error"] = exc

    start = time.monotonic()
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        for sender, tag, payload in frames:
            if sender != live:
                chan_peer.send(tag, payload)
            elif chan_peer.recv()[0] == Tag.ABORT:
                break
    except TransportError:  # the live role went silent
        pass
    thread.join(timeout=BOUND_S)
    assert not thread.is_alive() and time.monotonic() - start < BOUND_S
    assert "error" not in result, repr(result.get("error"))
    return result["code"]


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
