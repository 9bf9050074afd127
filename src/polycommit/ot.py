"""Oblivious transfer: ideal 1-of-2, bounded-storage 1-of-2, and the
unconditional 1-of-c reduction.

Three layers, each independently testable:

1. :class:`IdealOt` -- the 1-of-2 functionality as a trusted box, one
   batch of transfers at a time.  The sender deposits a batch of message
   pairs, the receiver takes one message of each pair; the sender-side
   trace is the deposited pairs and carries no function of the choice
   bits.  This is the backend for protocol-level tests and privacy audits.

2. The bounded-storage 1-of-2 protocol, a desk-scale sketch of the
   broadcast-and-sample construction.  The sender broadcasts K random bits
   with K > alpha*N for an expansion factor alpha > 1, where N is the
   public bound on the receiver's storage.  Each party stores the bits at
   n = ceil(sqrt(2*ell*N)) uniformly chosen positions, so the stored sets
   intersect in about ell positions.  The positions are drawn before the
   tape, in bulk but in the stream of ``rng.sample(range(K), n)``, and sent
   as 32-bit words, so K stays below 2^32.  The sender reveals her positions;
   the parties then run an interactive hashing protocol that narrows the
   space of subsets of the sender's positions to exactly two equal-size
   sets X0, X1, of which the receiver fully knows exactly one.  Each
   message is one-time-padded with a random-parity extractor of the tape
   bits at X_i (seed sent in clear), so the receiver decodes the chosen
   message and is information-theoretically ignorant of the other.

   Interactive hashing is realized NOVY-style: candidate subsets of size
   ell//2 are encoded by their colexicographic rank in t bits with
   t = floor(log2(C(n, ell//2))); the sender announces t-1 random
   independent binary linear constraints and the receiver answers with the
   parities of his encoding, leaving an affine solution pair {w0, w1}.  A
   final swap bit from the receiver aligns his known set with his choice
   bit; since which solution is his is not determined by the transcript,
   the swap bit hides the choice.  The security parameter k is enforced as
   a floor on the round count.  Every constraint must lie below 2^t: one
   on higher bits would leave the receiver's encoding out of the solution
   pair, and his swap bit would then reveal his choice.  The receiver's
   solve is forward elimination plus back-substitution in increasing pivot
   order; the sender already eliminates as she draws, to keep her
   constraints independent, and keeps those reduced rows, so her solve is
   the back-substitution alone.

   The sender's constraints and extractor seeds never depend on the
   replies, so :class:`IhSender` draws all t-1 constraints when it is
   built.  That lets a batch of L transfers run on the wire as
   lanes, one transfer per lane, each lane still sequential (constraint
   j+1 only after reply j):

   - broadcasts, lane after lane: TAPE_CHUNK frames, OMEGA_REVEAL, and an
     IH_ROUND status byte (1 asks for a fresh broadcast, 0 accepts it);
   - t-1 rounds, each one IH_ROUND constraint frame holding L constraints
     of ceil(t/8) little-endian bytes, each below 2^t, answered by one
     IH_ROUND reply frame of L bits;
   - one IH_ROUND swap frame of L bits, then one ENCODED_PAIR frame
     holding L (seed, ciphertext, seed, ciphertext) pairs.

   Each lane's tape, positions, constraints, replies, swap, seeds and
   ciphertexts are those of the same transfer run alone.  Right after a
   lane's accepted broadcast the receiver keeps only the bits at the
   positions he shares with the sender's, about ell of them, so he holds
   at most n + (L-1)*max|shared| bits during a batch.  The sender keeps n bits
   per lane, L*n in all; the model bounds the receiver's storage, not
   hers.  The lanes check
   what needs their context: lane counts, constraint widths, tape chunks
   in order, and the sender's positions; any failure, or MAX_BROADCASTS
   declined broadcasts, raises, and the receiver checks every constraint
   before he replies.

   Each phase is one sans-IO step per side over the lanes (see
   :mod:`polycommit.wire`): tape, reveal/accept, IH rounds plus swap, and
   pad.  :func:`bs_send` and :func:`bs_receive` chain them into a batch,
   which a backend drives over a channel; :func:`bs_phase1`,
   :func:`bs_setpair`, :func:`ih_narrow` and :func:`bs_transfer` pump the
   same steps for one lane, so the acceptance suite runs the wire's code.

3. The 1-of-c reduction: the sender masks her c secrets into a 2 x (c-1)
   table so that any single row choice per column reveals exactly one
   secret; c-1 1-of-2 transfers carry the receiver's picks and a
   telescoping sum recovers the target secret.  Its halves move no
   message: :func:`ot_c_of_1_send` returns the table as a batch and
   :func:`ot_c_of_1_receive` decodes the picks of :func:`row_picks`, so a
   caller may send the batches of many reductions as one, as the
   commitment does with its 2c; :func:`ot_c_of_1` runs one reduction over
   an :class:`IdealOt`.

A batch of L 1-of-2 transfers is one (2, L, w) uint8 array, ``pairs[0, j]``
and ``pairs[1, j]`` the two messages of transfer j, and the picks are one
(L, w) array.  A sender hands over an iterable of batches, which go out
as one, pulled in order: :func:`bs_send` pulls each right before its
first lane's broadcast, and :meth:`IdealOt.send` joins them into one box
item.  The reduction encodes its table, and decodes the picks, in
one codec call each; the bounded-storage lanes pad each message as bytes.
"""

from __future__ import annotations

import functools
import math
import queue
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field import DecodeError, Field, decode_elements, elem_size, encode_elements
from .wire import (
    IH_CONSTRAINT,
    IH_REPLY,
    IH_STATUS,
    IH_SWAP,
    TAPE_CHUNK_BITS,
    Tag,
    Writer,
    expect,
    parse,
    pump,
)

__all__ = [
    "OtError",
    "IntersectionShortfall",
    "IdealOt",
    "BsOtParams",
    "make_bs_params",
    "StoredSample",
    "SetPair",
    "IhTranscript",
    "IhSender",
    "bs_phase1",
    "bs_setpair",
    "pick_encoding",
    "ih_sets",
    "encode_pair",
    "decode_pair",
    "bs_transfer",
    "bs_send",
    "bs_receive",
    "build_reduction_table",
    "row_picks",
    "decode_c_of_1",
    "ot_c_of_1_send",
    "ot_c_of_1_receive",
    "ot_c_of_1",
]

MAX_BROADCASTS = 64  # broadcasts per transfer before the transfer gives up


class OtError(Exception):
    """Protocol misuse or malformed transfer."""


class IntersectionShortfall(OtError):
    """Stored sets intersect in fewer than the target number of positions;
    the session should rerun the broadcast phase."""


# ---------------------------------------------------------------------------
# Ideal 1-of-2 functionality
# ---------------------------------------------------------------------------


class IdealOt:
    """Trusted-box 1-of-2 OT, one batch of transfers at a time.

    ``send``/``receive`` rendezvous through a thread-safe queue holding one
    item per ``send``, so the two roles may live on different threads, or
    one thread may deposit every item before taking any.  ``sender_trace``
    records everything the sender ever observes: each deposited item,
    read-only, byte-identical regardless of any choice bit.
    """

    def __init__(self):
        self.sender_trace: list[np.ndarray] = []
        self._batches: queue.Queue[np.ndarray] = queue.Queue()

    def send(self, batches) -> None:
        """Deposit the (2, L_k, w) uint8 arrays ``batches`` yields as one
        item, joined along L in one copy: (pairs[0, j], pairs[1, j])."""
        pairs = np.concatenate(list(batches), axis=1)
        if pairs.dtype != np.uint8 or pairs.ndim != 3 or len(pairs) != 2:
            raise OtError(f"a batch is a (2, L, w) uint8 array, not {pairs.dtype} {pairs.shape}")
        pairs.flags.writeable = False  # the trace keeps what was sent
        self.sender_trace.append(pairs)
        self._batches.put(pairs)

    def receive(self, bits, timeout: float | None = 30.0) -> np.ndarray:
        """Take the next batch: message bits[j] of its transfer j, as one
        (L, w) array."""
        bits = np.asarray(bits)
        if not np.all((bits == 0) | (bits == 1)):
            raise OtError("choice must be a bit")
        pairs = self._batches.get(timeout=timeout)
        if bits.shape != pairs.shape[1:2]:
            raise OtError(f"batch holds {pairs.shape[1]} transfers, receiver chose {bits.shape}")
        return pairs[bits, np.arange(len(bits))]


# ---------------------------------------------------------------------------
# Bounded-storage 1-of-2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BsOtParams:
    """Parameters of the bounded-storage protocol.

    N: public bound on the receiver's storage, in bits.
    K: broadcast length in bits, K > alpha*N.
    alpha: expansion factor > 1.
    ell: target intersection size of the stored position sets.
    n: bits stored per party, ceil(sqrt(2*ell*N)).
    k: security parameter; minimum number of interactive-hashing rounds.
    """

    N: int
    K: int
    alpha: float
    ell: int
    n: int
    k: int

    @property
    def subset_size(self) -> int:
        """Size of the interactive-hashing output sets X0, X1."""
        return self.ell // 2


def make_bs_params(
    N: int = 1 << 16, alpha: float = 2.0, ell: int = 64, k: int = 40
) -> BsOtParams:
    """Validated desk-scale parameter set."""
    if alpha <= 1:
        raise OtError(f"expansion factor must exceed 1, got {alpha}")
    if ell < 8:
        raise OtError(f"target intersection must be >= 8, got {ell}")
    K = int(alpha * N) + 1
    if K.bit_length() > 32:
        raise OtError(f"tape length K={K} must stay below 2^32: positions are 32-bit words")
    n = math.isqrt(2 * ell * N)
    if n * n < 2 * ell * N:
        n += 1
    if n > N:
        raise OtError(f"stored bits n={n} exceed the storage bound N={N}")
    if k < 1:
        raise OtError("security parameter must be positive")
    return BsOtParams(N=N, K=K, alpha=alpha, ell=ell, n=n, k=k)


@dataclass
class StoredSample:
    """One party's retained view of the broadcast: positions and bits."""

    params: BsOtParams
    indices: np.ndarray  # sorted positions in [0, K)
    bits: np.ndarray  # uint8 bits at those positions


def _draw_positions(rng: random.Random, K: int, n: int) -> np.ndarray:
    """n distinct positions in [0, K), sorted, as int64: exactly the values
    of ``sorted(rng.sample(range(K), n))`` in its set-selection branch,
    leaving the generator in the same state.

    That branch draws ``getrandbits(K.bit_length())`` (one 32-bit word
    shifted right, for K < 2^32) until the value is below K and new.  Each
    round here takes the shortfall's worth of words from one
    ``getrandbits`` call, read little-endian as the sequential calls would
    see them, and marks the values below K in a K-entry boolean scratch
    array.  A word adds at most one new position, so no round draws past
    the word that completes the sample.  The scratch array holds positions,
    never a tape bit, and is freed on return, before the first tape chunk.
    For K at most about 12n, where ``sample`` shuffles a pool instead, the
    positions are still a uniform n-subset, from a different stream.
    """
    shift = 32 - K.bit_length()
    marked = np.zeros(K, dtype=bool)
    got = 0
    while got < n:
        need = n - got
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        words = np.frombuffer(raw, dtype="<u4") >> shift
        marked[words[words < K]] = True
        got = int(np.count_nonzero(marked))
    return np.flatnonzero(marked)


class TapeSampler:
    """Captures the bits at a pre-chosen position set from a streamed tape.

    The n positions are drawn by :func:`_draw_positions` before the first
    chunk arrives, in the stream of ``rng.sample(range(K), n)``."""

    def __init__(self, params: BsOtParams, rng: random.Random):
        self.params = params
        self.indices = _draw_positions(rng, params.K, params.n)
        self.bits = np.zeros(params.n, dtype=np.uint8)
        self._filled = 0

    def consume(self, offset: int, chunk: np.ndarray) -> None:
        lo = np.searchsorted(self.indices, offset)
        hi = np.searchsorted(self.indices, offset + len(chunk))
        sel = self.indices[lo:hi] - offset
        self.bits[lo:hi] = chunk[sel]
        self._filled = max(self._filled, int(hi))

    def finish(self) -> StoredSample:
        if self._filled != self.params.n:
            raise OtError("tape stream ended before all stored positions were seen")
        return StoredSample(self.params, self.indices, self.bits)


def iter_tape_chunks(params: BsOtParams, rng: random.Random):
    """Yield (offset, bits) chunks of a fresh random K-bit tape."""
    remaining = params.K
    offset = 0
    while remaining > 0:
        nbits = min(TAPE_CHUNK_BITS, remaining)
        nbytes = (nbits + 7) // 8
        raw = rng.getrandbits(nbytes * 8).to_bytes(nbytes, "little")
        chunk = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:nbits]
        yield offset, chunk
        offset += nbits
        remaining -= nbits


def _tape_send(params: BsOtParams, sampler: TapeSampler, rng: random.Random):
    """Sender step: stream a fresh tape in TAPE_CHUNK frames; her sample."""
    for offset, chunk in iter_tape_chunks(params, rng):
        sampler.consume(offset, chunk)
        payload = Writer().u64(offset).u32(len(chunk)).blob(np.packbits(chunk).tobytes())
        yield Tag.TAPE_CHUNK, payload.bytes()
    return sampler.finish()


def _tape_receive(params: BsOtParams, sampler: TapeSampler):
    """Receiver step: a tape's TAPE_CHUNK frames, in order from offset 0 and
    each min(TAPE_CHUNK_BITS, K - offset) bits long; his sample."""
    offset = 0
    while offset < params.K:
        got, chunk = expect((yield), None, Tag.TAPE_CHUNK)[1]
        if got != offset or len(chunk) != min(TAPE_CHUNK_BITS, params.K - offset):
            raise OtError(f"TAPE_CHUNK of {len(chunk)} bits at {got}, wanted one at {offset}")
        sampler.consume(offset, chunk)
        offset += len(chunk)
    return sampler.finish()


def bs_phase1(
    params: BsOtParams, rng: random.Random
) -> tuple[np.ndarray, StoredSample, StoredSample]:
    """Run the broadcast phase locally for both parties: the tape steps,
    pumped, after both parties draw their positions.

    Returns the full tape (the broadcast content, kept only so tests can
    check the parties' bookkeeping against it) plus each party's stored
    sample.  Party state never exceeds its n stored bits.
    """
    sender, receiver = TapeSampler(params, rng), TapeSampler(params, rng)
    *samples, frames = pump(_tape_send(params, sender, rng), _tape_receive(params, receiver))
    return (np.concatenate([parse(*frame)[1] for frame in frames]), *samples)


# -- colexicographic subset encoding --


def colex_rank(subset: Sequence[int]) -> int:
    """Rank of a sorted subset in colexicographic order."""
    return sum(math.comb(v, j + 1) for j, v in enumerate(sorted(subset)))


def colex_unrank(r: int, size: int, universe: int) -> list[int]:
    """Inverse of :func:`colex_rank` over subsets of [0, universe)."""
    out = []
    for j in range(size, 0, -1):
        lo, hi = j - 1, universe - 1
        while lo < hi:  # largest v with C(v, j) <= r
            mid = (lo + hi + 1) // 2
            if math.comb(mid, j) <= r:
                lo = mid
            else:
                hi = mid - 1
        out.append(lo)
        r -= math.comb(lo, j)
        universe = lo
    return sorted(out)


# -- F2 linear algebra on bitmask ints --


def _solve_pair(rounds: list[tuple[int, int]], t: int) -> tuple[int, int]:
    """Solutions of t-1 independent parity constraints on t bits."""
    # each row carries its reply as bit 0, so one XOR updates both sides
    pivots: dict[int, int] = {}
    for h, c in rounds:
        row = h << 1 | c
        while row > 1:
            p = row.bit_length() - 1
            prow = pivots.get(p)
            if prow is None:
                pivots[p] = row
                break
            row ^= prow
        else:
            if row:
                raise OtError("inconsistent interactive-hashing replies")
    if len(pivots) != t - 1:
        raise OtError("constraints are not independent")
    return _back_substitute(pivots, t, 1, 1)


def _back_substitute(pivots: dict[int, int], t: int, shift: int, low: int) -> tuple[int, int]:
    """The two t-bit solutions of t-1 reduced rows, smaller first.  Each row
    holds its constraint bits shifted up by ``shift``, above bits whose
    parity against ``low`` is the row's reply.  A pivot row holds no bit
    above its pivot, so in increasing pivot order every other bit it
    touches is already known."""
    free = next(b for b in range(t) if b + shift not in pivots)
    order = sorted(pivots)
    sols = []
    for fval in (0, 1):
        w = fval << (free + shift) | low
        for p in order:
            w |= ((pivots[p] & w).bit_count() & 1) << p
        sols.append(w >> shift)
    return (sols[0], sols[1]) if sols[0] < sols[1] else (sols[1], sols[0])


@dataclass(frozen=True)
class IhTranscript:
    """Everything the sender sees: constraint rounds, replies, swap bit."""

    t: int
    rounds: tuple[tuple[int, int], ...]
    swap: int


@dataclass(frozen=True)
class SetPair:
    """Output of interactive hashing: two equal-size position sets within
    the sender's stored set; the receiver fully knows ``x0`` if his choice
    bit is 0, else ``x1``."""

    x0: np.ndarray  # tape positions
    x1: np.ndarray
    choice: int

    def chosen(self) -> np.ndarray:
        return self.x0 if self.choice == 0 else self.x1

    def other(self) -> np.ndarray:
        return self.x1 if self.choice == 0 else self.x0


def ih_encoding_bits(n: int, subset_size: int) -> int:
    return int(math.log2(math.comb(n, subset_size)))


def hashing_bits(n: int, subset_size: int, k: int) -> int:
    """t, refused when its t-1 hashing rounds fall below the floor k."""
    t = ih_encoding_bits(n, subset_size)
    if t - 1 < k:
        raise OtError(f"{t - 1} hashing rounds are below the security parameter {k}")
    return t


class IhSender:
    """Sender side of the narrowing rounds: draws constraints independent
    of the received replies, keeping the accepted h-sequence a function of
    her randomness alone.  So she draws all t-1 of them when built; the
    wire still sends constraint j+1 only after reply j.

    The independence check is the forward elimination, and the sender keeps
    its reduced rows: each pivot row holds its constraint bits shifted up
    by t-1, above the mask of the constraints it combines.  A pivot's reply
    is then that mask's parity against the replies, and :meth:`solutions`
    is back-substitution alone."""

    def __init__(self, t: int, rng: random.Random):
        self.t = t
        self.rng = rng
        self.constraints: list[int] = []
        self.replies: list[int] = []
        self._pivots: dict[int, int] = {}  # pivot bit + t-1 -> reduced row
        for _ in range(t - 1):
            self.next_constraint()

    @property
    def rounds(self) -> list[tuple[int, int]]:
        return list(zip(self.constraints, self.replies))

    def next_constraint(self) -> int:
        m = self.t - 1
        while True:
            h = self.rng.getrandbits(self.t)
            row = h << m | 1 << len(self.constraints)
            while (p := row.bit_length() - 1) >= m:  # else h depends on the rest
                prow = self._pivots.get(p)
                if prow is None:
                    self._pivots[p] = row
                    self.constraints.append(h)
                    return h
                row ^= prow

    def push_reply(self, bit: int) -> None:
        if len(self.replies) == len(self.constraints):
            raise OtError("no constraint outstanding")
        self.replies.append(bit & 1)

    def solutions(self) -> tuple[int, int]:
        """The two encodings that meet every reply, smaller first; equal to
        ``_solve_pair(self.rounds, t)``."""
        m = self.t - 1
        if len(self.replies) != m:
            raise OtError("interactive hashing needs all t-1 replies")
        replies = sum(bit << j for j, bit in enumerate(self.replies))
        return _back_substitute(self._pivots, self.t, m, replies)


def _ih_send(t: int, ihs: list[IhSender]):
    """Sender step over L lanes: t-1 rounds of one constraint frame, ceil(t/8)
    bytes per lane, and one reply frame; then the swap bits."""
    width = (t + 7) // 8
    for j in range(t - 1):
        hb = b"".join(ih.constraints[j].to_bytes(width, "little") for ih in ihs)
        yield Tag.IH_ROUND, Writer().u8(IH_CONSTRAINT).blob(hb).bytes()
        replies = expect((yield), None, Tag.IH_ROUND, subtype=IH_REPLY)[1]
        if len(replies) != len(ihs):
            raise DecodeError(f"expected {len(ihs)} replies, got {len(replies)}")
        for ih, bit in zip(ihs, replies):
            ih.push_reply(bit)
    swaps = expect((yield), None, Tag.IH_ROUND, subtype=IH_SWAP)[1]
    if len(swaps) != len(ihs):
        raise DecodeError(f"expected {len(ihs)} swap bits, got {len(swaps)}")
    return swaps


def _ih_receive(t: int, ws: list[int], bits):
    """Receiver step over L lanes: reply to each constraint frame with the
    parities of his encodings ``ws``, then send the swap bits that put his
    own set at index bits[j].  A constraint at or above 2^t would leave his
    encoding out of the solution pair and let the swap bit give away his
    choice, so it ends the batch before the choice bits touch the wire."""
    width = (t + 7) // 8
    rounds = [[] for _ in ws]
    for _ in range(t - 1):
        data = expect((yield), None, Tag.IH_ROUND, subtype=IH_CONSTRAINT)[1]
        if len(data) != len(ws) * width:
            raise DecodeError(f"{len(data)} bytes of constraints, not {len(ws)} of {width}")
        hs = [int.from_bytes(data[j : j + width], "little") for j in range(0, len(data), width)]
        if any(h >> t for h in hs):
            raise OtError(f"an IH constraint is wider than t = {t} bits")
        replies = bytes((h & w).bit_count() & 1 for h, w in zip(hs, ws))
        for lane_rounds, h, reply in zip(rounds, hs, replies):
            lane_rounds.append((h, reply))
        yield Tag.IH_ROUND, Writer().u8(IH_REPLY).blob(replies).bytes()
    sols = [_solve_pair(lane_rounds, t) for lane_rounds in rounds]
    swaps = bytes((w != w0) ^ b for (w0, _), w, b in zip(sols, ws, bits))
    yield Tag.IH_ROUND, Writer().u8(IH_SWAP).blob(swaps).bytes()


def ih_narrow(
    t: int, w: int, sender_rng: random.Random
) -> tuple[list[tuple[int, int]], int, int]:
    """t-1 rounds of random independent parity constraints on the t-bit
    encoding w, one lane's IH steps pumped; returns the rounds and the two
    surviving encodings."""
    ih = IhSender(t, sender_rng)
    pump(_ih_send(t, [ih]), _ih_receive(t, [w], [0]))
    return (ih.rounds, *ih.solutions())


def _lookup(indices: np.ndarray, positions) -> tuple[np.ndarray, np.ndarray]:
    """One binary search of every position in the sorted ``indices``: where
    each would sit, and whether it is there."""
    positions = np.asarray(positions)
    at = np.searchsorted(indices, positions)
    hit = at < len(indices)
    hit[hit] = indices[at[hit]] == positions[hit]
    return at, hit


def pick_encoding(
    omega_a: np.ndarray, sample: StoredSample, t: int, rng: random.Random
) -> int | None:
    """Receiver's interactive-hashing input: the colex rank of a random
    ell//2-subset of the positions within the sender's index list
    ``omega_a`` that his ``sample`` also stored, fitting in t bits.  None
    when the two share fewer than ell positions, or 256 draws all miss."""
    params = sample.params
    shared = np.flatnonzero(_lookup(sample.indices, omega_a)[1])
    if len(shared) < params.ell:
        return None
    for _ in range(256):
        w = colex_rank(sorted(rng.sample(list(shared), params.subset_size)))
        if w < (1 << t):
            return w
    return None


def ih_sets(
    indices: np.ndarray, w0: int, w1: int, swap: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """(X0, X1) as tape positions: X_j is the solution at index swap ^ j,
    so X_b is the receiver's set when swap = (his solution index) ^ b."""
    sols = (w0, w1)
    n = len(indices)
    return (
        indices[colex_unrank(sols[swap], size, n)],
        indices[colex_unrank(sols[swap ^ 1], size, n)],
    )


def _reveal_send(sample: StoredSample):
    """Sender step: reveal her positions in OMEGA_REVEAL; whether the
    receiver's IH_ROUND status accepts the broadcast."""
    yield Tag.OMEGA_REVEAL, Writer().u32s(sample.indices).bytes()
    return not expect((yield), None, Tag.IH_ROUND, subtype=IH_STATUS)[1]


def _accept_receive(params: BsOtParams, sample: StoredSample, pick):
    """Receiver step: the sender's positions omega_a; the broadcast is
    accepted if ``pick(omega_a, sample)`` gives an encoding w.  Returns
    (omega_a, his sample cut to its shared positions, w), or None."""
    omega_a = expect((yield), None, Tag.OMEGA_REVEAL)[1]
    if len(omega_a) != params.n or np.any(np.diff(omega_a) <= 0) or omega_a[-1] >= params.K:
        raise OtError(f"OMEGA_REVEAL must be {params.n} distinct sorted positions on the tape")
    w = pick(omega_a, sample)
    yield Tag.IH_ROUND, Writer().u8(IH_STATUS).u8(w is None).bytes()
    if w is not None:
        # only X_b's bits are ever read, and X_b lies in the shared positions
        shared = _lookup(omega_a, sample.indices)[1]
        return omega_a, StoredSample(params, sample.indices[shared], sample.bits[shared]), w


def bs_setpair(
    sample_a: StoredSample,
    sample_b: StoredSample,
    b: int,
    k: int,
    sender_rng: random.Random,
    receiver_rng: random.Random,
    subset_choice: Sequence[int] | None = None,
) -> tuple[SetPair, IhTranscript]:
    """Interactive hashing between sender (sample_a) and receiver
    (sample_b): the reveal and IH steps, pumped.

    ``subset_choice`` pins the receiver's subset (positions within the
    sender's index list); tests use it to enumerate receiver tapes.
    """
    if b not in (0, 1):
        raise OtError("choice must be a bit")
    ell_x = sample_a.params.subset_size
    t = hashing_bits(len(sample_a.indices), ell_x, k)
    w = None
    if subset_choice is not None:
        chosen = sorted(int(p) for p in subset_choice)
        shared = _lookup(sample_b.indices, sample_a.indices)[1]
        if not len(chosen) == len(set(chosen)) == ell_x or not all(
            0 <= p < len(shared) and shared[p] for p in chosen
        ):
            raise OtError("subset_choice must be ell//2 distinct shared positions")
        w = colex_rank(chosen)
        if w >= (1 << t):
            raise OtError("subset_choice is not encodable in t bits")

    pick = functools.partial(pick_encoding, t=t, rng=receiver_rng) if w is None else lambda *_: w
    _, lane, _ = pump(_reveal_send(sample_a), _accept_receive(sample_a.params, sample_b, pick))
    if lane is None:
        raise IntersectionShortfall(
            "the stored sets share fewer than ell positions, or no encodable "
            "subset of them; rerun the broadcast phase"
        )
    ih = IhSender(t, sender_rng)  # after the receiver's pick
    (swap,), _, _ = pump(_ih_send(t, [ih]), _ih_receive(t, [lane[2]], [b]))
    x0, x1 = ih_sets(sample_a.indices, *ih.solutions(), swap, ell_x)
    pair = SetPair(x0=x0, x1=x1, choice=b)
    return pair, IhTranscript(t=t, rounds=tuple(ih.rounds), swap=swap)


# -- extractor-padded transfer --


def _mask(seed: int, data: bytes, positions: np.ndarray, sample: StoredSample) -> bytes:
    """``data`` XOR 8*len(data) random-parity extractor outputs of the tape
    bits at ``positions``, the parity rows drawn from ``seed``; masking
    twice gives ``data`` back."""
    at, hit = _lookup(sample.indices, positions)
    if not hit.all():
        raise OtError(f"position {positions[np.argmin(hit)]} was not stored")
    r = int.from_bytes(np.packbits(sample.bits[at], bitorder="little").tobytes(), "little")
    rows = random.Random(seed)
    pad = 0
    for j in range(8 * len(data)):
        pad |= ((rows.getrandbits(len(positions)) & r).bit_count() & 1) << j
    return (int.from_bytes(data, "little") ^ pad).to_bytes(len(data), "little")


def encode_pair(
    m0: bytes,
    m1: bytes,
    x0: np.ndarray,
    x1: np.ndarray,
    sample_a: StoredSample,
    seeds: tuple[int, int],
) -> tuple[tuple[int, bytes], tuple[int, bytes]]:
    """Sender side: ((seed0, ct0), (seed1, ct1)), each message one-time-padded
    with an extractor output of the tape bits at its set; the two 64-bit
    extractor seeds are public.  The sender sees only the two sets, never
    which one the receiver knows.
    """
    if len(m0) != len(m1):
        raise OtError("messages in one OT session must have equal length")
    return (
        (seeds[0], _mask(seeds[0], m0, x0, sample_a)),
        (seeds[1], _mask(seeds[1], m1, x1, sample_a)),
    )


def decode_pair(
    seed: int, ciphertext: bytes, positions: np.ndarray, sample_b: StoredSample
) -> bytes:
    """Receiver side: unmask one (seed, ciphertext) pair of
    :func:`encode_pair` with the pad over its fully known set."""
    return _mask(seed, ciphertext, positions, sample_b)


def _pad_send(lanes):
    """Sender step: the :func:`encode_pair` of each lane (sample, (X0, X1),
    seeds, (m0, m1)) in one ENCODED_PAIR frame."""
    w = Writer()
    for sample, (x0, x1), seeds, (m0, m1) in lanes:
        for seed, ciphertext in encode_pair(bytes(m0), bytes(m1), x0, x1, sample, seeds):
            w.u64(seed).blob(ciphertext)
    yield Tag.ENCODED_PAIR, w.bytes()


def _pad_receive(lanes, bits):
    """Receiver step: message bits[j] of each lane (his set, his sample), as
    one (L, w) array; ciphertexts that differ in length are refused."""
    pairs = expect((yield), None, Tag.ENCODED_PAIR)[1]
    if len(pairs) != len(lanes):
        raise DecodeError(f"expected {len(lanes)} encoded pairs, got {len(pairs)}")
    if len({len(ct) for pair in pairs for _, ct in pair}) > 1:
        raise DecodeError("the lanes' ciphertexts differ in length")
    picks = [decode_pair(*pair[b], positions, sample)
             for (positions, sample), pair, b in zip(lanes, pairs, bits)]
    return np.frombuffer(b"".join(picks), dtype=np.uint8).reshape(len(lanes), -1)


def bs_transfer(
    m0: bytes,
    m1: bytes,
    pair: SetPair,
    sample_a: StoredSample,
    sample_b: StoredSample,
    rng: random.Random,
) -> bytes:
    """The pad steps, pumped; the message the receiver decodes."""
    seeds = (rng.getrandbits(64), rng.getrandbits(64))
    sender = _pad_send([(sample_a, (pair.x0, pair.x1), seeds, (m0, m1))])
    receiver = _pad_receive([(pair.chosen(), sample_b)], [pair.choice])
    return pump(sender, receiver)[1][0].tobytes()


# -- the lanes of a batch, one transfer per lane --


def bs_send(params: BsOtParams, batches, rng: random.Random):
    """Sender step of bounded-storage transfers, one lane per transfer:
    ``batches`` yields (2, L_k, w) uint8 arrays, and their transfers in
    order are the lanes.  Each lane's broadcasts come first, lane after
    lane; she pulls batch k right before its first lane's broadcast, and
    right after a lane's accepted broadcast she draws its t-1 constraints
    and its two extractor seeds, so each lane draws what the same transfer
    run alone would.  Then one IH run serves every lane, and one
    ENCODED_PAIR frame closes the batch."""
    t = hashing_bits(params.n, params.subset_size, params.k)
    lanes = []
    for pairs in batches:
        for m0, m1 in zip(*pairs):
            for _ in range(MAX_BROADCASTS):
                sample = yield from _tape_send(params, TapeSampler(params, rng), rng)
                if (yield from _reveal_send(sample)):
                    break
            else:
                raise OtError(f"receiver declined {MAX_BROADCASTS} broadcasts in a row")
            ih = IhSender(t, rng)
            lanes.append((sample, ih, (rng.getrandbits(64), rng.getrandbits(64)), (m0, m1)))
    swaps = yield from _ih_send(t, [ih for _, ih, _, _ in lanes])
    yield from _pad_send(
        (sample, ih_sets(sample.indices, *ih.solutions(), swap, params.subset_size), seeds, ms)
        for (sample, ih, seeds, ms), swap in zip(lanes, swaps)
    )


def bs_receive(params: BsOtParams, bits, rng: random.Random):
    """Receiver step of one batch of bounded-storage transfers: pick
    bits[j] of lane j, as one (L, w) array.  Each lane stores broadcasts
    until one yields an encodable shared subset, and keeps only its shared
    positions; then one IH run and one ENCODED_PAIR frame serve every
    lane."""
    t = hashing_bits(params.n, params.subset_size, params.k)
    pick = functools.partial(pick_encoding, t=t, rng=rng)
    lanes = []
    for _ in bits:
        for _ in range(MAX_BROADCASTS):
            sample = yield from _tape_receive(params, TapeSampler(params, rng))
            lane = yield from _accept_receive(params, sample, pick)
            if lane is not None:
                break
        else:
            raise OtError(f"no usable broadcast in {MAX_BROADCASTS} attempts")
        lanes.append(lane)
    yield from _ih_receive(t, [w for _, _, w in lanes], bits)
    # X_b is his own subset: the swap put the solution equal to w there
    own = [(omega_a[colex_unrank(w, params.subset_size, len(omega_a))], sample)
           for omega_a, sample, w in lanes]
    return (yield from _pad_receive(own, bits))


# ---------------------------------------------------------------------------
# 1-of-c from 1-of-2
# ---------------------------------------------------------------------------


def build_reduction_table(field: Field, secrets, rng: random.Random, masks=None) -> np.ndarray:
    """Mask c secrets (a c x width array, or c equal-length vectors) into
    a 2 x (c-1) x width table T, T[row, column].

    Column 0 holds (a0, r0); middle column j holds (a_j + r_{j-1},
    r_{j-1} + r_j); the last column holds (a_{c-2} + r_{c-3},
    a_{c-1} + r_{c-3}).  With c = 2 the single column is (a0, a1) and no
    masks are drawn.  The c-2 uniform masks come from one
    :meth:`vsample` draw; ``masks`` overrides them (tests).
    """
    secrets = np.asarray(secrets)
    c = len(secrets)
    if c < 2:
        raise OtError(f"need at least two secrets, got {c}")
    table = np.empty((2, c - 1, *secrets.shape[1:]), dtype=secrets.dtype)
    if c == 2:
        table[:, 0] = secrets
        return table
    if masks is None:
        masks = field.vsample(rng, secrets[1:-1].size).reshape(secrets[1:-1].shape)
    elif len(masks) != c - 2:
        raise OtError(f"need exactly {c - 2} masks, got {len(masks)}")
    masks = np.asarray(masks)
    table[0, 0] = secrets[0]
    table[0, 1:] = field.vadd(secrets[1:-1], masks)
    table[1, 0] = masks[0]
    table[1, 1:-1] = field.vadd(masks[:-1], masks[1:])
    table[1, -1] = field.vadd(secrets[-1], masks[-1])
    return table


def row_picks(i: int, c: int) -> np.ndarray:
    """Row choice per column (0 = first row, 1 = second) to learn secret i,
    as an array of c-1 bits.

    Second row below column i, first row at column i; columns past i do
    not affect the outcome and are fixed to the second row so receiver
    behavior is deterministic.  i = c-1 picks the second row everywhere.
    """
    if not 0 <= i < c:
        raise OtError(f"target index {i} out of range for c={c}")
    return (np.arange(c - 1) != i).astype(np.intp)


def decode_c_of_1(field: Field, received, i: int, c: int) -> np.ndarray:
    """Telescope the masks out of the rows :func:`row_picks` chose (a
    (c-1) x width array of canonical elements) and return secret i.

    With t = min(i, c-2), rows 0..t-1 carry r0, r0+r1, ..., r_{t-2}+r_{t-1}
    and row t carries the secret plus r_{t-1} (the bare secret when t = 0),
    so secret i is the alternating sum of rows t, t-1, ..., 0: one product
    of a +-1 sign row with those rows."""
    t = min(i, c - 2)
    signs = np.where(np.arange(t, -1, -1) % 2, field.neg(1), 1).astype(field.dtype)
    return field.matmul(signs, np.asarray(received)[: t + 1])[0]


def ot_c_of_1_send(field: Field, secrets, rng) -> np.ndarray:
    """Sender half: the reduction table, encoded at once, as the (2, c-1, w)
    batch of c-1 1-of-2 transfers, a transfer per column."""
    table = build_reduction_table(field, secrets, rng)
    data = np.frombuffer(encode_elements(field, table), dtype=np.uint8)
    return data.reshape(2, table.shape[1], -1)


def ot_c_of_1_receive(field: Field, picks, i: int, c: int, width: int) -> np.ndarray:
    """Receiver half: the (c-1, w) picks of the :func:`row_picks` of i, each
    ``width`` elements long, decoded at once; then secret i."""
    size = width * elem_size(field)
    if picks.shape != (c - 1, size):
        raise DecodeError(f"1-of-2 picks of shape {picks.shape}, not ({c - 1}, {size}) bytes")
    received = decode_elements(field, picks.reshape(-1)).reshape(c - 1, width)
    return decode_c_of_1(field, received, i, c)


def ot_c_of_1(field: Field, secrets, i: int, box, rng: random.Random) -> np.ndarray:
    """1-of-c transfer run locally: both halves in turn over an ideal box."""
    c = len(secrets)
    box.send([ot_c_of_1_send(field, secrets, rng)])
    return ot_c_of_1_receive(field, box.receive(row_picks(i, c)), i, c, len(secrets[0]))
