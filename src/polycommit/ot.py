"""Oblivious transfer: ideal 1-of-2, bounded-storage 1-of-2, and the
unconditional 1-of-c reduction.

Three layers, each independently testable:

1. :class:`IdealOt` -- the 1-of-2 functionality as a trusted box.  The
   sender deposits a message pair, the receiver takes one; the sender-side
   trace is the deposited pairs and carries no function of the choice bit.
   This is the backend for protocol-level tests and privacy audits.

2. The bounded-storage 1-of-2 protocol, a desk-scale sketch of the
   broadcast-and-sample construction.  The sender broadcasts K random bits
   with K > alpha*N for an expansion factor alpha > 1, where N is the
   public bound on the receiver's storage.  Each party stores the bits at
   n = ceil(sqrt(2*ell*N)) uniformly chosen positions, so the stored sets
   intersect in about ell positions.  The sender reveals her positions;
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
   a floor on the round count.

   The wire roles in the session module are the only end-to-end
   transfer; :func:`bs_phase1`, :func:`bs_setpair` and :func:`bs_transfer`
   drive the same steps one at a time for the acceptance suite.

3. The 1-of-c reduction: the sender masks her c secrets into a 2 x (c-1)
   table so that any single row choice per column reveals exactly one
   secret; c-1 invocations of a 1-of-2 backend transfer the receiver's
   picks and a telescoping sum recovers the target secret.  Its two
   halves take the 1-of-2 steps as callables; :func:`ot_c_of_1` runs them
   back to back over an :class:`IdealOt`.

Messages at the 1-of-2 layer are opaque equal-length byte strings; the
reduction layer works on vectors of field elements and serializes at the
backend boundary.
"""

from __future__ import annotations

import math
import queue
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field import Field, decode_elements, encode_elements

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
    "EncodedPair",
    "bs_phase1",
    "bs_setpair",
    "pick_encoding",
    "ih_sets",
    "encode_pair",
    "decode_pair",
    "bs_transfer",
    "build_reduction_table",
    "row_picks",
    "decode_c_of_1",
    "ot_c_of_1_send",
    "ot_c_of_1_receive",
    "ot_c_of_1",
]

TAPE_CHUNK_BITS = 64 * 1024 * 8  # one 64 KiB payload per broadcast chunk
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
    """Trusted-box 1-of-2 OT.

    ``send_pair``/``receive`` rendezvous through a thread-safe queue, so the
    two roles may live on different threads, or one thread may deposit
    every pair before taking any.  ``sender_trace`` records everything the
    sender ever observes: the deposited pairs, byte-identical regardless of
    any choice bit.
    """

    def __init__(self):
        self.sender_trace: list[tuple[bytes, bytes]] = []
        self._pairs: queue.Queue[tuple[bytes, bytes]] = queue.Queue()

    def send_pair(self, m0: bytes, m1: bytes) -> None:
        if len(m0) != len(m1):
            raise OtError("messages in one OT session must have equal length")
        self.sender_trace.append((bytes(m0), bytes(m1)))
        self._pairs.put((bytes(m0), bytes(m1)))

    def receive(self, b: int, timeout: float | None = 30.0) -> bytes:
        if b not in (0, 1):
            raise OtError("choice must be a bit")
        pair = self._pairs.get(timeout=timeout)
        return pair[b]


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
    """One party's retained view of the broadcast: positions and bits.

    ``peak_stored_bits`` is the instrumented storage meter; it counts tape
    bits retained at any point and must stay within the declared bound.
    """

    params: BsOtParams
    indices: np.ndarray  # sorted positions in [0, K)
    bits: np.ndarray  # uint8 bits at those positions
    peak_stored_bits: int = 0

    def bit_at(self, position: int) -> int:
        i = int(np.searchsorted(self.indices, position))
        if i >= len(self.indices) or self.indices[i] != position:
            raise OtError(f"position {position} was not stored")
        return int(self.bits[i])

    def has(self, positions: np.ndarray) -> np.ndarray:
        return np.isin(positions, self.indices)


class TapeSampler:
    """Captures the bits at a pre-chosen position set from a streamed tape."""

    def __init__(self, params: BsOtParams, rng: random.Random):
        self.params = params
        self.indices = np.array(sorted(rng.sample(range(params.K), params.n)))
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
        return StoredSample(
            self.params, self.indices, self.bits, peak_stored_bits=self.params.n
        )


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


def bs_phase1(
    params: BsOtParams, rng: random.Random
) -> tuple[np.ndarray, StoredSample, StoredSample]:
    """Run the broadcast phase locally for both parties.

    Returns the full tape (the broadcast content, kept only so tests can
    check the parties' bookkeeping against it) plus each party's stored
    sample.  Party state never exceeds its n stored bits.
    """
    sender = TapeSampler(params, rng)
    receiver = TapeSampler(params, rng)
    pieces = []
    for offset, chunk in iter_tape_chunks(params, rng):
        sender.consume(offset, chunk)
        receiver.consume(offset, chunk)
        pieces.append(chunk)
    tape = np.concatenate(pieces)
    return tape, sender.finish(), receiver.finish()


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


def _reduce(h: int, pivots: dict[int, int]) -> int:
    while h:
        p = h.bit_length() - 1
        if p not in pivots:
            return h
        h ^= pivots[p]
    return 0


def _solve_pair(rounds: list[tuple[int, int]], t: int) -> tuple[int, int]:
    """Solutions of t-1 independent parity constraints on t bits."""
    pivots: dict[int, tuple[int, int]] = {}
    for h, c in rounds:
        row, rhs = h, c
        while row:
            p = row.bit_length() - 1
            if p in pivots:
                prow, prhs = pivots[p]
                row ^= prow
                rhs ^= prhs
            else:
                pivots[p] = (row, rhs)
                break
        else:
            if rhs:
                raise OtError("inconsistent interactive-hashing replies")
    if len(pivots) != t - 1:
        raise OtError("constraints are not independent")
    # full reduction so each pivot row involves only its pivot and the free bit
    for p in sorted(pivots, reverse=True):
        row, rhs = pivots[p]
        for p2 in list(pivots):
            if p2 == p:
                continue
            r2, c2 = pivots[p2]
            if (r2 >> p) & 1:
                pivots[p2] = (r2 ^ row, c2 ^ rhs)
    free = next(b for b in range(t) if b not in pivots)
    sols = []
    for fval in (0, 1):
        w = fval << free
        for p, (row, rhs) in pivots.items():
            bit = rhs ^ (fval if (row >> free) & 1 else 0)
            w |= bit << p
        sols.append(w)
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


class IhSender:
    """Sender side of the narrowing rounds: draws constraints independent
    of the received replies, keeping the accepted h-sequence a function of
    her randomness alone."""

    def __init__(self, t: int, rng: random.Random):
        self.t = t
        self.rng = rng
        self.rounds: list[tuple[int, int]] = []
        self._pivots: dict[int, int] = {}
        self._pending: int | None = None

    def need_more(self) -> bool:
        return len(self.rounds) < self.t - 1

    def next_constraint(self) -> int:
        if self._pending is not None:
            raise OtError("previous constraint still awaits its reply")
        while True:
            h = self.rng.getrandbits(self.t)
            residual = _reduce(h, self._pivots)
            if residual:
                self._pivots[residual.bit_length() - 1] = residual
                self._pending = h
                return h

    def push_reply(self, bit: int) -> None:
        if self._pending is None:
            raise OtError("no constraint outstanding")
        self.rounds.append((self._pending, bit & 1))
        self._pending = None

    def solutions(self) -> tuple[int, int]:
        return _solve_pair(self.rounds, self.t)


def ih_narrow(
    t: int, w: int, sender_rng: random.Random
) -> tuple[list[tuple[int, int]], int, int]:
    """t-1 rounds of random independent parity constraints on the t-bit
    encoding w; returns the rounds and the two surviving encodings."""
    sender = IhSender(t, sender_rng)
    while sender.need_more():
        h = sender.next_constraint()
        sender.push_reply((h & w).bit_count() & 1)
    w0, w1 = sender.solutions()
    return sender.rounds, w0, w1


def pick_encoding(
    shared: np.ndarray, size: int, t: int, rng: random.Random
) -> int | None:
    """Receiver's interactive-hashing input: the colex rank of a random
    ``size``-subset of ``shared`` (positions within the sender's index
    list) that fits in t bits; None when 256 draws all miss."""
    for _ in range(256):
        w = colex_rank(sorted(rng.sample(list(shared), size)))
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


def bs_setpair(
    sample_a: StoredSample,
    sample_b: StoredSample,
    b: int,
    k: int,
    sender_rng: random.Random,
    receiver_rng: random.Random,
    subset_choice: Sequence[int] | None = None,
) -> tuple[SetPair, IhTranscript]:
    """Interactive hashing between sender (sample_a) and receiver (sample_b).

    ``subset_choice`` pins the receiver's subset (positions within the
    sender's index list); tests use it to enumerate receiver tapes.
    """
    if b not in (0, 1):
        raise OtError("choice must be a bit")
    params = sample_a.params
    ell_x = params.subset_size
    inter_mask = sample_b.has(sample_a.indices)
    inter_positions = np.nonzero(inter_mask)[0]
    if len(inter_positions) < params.ell:
        raise IntersectionShortfall(
            f"stored sets share {len(inter_positions)} positions, "
            f"need {params.ell}; rerun the broadcast phase"
        )
    n = len(sample_a.indices)
    t = ih_encoding_bits(n, ell_x)
    if t - 1 < k:
        raise OtError(
            f"instance admits only {t - 1} hashing rounds, below the "
            f"security parameter {k}"
        )
    if subset_choice is None:
        w = pick_encoding(inter_positions, ell_x, t, receiver_rng)
        if w is None:
            raise IntersectionShortfall("no encodable subset found; rerun phase 1")
    else:
        chosen = sorted(int(p) for p in subset_choice)
        if len(chosen) != ell_x or not all(p in inter_positions for p in chosen):
            raise OtError("subset_choice must be ell//2 shared positions")
        w = colex_rank(chosen)
        if w >= (1 << t):
            raise OtError("subset_choice is not encodable in t bits")

    rounds, w0, w1 = ih_narrow(t, w, sender_rng)
    swap = (0 if w == w0 else 1) ^ b
    x0, x1 = ih_sets(sample_a.indices, w0, w1, swap, ell_x)
    pair = SetPair(x0=x0, x1=x1, choice=b)
    return pair, IhTranscript(t=t, rounds=tuple(rounds), swap=swap)


# -- extractor-padded transfer --


@dataclass(frozen=True)
class EncodedPair:
    seeds: tuple[int, int]
    ciphertexts: tuple[bytes, bytes]


def _pad(seed: int, r_bits: int, width: int, nbits: int) -> int:
    """nbits random-parity extractor outputs of the width-bit string r_bits."""
    rng = random.Random(seed)
    out = 0
    for j in range(nbits):
        row = rng.getrandbits(width)
        out |= ((row & r_bits).bit_count() & 1) << j
    return out


def _bits_int(sample: StoredSample, positions: np.ndarray) -> int:
    out = 0
    for j, pos in enumerate(positions):
        out |= sample.bit_at(int(pos)) << j
    return out


def _xor_bytes(data: bytes, pad: int) -> bytes:
    n = len(data)
    return (int.from_bytes(data, "little") ^ pad).to_bytes(n, "little")


def encode_pair(
    m0: bytes,
    m1: bytes,
    x0: np.ndarray,
    x1: np.ndarray,
    sample_a: StoredSample,
    rng: random.Random,
) -> EncodedPair:
    """Sender side: one-time-pad each message with an extractor output of
    the tape bits at the corresponding set; extractor seeds are public.
    The sender sees only the two sets, never which one the receiver knows.
    """
    if len(m0) != len(m1):
        raise OtError("messages in one OT session must have equal length")
    seeds, cts = [], []
    for m, positions in ((m0, x0), (m1, x1)):
        seed = rng.getrandbits(64)
        r = _bits_int(sample_a, positions)
        pad = _pad(seed, r, len(positions), 8 * len(m))
        seeds.append(seed)
        cts.append(_xor_bytes(m, pad))
    return EncodedPair(seeds=(seeds[0], seeds[1]), ciphertexts=(cts[0], cts[1]))


def decode_pair(enc: EncodedPair, pair: SetPair, sample_b: StoredSample) -> bytes:
    """Receiver side: rebuild the pad over the fully known set."""
    positions = pair.chosen()
    r = _bits_int(sample_b, positions)
    ct = enc.ciphertexts[pair.choice]
    pad = _pad(enc.seeds[pair.choice], r, len(positions), 8 * len(ct))
    return _xor_bytes(ct, pad)


def bs_transfer(
    m0: bytes,
    m1: bytes,
    pair: SetPair,
    sample_a: StoredSample,
    sample_b: StoredSample,
    rng: random.Random,
) -> bytes:
    enc = encode_pair(m0, m1, pair.x0, pair.x1, sample_a, rng)
    return decode_pair(enc, pair, sample_b)


# ---------------------------------------------------------------------------
# 1-of-c from 1-of-2
# ---------------------------------------------------------------------------


def build_reduction_table(
    field: Field,
    secrets: Sequence[np.ndarray],
    rng: random.Random,
    masks: Sequence[np.ndarray] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mask c secrets into c-1 two-row columns.

    Column 0 holds (a0, r0); middle column j holds (a_j + r_{j-1},
    r_{j-1} + r_j); the last column holds (a_{c-2} + r_{c-3},
    a_{c-1} + r_{c-3}).  With c = 2 the single column is (a0, a1) and no
    masks are drawn.  ``masks`` overrides the c-2 uniform masks (tests).
    """
    c = len(secrets)
    if c < 2:
        raise OtError(f"need at least two secrets, got {c}")
    length = secrets[0].shape
    if c == 2:
        return [(secrets[0], secrets[1])]
    if masks is None:
        masks = [
            field.asarray([field.sample(rng) for _ in range(secrets[0].size)]).reshape(
                length
            )
            for _ in range(c - 2)
        ]
    elif len(masks) != c - 2:
        raise OtError(f"need exactly {c - 2} masks, got {len(masks)}")
    table = [(secrets[0], masks[0])]
    for j in range(1, c - 2):
        table.append(
            (field.vadd(secrets[j], masks[j - 1]), field.vadd(masks[j - 1], masks[j]))
        )
    table.append(
        (field.vadd(secrets[c - 2], masks[c - 3]), field.vadd(secrets[c - 1], masks[c - 3]))
    )
    return table


def row_picks(i: int, c: int) -> tuple[int, ...]:
    """Row choice per column (0 = first row, 1 = second) to learn secret i.

    Second row below column i, first row at column i; columns past i do
    not affect the outcome and are fixed to the second row so receiver
    behavior is deterministic.  i = c-1 picks the second row everywhere.
    """
    if not 0 <= i < c:
        raise OtError(f"target index {i} out of range for c={c}")
    if c == 2:
        return (i,)
    return tuple(0 if j == i else 1 for j in range(c - 1))


def decode_c_of_1(
    field: Field, received: Sequence[np.ndarray], i: int, c: int
) -> np.ndarray:
    """Telescope the masks out of the rows :func:`row_picks` chose (c-1
    equal-length canonical vectors) and return secret i."""
    if i == 0 or c == 2:
        # the single pick already is the secret: first row of column 0, or
        # either row of the mask-free two-secret column
        return received[0]
    # columns 0..i-1 carry r0, r0+r1, ...; recover r_{i-1} (or r_{c-3} when
    # i = c-1) by alternating subtraction, then peel it off the target pick.
    last = i - 1 if i <= c - 2 else c - 3
    r = received[0]
    for j in range(1, last + 1):
        r = field.vsub(received[j], r)
    target = received[i] if i <= c - 2 else received[c - 2]
    return field.vsub(target, r)


def ot_c_of_1_send(field: Field, secrets: Sequence[np.ndarray], send, rng) -> None:
    """Sender half: the reduction table, one ``send(m0, m1)`` per column."""
    for top, bottom in build_reduction_table(field, secrets, rng):
        send(encode_elements(field, top), encode_elements(field, bottom))


def ot_c_of_1_receive(field: Field, i: int, c: int, receive, width=None) -> np.ndarray:
    """Receiver half: one ``receive(bit)`` per column (``width`` elements
    each, when given), then secret i."""
    received = [decode_elements(field, receive(b), width) for b in row_picks(i, c)]
    return decode_c_of_1(field, received, i, c)


def ot_c_of_1(
    field: Field,
    secrets: Sequence[np.ndarray],
    i: int,
    box,
    rng: random.Random,
) -> np.ndarray:
    """1-of-c transfer run locally: both halves in turn over an ideal box."""
    ot_c_of_1_send(field, secrets, box.send_pair, rng)
    return ot_c_of_1_receive(field, i, len(secrets), box.receive)
