"""Binary framing, canonical serialization, transports.

The bottom layer of the package: it imports only the field module, and the
OT lanes, the protocol's config and state files and the session roles all
build on it.  Frame layout: 4-byte big-endian payload length, 1 tag byte,
payload.  Unknown tags, 3 included, abort the session.
Field elements follow the field module's widths: little-endian, in the
least of 1, 2, 4 and 8 bytes that holds q - 1 (1 byte at GF(11) and
GF(4), 4 at q = 1,002,017); matrices are row-major with explicit
dimensions.

Decoding raises :class:`DecodeError` and nothing else, for a malformed
frame or a non-canonical element; writers take canonical values unchecked.
:func:`parse` has one parser per tag and IH_ROUND subtype; each range-checks
its status, bit and size fields and reads the payload to its last byte.  The
roles receive every frame through :func:`expect`, which parses it, and check
what needs their context.  A sans-IO step yields ``(tag, payload)`` to send
a frame and takes the next one from a bare ``yield``; :func:`drive` runs it
over a channel, and :func:`pump` runs two on one thread.
"""

from __future__ import annotations

import enum
import queue
import socket
import struct

import numpy as np

from .field import DecodeError, Field, decode_elements, elem_size, encode_elements

__all__ = [
    "FORMAT_VERSION",
    "Tag",
    "parse",
    "expect",
    "drive",
    "pump",
    "SessionAbort",
    "DecodeError",
    "TransportError",
    "encode_frame",
    "FrameReader",
    "DuplexChannel",
    "duplex_pair",
    "SocketChannel",
    "TranscriptRecorder",
]

FORMAT_VERSION = 2
MAX_FRAME_PAYLOAD = 1 << 24


class Tag(enum.IntEnum):
    NEGOTIATE = 1
    SET_AGREE = 2
    # 3 is unassigned: the config fixes the commitment's schedule, so no
    # frame opens a run
    TAPE_CHUNK = 4
    OMEGA_REVEAL = 5
    IH_ROUND = 6
    ENCODED_PAIR = 7
    COMMIT_DONE = 8
    EVAL_REQ = 9
    EVAL_RESP = 10
    VERDICT = 11
    ABORT = 12


# A role's exit codes; an ABORT frame carries one of them.
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_PROTOCOL = 4
EXIT_REJECT = 5
EXIT_CODES = (EXIT_OK, EXIT_CONFIG, EXIT_TRANSPORT, EXIT_PROTOCOL, EXIT_REJECT)

# IH_ROUND subtypes, the first byte of its payload
IH_STATUS = 0  # one bit: 1 asks for a fresh broadcast, 0 accepts it
IH_CONSTRAINT = 1  # blob: one constraint per lane
IH_REPLY = 2  # blob: one bit per lane
IH_SWAP = 3  # blob: one bit per lane


class TransportError(OSError):
    """The byte channel failed mid-session."""


class SessionAbort(Exception):
    """A role ends with exit ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def encode_frame(tag: int, payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise DecodeError(f"payload of {len(payload)} bytes exceeds the frame cap")
    return struct.pack(">IB", len(payload), int(tag)) + payload


class FrameReader:
    """Incremental frame parser over a bytes-like stream."""

    def __init__(self, data: bytes):
        self._buf = memoryview(data)
        self.offset = 0

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, bytes]:
        if self.offset == len(self._buf):
            raise StopIteration
        frame, self.offset = read_frame_from(self._buf, self.offset)
        return frame


def _parse_header(buf, offset: int = 0) -> tuple[int, Tag]:
    length, tag = struct.unpack_from(">IB", buf, offset)
    if length > MAX_FRAME_PAYLOAD:
        raise DecodeError(f"frame length {length} exceeds the cap")
    try:
        return length, Tag(tag)
    except ValueError as exc:
        raise DecodeError(f"unknown frame tag {tag}") from exc


def read_frame_from(buf, offset: int) -> tuple[tuple[int, bytes], int]:
    if len(buf) - offset < 5:
        raise DecodeError("truncated frame header")
    length, tag = _parse_header(buf, offset)
    end = offset + 5 + length
    if end > len(buf):
        raise DecodeError("frame payload truncated")
    return (tag, bytes(buf[offset + 5 : end])), end


# ---------------------------------------------------------------------------
# Payload readers/writers, and one parser per tag
# ---------------------------------------------------------------------------


class Writer:
    def __init__(self):
        self._parts: list[bytes] = []

    def u8(self, v: int):
        self._parts.append(struct.pack(">B", v))
        return self

    def u32(self, v: int):
        self._parts.append(struct.pack(">I", v))
        return self

    def u64(self, v: int):
        self._parts.append(struct.pack(">Q", v))
        return self

    def u32s(self, values) -> "Writer":
        """Count-prefixed u32 array; every value must lie in [0, 2^32),
        since the cast to ``>u4`` would wrap any other silently."""
        a = np.asarray(values)
        if a.size and not 0 <= a.min() <= a.max() <= 0xFFFFFFFF:
            raise ValueError("u32s values must lie in [0, 2^32)")
        self.u32(len(a))
        self._parts.append(a.astype(">u4").tobytes())
        return self

    def blob(self, data: bytes):
        self.u32(len(data))
        self._parts.append(bytes(data))
        return self

    def elem(self, field: Field, v: int):
        self._parts.append(encode_elements(field, [v]))
        return self

    def vector(self, field: Field, vec) -> "Writer":
        """Count-prefixed elements; ``vec`` holds canonical elements."""
        self.u32(np.size(vec))
        self._parts.append(encode_elements(field, vec))
        return self

    def matrix(self, field: Field, mat) -> "Writer":
        m = np.asarray(mat)
        self.u32(m.shape[0]).u32(m.shape[1])
        self._parts.append(encode_elements(field, m.reshape(-1)))
        return self

    def bytes(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    def __init__(self, data: bytes):
        self._buf = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._buf):
            raise DecodeError("payload truncated")
        out = self._buf[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return struct.unpack(">B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def u32s(self) -> np.ndarray:
        """Count-prefixed u32 array, as int64 so that differences of
        entries do not wrap."""
        n = self.u32()
        return np.frombuffer(self._take(4 * n), dtype=">u4").astype(np.int64)

    def blob(self) -> bytes:
        return self._take(self.u32())

    def elem(self, field: Field) -> int:
        data = self._take(elem_size(field))
        return int(decode_elements(field, data)[0])

    def vector(self, field: Field) -> np.ndarray:
        n = self.u32()
        return decode_elements(field, self._take(n * elem_size(field)))

    def matrix(self, field: Field) -> np.ndarray:
        rows, cols = self.u32(), self.u32()
        flat = decode_elements(field, self._take(rows * cols * elem_size(field)))
        return flat.reshape(rows, cols)

    def at_end(self) -> bool:
        return self._pos == len(self._buf)

    def done(self):
        if not self.at_end():
            raise DecodeError(f"{len(self._buf) - self._pos} trailing bytes")


def _bit(r: Reader) -> int:
    v = r.u8()
    if v > 1:
        raise DecodeError(f"expected a bit, got {v}")
    return v


def _bits(r: Reader) -> bytes:
    data = r.blob()
    if data and max(data) > 1:
        raise DecodeError(f"expected bits, got {max(data)}")
    return data


_IH_PARSERS = {IH_STATUS: _bit, IH_CONSTRAINT: Reader.blob, IH_REPLY: _bits, IH_SWAP: _bits}


def _ih_round(r: Reader, field) -> tuple[int, object]:
    subtype = r.u8()
    if subtype not in _IH_PARSERS:
        raise DecodeError(f"unknown IH_ROUND subtype {subtype}")
    return subtype, _IH_PARSERS[subtype](r)


TAPE_CHUNK_BITS = 64 * 1024 * 8  # one 64 KiB payload per broadcast chunk


def _tape_chunk(r: Reader, field) -> tuple[int, np.ndarray]:
    offset, nbits, packed = r.u64(), r.u32(), r.blob()
    if nbits > TAPE_CHUNK_BITS or len(packed) != (nbits + 7) // 8:
        raise DecodeError(f"a TAPE_CHUNK of {nbits} bits in {len(packed)} bytes")
    return offset, np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=nbits)


def _encoded_pairs(r: Reader, field) -> list:
    pairs = []
    while not r.at_end():
        pairs.append(((r.u64(), r.blob()), (r.u64(), r.blob())))
    return pairs


def _abort(r: Reader, field) -> tuple[int, str]:
    code, message = r.u8(), r.blob().decode(errors="replace")
    if code not in EXIT_CODES:
        raise DecodeError(f"ABORT carries unknown exit code {code}")
    return code, message


# tag -> parser(reader, field) of its payload; parse() checks the last byte
_PARSERS = {
    Tag.NEGOTIATE: lambda r, f: r.blob(),  # config digest
    Tag.SET_AGREE: lambda r, f: r.blob(),  # reserved-set digest
    Tag.TAPE_CHUNK: _tape_chunk,  # (offset, bits)
    Tag.OMEGA_REVEAL: lambda r, f: r.u32s(),  # the sender's positions
    Tag.IH_ROUND: _ih_round,  # (subtype, value)
    Tag.ENCODED_PAIR: _encoded_pairs,  # [((seed, ct), (seed, ct)), ...]
    Tag.COMMIT_DONE: lambda r, f: None,
    Tag.EVAL_REQ: lambda r, f: r.elem(f),  # x
    Tag.EVAL_RESP: lambda r, f: None if _bit(r) else (r.vector(f), r.vector(f)),  # None or (v, u)
    Tag.VERDICT: lambda r, f: r.elem(f) if _bit(r) else None,  # recovered value or reject
    Tag.ABORT: _abort,  # (exit code, message)
}


def parse(tag: int, payload: bytes, field: Field | None = None):
    """The value a frame of ``tag`` carries, read from ``payload`` to its
    last byte; the tags that carry elements need their ``field``.  Raises
    :class:`DecodeError` on a malformed payload."""
    r = Reader(payload)
    value = _PARSERS[tag](r, field)
    r.done()
    return value


def expect(frame, field, *tags, subtype=None) -> tuple[int, object]:
    """A received (tag, payload) ``frame``, one of ``tags`` (an IH_ROUND of
    ``subtype``), as (tag, value of :func:`parse`); a peer ABORT ends the role."""
    tag, payload = frame
    if tag not in tags and tag != Tag.ABORT:
        raise SessionAbort(
            EXIT_PROTOCOL, f"out-of-order frame {Tag(tag).name}, wanted "
            f"{'/'.join(Tag(t).name for t in tags)}"
        )
    value = parse(tag, payload, field)
    if tag not in tags:
        code, message = value
        raise SessionAbort(code or EXIT_PROTOCOL, message)
    if subtype is not None:
        got, value = value
        if got != subtype:
            raise SessionAbort(EXIT_PROTOCOL, f"IH_ROUND subtype {got}, wanted {subtype}")
    return tag, value


def drive(chan, step):
    """Run the sans-IO ``step`` over ``chan``, sending what it yields and
    feeding it each frame received; what the step returns."""
    frame = None
    while True:
        try:
            out = step.send(frame)
        except StopIteration as stop:
            return stop.value
        frame = chan.recv() if out is None else chan.send(*out)


def pump(sender, receiver) -> tuple[object, object, list[tuple[int, bytes]]]:
    """Run two sans-IO steps that take turns on one thread, ``sender`` the
    first to send: what each returns, and the frames they traded.  Each
    frame is encoded and read back, and the other step takes it before
    its sender resumes."""
    steps, results, frames = (sender, receiver), {}, []

    def resume(i, frame):
        try:
            return steps[i].send(frame)
        except StopIteration as stop:
            results[i] = stop.value

    wants = [resume(0, None), resume(1, None)]
    while len(results) < 2:
        i = 0 if wants[0] is not None else 1
        if wants[i] is None or wants[1 - i] is not None or 1 - i in results:
            raise RuntimeError("the steps do not take turns")
        frame = read_frame_from(encode_frame(*wants[i]), 0)[0]
        frames.append(frame)
        wants[1 - i] = resume(1 - i, frame)
        wants[i] = resume(i, None)
    return results[0], results[1], frames


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class DuplexChannel:
    """One endpoint of an in-process duplex pair.  Closing it wakes the
    peer: the peer's pending and later ``recv`` calls raise
    :class:`TransportError`, as a socket's peer reads EOF."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue, timeout: float = 30.0):
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout

    def send(self, tag: int, payload: bytes) -> None:
        # encode/decode on every hop so framing is exercised end to end
        self._outbox.put(encode_frame(tag, payload))

    def recv(self) -> tuple[int, bytes]:
        try:
            raw = self._inbox.get(timeout=self._timeout)
        except queue.Empty as exc:
            raise TransportError("peer went silent") from exc
        if raw is None:
            self._inbox.put(None)  # every later recv ends the same way
            raise TransportError("peer closed the channel")
        (tag, payload), end = read_frame_from(raw, 0)
        if end != len(raw):
            raise DecodeError("trailing bytes after frame")
        return tag, payload

    def close(self) -> None:
        self._outbox.put(None)


def duplex_pair(timeout: float = 30.0) -> tuple[DuplexChannel, DuplexChannel]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return (
        DuplexChannel(b_to_a, a_to_b, timeout),
        DuplexChannel(a_to_b, b_to_a, timeout),
    )


class SocketChannel:
    """Length-prefixed frames over a connected socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.settimeout(30.0)
        # a frame must not wait for the ACK of the previous one: the roles
        # trade many small frames, and each would stall a delayed ACK
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, tag: int, payload: bytes) -> None:
        try:
            self._sock.sendall(encode_frame(tag, payload))
        except OSError as exc:
            raise TransportError(str(exc)) from exc

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            try:
                chunk = self._sock.recv(n)
            except OSError as exc:
                raise TransportError(str(exc)) from exc
            if not chunk:
                raise TransportError("connection closed mid-frame")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> tuple[int, bytes]:
        length, tag = _parse_header(self._read_exact(5))
        return tag, self._read_exact(length)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class TranscriptRecorder:
    """Channel wrapper logging every frame, both directions, in order."""

    def __init__(self, inner):
        self._inner = inner
        self.frames: list[tuple[int, bytes]] = []

    def send(self, tag: int, payload: bytes) -> None:
        self.frames.append((int(tag), payload))
        self._inner.send(tag, payload)

    def recv(self) -> tuple[int, bytes]:
        tag, payload = self._inner.recv()
        self.frames.append((int(tag), payload))
        return tag, payload

    def close(self) -> None:
        self._inner.close()

    def dump(self, binary_path, index_path) -> None:
        """Framed binary plus a line-oriented `offset tag length` index."""
        offset = 0
        with open(binary_path, "wb") as fb, open(index_path, "w") as fi:
            for tag, payload in self.frames:
                raw = encode_frame(tag, payload)
                fb.write(raw)
                fi.write(f"{offset} {Tag(tag).name} {len(payload)}\n")
                offset += len(raw)
