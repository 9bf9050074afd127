"""Binary framing, canonical serialization, transports, persistence.

Frame layout: 4-byte big-endian payload length, 1 tag byte, payload.
Unknown tags abort the session.  Configuration travels as versioned JSON
(human-edited); role state persists as versioned binary (machine-only).
Field elements follow the field module's widths: 8-byte little-endian for
prime fields, 1 byte for table fields; matrices are row-major with
explicit dimensions.

Decoding raises :class:`DecodeError` and nothing else, for a malformed
frame or a non-canonical element; writers take canonical values unchecked.
"""

from __future__ import annotations

import enum
import hashlib
import json
import queue
import socket
import struct

import numpy as np

from .field import (
    DecodeError,
    Field,
    FieldError,
    PrimeField,
    TableField,
    decode_elements,
    elem_size,
    encode_elements,
)
from .protocol import (
    ConfigError,
    ProtocolConfig,
    ProverKey,
    VerificationKey,
    VerifierKey,
    make_config,
)

__all__ = [
    "FORMAT_VERSION",
    "Tag",
    "DecodeError",
    "TransportError",
    "encode_frame",
    "FrameReader",
    "DuplexChannel",
    "duplex_pair",
    "SocketChannel",
    "TranscriptRecorder",
    "config_to_json",
    "config_from_json",
    "config_digest",
    "set_digest",
    "save_verifier_state",
    "load_verifier_state",
    "save_prover_state",
    "load_prover_state",
]

FORMAT_VERSION = 1
MAX_FRAME_PAYLOAD = 1 << 24


class Tag(enum.IntEnum):
    NEGOTIATE = 1
    SET_AGREE = 2
    S2PC_BEGIN = 3
    TAPE_CHUNK = 4
    OMEGA_REVEAL = 5
    IH_ROUND = 6
    ENCODED_PAIR = 7
    COMMIT_DONE = 8
    EVAL_REQ = 9
    EVAL_RESP = 10
    VERDICT = 11
    ABORT = 12


class TransportError(OSError):
    """The byte channel failed mid-session."""


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
# Payload readers/writers
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

    def done(self):
        if self._pos != len(self._buf):
            raise DecodeError(f"{len(self._buf) - self._pos} trailing bytes")


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class DuplexChannel:
    """One endpoint of an in-process duplex pair."""

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
        (tag, payload), end = read_frame_from(raw, 0)
        if end != len(raw):
            raise DecodeError("trailing bytes after frame")
        return tag, payload

    def close(self) -> None:
        pass


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


# ---------------------------------------------------------------------------
# Config JSON
# ---------------------------------------------------------------------------


def _field_to_json(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"kind": "prime", "modulus": field.p}
    if isinstance(field, TableField):
        return {
            "kind": "table",
            "order": field.q,
            "add": field.add_table.tolist(),
            "mul": field.mul_table.tolist(),
        }
    raise ConfigError(f"unknown field backend {field!r}")


def _field_from_json(obj: dict) -> Field:
    kind = obj.get("kind")
    if kind == "prime":
        return PrimeField(int(obj["modulus"]))
    if kind == "table":
        return TableField(obj["add"], obj["mul"])
    raise ConfigError(f"unknown field kind {kind!r}")


def config_to_json(cfg: ProtocolConfig, seed: int | None = None) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "field": _field_to_json(cfg.field),
        "d": cfg.d,
        "r": cfg.r,
        "c": cfg.c,
        "xi": cfg.xi,
    }
    if cfg.query_budget is not None:
        doc["query_budget"] = cfg.query_budget
    if seed is not None:
        doc["seed"] = seed
    return json.dumps(doc, indent=2, sort_keys=True)


def config_from_json(text: str) -> tuple[ProtocolConfig, int | None]:
    """Parse and fully re-validate; returns (config, seed-or-None)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported config version {doc.get('version')!r}")
    try:
        field = _field_from_json(doc["field"])
        cfg = make_config(
            field,
            d=int(doc["d"]),
            r=int(doc["r"]),
            c=int(doc["c"]),
            xi=int(doc["xi"]),
            query_budget=(
                int(doc["query_budget"]) if "query_budget" in doc else None
            ),
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing {exc}") from exc
    except FieldError as exc:
        raise ConfigError(str(exc)) from exc
    seed = int(doc["seed"]) if "seed" in doc else None
    return cfg, seed


def config_digest(cfg: ProtocolConfig) -> bytes:
    return hashlib.sha256(config_to_json(cfg).encode()).digest()


def set_digest(cfg: ProtocolConfig) -> bytes:
    return hashlib.sha256(encode_elements(cfg.field, cfg.prohibited)).digest()


# ---------------------------------------------------------------------------
# Persisted role state
# ---------------------------------------------------------------------------

_VERIFIER_MAGIC = b"PCV1"
_PROVER_MAGIC = b"PCP1"


def _write_state(path, magic: bytes, cfg: ProtocolConfig, body: Writer) -> None:
    w = Writer()
    w.u8(FORMAT_VERSION)
    w.blob(config_to_json(cfg).encode())
    payload = magic + w.bytes() + body.bytes()
    with open(path, "wb") as fh:
        fh.write(payload)


def _read_state(path, magic: bytes) -> tuple[ProtocolConfig, Reader]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != magic:
        raise DecodeError(f"not a {magic.decode()} state file")
    r = Reader(raw[4:])
    version = r.u8()
    if version != FORMAT_VERSION:
        raise DecodeError(f"unsupported state version {version}")
    cfg, _ = config_from_json(r.blob().decode())
    return cfg, r


def save_verifier_state(
    path, cfg: ProtocolConfig, key: VerifierKey, vk: VerificationKey, rounds: int
) -> None:
    f = cfg.field
    body = Writer()
    body.vector(f, list(key.lambdas)).vector(f, list(key.thetas))
    body.matrix(f, vk.gamma).matrix(f, vk.omega)
    body.u32(rounds)
    _write_state(path, _VERIFIER_MAGIC, cfg, body)


def load_verifier_state(path) -> tuple[ProtocolConfig, VerifierKey, VerificationKey, int]:
    cfg, r = _read_state(path, _VERIFIER_MAGIC)
    f = cfg.field
    lambdas = tuple(int(v) for v in r.vector(f))
    thetas = tuple(int(v) for v in r.vector(f))
    gamma = r.matrix(f)
    omega = r.matrix(f)
    rounds = r.u32()
    r.done()
    return cfg, VerifierKey(lambdas, thetas), VerificationKey(gamma, omega), rounds


def save_prover_state(
    path, cfg: ProtocolConfig, coeffs, prover_key: ProverKey, rounds: int
) -> None:
    f = cfg.field
    body = Writer()
    body.vector(f, coeffs).matrix(f, prover_key.mask)
    body.u32(rounds)
    _write_state(path, _PROVER_MAGIC, cfg, body)


def load_prover_state(path) -> tuple[ProtocolConfig, np.ndarray, ProverKey, int]:
    cfg, r = _read_state(path, _PROVER_MAGIC)
    f = cfg.field
    coeffs = r.vector(f)
    mask = r.matrix(f)
    rounds = r.u32()
    r.done()
    return cfg, coeffs, ProverKey(mask), rounds
