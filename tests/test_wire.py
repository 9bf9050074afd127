"""Framing, serialization, configuration JSON, persisted state, and the
package's import layers."""

import ast
import graphlib
from pathlib import Path

import numpy as np
import pytest

import polycommit
from polycommit import PrimeField, gf4, substream
from polycommit.protocol import (
    ConfigError,
    VerificationKey,
    config_digest,
    config_from_json,
    config_to_json,
    keygen_prover,
    keygen_verifier,
    load_prover_state,
    load_verifier_state,
    make_config,
    random_matrix,
    save_prover_state,
    save_verifier_state,
)
from polycommit.wire import (
    TAPE_CHUNK_BITS,
    DecodeError,
    FrameReader,
    Reader,
    Tag,
    Writer,
    encode_frame,
    parse,
    read_frame_from,
)

GF11 = PrimeField(11)


def desk_config():
    return make_config(GF11, d=9, r=2, c=3, xi=6)


# -- frames --


def test_frame_round_trip():
    raw = encode_frame(Tag.EVAL_REQ, b"payload")
    (tag, payload), end = read_frame_from(raw, 0)
    assert tag == Tag.EVAL_REQ and payload == b"payload" and end == len(raw)


def test_frame_reader_iterates_multiple():
    raw = encode_frame(Tag.NEGOTIATE, b"a") + encode_frame(Tag.ABORT, b"bc")
    frames = list(FrameReader(raw))
    assert [t for t, _ in frames] == [Tag.NEGOTIATE, Tag.ABORT]
    assert [p for _, p in frames] == [b"a", b"bc"]


def test_corrupt_length_prefix_is_decode_error_not_crash():
    raw = bytearray(encode_frame(Tag.EVAL_REQ, b"xy"))
    raw[0:4] = (999).to_bytes(4, "big")  # claims far more payload than present
    with pytest.raises(DecodeError):
        read_frame_from(bytes(raw), 0)
    with pytest.raises(DecodeError):
        read_frame_from(raw[:3], 0)  # truncated header


def test_unknown_tag_rejected():
    raw = encode_frame(Tag.EVAL_REQ, b"")
    raw = bytes([raw[0], raw[1], raw[2], raw[3], 200]) + raw[5:]
    with pytest.raises(DecodeError):
        read_frame_from(raw, 0)


def test_payload_writer_reader_round_trip():
    w = Writer().u8(7).u32(1234).u64(2**40).blob(b"blob")
    w.elem(GF11, 7).vector(GF11, [1, 2, 3]).matrix(GF11, [[1, 2], [3, 4]])
    w.u32s([0, 5, 2**32 - 1])
    assert w.bytes().endswith(b"".join(Writer().u32(v).bytes() for v in (3, 0, 5, 2**32 - 1)))
    r = Reader(w.bytes())
    assert r.u8() == 7
    assert r.u32() == 1234
    assert r.u64() == 2**40
    assert r.blob() == b"blob"
    assert r.elem(GF11) == 7
    assert r.vector(GF11).tolist() == [1, 2, 3]
    assert r.matrix(GF11).tolist() == [[1, 2], [3, 4]]
    assert r.u32s().tolist() == [0, 5, 2**32 - 1]
    r.done()


@pytest.mark.parametrize("values", [[2**32], [0, -1], np.array([1, 2**32 + 5])])
def test_u32s_refuses_values_that_would_wrap(values):
    # the >u4 cast would wrap these to other positions without a word
    with pytest.raises(ValueError, match="u32s"):
        Writer().u32s(values)


def test_element_width_example():
    assert Writer().elem(GF11, 7).bytes() == b"\x07"
    assert Writer().elem(gf4(), 3).bytes() == b"\x03"


def test_reader_flags_trailing_and_truncation():
    data = Writer().u32(5).bytes()
    r = Reader(data + b"x")
    r.u32()
    with pytest.raises(DecodeError):
        r.done()
    with pytest.raises(DecodeError):
        Reader(b"\x00").u32()


def chunk(nbits, nbytes):
    return Writer().u64(0).u32(nbits).blob(bytes(nbytes)).bytes()


# payloads that each parser refuses on its own, without a session's context
UNPARSABLE = {
    "ih-unknown-subtype": (Tag.IH_ROUND, Writer().u8(4).blob(b"").bytes()),
    "ih-status-not-a-bit": (Tag.IH_ROUND, Writer().u8(0).u8(2).bytes()),
    "ih-reply-not-a-bit": (Tag.IH_ROUND, Writer().u8(2).blob(b"\x00\x02").bytes()),
    "eval-resp-status": (Tag.EVAL_RESP, b"\x02"),
    "verdict-not-a-bit": (Tag.VERDICT, b"\x02"),
    "abort-unknown-code": (Tag.ABORT, Writer().u8(1).blob(b"").bytes()),
    "chunk-blob-short": (Tag.TAPE_CHUNK, chunk(17, 2)),
    # honest chunks stop at TAPE_CHUNK_BITS; a longer one is refused before
    # its bits are unpacked
    "chunk-beyond-cap": (Tag.TAPE_CHUNK, chunk(TAPE_CHUNK_BITS + 8, TAPE_CHUNK_BITS // 8 + 1)),
    "pair-truncated": (Tag.ENCODED_PAIR, Writer().u64(1).blob(b"ab").u64(2).bytes()),
}


@pytest.mark.parametrize("case", UNPARSABLE)
def test_parse_refuses_malformed_payloads(case):
    tag, payload = UNPARSABLE[case]
    with pytest.raises(DecodeError):
        parse(tag, payload, GF11)


def test_parse_reads_each_value():
    assert parse(Tag.ABORT, Writer().u8(4).blob(b"\xffok").bytes()) == (4, "\ufffdok")
    assert parse(Tag.EVAL_RESP, b"\x01", GF11) is None
    assert parse(Tag.VERDICT, Writer().u8(1).elem(GF11, 7).bytes(), GF11) == 7
    assert parse(Tag.IH_ROUND, Writer().u8(3).blob(b"\x01\x00").bytes()) == (3, b"\x01\x00")
    offset, bits = parse(Tag.TAPE_CHUNK, Writer().u64(8).u32(3).blob(b"\xa0").bytes())
    assert offset == 8 and bits.tolist() == [1, 0, 1]
    pairs = Writer().u64(1).blob(b"a").u64(2).blob(b"b").bytes()
    assert parse(Tag.ENCODED_PAIR, pairs * 2) == [((1, b"a"), (2, b"b"))] * 2


# -- config JSON --


def test_config_json_round_trip():
    cfg = desk_config()
    text = config_to_json(cfg, seed=99)
    back, seed = config_from_json(text)
    assert back == cfg and seed == 99
    assert config_digest(back) == config_digest(cfg)


def test_config_json_table_field_round_trip():
    cfg = make_config(gf4(), d=4, r=2, c=1, xi=1)
    back, _ = config_from_json(config_to_json(cfg))
    assert back == cfg


@pytest.mark.parametrize(
    "mutation",
    [
        {"d": 8},  # not a perfect square
        {"d": 4},  # gcd(2, 10) != 1
        {"xi": 8},  # reserved set does not fit
        {"r": 1},
        {"c": 0},
        {"c": 5},  # c > |S|
        {"version": 3},  # unknown: newer than the wire (exit 2 in the CLI)
        {"field": {"kind": "prime", "modulus": 12}},
        {"field": {"kind": "weird"}},
    ],
)
def test_config_json_rejects_invalid(mutation):
    import json

    doc = json.loads(config_to_json(desk_config()))
    doc.update(mutation)
    with pytest.raises(ConfigError):
        config_from_json(json.dumps(doc))


def test_config_json_rejects_garbage():
    with pytest.raises(ConfigError):
        config_from_json("not json")
    with pytest.raises(ConfigError):
        config_from_json("[1,2,3]")


# -- persisted state --


def test_verifier_state_round_trip(tmp_path):
    cfg = desk_config()
    rng = substream(2024, "wire", "state")
    key = keygen_verifier(cfg, rng)
    vk = VerificationKey(
        gamma=random_matrix(GF11, (cfg.c, cfg.s), rng),
        omega=random_matrix(GF11, (cfg.s, cfg.c), rng),
    )
    path = tmp_path / "verifier.state"
    save_verifier_state(path, cfg, key, vk, rounds=4)
    cfg2, key2, vk2, rounds = load_verifier_state(path)
    assert cfg2 == cfg and key2 == key and rounds == 4
    assert np.array_equal(vk2.gamma, vk.gamma)
    assert np.array_equal(vk2.omega, vk.omega)
    # bit-exact: re-serialization reproduces the file
    path2 = tmp_path / "again.state"
    save_verifier_state(path2, cfg2, key2, vk2, rounds)
    assert path.read_bytes() == path2.read_bytes()


def test_prover_state_round_trip(tmp_path):
    cfg = desk_config()
    rng = substream(2024, "wire", "pstate")
    coeffs = [GF11.sample(rng) for _ in range(cfg.d)]
    pk = keygen_prover(cfg, rng)
    path = tmp_path / "prover.state"
    save_prover_state(path, cfg, coeffs, pk, rounds=1)
    cfg2, coeffs2, pk2, rounds = load_prover_state(path)
    assert cfg2 == cfg and coeffs2.tolist() == coeffs and rounds == 1
    assert np.array_equal(pk2.mask, pk.mask)


def test_state_files_reject_wrong_magic(tmp_path):
    cfg = desk_config()
    rng = substream(2024, "wire", "magic")
    pk = keygen_prover(cfg, rng)
    path = tmp_path / "prover.state"
    save_prover_state(path, cfg, [0] * 9, pk, 0)
    with pytest.raises(DecodeError):
        load_verifier_state(path)
    corrupted = bytearray(path.read_bytes())
    corrupted[-1] ^= 0xFF
    path.write_bytes(bytes(corrupted[:-2]))
    with pytest.raises(DecodeError):
        load_prover_state(path)


def test_state_file_survives_a_crash_mid_write(tmp_path, monkeypatch):
    cfg = desk_config()
    pk = keygen_prover(cfg, substream(2024, "wire", "crash"))
    path = tmp_path / "prover.state"
    save_prover_state(path, cfg, [1] * 9, pk, rounds=3)
    real_open = open

    class HalfWrite:
        """A file whose write stores half the bytes, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("disk full")

    def crashing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWrite(fh) if "w" in mode else fh

    with monkeypatch.context() as m:
        m.setattr("builtins.open", crashing_open)
        with pytest.raises(OSError, match="disk full"):
            save_prover_state(path, cfg, [2] * 9, pk, rounds=4)
    _, coeffs, _, rounds = load_prover_state(path)
    assert rounds == 3 and coeffs.tolist() == [1] * 9


# -- import layers --


def package_imports() -> dict[str, dict[str, set[str]]]:
    """module -> {module it imports from: names}, over the relative imports
    of every module of the package, function-level ones included."""
    graph = {}
    for path in sorted(Path(polycommit.__file__).parent.glob("*.py")):
        deps = graph.setdefault(path.stem, {})
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import s2pc
                    for alias in node.names:
                        deps.setdefault(alias.name, set())
                else:
                    deps.setdefault(node.module, set()).update(a.name for a in node.names)
    return graph


def test_modules_import_in_layers():
    graph = package_imports()
    assert set(graph["wire"]) == {"field"}
    assert set(graph["ot"]) == {"field", "wire"}
    # static_order raises CycleError on a cycle
    list(graphlib.TopologicalSorter({m: set(deps) for m, deps in graph.items()}).static_order())
    private = [
        (module, dep, name)
        for module, deps in graph.items()
        for dep, names in deps.items()
        for name in names
        if name.startswith("_")
    ]
    assert private == []
