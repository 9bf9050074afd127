"""Tests of the span recorder and the traced run.

Run: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from polycommit import field, session, wire  # noqa: E402
from tracer import SpanRecorder, install, uninstall  # noqa: E402
from workloads import DirectedRecorder, wire_counts  # noqa: E402


def test_wraps_every_binding_and_undoes():
    original = field.encode_elements
    rec = SpanRecorder()
    undo = install(rec)
    try:
        assert session.encode_elements is field.encode_elements is wire.encode_elements
        assert field.encode_elements.__wrapped__ is original
    finally:
        uninstall(undo)
    assert session.encode_elements is original and field.encode_elements is original


def test_self_time_excludes_children_and_links_parents():
    gf = field.PrimeField(11)
    rec = SpanRecorder(keep_spans=True)
    undo = install(rec)
    try:
        rec.op = 7
        with rec.role("prover"):
            field.decode_elements(gf, bytes(8) * 3)  # calls PrimeField.asarray
    finally:
        uninstall(undo)
    totals = rec.totals([7])
    calls, self_s, total_s = totals[("prover", "field.decode_elements")]
    child = totals[("prover", "field.asarray")]
    assert calls == 1 and child[0] == 1
    assert abs(total_s - (self_s + child[2])) < 1e-9
    (outer,) = [s for s in rec.spans if s[2] == "field.decode_elements"]
    (inner,) = [s for s in rec.spans if s[2] == "field.asarray"]
    assert inner[1] == outer[0] and outer[1] == 0
    assert inner[5] == outer[5] == 7 and inner[6] == "prover"
    assert not rec.totals([8])


def test_wire_counts_from_a_directed_transcript():
    a, b = wire.duplex_pair()
    rec = DirectedRecorder(a)
    b.send(wire.Tag.EVAL_REQ, b"x")
    rec.recv()
    rec.send(wire.Tag.EVAL_RESP, b"yy")
    rec.send(wire.Tag.VERDICT, b"")
    counts = wire_counts(rec)
    assert counts.frames == {"EVAL_REQ": 1, "EVAL_RESP": 1, "VERDICT": 1}
    assert counts.bytes == {"EVAL_REQ": 6, "EVAL_RESP": 7, "VERDICT": 5}
    assert counts.round_trips == 1


def test_traced_run_reports_every_layer_metric_and_writes_spans(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    argv = ["--workload", "eval-d1m", "--seconds", "0", "--trace", "1", "--spans", str(spans)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.per_layer_units())
    assert result["metrics"]["protocol.evaluate.self_s"]["value"] > 0
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {r[2] for r in records} >= {"protocol.evaluate", "field.asarray", "wire.recv"}
    assert {r[6] for r in records} == {"prover", "verifier"}
