"""Benchmark entry point.

    python3 perfbench/run.py --workload eval-d1m --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all                # every workload, in turn

Run from the repository root; the package is imported from ``src/``.  One
run sets the workload up and checks the set-up, then runs ops back to back
(a closed loop with one client) until ``--seconds`` have passed, checking
every op's output outside its timed region, and finally re-runs the first
input to check that the same seed gives the same wire counts and output.
Set-up runs at least three times before the first op and again between
ops; ``setup_s`` is the median of all these set-ups.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` every per-layer metric.  In a
traced run each input runs twice, first untraced and then traced; the
per-layer numbers are per traced op, and the tracing overhead is the
traced median op latency minus the untraced one.  The lines before the
result print every metric by name and unit, plus the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPS = 3
# Set-up reps continue between ops until they take this share of the run,
# so they sample the machine over the whole run as the ops do.
SETUP_SHARE = 0.05
SETUP_MAX_REPS = 20000

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "verifier_cpu_ms_per_op": "ms",
    "wire_bytes_per_op": "bytes",
    "round_trips_per_op": "count",
    "setup_peak_rss_mb": "MB",
}

TAGS = (
    "NEGOTIATE", "SET_AGREE", "S2PC_BEGIN", "TAPE_CHUNK", "OMEGA_REVEAL", "IH_ROUND",
    "ENCODED_PAIR", "COMMIT_DONE", "EVAL_REQ", "EVAL_RESP", "VERDICT", "ABORT",
)
CALLS_AND_SELF = (
    "field.asarray", "field.matmul", "field.encode_elements", "field.decode_elements",
    "polymat.power_row",
)
SELF_ONLY = (
    "s2pc.build_value_table", "ot.build_reduction_table", "ot.decode_c_of_1",
    "protocol.evaluate", "protocol.verify", "protocol.recover",
    "ot.broadcast", "ot.ih", "ot.pad",
    "session.backend_send", "session.backend_receive",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s/op"
    units.update({"ot.broadcasts": "count/op", "ot.transfers": "count/op", "ot.transfer_yield": "ratio"})
    for tag in TAGS:
        units[f"wire.frames.{tag}"] = "frames/op"
        units[f"wire.bytes.{tag}"] = "bytes/op"
    units.update({
        "wire.recv_wait_s.prover": "s/op",
        "wire.recv_wait_s.verifier": "s/op",
        "wire.send_s": "s/op",
        "trace.overhead_ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop.  The machine's own speed
    drifts between runs; this tells a slow machine from a slow program."""

    def loop():
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        return time.perf_counter() - t0

    return 1e3 * statistics.median(loop() for _ in range(5))


def environment(args, wl) -> dict:
    import numpy

    return {
        "machine_probe_ms": machine_probe_ms(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params(),
    }


def p90_with_tail(values):
    """90th percentile, or None unless at least ten samples lie beyond it."""
    if len(values) < 2:
        return None
    p90 = statistics.quantiles(values, n=10)[-1]
    return p90 if sum(v > p90 for v in values) >= 10 else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def mean_counts(results, pick):
    vals = [pick(r.wire) for r in results]
    return sum(vals) / len(vals) if vals else 0.0


def run_workload(args) -> int:
    from tracer import SpanRecorder, install, uninstall
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    rec = SpanRecorder(keep_spans=args.spans is not None) if args.trace else None
    if rec is not None:
        wl.role = rec.role
    problems = []

    setup_times = []
    setup_total = 0.0

    def set_up(budget_s):
        nonlocal setup_total
        while len(setup_times) < SETUP_MIN_REPS or (
            setup_total < budget_s and len(setup_times) < SETUP_MAX_REPS
        ):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_total += setup_times[-1]

    set_up(0.0)
    setup_rss_mb = peak_rss_mb()
    try:
        wl.self_check()
    except AssertionError as exc:
        problems.append(f"self-check: {exc}")

    ops = []  # (input index, traced, OpResult or None)
    min_ops = 2 if rec is not None else 1
    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    while k < min_ops or time.perf_counter() < deadline:
        traced = rec is not None and k % 2 == 1
        j = k // 2 if rec is not None else k
        undo = None
        if traced:
            rec.op = k
            undo = install(rec)
        try:
            res = wl.op(j)
        except Exception:
            traceback.print_exc()
            res = None
        finally:
            if undo is not None:
                uninstall(undo)
        ops.append((k, traced, res))
        k += 1
        set_up(SETUP_SHARE * (time.perf_counter() - start))

    try:
        again = wl.op(0)
    except Exception:
        traceback.print_exc()
        again = None
    first = ops[0][2]
    if first is None or again is None:
        problems.append("determinism: the first input failed")
    elif again.wire != first.wire or again.output != first.output:
        problems.append("determinism: the same input gave different wire counts or output")

    attempted = len(ops)
    failed = sum(res is None or not res.ok for _, _, res in ops)
    done = [(k, traced, res) for k, traced, res in ops if res is not None]
    if not ({False, True} if rec is not None else {False}) <= {traced for _, traced, _ in done}:
        print("error: no op completed, so there is nothing to measure", file=sys.stderr)
        return 1
    env = environment(args, wl)
    print(f"# {args.workload}: {attempted} ops, {failed} failed, set-up x{len(setup_times)}")
    print("env " + json.dumps(env, sort_keys=True))
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)

    if rec is None:
        lat = [res.seconds for _, _, res in done]
        cycle = [res for k, _, res in done if k < wl.cycle]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "ops_per_s": len(lat) / sum(lat),
            "verifier_cpu_ms_per_op": 1e3 * sum(res.verifier_cpu_s for _, _, res in done) / len(done),
            "wire_bytes_per_op": mean_counts(cycle, lambda w: w.total_bytes),
            "round_trips_per_op": mean_counts(cycle, lambda w: w.round_trips),
            "setup_peak_rss_mb": setup_rss_mb,
        }
        units = END_TO_END_UNITS
        p90 = p90_with_tail(lat)
        extra = [
            ("op_p90_ms", f"{1e3 * p90:.4f} ms" if p90 else f"n/a (fewer than 10 of {len(lat)} samples beyond p90)"),
            ("fail_ratio", f"{failed / attempted:.4f} ({failed}/{attempted})"),
            ("peak_rss_mb", f"{peak_rss_mb():.1f} MB (whole run)"),
        ]
    else:
        traced_ops = [(k, res) for k, traced, res in done if traced]
        metrics = layer_metrics(rec, traced_ops, done)
        units = per_layer_units()
        extra = [("traced ops", str(len(traced_ops)))]
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in rec.spans:
                    fh.write(json.dumps(span) + "\n")

    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    for name, text in extra:
        print(f"{name:32s} {text}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(rec, traced_ops, done) -> dict[str, float]:
    n = len(traced_ops)
    totals = rec.totals(k for k, _ in traced_ops)
    calls, self_s = {}, {}
    for (role, name), (c, s, _) in totals.items():
        calls[name] = calls.get(name, 0) + c
        self_s[name] = self_s.get(name, 0.0) + s
    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = calls.get(name, 0) / n
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    results = [res for _, res in traced_ops]
    broadcasts = mean_counts(results, lambda w: w.frames.get("OMEGA_REVEAL", 0))
    transfers = calls.get("session.backend_send", 0) / n
    m["ot.broadcasts"] = broadcasts
    m["ot.transfers"] = transfers
    m["ot.transfer_yield"] = transfers / broadcasts if broadcasts else 0.0
    for tag in TAGS:
        m[f"wire.frames.{tag}"] = mean_counts(results, lambda w: w.frames.get(tag, 0))
        m[f"wire.bytes.{tag}"] = mean_counts(results, lambda w: w.bytes.get(tag, 0))
    for role in ("prover", "verifier"):
        m[f"wire.recv_wait_s.{role}"] = totals.get((role, "wire.recv"), [0, 0.0])[1] / n
    m["wire.send_s"] = self_s.get("wire.send", 0.0) / n
    traced = statistics.median(res.seconds for res in results)
    plain = statistics.median(res.seconds for k, t, res in done if not t)
    m["trace.overhead_ms"] = 1e3 * (traced - plain)
    m["trace.overhead_pct"] = 100 * (traced - plain) / plain
    return m


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.stderr:
            print(proc.stderr, file=sys.stderr, end="")
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="eval-d1m, commit-s63, session-bs-tcp or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="with --trace 1, write every span as a JSON line here")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "polycommit" / "__init__.py").is_file():
        print(f"error: no polycommit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
