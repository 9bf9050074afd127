"""Command-line surface.

Subcommands: gen-config, commit, eval, verify, run-demo,
audit {soundness|privacy|lemmas}, bench.  Exit codes: 0 ok, 2 invalid
configuration or a named file that cannot be read or written, 3
transport failure, 4 protocol violation or refusal,
5 verification reject.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .field import FieldError, PrimeField, gf2, gf4
from .ot import OtError
from .polymat import poly_to_matrix
from .protocol import (
    ConfigError,
    EvalResponse,
    RefusalError,
    config_from_json,
    config_to_json,
    evaluate,
    load_prover_state,
    load_verifier_state,
    make_config,
    recover,
    save_prover_state,
    save_verifier_state,
    verify,
)
from .seeds import substream
from .session import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_REJECT,
    EXIT_TRANSPORT,
    default_queries,
    honest_coefficients,
    run_pair,
    run_role,
)
from .wire import FORMAT_VERSION, DecodeError, Reader, TransportError, Writer

_RESPONSE_MAGIC = b"PCR1"


def _field_for_order(q: int):
    if q == 2:
        return gf2()
    if q == 4:
        return gf4()
    try:
        return PrimeField(q)
    except FieldError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(args):
    """The config file's parameters and the run's seed: --seed, else the
    file's seed, else 0."""
    cfg, cfg_seed = config_from_json(Path(args.config).read_text())
    return cfg, args.seed if args.seed is not None else (cfg_seed or 0)


def cmd_gen_config(args) -> int:
    field = _field_for_order(args.q)
    cfg = make_config(
        field, d=args.d, r=args.r, c=args.c, xi=args.xi, query_budget=args.query_budget
    )
    text = config_to_json(cfg, seed=args.seed)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output} (reserved set {cfg.prohibited})")
    else:
        print(text)
    return EXIT_OK


def cmd_commit(args) -> int:
    cfg, seed = _load_config(args)
    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    if args.poly:
        coeffs = cfg.field.asarray(json.loads(Path(args.poly).read_text()))
        if coeffs.size != cfg.d:
            raise ConfigError(f"polynomial needs {cfg.d} coefficients")
    else:
        coeffs = honest_coefficients(cfg, seed)
    res_p, res_v, outcome = run_pair(
        cfg, coeffs, queries=[], seed=seed, backend=args.backend
    )
    code = max(res_p.exit_code, res_v.exit_code)
    if code != EXIT_OK:
        print(f"commitment failed (exit {code})", file=sys.stderr)
        return code
    save_prover_state(state_dir / "prover.state", cfg, coeffs, res_p.session.prover_key, 0)
    save_verifier_state(
        state_dir / "verifier.state", cfg, res_v.session.key, outcome.verification_key, 0
    )
    print(f"commitment done; state persisted under {state_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, coeffs, prover_key, rounds = load_prover_state(
        Path(args.state_dir) / "prover.state"
    )
    matrix = poly_to_matrix(cfg.field, coeffs, cfg.s)
    try:
        resp = evaluate(args.x, matrix, prover_key, cfg)
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    w = Writer().u8(FORMAT_VERSION)
    w.vector(cfg.field, resp.v).vector(cfg.field, resp.u)
    out = Path(args.output)
    out.write_bytes(_RESPONSE_MAGIC + w.bytes())
    save_prover_state(
        Path(args.state_dir) / "prover.state", cfg, coeffs, prover_key, rounds + 1
    )
    print(f"wrote response for x={args.x} to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg, key, vk, rounds = load_verifier_state(
        Path(args.state_dir) / "verifier.state"
    )
    raw = Path(args.response).read_bytes()
    if raw[:4] != _RESPONSE_MAGIC:
        raise DecodeError("not a response file")
    r = Reader(raw[4:])
    version = r.u8()
    if version != FORMAT_VERSION:
        raise DecodeError(f"unsupported response version {version}")
    resp = EvalResponse(v=r.vector(cfg.field), u=r.vector(cfg.field))
    r.done()
    if not verify(args.x, resp, vk, key, cfg):
        print("REJECT", file=sys.stderr)
        return EXIT_REJECT
    value = recover(args.x, resp, cfg)
    save_verifier_state(
        Path(args.state_dir) / "verifier.state", cfg, key, vk, rounds + 1
    )
    print(f"accept: f({args.x}) = {value}")
    return EXIT_OK


def cmd_run_demo(args) -> int:
    cfg, seed = _load_config(args)
    coeffs = honest_coefficients(cfg, seed)
    queries = default_queries(cfg, args.m, seed)
    res_p, res_v, outcome = run_pair(
        cfg,
        coeffs,
        queries,
        seed=seed,
        backend=args.backend,
        transport=args.transport,
        tamper=args.tamper,
    )
    if args.transcript_dir:
        tdir = Path(args.transcript_dir)
        tdir.mkdir(parents=True, exist_ok=True)
        res_p.transcript.dump(tdir / "prover.bin", tdir / "prover.idx")
        res_v.transcript.dump(tdir / "verifier.bin", tdir / "verifier.idx")
    for x, value in outcome.recovered:
        print(f"f({x}) = {value}")
    for x in outcome.refused:
        print(f"x={x}: refused (above the query bound)")
    for x in outcome.rejected:
        print(f"x={x}: REJECTED", file=sys.stderr)
    print(
        f"prover exit {res_p.exit_code}, verifier exit {res_v.exit_code}; "
        f"{len(outcome.recovered)} recovered, {len(outcome.rejected)} rejected"
    )
    return max(res_p.exit_code, res_v.exit_code)


def cmd_run_role(args) -> int:
    cfg, seed = _load_config(args)
    host, _, port = args.address.rpartition(":")
    if not (port.isdecimal() and int(port) <= 65535):
        raise ConfigError(f"address {args.address!r} is not host:port with a port in 0-65535")
    kwargs = {}
    if args.role == "prover":
        kwargs["coeffs"] = honest_coefficients(cfg, seed)
    else:
        kwargs["queries"] = default_queries(cfg, args.m, seed)
    code, transcript, outcome = run_role(
        args.role, cfg, seed, (host, int(port)), **kwargs
    )
    if args.transcript_dir:
        tdir = Path(args.transcript_dir)
        tdir.mkdir(parents=True, exist_ok=True)
        transcript.dump(tdir / f"{args.role}.bin", tdir / f"{args.role}.idx")
    if outcome is not None:
        for x, value in outcome.recovered:
            print(f"f({x}) = {value}")
    print(f"{args.role} exit {code}")
    return code


def _emit_rows(rows, csv_path):
    header = "check,params,bound,measured,verdict"
    lines = [header] + [
        f"{name},{params},{bound},{measured},{'pass' if ok else 'FAIL'}"
        for name, params, bound, measured, ok in rows
    ]
    if csv_path:
        Path(csv_path).write_text("\n".join(lines) + "\n")
    failures = [row for row in rows if not row[4]]
    for name, params, bound, measured, ok in rows:
        mark = "ok " if ok else "FAIL"
        print(f"[{mark}] {name} ({params}): measured {measured} vs bound {bound}")
    print(f"{len(rows) - len(failures)}/{len(rows)} checks passed")
    return EXIT_OK if not failures else 1


def cmd_audit(args) -> int:
    from . import audit
    from .protocol import VerifierKey, keygen_verifier

    rng = substream(args.seed, "audit-cli", args.what)
    rows = []
    if args.what == "soundness":
        trials = max(args.trials, 1000)  # the oracle comparison needs volume
        cfg = make_config(PrimeField(11), d=9, r=2, c=3, xi=6)
        rep = audit.monte_carlo_detection(
            audit.RandomPerturbation(), cfg, trials, rng
        )
        rows.append(
            (
                "random-perturbation",
                f"q=11 d=9 r=2 c=3 trials={trials}",
                f"<=2/r^c={2 / cfg.r ** cfg.c}",
                f"{rep.rate:.6f} (exact {rep.exact_mean:.6f})",
                rep.rate <= 2 / cfg.r**cfg.c and rep.within(3),
            )
        )
        cfg1 = make_config(PrimeField(11), d=9, r=2, c=1, xi=6)
        rep1 = audit.monte_carlo_detection(
            audit.RootCrafting(), cfg1, max(trials // 10, 1000), rng
        )
        rows.append(
            (
                "root-crafting",
                "q=11 d=9 r=2 c=1",
                "=1/2",
                f"{rep1.rate:.6f}",
                rep1.exact_mean == 0.5 and rep1.within(3),
            )
        )
    elif args.what == "privacy":
        cfg = make_config(PrimeField(11), d=9, r=2, c=1, xi=6)
        worst = None
        for _ in range(args.instances):
            key = keygen_verifier(cfg, rng)
            m = rng.randrange(1, 4)
            xs = rng.sample(range(cfg.xi + 1), m)
            h = audit.privacy_rank_oracle(cfg, key, xs)
            bound = cfg.d - (m + cfg.c) ** 2
            ok = h >= bound
            worst = min(worst, h - bound) if worst is not None else h - bound
            if not ok:
                rows.append(
                    ("privacy-floor", f"m={m} key={key}", bound, h, False)
                )
        rows.append(
            (
                "privacy-floor",
                f"q=11 d=9 c=1, {args.instances} random instances",
                "entropy >= d-(m+c)^2",
                f"min slack {worst}",
                worst is not None and worst >= 0,
            )
        )
        cfg4 = make_config(gf4(), d=4, r=2, c=1, xi=1)
        key4 = VerifierKey((2,), (3,))
        from .protocol import lambda_matrix, theta_matrix

        want = audit.privacy_rank_oracle(cfg4, key4, [0])
        got = audit.privacy_enumeration_oracle(
            gf4(), 2, lambda_matrix(cfg4, key4), theta_matrix(cfg4, key4), [0]
        )
        rows.append(
            (
                "rank-vs-enumeration",
                "GF(4) d=4 c=1 m=1",
                want,
                f"{got:.9f}",
                abs(got - want) < 1e-9,
            )
        )
        rep = audit.unit_vector_attack(cfg)
        rows.append(
            (
                "unit-vector-attack",
                "q=11 d=9",
                f"<=d-s={rep.attack_ceiling}",
                rep.attack_entropy,
                rep.attack_entropy <= rep.attack_ceiling,
            )
        )
    elif args.what == "lemmas":
        from .polymat import rank
        from .protocol import random_matrix

        def full_rank(rows_, cols_):
            while True:
                m = random_matrix(PrimeField(11), (rows_, cols_), rng)
                if rank(PrimeField(11), m) == min(rows_, cols_):
                    return m

        bad = 0
        for _ in range(args.instances):
            s = rng.randrange(2, 7)
            c = rng.randrange(1, s + 1)
            w = rng.randrange(1, s + 1)
            _, _, ok1 = audit.conditional_entropy_bound_check(
                PrimeField(11), full_rank(c, s), full_rank(s, w)
            )
            _, _, ok2 = audit.kronecker_stack_rank_check(
                PrimeField(11), full_rank(c, s), full_rank(w, s)
            )
            bad += (not ok1) + (not ok2)
        rows.append(
            (
                "rank-statements",
                f"{args.instances} random full-rank instances, s<=6, GF(11)",
                "all hold",
                f"{bad} failures",
                bad == 0,
            )
        )
    else:
        raise ConfigError(f"unknown audit {args.what!r}")
    return _emit_rows(rows, args.csv)


def cmd_bench(args) -> int:
    from .bench import run_bench, wall_clock_probe

    d_values = [int(v) for v in args.d.split(",")]
    reports = run_bench(d_values, c=args.c, rounds=args.rounds)
    print(f"{'d':>9} {'s':>5} {'prover ops':>12} {'verifier ops':>12} "
          f"{'prover ms':>10} {'verifier ms':>12}")
    for rep in reports:
        print(
            f"{rep.d:>9} {rep.s:>5} {rep.prover_ops:>12} {rep.verifier_ops:>12} "
            f"{rep.prover_seconds * 1e3:>10.3f} {rep.verifier_seconds * 1e3:>12.4f}"
        )
    for prev, cur in zip(reports, reports[1:]):
        step = cur.d / prev.d
        print(
            f"d x{step:.0f}: prover ops x{cur.prover_ops / prev.prover_ops:.2f}, "
            f"verifier ops x{cur.verifier_ops / prev.verifier_ops:.2f}"
        )
    if args.wall_clock_d:
        rep = wall_clock_probe(args.wall_clock_d, c=args.c)
        print(
            f"wall-clock at d={rep.d}: prover {rep.prover_seconds * 1e3:.1f} ms/round, "
            f"verifier {rep.verifier_seconds * 1e3:.2f} ms/round"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polycommit",
        description="Private, information-theoretically verifiable polynomial "
        "evaluation: commitment, evaluation, verification, audits.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-config", help="emit a validated JSON configuration")
    g.add_argument("--q", type=int, required=True, help="field order (2 and 4 select table fields)")
    g.add_argument("--d", type=int, required=True, help="degree bound, a perfect square")
    g.add_argument("--r", type=int, default=10, help="reserved-set multiplier")
    g.add_argument("--c", type=int, default=10, help="key width")
    g.add_argument("--xi", type=int, required=True, help="query upper bound")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--query-budget", type=int, default=None)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(fn=cmd_gen_config)

    cm = sub.add_parser("commit", help="run the commitment phase and persist both states")
    cm.add_argument("--config", required=True)
    cm.add_argument("--state-dir", required=True)
    cm.add_argument("--seed", type=int, default=None)
    cm.add_argument("--backend", choices=("ideal", "bs"), default="ideal")
    cm.add_argument("--poly", default=None, help="JSON file with d coefficients")
    cm.set_defaults(fn=cmd_commit)

    ev = sub.add_parser("eval", help="prover side: answer one query from persisted state")
    ev.add_argument("--state-dir", required=True)
    ev.add_argument("--x", type=int, required=True)
    ev.add_argument("-o", "--output", default="response.bin")
    ev.set_defaults(fn=cmd_eval)

    vf = sub.add_parser("verify", help="verifier side: check a response file and recover")
    vf.add_argument("--state-dir", required=True)
    vf.add_argument("--x", type=int, required=True)
    vf.add_argument("--response", default="response.bin")
    vf.set_defaults(fn=cmd_verify)

    rd = sub.add_parser("run-demo", help="full two-party session, both roles hosted here")
    rd.add_argument("--config", required=True)
    rd.add_argument("--m", type=int, default=5, help="number of evaluation queries")
    rd.add_argument("--seed", type=int, default=None)
    rd.add_argument("--backend", choices=("ideal", "bs"), default="ideal")
    rd.add_argument("--transport", choices=("inproc", "tcp"), default="inproc")
    rd.add_argument("--tamper", action="store_true", help="inject a fault into one response")
    rd.add_argument("--transcript-dir", default=None)
    rd.set_defaults(fn=cmd_run_demo)

    rr = sub.add_parser("run-role", help="single role over TCP (bounded-storage backend)")
    rr.add_argument("role", choices=("prover", "verifier"))
    rr.add_argument("--config", required=True)
    rr.add_argument("--address", required=True, help="host:port (prover listens)")
    rr.add_argument("--m", type=int, default=5)
    rr.add_argument("--seed", type=int, default=None)
    rr.add_argument("--transcript-dir", default=None)
    rr.set_defaults(fn=cmd_run_role)

    au = sub.add_parser("audit", help="soundness/privacy/rank-statement audits")
    au.add_argument("what", choices=("soundness", "privacy", "lemmas"))
    au.add_argument("--trials", type=int, default=20000)
    au.add_argument("--instances", type=int, default=200)
    au.add_argument("--seed", type=int, default=2024)
    au.add_argument("--csv", default=None)
    au.set_defaults(fn=cmd_audit)

    be = sub.add_parser("bench", help="operation counts and wall time vs degree")
    be.add_argument("--d", default="10000,40000,160000")
    be.add_argument("--c", type=int, default=10)
    be.add_argument("--rounds", type=int, default=3)
    be.add_argument("--wall-clock-d", type=int, default=0)
    be.set_defaults(fn=cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except OSError as exc:  # a file the command line names
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DecodeError, OtError, ValueError) as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
