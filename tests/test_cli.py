"""Command-line surface: exit codes and the documented subcommands."""

import json

import numpy as np
import pytest

from polycommit.cli import main
from polycommit.protocol import (
    ProverKey,
    VerificationKey,
    VerifierKey,
    config_from_json,
    config_to_json,
    load_prover_state,
    load_verifier_state,
    save_prover_state,
    save_verifier_state,
)
from polycommit.wire import Reader, Writer


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    code = run_cli(
        "gen-config", "--q", 11, "--d", 9, "--r", 2, "--c", 1, "--xi", 6,
        "--seed", 7, "-o", path,
    )
    assert code == 0
    return path


def test_gen_config_derives_reserved_set(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert run_cli("gen-config", "--q", 11, "--d", 9, "--r", 2, "--c", 1,
                   "--xi", 6, "-o", path) == 0
    doc = json.loads(path.read_text())
    assert doc["field"] == {"kind": "prime", "modulus": 11}
    out = capsys.readouterr().out
    assert "(7, 8, 9, 10)" in out


def test_gen_config_rejects_gcd_violation(capsys):
    assert run_cli("gen-config", "--q", 11, "--d", 4, "--r", 2, "--c", 1,
                   "--xi", 6) == 2
    assert "gcd" in capsys.readouterr().err


def test_gen_config_table_field(tmp_path):
    path = tmp_path / "gf4.json"
    assert run_cli("gen-config", "--q", 4, "--d", 4, "--r", 2, "--c", 1,
                   "--xi", 1, "-o", path) == 0
    assert json.loads(path.read_text())["field"]["kind"] == "table"


def test_run_demo_happy_path(config_path, tmp_path, capsys):
    tdir = tmp_path / "transcripts"
    code = run_cli("run-demo", "--config", config_path, "--m", 3,
                   "--transcript-dir", tdir)
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("f(") == 3
    assert (tdir / "prover.bin").exists() and (tdir / "verifier.idx").exists()


def test_run_demo_tamper_exit_code(config_path):
    assert run_cli("run-demo", "--config", config_path, "--m", 3, "--tamper") == 5


def test_commit_eval_verify_cycle(config_path, tmp_path, capsys):
    state = tmp_path / "state"
    assert run_cli("commit", "--config", config_path, "--state-dir", state) == 0
    resp = tmp_path / "resp.bin"
    assert run_cli("eval", "--state-dir", state, "--x", 3, "-o", resp) == 0
    assert run_cli("verify", "--state-dir", state, "--x", 3, "--response", resp) == 0
    assert "accept" in capsys.readouterr().out
    # tampered response file must be rejected with the dedicated exit code
    raw = bytearray(resp.read_bytes())
    raw[9] = (raw[9] + 1) % 11  # magic(4) + version(1) + count(4), then the first element
    resp.write_bytes(bytes(raw))
    assert run_cli("verify", "--state-dir", state, "--x", 3, "--response", resp) == 5


def test_eval_refuses_reserved_point(config_path, tmp_path, capsys):
    state = tmp_path / "state"
    assert run_cli("commit", "--config", config_path, "--state-dir", state) == 0
    assert run_cli("eval", "--state-dir", state, "--x", 9,
                   "-o", tmp_path / "r.bin") == 4
    assert "refused" in capsys.readouterr().err


def test_audit_subcommands_smoke(tmp_path, capsys):
    assert run_cli("audit", "soundness", "--trials", 400, "--csv",
                   tmp_path / "s.csv") == 0
    assert run_cli("audit", "privacy", "--instances", 20) == 0
    assert run_cli("audit", "lemmas", "--instances", 10) == 0
    header, *rows = (tmp_path / "s.csv").read_text().splitlines()
    assert header == "check,params,bound,measured,verdict"
    assert all(row.endswith("pass") for row in rows)


def test_bench_smoke(capsys):
    assert run_cli("bench", "--d", "2500,10000", "--rounds", 1) == 0
    out = capsys.readouterr().out
    assert "prover ops" in out and "x" in out


def test_bench_refuses_a_degree_that_is_not_a_square(capsys):
    assert run_cli("bench", "--d", "10001", "--rounds", 1) == 2
    assert "not a perfect square" in capsys.readouterr().err


@pytest.mark.parametrize("d", [-4, 0])
@pytest.mark.parametrize(
    "command",
    [("gen-config", "--q", 11, "--r", 2, "--c", 1, "--xi", 6), ("bench", "--rounds", 1)],
    ids=["gen-config", "bench"],
)
def test_a_degree_bound_below_1_is_a_config_error(command, d, capsys):
    assert run_cli(*command, "--d", d) == 2
    assert "not a perfect square" in capsys.readouterr().err


def _reshape_prover_state(path, case):
    cfg, coeffs, prover_key, rounds = load_prover_state(path)
    if case == "mask-1x3":
        prover_key = ProverKey(prover_key.mask[:1])
    else:  # coefficients one short of d
        coeffs = coeffs[:-1]
    save_prover_state(path, cfg, coeffs, prover_key, rounds)


def _reshape_verifier_state(path, case):
    cfg, key, vk, rounds = load_verifier_state(path)
    lambdas, thetas, gamma, omega = key.lambdas, key.thetas, vk.gamma, vk.omega
    if case == "two-lambdas":
        lambdas = lambdas + thetas
    elif case == "no-thetas":
        thetas = ()
    elif case == "gamma-1x2":
        gamma = gamma[:, :2]
    else:  # Omega with one column too many
        omega = np.hstack([omega, omega])
    save_verifier_state(
        path, cfg, VerifierKey(lambdas, thetas), VerificationKey(gamma, omega), rounds
    )


@pytest.mark.parametrize("case", ["mask-1x3", "short-coefficients"])
def test_eval_refuses_a_misshapen_prover_state(config_path, tmp_path, capsys, case):
    state = tmp_path / "state"
    assert run_cli("commit", "--config", config_path, "--state-dir", state) == 0
    _reshape_prover_state(state / "prover.state", case)
    assert run_cli("eval", "--state-dir", state, "--x", 3,
                   "-o", tmp_path / "r.bin") == 4
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["two-lambdas", "no-thetas", "gamma-1x2", "omega-3x2"])
def test_verify_refuses_a_misshapen_verifier_state(config_path, tmp_path, capsys, case):
    state = tmp_path / "state"
    assert run_cli("commit", "--config", config_path, "--state-dir", state) == 0
    resp = tmp_path / "resp.bin"
    assert run_cli("eval", "--state-dir", state, "--x", 3, "-o", resp) == 0
    _reshape_verifier_state(state / "verifier.state", case)
    assert run_cli("verify", "--state-dir", state, "--x", 3, "--response", resp) == 4
    assert "expected" in capsys.readouterr().err


def _v1_elements(*arrays):
    """Count-prefixed arrays as version 1 wrote them: every element of a
    prime field in 8 bytes; a matrix carries rows and columns."""
    return b"".join(
        b"".join(n.to_bytes(4, "big") for n in a.shape) + a.astype("<u8").tobytes()
        for a in map(np.asarray, arrays)
    )


def _v1_state(magic, cfg, body):
    doc = json.loads(config_to_json(cfg))
    doc["version"] = 1
    head = Writer().u8(1).blob(json.dumps(doc, indent=2, sort_keys=True).encode()).bytes()
    return magic + head + body


@pytest.mark.parametrize("version, code", [(1, 0), (3, 2)])
def test_a_config_file_loads_by_its_version(config_path, tmp_path, capsys, version, code):
    # version 1 configs have the same fields as version 2: one saved before
    # the wire bump loads to the same config and commits; an unknown version
    # is a configuration error
    doc = json.loads(config_path.read_text())
    doc["version"] = version
    old = tmp_path / f"v{version}.json"
    old.write_text(json.dumps(doc, indent=2, sort_keys=True))
    if version == 1:
        assert config_from_json(old.read_text()) == config_from_json(config_path.read_text())
    assert run_cli("commit", "--config", old, "--state-dir", tmp_path / "state") == code
    assert ("unsupported config version" in capsys.readouterr().err) == (code != 0)


def test_version_1_files_end_in_exit_4(config_path, tmp_path, capsys):
    state = tmp_path / "state"
    assert run_cli("commit", "--config", config_path, "--state-dir", state) == 0
    resp = tmp_path / "resp.bin"
    assert run_cli("eval", "--state-dir", state, "--x", 3, "-o", resp) == 0
    r = Reader(resp.read_bytes()[4:])
    assert r.u8() == 2
    cfg, key, vk, rounds = load_verifier_state(state / "verifier.state")
    v, u = r.vector(cfg.field), r.vector(cfg.field)
    capsys.readouterr()

    # a response from version 1: no version byte, 8-byte elements
    old_resp = tmp_path / "old.bin"
    old_resp.write_bytes(b"PCR1" + _v1_elements(v, u))
    assert run_cli("verify", "--state-dir", state, "--x", 3, "--response", old_resp) == 4
    assert "unsupported response version 0" in capsys.readouterr().err

    verifier_v1 = _v1_state(
        b"PCV1", cfg,
        _v1_elements(key.lambdas, key.thetas, vk.gamma, vk.omega) + rounds.to_bytes(4, "big"),
    )
    (state / "verifier.state").write_bytes(verifier_v1)
    assert run_cli("verify", "--state-dir", state, "--x", 3, "--response", resp) == 4
    assert "unsupported state version 1" in capsys.readouterr().err

    _, coeffs, prover_key, rounds = load_prover_state(state / "prover.state")
    prover_v1 = _v1_state(
        b"PCP1", cfg, _v1_elements(coeffs, prover_key.mask) + rounds.to_bytes(4, "big")
    )
    (state / "prover.state").write_bytes(prover_v1)
    assert run_cli("eval", "--state-dir", state, "--x", 3, "-o", resp) == 4
    assert "unsupported state version 1" in capsys.readouterr().err
