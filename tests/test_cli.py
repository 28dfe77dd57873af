import json
import subprocess
import sys

import jsonschema
import pytest

from demchar.charring import CHAR_ELEMENT_SCHEMA
from demchar.cli import build_parser, config_from_args
from demchar.kernel import DECOMPOSITION_SCHEMA, kernel_basis_element

import oracles


def run_cli(*args, stdin=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "demchar", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
    )


def test_info_plain_and_json():
    r = run_cli("info", "--type", "A", "--rank", "2")
    assert r.returncode == 0
    assert "order of the Weyl group: 6" in r.stdout
    r = run_cli("info", "--type", "G", "--rank", "2", "--format", "json")
    data = json.loads(r.stdout)
    assert data["order"] == 12
    assert len(data["longest_word"]) == 6
    r = run_cli("info", "--type", "A", "--rank", "1")
    assert "order of the Weyl group: 2" in r.stdout


def test_info_invalid_type_is_usage_error():
    r = run_cli("info", "--type", "Q", "--rank", "2")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_weyl_dump_and_dot():
    r = run_cli("weyl", "--type", "A", "--rank", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 13  # 6 elements, header, 6 bruhat rows
    assert lines[0] == "0: length=0 word=[]"
    assert lines[-1] == "111111"  # w0 dominates everything
    assert lines[7] == "1....."  # identity row
    r = run_cli("weyl", "--type", "A", "--rank", "2", "--dot")
    assert r.stdout.startswith("digraph bruhat {")
    # covering edges of the A2 Hasse diagram: 1+2+2+... e->s1,e->s2, s1->s12,s1->s21, s2->s12,s2->s21, s12->w0, s21->w0
    assert r.stdout.count("->") == 8


def test_demchar_command():
    r = run_cli("demchar", "--type", "A", "--rank", "1", "--tau", "1", "--mu", "2")
    assert r.returncode == 0
    assert "dimension: 3" in r.stdout
    r = run_cli("demchar", "--type", "A", "--rank", "2", "--tau", "e", "--mu", "4,5")
    assert "e[4, 5]" in r.stdout and "dimension: 1" in r.stdout
    r = run_cli("demchar", "--type", "A", "--rank", "2", "--tau", "w0", "--mu", "1,1", "--format", "json")
    data = json.loads(r.stdout)
    jsonschema.validate(data, CHAR_ELEMENT_SCHEMA)
    assert sum(int(t["coeff"]) for t in data["terms"]) == 8


def test_demchar_rejects_non_dominant():
    # negative coordinates need the = form, or argparse eats the leading dash
    r = run_cli("demchar", "--type", "A", "--rank", "2", "--tau", "w0", "--mu=-1,2")
    assert r.returncode == 2
    assert "not dominant" in r.stderr


def test_topchar_and_euler():
    r = run_cli("topchar", "--type", "A", "--rank", "1", "--w", "1", "--lambda", "2")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "e[0]"
    r = run_cli("topchar", "--type", "A", "--rank", "1", "--w", "1", "--lambda", "0")
    assert r.returncode == 2
    r = run_cli("euler", "--type", "A", "--rank", "1", "--w", "1", "--mu=-2")
    assert r.stdout.splitlines()[0] == "-e[0]"
    r = run_cli("euler", "--type", "A", "--rank", "1", "--w", "1", "--mu=-1")
    assert r.stdout.splitlines()[0] == "0"


def test_bruhat_command():
    r = run_cli("bruhat", "--type", "A", "--rank", "2", "--w", "1", "--tau", "1,2")
    assert r.stdout.strip() == "true"
    r = run_cli("bruhat", "--type", "A", "--rank", "2", "--w", "1,2", "--tau", "2,1")
    assert r.stdout.strip() == "false"
    r = run_cli("bruhat", "--type", "A", "--rank", "2", "--w", "e", "--tau", "w0", "--format", "json")
    assert json.loads(r.stdout)["leq"] is True


def test_verify_theorem_command():
    r = run_cli("verify-theorem", "--type", "A", "--rank", "2", "--grid", "2")
    assert r.returncode == 0
    assert "total checks=24 passed=24" in r.stdout
    assert r.stdout.strip().endswith("PASS")


def test_verify_theorem_json_reports():
    r = run_cli("verify-theorem", "--type", "A", "--rank", "1", "--grid", "3", "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["all_passed"] is True
    assert data["checks"] == 6
    from demchar.theorem import VERIFICATION_REPORT_SCHEMA

    for block in data["sweeps"]:
        for report in block["reports"]:
            jsonschema.validate(report, VERIFICATION_REPORT_SCHEMA)


def test_verify_lemma_command():
    r = run_cli("verify-lemma31", "--type", "B", "--rank", "2", "--grid", "2")
    assert r.returncode == 0
    assert r.stdout.strip().endswith("PASS")


def test_verify_kernel_command():
    r = run_cli("verify-kernel", "--type", "A", "--rank", "2", "--grid", "2")
    assert r.returncode == 0
    assert "combos ok=50/50" in r.stdout
    assert r.stdout.strip().endswith("PASS")


def test_malformed_weight_is_usage_error():
    r = run_cli("demchar", "--type", "A", "--rank", "2", "--tau", "w0", "--mu", "1,x")
    assert r.returncode == 2


def test_decompose_command_round_trip():
    g = oracles.group("A", 1)
    v = kernel_basis_element(g, (3,))
    r = run_cli(
        "decompose",
        "--type",
        "A",
        "--rank",
        "1",
        "--format",
        "json",
        stdin=json.dumps(v.to_json_dict()),
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    jsonschema.validate(payload, DECOMPOSITION_SCHEMA)
    assert payload["coefficients"] == [{"mu": [2], "lambda": [3], "coeff": "1"}]


def test_decompose_rejects_non_member():
    bad = {"rank": 1, "terms": [{"weight": [1], "coeff": "1"}]}
    r = run_cli("decompose", "--type", "A", "--rank", "1", stdin=json.dumps(bad))
    assert r.returncode == 2


def test_serial_and_parallel_outputs_identical():
    for command in ("verify-theorem", "verify-lemma31"):
        base = [command, "--type", "A", "--rank", "3", "--grid", "2", "--format", "json"]
        serial = run_cli(*base)
        parallel = run_cli(*base, "--parallel")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout
        assert json.loads(serial.stdout)["command"] == command


def assert_usage_error(r):
    assert r.returncode == 2
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr
    assert "Traceback" not in r.stderr


def test_cache_dir_is_gone():
    r = run_cli("info", "--type", "A", "--rank", "2", "--cache-dir", "unused")
    assert_usage_error(r)
    assert "--cache-dir" in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["demchar", "--type", "A", "--rank", "2", "--mu", "1,1,5"],
        ["demchar", "--type", "A", "--rank", "2", "--mu", "1"],
        ["topchar", "--type", "A", "--rank", "2", "--lambda", "1"],
        ["euler", "--type", "B", "--rank", "2", "--mu", "1,0,0"],
    ],
)
def test_weight_length_must_match_rank(args):
    r = run_cli(*args)
    assert_usage_error(r)
    assert "coordinates" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("body", ["{}", "[]", '{"rank": 2}', "not json", '{"rank": 2, "terms": [7]}'])
def test_decompose_malformed_input_is_usage_error(body):
    r = run_cli("decompose", "--type", "A", "--rank", "2", stdin=body)
    assert_usage_error(r)


def test_argument_errors_are_one_line():
    assert_usage_error(run_cli("info", "--type", "A", "--rank", "two"))
    assert_usage_error(run_cli("demchar", "--type", "A", "--rank", "2"))


def test_run_config_round_trip():
    parser = build_parser()
    args = parser.parse_args(
        [
            "verify-theorem",
            "--type",
            "B",
            "--rank",
            "3",
            "--grid",
            "2",
            "--format",
            "json",
            "--parallel",
            "--max-group-order",
            "5000",
        ]
    )
    cfg = config_from_args(args)
    assert (cfg.command, cfg.family, cfg.rank, cfg.grid) == ("verify-theorem", "B", 3, 2)
    assert (cfg.fmt, cfg.parallel, cfg.max_group_order) == ("json", True, 5000)
    assert cfg.lam is None and cfg.mu is None
    cfg2 = config_from_args(
        build_parser().parse_args(["demchar", "--type", "A", "--rank", "2", "--mu", "1,2"])
    )
    assert cfg2.mu == (1, 2)


def test_max_group_order_flag():
    r = run_cli("info", "--type", "A", "--rank", "3", "--max-group-order", "10")
    assert r.returncode == 2
    assert "exceeds the bound" in r.stderr


def test_emit_sweep_reports_mismatch_with_exit_one(capsys):
    # a mathematical mismatch cannot be produced by the real identities, so
    # exercise the reporting path with a fabricated failing report
    from demchar.cli import EXIT_MISMATCH, RunConfig, _emit_sweep

    g = oracles.group("A", 1)
    cfg = RunConfig(command="verify-theorem", family="A", rank=1, fmt="plain")
    failing = {
        "lambda": [1],
        "reports": [
            {
                "tau": [1],
                "lambda": [1],
                "passed": False,
                "dim_lhs": "2",
                "dim_rhs": "1",
                "difference_terms": [{"weight": [0], "coeff": "1"}],
                "interval_size": 2,
            }
        ],
    }
    code = _emit_sweep(cfg, g, [failing])
    out = capsys.readouterr().out
    assert code == EXIT_MISMATCH
    assert "first counterexample:" in out
    assert out.strip().endswith("FAIL")


def test_internal_error_exits_three(monkeypatch, capsys):
    from demchar import cli

    def broken(cfg):
        raise RuntimeError("decomposition failed to terminate; internal inconsistency")

    monkeypatch.setitem(cli._COMMANDS, "info", broken)
    assert cli.main(["info", "--type", "A", "--rank", "1"]) == cli.EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: decomposition failed to terminate; internal inconsistency\n"
