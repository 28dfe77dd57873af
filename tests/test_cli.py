import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demchar.charring import CHAR_ELEMENT_SCHEMA, CharElement
from demchar.cli import build_parser, main
from demchar.kernel import DECOMPOSITION_SCHEMA, kernel_basis_element
from demchar.rootsys import build_datum, simple_reflection, weyl_dimension
from demchar.weyl import generate

import oracles


def run_cli(*args, stdin=None, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "demchar", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        timeout=timeout,
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


def test_weyl_dot_refuses_json():
    # DOT has no JSON form; the request is refused before the group is generated, not ignored
    r = run_cli("weyl", "--type", "A", "--rank", "2", "--dot", "--format", "json")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: --dot prints DOT, not JSON; drop --format json\n"


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


def test_only_the_sweeps_import_theorem():
    # verify-kernel never sweeps, so it does not compile theorem; the package still exports theorem's names
    code = """
import sys
from demchar import cli
assert cli.main(["verify-kernel", "--type", "A", "--rank", "2", "--grid", "1"]) == 0
assert "demchar.theorem" not in sys.modules, "verify-kernel imported demchar.theorem"
from demchar import sweep_verify_theorem, theorem
assert sweep_verify_theorem is theorem.sweep_verify_theorem
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


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
    v = kernel_basis_element(g.datum, (3,))
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


def test_serial_and_parallel_outputs_identical(request, monkeypatch, capsys):
    import multiprocessing

    runs = [
        [command, "--type", "A", "--rank", "3", "--grid", "2", "--format", fmt]
        for command in ("verify-theorem", "verify-lemma31")
        for fmt in ("json", "plain")
    ]
    for base in runs:
        serial = run_cli(*base)
        parallel = run_cli(*base, "--parallel")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout
        assert serial.stdout.endswith("PASS\n") or json.loads(serial.stdout)["command"] == base[0]
    # every check fails, so the failing reports travel back from the workers in their summaries;
    # forked workers inherit the patched module
    request.getfixturevalue("sections_of_lam")
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
    for base in runs:
        serial = stdout_in_process(base, capsys)
        assert serial == stdout_in_process([*base, "--parallel"], capsys)
        assert serial[0] == 1
        if "json" in base:
            assert_stdlib_bytes(serial[1])
            data = json.loads(serial[1])
            assert data["checks"] == 24 * 8 and not any(r["passed"] for b in data["sweeps"] for r in b["reports"])
        else:
            assert "total checks=192 passed=0\nfirst counterexample:\n" in serial[1]


def assert_usage_error(r):
    assert r.returncode == 2
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["info"],
        ["demchar", "--mu", "1,1"],
        ["verify-kernel", "--grid", "1"],
        ["decompose"],
    ],
)
def test_parallel_is_refused_outside_the_two_sweeps(args):
    # only verify-theorem and verify-lemma31 distribute their weights over a pool
    r = run_cli(*args, "--type", "A", "--rank", "2", "--parallel", stdin="")
    assert_usage_error(r)
    assert "--parallel" in r.stderr
    assert r.stdout == ""


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


@pytest.mark.parametrize(
    "body",
    ["{}", "[]", '{"rank": 2}', "not json", '{"rank": 2, "terms": [7]}']
    # int() reads these coefficients and CHAR_ELEMENT_SCHEMA rejects them; e^-rho is in N
    + [json.dumps({"rank": 2, "terms": [{"weight": [-1, -1], "coeff": c}]}) for c in ["1_000", "\u0663", " 5", "+5"]],
)
def test_decompose_malformed_input_is_usage_error(body):
    r = run_cli("decompose", "--type", "A", "--rank", "2", stdin=body)
    assert_usage_error(r)


def test_argument_errors_are_one_line():
    assert_usage_error(run_cli("info", "--type", "A", "--rank", "two"))
    assert_usage_error(run_cli("demchar", "--type", "A", "--rank", "2"))


def test_parsed_namespace_round_trip():
    args = build_parser().parse_args(
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
        ]
    )
    assert (args.command, args.family, args.rank, args.grid) == ("verify-theorem", "B", 3, 2)
    assert (args.fmt, args.parallel) == ("json", True)
    assert not hasattr(args, "weight")
    args2 = build_parser().parse_args(["demchar", "--type", "A", "--rank", "2", "--mu", "1,2"])
    assert (args2.element, args2.weight) == ("w0", (1, 2))
    # the three character commands share the dests element and weight
    args3 = build_parser().parse_args(["topchar", "--type", "A", "--rank", "2", "--w", "1", "--lambda", "3,4"])
    assert (args3.element, args3.weight) == ("1", (3, 4))


# the commands that generate no group, with their required options
WITHOUT_A_GROUP = {
    "info": [],
    "decompose": [],
    "demchar": ["--mu", "1,1"],
    "topchar": ["--lambda", "1,1"],
    "euler": ["--mu", "1,1"],
    "bruhat": ["--w", "1", "--tau", "w0"],
    "verify-kernel": [],
}


@pytest.mark.parametrize("command", WITHOUT_A_GROUP)
def test_commands_without_a_group_reject_max_group_order(command):
    argv = [command, "--type", "A", "--rank", "2", *WITHOUT_A_GROUP[command], "--max-group-order", "10"]
    code, err = run_in_process(argv)
    assert code == 2
    assert "unrecognized arguments: --max-group-order" in err


@pytest.mark.parametrize("command", ["weyl", "verify-theorem", "verify-lemma31"])
def test_commands_with_a_group_reject_max_group_order(command):
    # their group is bounded by its Bruhat table, which is refused far below any order worth raising
    code, err = run_in_process([command, "--type", "A", "--rank", "2", "--max-group-order", "10"])
    assert code == 2
    assert "unrecognized arguments: --max-group-order" in err


@pytest.mark.parametrize("command", ["verify-theorem", "verify-lemma31"])
def test_sweep_block_is_the_report_dicts_rendered(command, monkeypatch):
    # passing reports come from the template, failing ones from to_json_dict; both must read like the dicts
    from dataclasses import replace

    from demchar import cli
    from demchar.weyl import WeylGroup

    g = generate(build_datum("B", 3))
    name = {"verify-theorem": "sweep_verify_theorem", "verify-lemma31": "sweep_verify_lemma31"}[command]
    real = getattr(cli, name)
    wrong = (CharElement.monomial((1, -2, 3)), CharElement.zero(3))

    def some_fail(g, lam):  # every fifth check fails, so passing and failing reports interleave
        return [replace(r, passed=False, sides=wrong) if k % 5 == 2 else r for k, r in enumerate(real(g, lam))]

    monkeypatch.setattr(cli, name, some_fail)
    words = []  # the words rebuilt in g

    def word(self, k, real_word=WeylGroup.word):
        if self is g:
            words.append(k)
        return real_word(self, k)

    monkeypatch.setattr(WeylGroup, "word", word)
    sweep = cli._Sweep(g)
    ref = oracles.group("B", 3)
    lams = [(1, 2, 1), (2, 2, 2)]
    for lam in lams:
        reports = some_fail(g, lam)
        dicts = [r.to_json_dict(ref.word(tau), lam) for tau, r in enumerate(reports)]
        block = cli._sweep_lambda(sweep, command, "json", lam)
        assert block.text.text == oracles.json_reference({"lambda": list(lam), "reports": dicts})
        assert block.failures == [r for r in dicts if not r["passed"]] and block.checks == g.order
        assert cli._sweep_lambda(sweep, command, "plain", lam) == (list(lam), g.order, block.failures, None)
    # once per element for the command, not once per lambda or per passing report; a failing
    # report rebuilds its own word, once per call (a JSON and a plain call per lambda)
    failing = [k for k in range(g.order) if k % 5 == 2]
    assert words == list(range(g.order)) + failing * 2 * len(lams)


def test_emit_sweep_reports_mismatch_with_exit_one(capsys):
    # a mathematical mismatch cannot be produced by the real identities, so
    # exercise the reporting path with a fabricated failing report
    from demchar.cli import EXIT_MISMATCH, _Block, _emit_sweep

    g = oracles.group("A", 1)
    args = build_parser().parse_args(["verify-theorem", "--type", "A", "--rank", "1"])
    failing = {
        "tau": [1],
        "lambda": [1],
        "passed": False,
        "dim_lhs": "2",
        "dim_rhs": "1",
        "difference_terms": [{"weight": [0], "coeff": "1"}],
        "interval_size": 2,
    }
    code = _emit_sweep(args, g, [_Block([1], 1, [failing], None)])
    out = capsys.readouterr().out
    assert code == EXIT_MISMATCH
    assert "lambda=[1] checks=1 MISMATCH" in out
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


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for multiprocessing.Pool: runs each task in this process, in the order it is handed.

    Returns the record of what the pool saw: per pool, its number of workers
    and whether the group it was handed carries both tables, and the lambdas
    in dispatch order.  The process may run on 64 cores, so that the pool is
    sized by its lambdas alone.
    """
    import multiprocessing

    from demchar import cli

    record = {"workers": [], "tables": [], "dispatched": []}

    class InlinePool:
        def __init__(self, processes, initializer, initargs):
            record["workers"].append(processes)
            built = vars(initargs[0])
            record["tables"].append("bruhat_rows" in built and "lower_covers" in built)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            blocks = [fn(item) for item in items]
            record["dispatched"] += [tuple(block.lam) for block in blocks]
            return blocks

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(cli, "_worker_sweep", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    return record


UNEXPECTED = [
    (MemoryError(), 2, "error: out of memory; ask for a smaller type, weight or grid\n"),
    (KeyError("x"), 3, "internal error: unexpected KeyError: 'x'\n"),
    (ZeroDivisionError("division by zero"), 3, "internal error: unexpected ZeroDivisionError: division by zero\n"),
]


@pytest.mark.parametrize("exc,code,err", UNEXPECTED, ids=["memory", "key", "zero-division"])
def test_unexpected_exceptions_exit_with_one_line(exc, code, err, monkeypatch, capsys):
    from demchar import cli

    def broken(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "info", broken)
    assert cli.main(["info", "--type", "A", "--rank", "1"]) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.usefixtures("inline_pool")
@pytest.mark.parametrize("exc,code,err", UNEXPECTED, ids=["memory", "key", "zero-division"])
def test_unexpected_exceptions_from_a_worker_exit_with_one_line(exc, code, err, monkeypatch, capsys):
    # the pool re-raises in the main process what a worker raised
    from demchar import cli

    def broken(g, lam):
        raise exc

    monkeypatch.setattr(cli, "sweep_verify_theorem", broken)
    assert cli.main(["verify-theorem", "--type", "A", "--rank", "2", "--parallel"]) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "argv,lines_read",
    [
        (["weyl", "--type", "B", "--rank", "4"], 1),  # about 150 kB: the reader leaves mid-output
        (["info", "--type", "A", "--rank", "2"], 0),  # all of it buffered: the final flush fails
        # about 240 kB of JSON, more than a pipe buffer: the reader leaves between chunks
        (["demchar", "--type", "B", "--rank", "4", "--tau", "w0", "--mu", "1,1,1,1", "--format", "json"], 1),
    ],
    ids=["mid-output", "at-shutdown", "mid-document"],
)
def test_closed_stdout_exits_141_silently(argv, lines_read):
    # block-buffered stdout, as on a plain pipe, so that the at-shutdown case writes nothing before the end
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    child = subprocess.Popen(
        [sys.executable, "-m", "demchar", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    for _ in range(lines_read):
        assert child.stdout.readline()
    child.stdout.close()
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == ""
    child.stderr.close()


class _PieceRecorder:
    """A stdout that keeps every piece written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_dump_json_writes_a_document_in_chunks(monkeypatch):
    from demchar import cli
    from demchar.charring import CHUNK_TERMS, json_text

    # every term has the same text at a given depth, so no piece may be longer than a
    # document of CHUNK_TERMS terms at the deepest place a character sits
    terms = {(10 + k // 90, 10 + k % 90): 1 for k in range(5 * CHUNK_TERMS // 2)}
    v = CharElement(2, terms)
    one_chunk = len(json_text({"b": [CharElement(2, dict(list(terms.items())[:CHUNK_TERMS]))]}))
    for obj in (v, {"b": [v, 1], "a": v}):
        out = _PieceRecorder()
        monkeypatch.setattr(sys, "stdout", out)
        cli._dump_json(obj)
        assert "".join(out.pieces) == json_text(obj) + "\n"
        assert max(map(len, out.pieces)) <= one_chunk


def test_deeply_nested_json_is_usage_error():
    # the JSON parser raises RecursionError, a RuntimeError, on deep nesting
    r = run_cli("decompose", "--type", "A", "--rank", "1", stdin="[" * 200_000)
    assert_usage_error(r)
    assert "nested too deeply" in r.stderr


def test_too_large_group_is_refused_up_front(monkeypatch):
    # grid 2 holds lam = 2 rho, whose sum has a nonzero term for every element of W; it is refused
    # before any Demazure step
    from demchar.rootsys import Packing

    def refuse(*args):
        raise AssertionError("a Demazure step ran")

    monkeypatch.setattr(Packing, "step", refuse)
    for rank, order in [(7, 2903040), (8, 696729600)]:
        code, err = run_in_process(["verify-kernel", "--type", "E", "--rank", str(rank), "--grid", "2"])
        assert code == 2
        assert err == (
            f"error: the kernel basis element of {[2] * rank} on E{rank} sums over {order} elements, "
            "above the bound MAX_ELEMENTS = 1000000\n"
        )


def test_verify_kernel_passes_on_e7_and_e8_at_grid_1_without_the_group(monkeypatch, capsys):
    from demchar import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the group was generated")

    monkeypatch.setattr(cli, "generate", refuse)
    for rank in (7, 8):
        assert main(["verify-kernel", "--type", "E", "--rank", str(rank), "--grid", "1"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "PASS" and err == ""
        if rank == 7:
            # what E7 printed when it generated the group
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "4522b0a41a9a938ee35c7b2ea916a019091f9feb89099a33f28b790832b55694"
            )


OMEGA_7 = (0, 0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize(
    "command,rest,lines",
    [
        ("demchar", ["--mu", "0,0,0,0,0,0,1"], "dimension: 56"),
        ("topchar", ["--lambda", "1,1,1,1,1,1,1"], "0\ndimension: 0"),
        ("euler", ["--mu", "0,0,0,0,0,0,1"], "dimension: 56"),
        ("bruhat", ["--w", "1", "--tau", "w0"], "true"),
    ],
    ids=["demchar", "topchar", "euler", "bruhat"],
)
def test_element_commands_run_on_e7_without_the_group(command, rest, lines, capsys):
    # w0 by default: the section character and the Euler characteristic of V(omega_7), of dimension 56
    assert weyl_dimension(build_datum("E", 7), OMEGA_7) == 56
    assert main([command, "--type", "E", "--rank", "7", *rest]) == 0
    out, err = capsys.readouterr()
    assert out.endswith(lines + "\n") and err == ""


def test_info_and_decompose_generate_no_group(monkeypatch):
    from demchar import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the group was generated")

    basis = json.dumps(kernel_basis_element(build_datum("A", 2), (2, 1)).to_json_dict())
    monkeypatch.setattr(cli, "generate", refuse)
    assert run_in_process(["info", "--type", "A", "--rank", "2"]) == (0, "")
    assert run_in_process(["info", "--type", "A", "--rank", "2", "--format", "json"]) == (0, "")
    assert run_in_process(["decompose", "--type", "A", "--rank", "2"], basis) == (0, "")
    assert run_in_process(["verify-kernel", "--type", "A", "--rank", "2", "--format", "json"]) == (0, "")
    # the element commands resolve their words on the root datum, on E8 as on A2
    for family, rank, omega in [("A", 2, "0,1"), ("E", 8, "0,0,0,0,0,0,0,1")]:
        ones = ",".join(["1"] * rank)
        for command, *rest in (
            ["demchar", "--mu", omega],
            ["topchar", "--lambda", ones],
            ["euler", "--w", "1,2", "--mu", omega, "--format", "json"],
            ["bruhat", "--w", "1", "--tau", "w0"],
        ):
            assert run_in_process([command, "--type", family, "--rank", str(rank), *rest]) == (0, ""), command


@pytest.mark.parametrize("rank,positive_roots,order", [(7, 63, 2903040), (8, 120, 696729600)])
def test_e7_and_e8_info_print_the_classified_order_and_the_longest_word(rank, positive_roots, order):
    start = time.perf_counter()
    r = run_cli("info", "--type", "E", "--rank", str(rank), "--format", "json", timeout=60)
    assert time.perf_counter() - start < 10
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["order"] == order and data["num_positive_roots"] == positive_roots
    d = build_datum("E", rank)
    word = data["longest_word"]
    assert len(word) == positive_roots
    # a word of |Phi+| letters that sends -rho to rho is a reduced word of w0
    lam = tuple(-c for c in d.rho)
    for i in reversed(word):
        lam = simple_reflection(d, i, lam)
    assert lam == d.rho


def test_e8_decompose_of_e_minus_rho():
    element = json.dumps({"rank": 8, "terms": [{"weight": [-1] * 8, "coeff": "1"}]})
    r = run_cli("decompose", "--type", "E", "--rank", "8", stdin=element, timeout=60)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == f"mu={[0] * 8} lambda={[1] * 8} coeff=1\n"


@pytest.mark.parametrize("command", ["verify-theorem", "verify-lemma31", "verify-kernel"])
def test_oversized_grid_is_refused_before_the_group(command, monkeypatch):
    from demchar import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the group was generated")

    monkeypatch.setattr(cli, "generate", refuse)
    code, err = run_in_process([command, "--type", "A", "--rank", "2", "--grid", "100000"])
    assert code == 2
    assert err == (
        "error: grid 100000 on A2 holds 10000000000 weights, "
        f"above the bound MAX_GRID_WEIGHTS = {cli.MAX_GRID_WEIGHTS}\n"
    )


def test_grid_bound_admits_a_grid_of_exactly_max_grid_weights(monkeypatch):
    from demchar import cli

    monkeypatch.setattr(cli, "MAX_GRID_WEIGHTS", 4)
    assert run_in_process(["verify-kernel", "--type", "A", "--rank", "2", "--grid", "2"]) == (0, "")
    code, err = run_in_process(["verify-kernel", "--type", "A", "--rank", "2", "--grid", "3"])
    assert code == 2 and "holds 9 weights, above the bound MAX_GRID_WEIGHTS = 4" in err


def test_rank_beyond_bound_is_usage_error():
    r = run_cli("info", "--type", "A", "--rank", "9")
    assert_usage_error(r)
    assert "bound 8" in r.stderr
    assert "max_rank" not in r.stderr


def test_e6_info_finishes():
    r = run_cli("info", "--type", "E", "--rank", "6", "--format", "json", timeout=60)
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["order"] == 51840
    assert len(data["longest_word"]) == 36


def run_in_process(argv: list[str], stdin: str = "") -> tuple[int, str]:
    """Exit code and stderr of one ``main`` call; any other exception propagates."""
    err = io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, err.getvalue()


FUZZ_TYPES = [("A", "1"), ("A", "2"), ("G", "2")]
COMMANDS = [
    "info", "weyl", "demchar", "topchar", "euler", "bruhat",
    "verify-theorem", "verify-lemma31", "verify-kernel", "decompose", "nosuch",
]
# no token starts with "-" by accident, so argparse never expands a random
# prefix such as "--gr" into an option with an unbounded value
PLAIN_TOKEN = st.text(alphabet="0123456789,.ew x", max_size=6)
WEIGHT_TEXT = st.one_of(
    st.lists(st.integers(-3, 3), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", "x", "1,,2", "1.5", "=-1"]),
    PLAIN_TOKEN,
)
ELEMENT_TEXT = st.one_of(
    st.sampled_from(["e", "w0"]),
    st.lists(st.integers(-1, 3), max_size=7).map(lambda xs: ",".join(map(str, xs))),
    PLAIN_TOKEN,
)
FRAGMENT = st.one_of(
    st.tuples(st.sampled_from(["--mu", "--lambda"]), WEIGHT_TEXT),
    st.tuples(st.sampled_from(["--tau", "--w"]), ELEMENT_TEXT),
    st.tuples(st.just("--grid"), st.sampled_from(["-1", "0", "1", "2", "x"])),
    st.tuples(st.just("--format"), st.sampled_from(["plain", "json", "xml"])),
    st.tuples(st.just("--max-group-order"), st.sampled_from(["-3", "0", "5", "12", "1000000"])),
    st.tuples(st.sampled_from(["--dot", "--", "-", "--nosuch", "-h"])),
    st.tuples(PLAIN_TOKEN),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(COMMANDS),
    st.sampled_from(FUZZ_TYPES),
    st.lists(FRAGMENT, max_size=4),
    st.data(),
)
def test_cli_fuzz_argv(command, family_rank, fragments, data):
    family, rank = family_rank
    argv = [command, "--type", family, "--rank", rank] + [token for frag in fragments for token in frag]
    if data.draw(st.booleans()):
        del argv[data.draw(st.integers(0, len(argv) - 1))]
    code, err = run_in_process(argv, '{"rank": 1, "terms": []}')
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
CHAR_LIKE = st.fixed_dictionaries(
    {
        "rank": st.integers(0, 3) | st.text(max_size=2),
        "terms": st.lists(
            st.fixed_dictionaries(
                {
                    "weight": st.lists(st.integers(-3, 3), max_size=3),
                    "coeff": st.integers(-5, 5) | st.integers(-5, 5).map(str) | st.text(max_size=3),
                }
            ),
            max_size=4,
        ),
    }
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(FUZZ_TYPES),
    st.one_of(
        st.text(max_size=30),
        st.integers(1, 5000).map(lambda n: "[" * n),
        JSON_VALUE.map(json.dumps),
        CHAR_LIKE.map(json.dumps),
    ),
)
def test_cli_fuzz_decompose_json(family_rank, body):
    family, rank = family_rank
    code, err = run_in_process(["decompose", "--type", family, "--rank", rank], body)
    assert code in (0, 1, 2), (body, code, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("family,rank", FUZZ_TYPES)
def test_cli_decompose_in_process_accepts_kernel_members(family, rank):
    v = kernel_basis_element(build_datum(family, int(rank)), (2,) * int(rank))
    assert run_in_process(["decompose", "--type", family, "--rank", rank], json.dumps(v.to_json_dict())) == (0, "")


def test_only_bruhat_commands_build_the_table(monkeypatch, tmp_path):
    from demchar import weyl

    real = weyl._bruhat_table
    calls = []

    def refuse(g):
        raise AssertionError("the Bruhat table was built")

    def counted(g):
        calls.append(g.order)
        return real(g)

    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(kernel_basis_element(build_datum("A", 3), (1, 2, 1)).to_json_dict()))
    monkeypatch.setattr(weyl, "_bruhat_table", refuse)
    common = ["--type", "A", "--rank", "3"]
    for command, *rest in (
        ["info"],
        ["demchar", "--mu", "1,0,2"],
        ["topchar", "--lambda", "1,2,1"],
        ["euler", "--w", "1,2", "--mu=-1,0,2"],
        ["verify-kernel", "--grid", "1"],
        ["decompose", str(basis)],
        ["bruhat", "--w", "1,3", "--tau", "w0"],
    ):
        assert run_in_process([command, *common, *rest]) == (0, ""), command

    monkeypatch.setattr(weyl, "_bruhat_table", counted)
    assert run_in_process(["weyl", *common]) == (0, "")
    assert calls == [24]


@pytest.mark.parametrize("command", ["weyl", "verify-theorem", "verify-lemma31"])
def test_e6_table_commands_are_refused_at_once(command):
    start = time.perf_counter()
    r = run_cli(command, "--type", "E", "--rank", "6", timeout=60)
    assert time.perf_counter() - start < 5
    assert_usage_error(r)
    assert r.stdout == ""
    assert "Bruhat table of E6 (51840 elements)" in r.stderr and "bruhat compares two elements without it" in r.stderr


def test_e6_bruhat_comparison_needs_no_table():
    common = ["bruhat", "--type", "E", "--rank", "6"]
    r = run_cli(*common, "--w", "1", "--tau", "w0", timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "true\n", "")
    r = run_cli(*common, "--w", "w0", "--tau", "1", timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "false\n", "")


def test_verify_kernel_reports_a_basis_element_outside_n_as_mismatch(monkeypatch, capsys):
    from demchar import cli

    real = cli.kernel_basis_element
    monkeypatch.setattr(cli, "kernel_basis_element", lambda d, lam: real(d, lam) + CharElement.monomial((1, 0)))
    assert main(["verify-kernel", "--type", "A", "--rank", "2", "--grid", "1"]) == 1
    out, err = capsys.readouterr()
    assert "member=False" in out and "roundtrip=False" in out
    assert out.splitlines()[-1] == "FAIL"
    assert err == ""


def test_parallel_sweep_hands_workers_the_built_table(inline_pool, capsys):
    argv = ["verify-theorem", "--type", "A", "--rank", "2", "--grid", "3"]
    parallel = stdout_in_process([*argv, "--parallel"], capsys)
    assert inline_pool["tables"] == [True]
    # the largest predicted work first, ties in grid order; the output stays in grid order
    d = oracles.group("A", 2).datum
    grid = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    dims = {lam: oracles.weyl_dimension(d, (lam[0] - 1, lam[1] - 1)) for lam in grid}
    assert inline_pool["dispatched"] == sorted(grid, key=lambda lam: -dims[lam])
    assert inline_pool["dispatched"][:3] == [(3, 3), (2, 3), (3, 2)]
    assert parallel == stdout_in_process(argv, capsys)
    lines = parallel[1].splitlines()[1:10]
    assert [line.split(" checks=")[0] for line in lines] == [f"lambda={list(lam)}" for lam in grid]


def test_parallel_pool_starts_one_worker_per_lambda_up_to_the_usable_cores(inline_pool, monkeypatch, capsys):
    argv = ["verify-theorem", "--type", "A", "--rank", "2", "--grid", "2", "--format", "json"]
    serial = stdout_in_process(argv, capsys)
    assert serial[0] == 0 and inline_pool["workers"] == []
    # 64 usable cores and 4 lambdas: 4 workers
    assert stdout_in_process([*argv, "--parallel"], capsys) == serial
    assert inline_pool["workers"] == [4]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9})
    assert stdout_in_process([*argv, "--parallel"], capsys) == serial
    assert inline_pool["workers"] == [4, 3]
    # where the platform has no CPU affinity, every core counts
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert stdout_in_process([*argv, "--parallel"], capsys) == serial
    assert inline_pool["workers"] == [4, 3, 2]
    # one usable core runs the sweep serially, and so does one lambda
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert stdout_in_process([*argv, "--parallel"], capsys) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert stdout_in_process([*argv[:-4], "--grid", "1", "--parallel"], capsys)[0] == 0
    assert inline_pool["workers"] == [4, 3, 2]


def test_decompose_fold_past_its_bound_exits_three(freeze_reflections):
    v = kernel_basis_element(build_datum("A", 2), (2, 3))
    freeze_reflections()
    code, err = run_in_process(["decompose", "--type", "A", "--rank", "2"], json.dumps(v.to_json_dict()))
    assert code == 3
    assert err.startswith("internal error:") and "reflections" in err


def test_decompose_invariant_element_outside_the_kernel_exits_three(monkeypatch):
    from demchar import kernel

    v = kernel_basis_element(build_datum("A", 2), (2, 1))
    monkeypatch.setattr(kernel, "in_kernel", lambda d, v: False)
    code, err = run_in_process(["decompose", "--type", "A", "--rank", "2"], json.dumps(v.to_json_dict()))
    assert code == 3
    assert err.startswith("internal error:") and "disagree" in err


def test_decompose_refuses_a_twelve_digit_non_member_at_once():
    # the W-invariance lookup refuses it before any weight string of about 10^12 terms is expanded
    bad = {"rank": 2, "terms": [{"weight": [10**12, 0], "coeff": "1"}]}
    r = run_cli("decompose", "--type", "A", "--rank", "2", stdin=json.dumps(bad), timeout=10)
    assert_usage_error(r)
    assert "not in the joint Demazure kernel: simple reflection 1 moves" in r.stderr


def spread_element(n: int) -> str:
    """The A1 kernel element e^(n-1) + e^(-n-1), so e^rho * v = e^n + e^-n, as JSON."""
    return json.dumps({"rank": 1, "terms": [{"weight": [n - 1], "coeff": "1"}, {"weight": [-n - 1], "coeff": "1"}]})


def test_decompose_refuses_an_oversized_guard_at_once():
    # the guard's step of letter 1 would expand 2 * 10^7 weight-string terms, above rootsys.MAX_GUARD_TERMS
    start = time.perf_counter()
    r = run_cli("decompose", "--type", "A", "--rank", "1", stdin=spread_element(10**7), timeout=30)
    assert time.perf_counter() - start < 5
    assert_usage_error(r)
    assert "above the bound MAX_GUARD_TERMS" in r.stderr
    small = run_cli("decompose", "--type", "A", "--rank", "1", stdin=spread_element(10**3))
    assert small.returncode == 0, small.stderr
    assert small.stdout.splitlines() == ["mu=[998] lambda=[999] coeff=-1", "mu=[1000] lambda=[1001] coeff=1"]


def test_verify_kernel_passes_on_a_guard_refusal(monkeypatch):
    # a refusal for size in a round trip is not a failed round trip, so it is exit 2 and not a mismatch
    from demchar import cli
    from demchar.rootsys import GuardBoundError

    def refuse(d, v):
        raise GuardBoundError("the Demazure step of letter 1 would expand 2 weight-string terms, above the bound")

    monkeypatch.setattr(cli, "decompose", refuse)
    code, err = run_in_process(["verify-kernel", "--type", "A", "--rank", "2", "--grid", "2"])
    assert code == 2
    assert err.startswith("error: the Demazure step of letter 1") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--type", "A", "--rank", "2", "--grid", "2"],
        ["verify-theorem", "--type", "A", "--rank", "2", "--grid", "2", "--parallel"],
        ["verify-lemma31", "--type", "A", "--rank", "2", "--grid", "2"],
        ["verify-lemma31", "--type", "A", "--rank", "2", "--grid", "2", "--parallel"],
        ["verify-kernel", "--type", "A", "--rank", "2", "--grid", "2"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[7:]),
)
@pytest.mark.usefixtures("inline_pool")
def test_the_step_bound_reaches_every_step(monkeypatch, argv):
    # the sweeps' walk over W and verify-kernel's basis elements, membership and round trips all step through
    # Packing.step, so a lowered bound refuses each of them as a usage error, never as a mismatch;
    # the largest step of the A2 sweeps at grid 2 expands 8 weight-string terms, verify-kernel's 18
    from demchar import rootsys

    monkeypatch.setattr(rootsys, "MAX_GUARD_TERMS", 7)
    code, err = run_in_process(argv)
    assert code == 2, err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the Demazure step of letter") and err.endswith("MAX_GUARD_TERMS = 7\n")
    if argv[0] != "verify-kernel":
        monkeypatch.setattr(rootsys, "MAX_GUARD_TERMS", 8)
        assert run_in_process(argv)[0] == 0


@pytest.mark.parametrize("rank,mu", [("1", "1000000000"), ("2", "10000,10000")])
def test_an_oversized_character_is_refused_at_once(rank, mu):
    # D_w0(e^mu) is ch V(mu), of dimension 10^9 + 1 on A1 and about 10^12 on A2
    start = time.perf_counter()
    r = run_cli("demchar", "--type", "A", "--rank", rank, "--mu", mu, timeout=60)
    assert time.perf_counter() - start < 5
    assert_usage_error(r)
    assert r.stdout == ""
    assert "weight-string terms, above the bound MAX_GUARD_TERMS = 10000000" in r.stderr


def test_decompose_rank_mismatch_reads_the_library_message():
    bad = {"rank": 3, "terms": [{"weight": [1, 0, 0], "coeff": "1"}]}
    r = run_cli("decompose", "--type", "A", "--rank", "2", stdin=json.dumps(bad))
    assert_usage_error(r)
    assert r.stderr == "error: character of rank 3 given; A2 needs rank 2\n"


@pytest.mark.parametrize("mu", [(3, -(10**12)), (-3, 10**12)])
def test_euler_with_twelve_digit_coordinates_prints_the_reference(mu):
    # s_1 strings stay short (t = 3 and t = -3), so only the radix is large
    r = run_cli("euler", "--type", "A", "--rank", "2", "--w", "1", "--mu=" + ",".join(map(str, mu)))
    assert r.returncode == 0, r.stderr
    expected = oracles.tuple_word(oracles.group("A", 2).datum, (1,), CharElement.monomial(mu))
    assert r.stdout == f"{expected}\ndimension: {expected.dimension()}\n"


def stdout_in_process(argv: list[str], capsys, stdin: str = "") -> tuple[int, str]:
    """Exit code and stdout of one ``main`` call, with ``stdin`` as its standard input."""
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdin = saved_stdin
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


def assert_stdlib_bytes(out: str) -> None:
    assert out == oracles.json_reference(json.loads(out)) + "\n"


ZERO_CHAR = json.dumps({"rank": 1, "terms": []})
A2_BASIS = json.dumps(kernel_basis_element(build_datum("A", 2), (2, 1)).to_json_dict())


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["info", "--type", "G", "--rank", "2"], ""),
        (["weyl", "--type", "A", "--rank", "2"], ""),
        (["demchar", "--type", "B", "--rank", "3", "--mu", "1,0,1"], ""),
        (["demchar", "--type", "A", "--rank", "2", "--tau", "e", "--mu", "1000000000000,0"], ""),
        (["topchar", "--type", "G", "--rank", "2", "--lambda", "1,2"], ""),
        (["euler", "--type", "A", "--rank", "2", "--w", "1,2", "--mu=-3,1"], ""),
        (["euler", "--type", "A", "--rank", "1", "--w", "1", "--mu=-1"], ""),  # the zero element
        (["bruhat", "--type", "B", "--rank", "3", "--w", "1,2", "--tau", "w0"], ""),
        (["verify-theorem", "--type", "A", "--rank", "2", "--grid", "2"], ""),
        (["verify-lemma31", "--type", "G", "--rank", "2", "--grid", "1"], ""),
        (["verify-kernel", "--type", "A", "--rank", "2", "--grid", "2"], ""),
        (["decompose", "--type", "A", "--rank", "2"], A2_BASIS),
        (["decompose", "--type", "A", "--rank", "1"], ZERO_CHAR),
    ],
    ids=[
        "info", "weyl", "demchar", "demchar-12-digit", "topchar", "euler", "euler-zero", "bruhat",
        "verify-theorem", "verify-lemma31", "verify-kernel", "decompose", "decompose-zero",
    ],
)
def test_json_output_has_the_stdlib_bytes(argv, stdin, capsys):
    code, out = stdout_in_process([*argv, "--format", "json"], capsys, stdin)
    assert code == 0
    assert_stdlib_bytes(out)


@pytest.mark.usefixtures("sections_of_lam")
@pytest.mark.parametrize("command", ["verify-theorem", "verify-lemma31"])
def test_failing_json_sweep_has_the_stdlib_bytes(command, capsys):
    code, out = stdout_in_process([command, "--type", "A", "--rank", "2", "--format", "json"], capsys)
    assert code == 1
    assert_stdlib_bytes(out)
    data = json.loads(out)
    reports = [r for block in data["sweeps"] for r in block["reports"]]
    assert data["all_passed"] is False and len(reports) == 24
    assert all(not r["passed"] and r["difference_terms"] for r in reports)


@pytest.mark.usefixtures("sections_of_lam")
def test_plain_counterexample_has_the_stdlib_bytes(capsys):
    from demchar.theorem import sweep_verify_theorem

    code, out = stdout_in_process(["verify-theorem", "--type", "B", "--rank", "2", "--grid", "1"], capsys)
    assert code == 1
    head, block = out.split("first counterexample:\n")
    assert head.endswith("total checks=8 passed=0\n")
    assert block.endswith("}\nFAIL\n")
    text = block[: -len("FAIL\n")]
    assert_stdlib_bytes(text)
    assert json.loads(text)["difference_terms"]
    g = oracles.group("B", 2)
    for tau, r in enumerate(sweep_verify_theorem(g, (2, 1))):
        assert not r.passed and r.sides[0] == oracles.interval_sum(g, tau, (2, 1))


_ELEMENT_OUTPUTS = [
    ("weyl --dot", "D", 4, "947bd8d4065692ed59876a54c2869c53449e757003a43710603c589a62a81d7d"),
    ("weyl --dot", "F", 4, "a9af9ec97048b24442c13f9fb2b169bdef8a4a2197c43a1d2510232e9de7ad25"),
    ("weyl --dot", "B", 3, "a6ae5cf06b36f3495f5ca421e632afe5cfceb2a6baec2e75b2fd9756e690ef28"),
    ("info --format json", "B", 3, "57c2719a18412d8297f9cef6a246e9717e085720b5e6ec23e978f6b6f3788fad"),
    ("info --format json", "G", 2, "5d142ae7b241c783abfacd15eb2e78b6977eb03a2094524e43ca7d58e121f6b6"),
    ("weyl", "B", 3, "abb23ac26023ec06a6c6e71218b7f18f488a85edac121da0d9fdbc672210b1ee"),
    ("weyl", "G", 2, "e29b947568d2862cac2cd726ed55111346f4afdf246bf3a2c647911112c97c00"),
    ("weyl --format json", "B", 3, "f4a8845bbd399ac5c4998dd41b702d6966eb47f4d3676f0ddaa0d77ff30a1439"),
    ("weyl --format json", "G", 2, "7e1b50b751b3cfbfb5bb0ecf0e64fc844a2f7a6bab9088a08c5a9c37b6e025fd"),
    ("bruhat --w 1 --tau w0 --format json", "B", 3, "282ba2960c1ca87d52db37579477418587c0e8ba252146963dbcb7ad5ad8bf9c"),
    ("bruhat --w 1 --tau w0 --format json", "G", 2, "1653a6d669b366a55ef1107da1ca308479036f856914422d6f34e2178ad463f0"),
]


@pytest.mark.parametrize(
    "command,family,rank,digest",
    _ELEMENT_OUTPUTS,
    ids=[
        "dot-D4", "dot-F4", "dot-B3", "info-json-B3", "info-json-G2", "weyl-B3", "weyl-G2",
        "weyl-json-B3", "weyl-json-G2", "bruhat-json-B3", "bruhat-json-G2",
    ],
)
def test_element_output_bytes_are_pinned(command, family, rank, digest, capsys):
    """The whole stdout of each command that prints element words and lengths, pinned by digest."""
    argv = [*command.split(), "--type", family, "--rank", str(rank)]
    code, out = stdout_in_process(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.usefixtures("sections_of_lam")
@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["verify-theorem", "--type", "A", "--rank", "2", "--format", "json"],
            "838a8edc5ce8ff0020a13e871fb60f381a8ce351577190d93eaf1ff158fc78d1",
        ),
        (
            ["verify-lemma31", "--type", "B", "--rank", "2", "--format", "json"],
            "34412ad0acd74fcdaedfa5626f6722ecd7a40f9b7e072813df68d9057a4eefad",
        ),
        (
            ["verify-theorem", "--type", "B", "--rank", "2", "--grid", "1"],
            "4f76415ea8a6feee07d2f9d07ce51cb616db7184f3b4c8e1222650ccd99b549f",
        ),
    ],
    ids=["theorem-A2-json", "lemma31-B2-json", "theorem-B2-plain"],
)
def test_failing_output_bytes_are_pinned(argv, digest, capsys):
    """The whole stdout of three runs where every check fails, pinned by digest."""
    code, out = stdout_in_process(argv, capsys)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest
