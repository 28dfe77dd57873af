import contextlib
import io
import json
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demchar.charring import CHAR_ELEMENT_SCHEMA, CharElement
from demchar.cli import build_parser, main
from demchar.kernel import DECOMPOSITION_SCHEMA, kernel_basis_element

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
            "--max-group-order",
            "5000",
        ]
    )
    assert (args.command, args.family, args.rank, args.grid) == ("verify-theorem", "B", 3, 2)
    assert (args.fmt, args.parallel, args.max_group_order) == ("json", True, 5000)
    assert not hasattr(args, "weight")
    args2 = build_parser().parse_args(["demchar", "--type", "A", "--rank", "2", "--mu", "1,2"])
    assert (args2.element, args2.weight) == ("w0", (1, 2))
    # the three character commands share the dests element and weight
    args3 = build_parser().parse_args(["topchar", "--type", "A", "--rank", "2", "--w", "1", "--lambda", "3,4"])
    assert (args3.element, args3.weight) == ("1", (3, 4))


def test_max_group_order_flag():
    r = run_cli("info", "--type", "A", "--rank", "3", "--max-group-order", "10")
    assert r.returncode == 2
    assert "exceeds the bound" in r.stderr


def test_emit_sweep_reports_mismatch_with_exit_one(capsys):
    # a mathematical mismatch cannot be produced by the real identities, so
    # exercise the reporting path with a fabricated failing report
    from demchar.cli import EXIT_MISMATCH, _emit_sweep

    g = oracles.group("A", 1)
    args = build_parser().parse_args(["verify-theorem", "--type", "A", "--rank", "1"])
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
    code = _emit_sweep(args, g, [failing])
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


def test_deeply_nested_json_is_usage_error():
    # the JSON parser raises RecursionError, a RuntimeError, on deep nesting
    r = run_cli("decompose", "--type", "A", "--rank", "1", stdin="[" * 200_000)
    assert_usage_error(r)
    assert "nested too deeply" in r.stderr


def test_too_large_group_is_refused_up_front():
    r = run_cli("info", "--type", "E", "--rank", "7", timeout=60)
    assert_usage_error(r)
    assert "--max-group-order" in r.stderr


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
    v = kernel_basis_element(oracles.group(family, int(rank)), (2,) * int(rank))
    assert run_in_process(["decompose", "--type", family, "--rank", rank], json.dumps(v.to_json_dict())) == (0, "")


def test_only_bruhat_commands_build_the_table(monkeypatch, tmp_path):
    from demchar import weyl

    real = weyl._bruhat_table
    calls = []

    def refuse(elements, left_mult):
        raise AssertionError("the Bruhat table was built")

    def counted(elements, left_mult):
        calls.append(len(elements))
        return real(elements, left_mult)

    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(kernel_basis_element(oracles.group("A", 3), (1, 2, 1)).to_json_dict()))
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


def test_e6_bruhat_comparison_needs_no_table():
    common = ["bruhat", "--type", "E", "--rank", "6"]
    r = run_cli(*common, "--w", "1", "--tau", "w0", timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "true\n", "")
    r = run_cli(*common, "--w", "w0", "--tau", "1", timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "false\n", "")


def test_verify_kernel_reports_a_basis_element_outside_n_as_mismatch(monkeypatch, capsys):
    from demchar import cli

    real = cli.kernel_basis_element
    monkeypatch.setattr(cli, "kernel_basis_element", lambda g, lam: real(g, lam) + CharElement.monomial((1, 0)))
    assert main(["verify-kernel", "--type", "A", "--rank", "2", "--grid", "1"]) == 1
    out, err = capsys.readouterr()
    assert "member=False" in out and "roundtrip=False" in out
    assert out.splitlines()[-1] == "FAIL"
    assert err == ""


def test_parallel_sweep_hands_workers_the_built_table(monkeypatch):
    import multiprocessing

    from demchar import cli

    seen = []

    class InlinePool:
        def __init__(self, initializer, initargs):
            seen.append("bruhat_rows" in vars(initargs[0]))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(cli, "_worker_group", None)
    assert run_in_process(["verify-theorem", "--type", "A", "--rank", "2", "--parallel"]) == (0, "")
    assert seen == [True]


def test_decompose_fold_past_its_bound_exits_three(monkeypatch):
    from demchar import kernel

    v = kernel_basis_element(oracles.group("A", 2), (2, 3))
    monkeypatch.setattr(kernel, "simple_reflection", lambda d, i, x: x)
    code, err = run_in_process(["decompose", "--type", "A", "--rank", "2"], json.dumps(v.to_json_dict()))
    assert code == 3
    assert err.startswith("internal error:") and "reflections" in err


def test_decompose_invariant_element_outside_the_kernel_exits_three(monkeypatch):
    from demchar import kernel

    v = kernel_basis_element(oracles.group("A", 2), (2, 1))
    monkeypatch.setattr(kernel, "in_kernel", lambda g, v: False)
    code, err = run_in_process(["decompose", "--type", "A", "--rank", "2"], json.dumps(v.to_json_dict()))
    assert code == 3
    assert err.startswith("internal error:") and "disagree" in err


def test_decompose_refuses_a_twelve_digit_non_member_at_once():
    # the W-invariance lookup refuses it before any weight string of about 10^12 terms is expanded
    bad = {"rank": 2, "terms": [{"weight": [10**12, 0], "coeff": "1"}]}
    r = run_cli("decompose", "--type", "A", "--rank", "2", stdin=json.dumps(bad), timeout=10)
    assert_usage_error(r)
    assert "not in the joint Demazure kernel: simple reflection 1 moves" in r.stderr


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
