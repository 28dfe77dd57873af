"""Command-line surface: type queries, character computations, and batch
verification sweeps.

Each command reads the parsed argparse namespace.  Weights are parsed into
integer tuples by argparse, and their length is checked by the library
(``rootsys.check_weight_rank``).  ``--parallel`` is an option of
``verify-theorem`` and ``verify-lemma31`` only, the sweeps that distribute
their weights over a process pool; ``verify-kernel`` runs serially.

A sweep hands out its weights in descending order of predicted work, dim
V(lam - rho) by Weyl's dimension formula, ties in grid order, and puts the
blocks back in grid order.  The pool has one worker per weight, at most one
per usable core (``_usable_cores``); a sweep with one worker runs serially.
Serial and parallel runs share one path: each weight's block is summarized
where it is computed (``_sweep_lambda``), so only its failing reports and,
for JSON, its rendered text outlive it.  A passing report is written from
one template, with each tau's word rendered once per command; a failing
one goes through ``VerificationReport.to_json_dict``.

Exit codes: 0 all checks verified, 1 mathematical mismatch, 2 usage error
(also when memory runs out, in this process or in a pool worker), 3
internal error (a consistency check inside the library failed, or any other
exception escaped a command), 141 stdout closed early (the code a shell
shows for SIGPIPE), with nothing on stderr.  Every error is one line on
stderr.  Output is deterministic and byte-identical between serial and
parallel runs.  Every JSON document is printed by ``_dump_json`` through
the emitter ``charring.json_chunks`` (the bytes of ``json.dumps(obj,
indent=2, sort_keys=True)``), written chunk by chunk and never held whole;
a character is handed to it as a CharElement, and a block or a report
rendered ahead as a ``charring.Fragment``.  Every value in it is computed
before the first chunk is written, so after that only a closed pipe stops
the document (exit 141).

Only ``weyl``, ``verify-theorem`` and ``verify-lemma31`` generate the group,
to read its Bruhat table, and a table above ``weyl.MAX_BRUHAT_TABLE_BYTES`` is
refused before that; the others build the root datum alone and name an
element by a word (``_resolve_element``).  A grid of more than
``MAX_GRID_WEIGHTS`` weights, or a ``verify-kernel`` grid whose largest
basis element sums over more than ``weyl.MAX_ELEMENTS`` nonzero terms, is
refused before any sweep or Demazure step runs.
Every command that takes a Demazure step refuses one that would expand
more than ``rootsys.MAX_GUARD_TERMS`` weight-string terms (exit 2);
``verify-kernel`` passes that refusal on instead of counting it as a
failed round trip.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from pathlib import Path
from typing import NamedTuple

from .charring import CharElement, Fragment, json_chunks, json_text
from .demazure import demazure_char, euler_char, top_cohomology_char
from .kernel import (
    decompose,
    decomposition_to_json,
    in_kernel,
    is_demazure_invariant,
    kernel_basis_element,
    verify_characterization,
)
from .rootsys import GuardBoundError, RootDatum, Weight, build_datum, orbit_size, weight_neg, weight_sub, weyl_dimension
from .weyl import (
    WeylGroup,
    act,
    bruhat_leq,
    canonical_word,
    check_bruhat_table,
    generate,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141

# fixed seed: randomized kernel combinations must print identically across runs
KERNEL_SWEEP_SEED = 0x5EED

# a sweep lists its grid^rank weights up front; every grid in use holds at most 32 (D5 at grid 2)
MAX_GRID_WEIGHTS = 10**4


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers: a weight given on the command line, or a word."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}; expected comma-separated integers") from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits 2."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="demchar",
        description="Exact Demazure-operator computations and identity verification "
        "on weight-lattice character rings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", required=True, dest="family", help="family letter A-G")
    common.add_argument("--rank", required=True, type=int)
    common.add_argument("--format", default="plain", choices=("plain", "json"), dest="fmt")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", parents=[common], help="group order, roots, Cartan matrix")

    p = sub.add_parser("weyl", parents=[common], help="dump elements and Bruhat table")
    p.add_argument("--dot", action="store_true", help="emit the Bruhat Hasse diagram as DOT")

    # the character commands share the dests element and weight, so one cmd_char serves
    # all three; each metavar keeps the flag's own name in the help text
    p = sub.add_parser("demchar", parents=[common], help="section character for dominant mu")
    p.add_argument(
        "--tau", default="w0", dest="element", metavar="TAU", help='element: "e", "w0", or a word like "1,2,1"'
    )
    p.add_argument(
        "--mu", required=True, type=_parse_ints, dest="weight", metavar="MU", help="dominant weight, comma-separated"
    )

    p = sub.add_parser("topchar", parents=[common], help="top cohomology character of -lambda")
    p.add_argument("--w", default="w0", dest="element", metavar="W", help='element: "e", "w0", or a word')
    p.add_argument(
        "--lambda", required=True, type=_parse_ints, dest="weight", metavar="LAM", help="regular dominant weight"
    )

    p = sub.add_parser("euler", parents=[common], help="Euler characteristic for any mu")
    p.add_argument("--w", default="w0", dest="element", metavar="W")
    p.add_argument("--mu", required=True, type=_parse_ints, dest="weight", metavar="MU")

    for name in ("verify-theorem", "verify-lemma31", "verify-kernel"):
        p = sub.add_parser(name, parents=[common], help=f"batch verification sweep ({name})")
        p.add_argument("--grid", type=int, default=2, help="sweep weights with coordinates in [1, grid]")
        if name != "verify-kernel":
            p.add_argument("--parallel", action="store_true", help="parallelize sweeps over weights")

    p = sub.add_parser("decompose", parents=[common], help="decompose a kernel element (JSON in)")
    p.add_argument("charfile", nargs="?", default=None, help="CharElement JSON file (default stdin)")

    p = sub.add_parser("bruhat", parents=[common], help="compare two elements in Bruhat order")
    p.add_argument("--w", required=True)
    p.add_argument("--tau", required=True)

    return parser


def load_group(d: RootDatum) -> WeylGroup:
    """The Weyl group of d, refused up front if its Bruhat table is too large; sweep workers receive this group."""
    check_bruhat_table(d)
    return generate(d)


def _resolve_element(d: RootDatum, selector: str) -> tuple[int, ...]:
    """The canonical reduced word of the element named on the command line: "e", "w0" or a word."""
    if selector == "e":
        return ()
    if selector == "w0":
        return canonical_word(d, weight_neg(d.rho))
    return canonical_word(d, act(d, _parse_ints(selector), d.rho))


def _dump_json(obj) -> None:
    sys.stdout.writelines(json_chunks(obj))
    sys.stdout.write("\n")


def _lambda_grid(d: RootDatum, grid: int) -> list[Weight]:
    if grid < 1:
        raise ValueError("grid bound must be at least 1")
    if grid**d.rank > MAX_GRID_WEIGHTS:
        raise ValueError(
            f"grid {grid} on {d.family}{d.rank} holds {grid**d.rank} weights, "
            f"above the bound MAX_GRID_WEIGHTS = {MAX_GRID_WEIGHTS}"
        )
    return [tuple(c) for c in itertools.product(range(1, grid + 1), repeat=d.rank)]


def cmd_info(args: argparse.Namespace) -> int:
    d = build_datum(args.family, args.rank)
    order = orbit_size(d, d.rho)
    longest_word = list(canonical_word(d, weight_neg(d.rho)))
    if args.fmt == "json":
        _dump_json(
            {
                "family": d.family,
                "rank": d.rank,
                "order": order,
                "num_positive_roots": len(d.positive_roots),
                "cartan": [list(row) for row in d.cartan],
                "rho": list(d.rho),
                "longest_word": longest_word,
            }
        )
    else:
        print(f"type: {d.family}{d.rank}")
        print(f"order of the Weyl group: {order}")
        print(f"positive roots: {len(d.positive_roots)}")
        print(f"rho: {list(d.rho)}")
        print(f"longest element word: {longest_word}")
        print("cartan:")
        for row in d.cartan:
            print(f"  {list(row)}")
    return EXIT_OK


def cmd_weyl(args: argparse.Namespace) -> int:
    if args.dot and args.fmt == "json":
        raise ValueError("--dot prints DOT, not JSON; drop --format json")
    g = load_group(build_datum(args.family, args.rank))
    if args.dot:
        print("digraph bruhat {")
        print("  rankdir=BT;")
        for k in range(g.order):
            label = ",".join(map(str, g.word(k))) or "e"
            print(f'  n{k} [label="{label}"];')
        for tau, covers in enumerate(g.lower_covers):
            for w in covers:
                print(f"  n{w} -> n{tau};")
        print("}")
        return EXIT_OK
    if args.fmt == "json":
        _dump_json(
            {
                "elements": [
                    {"index": k, "length": g.length[k], "word": list(g.word(k))} for k in range(g.order)
                ],
                "bruhat_rows": [format(row, "x") for row in g.bruhat_rows],
            }
        )
    else:
        for k in range(g.order):
            print(f"{k}: length={g.length[k]} word={list(g.word(k))}")
        print("bruhat rows (element index ascending, leftmost bit = identity):")
        spec = f"0{g.order}b"  # bit k is the k-th character from the right
        for row in g.bruhat_rows:
            print(format(row, spec)[::-1].replace("0", "."))
    return EXIT_OK


def cmd_char(args: argparse.Namespace) -> int:
    d = build_datum(args.family, args.rank)
    char = {"demchar": demazure_char, "topchar": top_cohomology_char, "euler": euler_char}[args.command]
    v = char(d, _resolve_element(d, args.element), args.weight)
    if args.fmt == "json":
        _dump_json(v)
    else:
        print(v)
        print(f"dimension: {v.dimension()}")
    return EXIT_OK


def cmd_bruhat(args: argparse.Namespace) -> int:
    d = build_datum(args.family, args.rank)
    w = _resolve_element(d, args.w)
    tau = _resolve_element(d, args.tau)
    result = bruhat_leq(d, w, tau)
    if args.fmt == "json":
        _dump_json({"w": list(w), "tau": list(tau), "leq": result})
    else:
        print("true" if result else "false")
    return EXIT_OK


class _Block(NamedTuple):
    """What the emitter needs of one lambda's sweep: small enough to pickle back from a worker.

    ``failures`` holds the report dicts of the failing checks; ``text`` is
    the whole block, rendered, for ``--format json`` only.
    """

    lam: list[int]
    checks: int
    failures: list[dict]
    text: Fragment | None


# json_text's layout, at indent 0, of a passing report (from dim_lhs, dim_rhs, interval_size, lambda
# and tau) and of a block (from lambda and its reports, each at indent 0, joined and indented by 4)
_PASSED_REPORT = (
    '{\n  "difference_terms": [],\n  "dim_lhs": "%d",\n  "dim_rhs": "%d",\n  "interval_size": %d,\n'
    '  "lambda": %s,\n  "passed": true,\n  "tau": %s\n}'
)
_BLOCK = '{\n  "lambda": %s,\n  "reports": [\n    %s\n  ]\n}'


class _Sweep:
    """One sweep command's group, with the text of each element's word as a passing report's "tau".

    One is made per command, or per pool worker, before any walk: so a
    tau's word is rendered at most once per command, and these long-lived
    objects do not land among a walk's freed memory, where they would keep
    it from being returned (the B4 grid 2 JSON sweep peaks at 32.1 MB of RSS
    when they are built after its first walk, 29.9 MB before).
    """

    def __init__(self, g: WeylGroup):
        self.group = g
        self.words = [_report_field(list(g.word(k))) for k in range(g.order)]


def _report_field(value) -> str:
    """The JSON text of value as the value of a key in a dict at indent 0."""
    return json_text(value).replace("\n", "\n  ")


def sweep_verify_theorem(g: WeylGroup, lam: Weight) -> list:
    """``theorem.sweep_verify_theorem``; only the sweeps import ``theorem``, so no other command compiles it."""
    from .theorem import sweep_verify_theorem

    return sweep_verify_theorem(g, lam)


def sweep_verify_lemma31(g: WeylGroup, lam: Weight) -> list:
    """``theorem.sweep_verify_lemma31``, imported like ``sweep_verify_theorem``."""
    from .theorem import sweep_verify_lemma31

    return sweep_verify_lemma31(g, lam)


def _sweep_lambda(sweep: _Sweep, command: str, fmt: str, lam: Weight) -> _Block:
    # built per call, so a replaced module attribute takes effect
    check = {"verify-theorem": sweep_verify_theorem, "verify-lemma31": sweep_verify_lemma31}[command]
    reports = check(sweep.group, lam)
    failures = {k: r.to_json_dict(sweep.group.word(k), lam) for k, r in enumerate(reports) if not r.passed}
    text = None
    if fmt == "json":
        lam_text = _report_field(list(lam))
        rendered = [
            _PASSED_REPORT % (r.dim_lhs, r.dim_rhs, r.interval_size, lam_text, sweep.words[k])
            if r.passed
            else json_text(failures[k])
            for k, r in enumerate(reports)
        ]
        text = Fragment(_BLOCK % (lam_text, ",\n".join(rendered).replace("\n", "\n    ")))
    return _Block(list(lam), len(reports), list(failures.values()), text)


# set in each pool worker by _init_worker, never in the main process
_worker_sweep: _Sweep | None = None


def _init_worker(g: WeylGroup) -> None:
    global _worker_sweep
    _worker_sweep = _Sweep(g)


def _sweep_task(task: tuple) -> _Block:
    return _sweep_lambda(_worker_sweep, *task)


def _emit_sweep(args: argparse.Namespace, g: WeylGroup, blocks: list[_Block]) -> int:
    checks = sum(block.checks for block in blocks)
    failures = [r for block in blocks for r in block.failures]
    if args.fmt == "json":
        _dump_json(
            {
                "command": args.command,
                "family": g.datum.family,
                "rank": g.datum.rank,
                "grid": args.grid,
                "checks": checks,
                "all_passed": not failures,
                "sweeps": [block.text for block in blocks],
            }
        )
    else:
        print(f"{args.command} type={g.datum.family}{g.datum.rank} grid={args.grid} elements={g.order}")
        for block in blocks:
            print(f"lambda={block.lam} checks={block.checks} {'MISMATCH' if block.failures else 'ok'}")
        print(f"total checks={checks} passed={checks - len(failures)}")
        if failures:
            print("first counterexample:")
            _dump_json(failures[0])
        print("PASS" if not failures else "FAIL")
    return EXIT_OK if not failures else EXIT_MISMATCH


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the platform has one, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_verify(args: argparse.Namespace) -> int:
    d = build_datum(args.family, args.rank)
    lams = _lambda_grid(d, args.grid)
    g = load_group(d)
    # the largest predicted work, dim V(lam - rho), first, so that no long lambda starts last;
    # sorted() is stable, so ties keep grid order
    order = sorted(range(len(lams)), key=lambda k: -weyl_dimension(d, weight_sub(lams[k], d.rho)))
    tasks = [(args.command, args.fmt, lams[k]) for k in order]
    workers = min(len(lams), _usable_cores()) if args.parallel else 1
    if workers > 1:
        import multiprocessing

        g.lower_covers  # built once here, with the Bruhat table it reads, so every worker receives both

        with multiprocessing.Pool(processes=workers, initializer=_init_worker, initargs=(g,)) as pool:
            done = pool.map(_sweep_task, tasks, chunksize=1)
    else:
        sweep = _Sweep(g)
        done = [_sweep_lambda(sweep, *task) for task in tasks]
    blocks = [None] * len(lams)
    for k, block in zip(order, done):
        blocks[k] = block
    return _emit_sweep(args, g, blocks)


def _random_char(rng: random.Random, rank: int) -> CharElement:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mu = tuple(rng.randint(-4, 4) for _ in range(rank))
        terms[mu] = rng.randint(-5, 5)
    return CharElement(rank, terms)


def _decomposes_to(d: RootDatum, v: CharElement, expected: dict) -> bool:
    """The round trip of one kernel element; an element refused as outside N fails it.

    An element refused for its size is not a mismatch, so that refusal propagates.
    """
    try:
        return decompose(d, v) == expected
    except GuardBoundError:
        raise
    except ValueError:
        return False


def cmd_kernel(args: argparse.Namespace) -> int:
    d = build_datum(args.family, args.rank)
    rho = d.rho
    lams = _lambda_grid(d, args.grid)
    longest = canonical_word(d, weight_neg(rho))
    dual = lambda mu: weight_neg(act(d, longest, mu))
    # the last weight's sum has the most nonzero terms, so a grid too large is refused before any step
    basis = {lam: kernel_basis_element(d, lam) for lam in reversed(lams)}

    per_lambda = []
    for lam in lams:
        v = basis[lam]
        member = in_kernel(d, v)
        per_lambda.append(
            {
                "lambda": list(lam),
                "member": member,
                "roundtrip": _decomposes_to(d, v, {dual(weight_sub(lam, rho)): 1}),
                "characterization": member == is_demazure_invariant(d, v.shift(rho)),
            }
        )

    rng = random.Random(KERNEL_SWEEP_SEED)
    combo_ok = 0
    n_combos = 50
    for _ in range(n_combos):
        chosen = rng.sample(lams, rng.randint(1, min(3, len(lams))))
        coeffs = {lam: rng.choice([-3, -2, -1, 1, 2, 3]) for lam in chosen}
        v = CharElement.zero(d.rank)
        for lam, c in coeffs.items():
            v = v + c * basis[lam]
        expected = {dual(weight_sub(lam, rho)): c for lam, c in coeffs.items()}
        if _decomposes_to(d, v, expected):
            combo_ok += 1
    random_ok = sum(1 for _ in range(n_combos) if verify_characterization(d, _random_char(rng, d.rank)))

    all_ok = (
        all(x["member"] and x["roundtrip"] and x["characterization"] for x in per_lambda)
        and combo_ok == n_combos
        and random_ok == n_combos
    )
    if args.fmt == "json":
        _dump_json(
            {
                "command": "verify-kernel",
                "family": d.family,
                "rank": d.rank,
                "grid": args.grid,
                "per_lambda": per_lambda,
                "combos_ok": combo_ok,
                "combos_total": n_combos,
                "random_characterizations_ok": random_ok,
                "all_passed": all_ok,
            }
        )
    else:
        print(f"verify-kernel type={d.family}{d.rank} grid={args.grid}")
        for x in per_lambda:
            print(
                f"lambda={x['lambda']} member={x['member']} "
                f"roundtrip={x['roundtrip']} characterization={x['characterization']}"
            )
        print(f"combos ok={combo_ok}/{n_combos}")
        print(f"random characterizations ok={random_ok}/{n_combos}")
        print("PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_decompose(args: argparse.Namespace) -> int:
    d = build_datum(args.family, args.rank)
    text = sys.stdin.read() if args.charfile in (None, "-") else Path(args.charfile).read_text()
    try:
        data = json.loads(text)
    except RecursionError:
        # a RecursionError is a RuntimeError, which would be reported as internal
        raise ValueError("JSON input is nested too deeply") from None
    coefficients = decompose(d, CharElement.from_json_dict(data))
    payload = decomposition_to_json(d, coefficients)
    if args.fmt == "json":
        _dump_json(payload)
    else:
        for item in payload["coefficients"]:
            print(f"mu={item['mu']} lambda={item['lambda']} coeff={item['coeff']}")
        if not payload["coefficients"]:
            print("zero element: empty decomposition")
    return EXIT_OK


_COMMANDS = {
    "info": cmd_info,
    "weyl": cmd_weyl,
    "demchar": cmd_char,
    "topchar": cmd_char,
    "euler": cmd_char,
    "verify-theorem": cmd_verify,
    "verify-lemma31": cmd_verify,
    "verify-kernel": cmd_kernel,
    "decompose": cmd_decompose,
    "bruhat": cmd_bruhat,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # here, so that a reader gone at shutdown is caught too
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit; give it a sink that takes the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        # raised here or re-raised from a pool worker; either way the input asked for too much
        print("error: out of memory; ask for a smaller type, weight or grid", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a bug in demchar: exit 1 would read as a mismatch, and a traceback is not one line
        print(f"internal error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
