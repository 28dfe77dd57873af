#!/usr/bin/env python3
"""Benchmark of the demchar command line, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep-B4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

Run from a checkout of the repository; the program is imported from its
``src`` directory.  With ``--trace 0`` the workload's command is timed as its
own process, repeatedly, for ``--seconds`` seconds, and ``build_datum`` plus
``generate`` is timed in this process as the set-up every command pays.
With ``--trace 1`` the same command runs once inside this process with its
layer functions wrapped in spans (see ``spans.py``), next to one untraced
process run that the tracing overhead is measured against.  Every run's
output passes the gates in ``workloads.py`` or is counted as failed.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Environment, samples and spans are written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, durations, inclusive_times, installed, self_times
from workloads import WORKLOADS, Workload, gate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# every run ends within this, killing a child that would overrun it
RUN_LIMIT_S = 170.0
# set-up runs in chunks of at least this long between CLI samples, and at
# least SETUP_MIN_REPS times in a run; its median is reported
SETUP_CHUNK_S = 0.3
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 500
IMPORT_REPS = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "rootsys.build_datum_s": "s",
    "weyl.generate_s": "s",
    "weyl.bruhat_table_s": "s",
    "weyl.order": "count",
    "weyl.interval_pairs": "count",
    "weyl.lower_interval_s": "s",
    "demazure.image_table_s": "s",
    "demazure.word_s": "s",
    "demazure.terms_out": "count",
    "demazure.peak_support": "count",
    "theorem.starred_top_s": "s",
    "theorem.sweep_s": "s",
    "theorem.interval_self_s": "s",
    "theorem.report_json_s": "s",
    "theorem.checks": "count",
    "theorem.failed_checks": "count",
    "theorem.lam_max_share": "ratio",
    "kernel.basis_s": "s",
    "kernel.in_kernel_s": "s",
    "kernel.characterization_s": "s",
    "kernel.decompose_s": "s",
    "kernel.decompose_self_s": "s",
    "kernel.decompose_rounds": "count",
    "charring.to_json_s": "s",
    "cli.dumps_s": "s",
    "cli.output_bytes": "bytes",
    "cli.import_s": "s",
    "cli.pool_speedup": "ratio",
    "bench.traced_total_s": "s",
    "bench.trace_overhead": "ratio",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # a Weyl-table cache would skip generation and write outside the checkout
    env.pop("DEMCHAR_CACHE_DIR", None)
    return env


# The launcher: a small process of its own that starts every timed child.
# A child's peak RSS includes the RSS of the process that started it, so
# children started by the benchmark, which grows to hold outputs and traced
# runs, would report its memory instead of theirs.  SIGALRM kills a child at
# its deadline.
LAUNCHER = r"""
import os, signal, sys, time
pid = 0
def kill(signum, frame):
    if pid:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
signal.signal(signal.SIGALRM, kill)
for line in sys.stdin:
    timeout, out, err, *argv = line.rstrip("\n").split("\0")
    fds = [os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for path in (out, err)]
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_DUP2, fds[0], 1), (os.POSIX_SPAWN_DUP2, fds[1], 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, max(float(timeout), 0.001))
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    pid = 0
    signal.setitimer(signal.ITIMER_REAL, 0)
    for fd in fds:
        os.close(fd)
    print(elapsed, os.waitstatus_to_exitcode(status), usage.ru_maxrss, flush=True)
"""


class Launcher:
    """Starts ``python <args>`` children from the checkout through the launcher process."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(),
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, args: list[str], deadline: float) -> tuple[float, int, int, bytes]:
        """(wall seconds, exit code, peak RSS in KiB of the child's process tree, stdout).

        The child is killed at ``deadline`` (a ``time.monotonic`` value).
        """
        OUT.mkdir(exist_ok=True)
        out_path, err_path = OUT / f"stdout-{os.getpid()}", OUT / f"stderr-{os.getpid()}"
        request = [repr(deadline - time.monotonic()), str(out_path), str(err_path), sys.executable, *args]
        self.proc.stdin.write("\0".join(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 3:
            raise RuntimeError(f"the launcher process failed (exit code {self.proc.poll()})")
        elapsed, code, maxrss_kib = float(reply[0]), int(reply[1]), int(reply[2])
        stdout = out_path.read_bytes()
        if code != 0:
            sys.stderr.write(err_path.read_text(errors="replace"))
        out_path.unlink()
        err_path.unlink()
        return elapsed, code, maxrss_kib, stdout


def measure_setup(w: Workload, chunk_s: float) -> list[float]:
    """Times of build_datum + generate for the workload's type: at least once, and again until ``chunk_s``."""
    from demchar.rootsys import build_datum
    from demchar.weyl import generate

    gc.collect()
    times: list[float] = []
    end = time.perf_counter() + chunk_s
    while not times or (time.perf_counter() < end and len(times) < SETUP_MAX_REPS):
        start = time.perf_counter()
        generate(build_datum(w.family, w.rank))
        times.append(time.perf_counter() - start)
    return times


def run_timed(w: Workload, seconds: float, launch: Launcher) -> dict:
    """Untraced: rounds of set-up in this process and one CLI process, for ``seconds``.

    Interleaving spreads both over the whole run, so a slow spell of the
    machine weighs on each the same.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    # compile bytecode and warm the file cache before anything is timed
    launch.run(["-m", "demchar", "info", "--type", "A", "--rank", "1"], deadline)
    setup, walls, rss, misses = [], [], [], []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start < seconds and time.monotonic() < deadline):
        setup += measure_setup(w, SETUP_CHUNK_S)
        elapsed, code, maxrss_kib, stdout = launch.run(["-m", "demchar", *w.argv], deadline)
        walls.append(elapsed)
        rss.append(maxrss_kib / 1024)
        misses.append(gate(w, code, stdout))
    while len(setup) < SETUP_MIN_REPS:
        setup += measure_setup(w, 0.0)
    return {
        "samples": {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup},
        "misses": misses,
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
        },
    }


def traced_call(w: Workload, tracer: Tracer) -> tuple[int, bytes]:
    """``cli.main`` on the workload's serial command, in this process, under spans."""
    from demchar import charring, cli, demazure, kernel, theorem, weyl

    buf = io.StringIO()
    with installed(tracer, (cli, charring, demazure, kernel, theorem, weyl)):
        with contextlib.redirect_stdout(buf), tracer.span("cli.main"):
            code = cli.main(w.serial_argv)
    return code, buf.getvalue().encode()


def layer_metrics(tracer: Tracer, wall_s: float, serial_wall_s: float, import_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans; ``wall_s`` is the workload's own untraced run."""
    spans = tracer.spans
    incl = inclusive_times(spans)
    own = self_times(spans)
    sweeps = durations(spans, "theorem.sweep")
    total = incl["cli.main"]
    m = {}
    for name in PER_LAYER:
        if name.endswith("_self_s"):
            m[name] = own.get(name[: -len("_self_s")], 0.0)
        elif name.endswith("_s"):
            m[name] = incl.get(name[: -len("_s")], 0.0)
        else:
            m[name] = tracer.counts.get(name, tracer.peaks.get(name, 0))
    # the sweep's self time is what its interval sums cost
    m["theorem.interval_self_s"] = own.get("theorem.sweep", 0.0)
    m["theorem.lam_max_share"] = max(sweeps) / sum(sweeps) if sweeps else 0.0
    m["cli.import_s"] = import_s
    m["cli.pool_speedup"] = sum(sweeps) / wall_s if sweeps else 0.0
    m["bench.traced_total_s"] = total
    m["bench.trace_overhead"] = total / (serial_wall_s - import_s)
    return m


def run_traced(w: Workload, launch: Launcher) -> dict:
    """The traced in-process run, after the untraced process runs it is measured against.

    The traced run is serial, so a ``--parallel`` workload also runs its
    serial command untraced: that is the base of the tracing overhead, and
    the pool's own run is the base of ``cli.pool_speedup``.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    imports = [launch.run(["-c", "import demchar.cli"], deadline)[0] for _ in range(IMPORT_REPS)]
    walls, misses = {}, []
    for argv in dict.fromkeys([tuple(w.argv), tuple(w.serial_argv)]):
        walls[argv], code, _, stdout = launch.run(["-m", "demchar", *argv], deadline)
        misses.append(gate(w, code, stdout))
    tracer = Tracer(w.name)
    gc.collect()
    code, stdout = traced_call(w, tracer)
    misses.append(gate(w, code, stdout))
    metrics = layer_metrics(tracer, walls[tuple(w.argv)], walls[tuple(w.serial_argv)], statistics.median(imports))
    metrics["cli.output_bytes"] = len(stdout)
    return {
        "samples": {"cli.import_s": imports, "wall_s": list(walls.values())},
        "misses": misses,
        "metrics": metrics,
        "trace": tracer.to_json(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    usable = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "usable_cores": usable,
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        # multiprocessing.Pool() starts os.cpu_count() workers
        "pool_oversubscribed": (os.cpu_count() or 1) > usable,
    }


def run_workload(w: Workload, trace: int, seed: int, seconds: float, launch: Launcher) -> dict:
    env = environment(seed)
    result = run_traced(w, launch) if trace else run_timed(w, seconds, launch)
    result = {"workload": w.name, "trace": trace, "environment": env, **result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{w.name}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, the gates, the environment."""
    name = result["workload"]
    lines = [f"{name} environment {json.dumps(result['environment'], sort_keys=True)}"]
    if name.endswith("-par") and result["environment"]["pool_oversubscribed"]:
        lines.append(f"{name} WARNING: Pool() starts more workers than there are usable cores")
    units = PER_LAYER if result["trace"] else END_TO_END
    total = result["metrics"].get("bench.traced_total_s")
    for metric, unit in units.items():
        value = result["metrics"][metric]
        line = f"{name} {metric} = {value:.6g} {unit}"
        samples = result["samples"].get(metric)
        if samples:
            line += f" (median of {len(samples)})"
        if total and unit == "s" and metric != "bench.traced_total_s":
            line += f" [{value / total:.1%} of traced total]"
        lines.append(line)
    failed = sum(1 for m in result["misses"] if m)
    lines.append(f"{name} fail_ratio = {failed}/{len(result['misses'])}")
    for m in result["misses"]:
        lines.extend(f"{name} GATE FAILED: {miss}" for miss in m)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="recorded; orders the workloads of --workload all")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the untraced run repeats the command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: 0, or both with --workload all)")
    args = parser.parse_args(argv)
    if not (SRC / "demchar" / "cli.py").is_file():
        print(f"error: no demchar sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        names = list(WORKLOADS)
        random.Random(args.seed).shuffle(names)
        runs = [(n, t) for n in names for t in ((0, 1) if args.trace is None else (args.trace,))]
    else:
        runs = [(args.workload, args.trace or 0)]

    results = []
    with Launcher() as launch:
        for name, trace in runs:
            result = run_workload(WORKLOADS[name], trace, args.seed, args.seconds, launch)
            print("\n".join(report(result)), flush=True)
            results.append(result)

    attempted = sum(len(r["misses"]) for r in results)
    failed = sum(1 for r in results for m in r["misses"] if m)
    metrics = {}
    for r in results:
        units = PER_LAYER if r["trace"] else END_TO_END
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": r["metrics"][metric], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
