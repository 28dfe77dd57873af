"""The four workload commands at A2 size, through the same measuring code."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from workloads import SMOKE, gate


@pytest.fixture(scope="module")
def launch():
    with run.Launcher() as launcher:
        yield launcher


@pytest.mark.parametrize("name", list(SMOKE))
def test_timed_run_passes_its_gates(name, launch):
    result = run.run_timed(SMOKE[name], seconds=0.1, launch=launch)
    assert result["misses"] and not any(result["misses"])
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values())
    assert len(result["samples"]["setup_s"]) >= run.SETUP_MIN_REPS


@pytest.mark.parametrize("name", list(SMOKE))
def test_traced_run_reports_every_layer(name, launch):
    w = SMOKE[name]
    result = run.run_traced(w, launch)
    assert not any(result["misses"])
    m = result["metrics"]
    assert set(m) == set(run.PER_LAYER)
    assert m["weyl.order"] == 6 and m["bench.traced_total_s"] > 0
    assert m["cli.output_bytes"] > 0 and m["cli.import_s"] > 0
    if w.kind == "sweep":
        assert m["theorem.checks"] == 6 * 4 and m["theorem.failed_checks"] == 0
        assert m["weyl.interval_pairs"] > 0 and 0 < m["theorem.lam_max_share"] < 1
        assert m["theorem.interval_self_s"] < m["theorem.sweep_s"]
    if w.kind == "kernel":
        assert m["kernel.decompose_rounds"] > 0
        assert m["kernel.decompose_self_s"] < m["kernel.decompose_s"]
    if w.kind == "char":
        assert m["demazure.terms_out"] == m["demazure.peak_support"] > 0
    # the wrappers are gone afterwards
    from demchar import cli, weyl
    assert cli.generate is weyl.generate


def test_child_rss_excludes_the_benchmark_process(launch):
    ballast = b"x" * 200_000_000
    _, code, maxrss_kib, _ = launch.run(["-c", "pass"], deadline=time.monotonic() + 60)
    assert code == 0 and maxrss_kib < 100_000 < len(ballast) // 1024


def test_a_child_past_its_deadline_is_killed(launch):
    start = time.monotonic()
    _, code, _, _ = launch.run(["-c", "import time; time.sleep(30)"], deadline=start + 0.5)
    assert code == -9 and time.monotonic() - start < 10


def test_gates_catch_a_changed_output(launch):
    w = SMOKE["sweep-A2"]
    elapsed, code, _, stdout = launch.run(["-m", "demchar", *w.argv], deadline=time.monotonic() + 60)
    assert gate(w, code, stdout) == []
    out = json.loads(stdout)
    out["checks"] -= 1
    changed = json.dumps(out, indent=2, sort_keys=True).encode() + b"\n"
    misses = gate(w, 0, changed)
    assert any("sha256" in m for m in misses) and any("checks" in m for m in misses)
    assert gate(w, 1, stdout) == ["exit code 1"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-G2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
