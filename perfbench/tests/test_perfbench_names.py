import json
import re

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_and_workload_names_follow_the_rule():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def test_the_rule_rejects_bad_names():
    for bad in ["", "-lead", "has space", "slash/name", "x" * 65, "ümlaut"]:
        assert not NAME.fullmatch(bad), bad


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
