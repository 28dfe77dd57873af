"""The benchmark's workloads: fixed ``demchar`` commands and the gates their output must pass.

Inputs are fixed; a run's seed only orders its steps.  Each workload is one
real CLI command.  The expected stdout digests were recorded from the
program at the commit that added this benchmark; a change that alters one
output byte fails the digest gate.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

# |W| and |Phi+| from the classification, independent of the program under test
WEYL_ORDER = {"A": lambda n: math.factorial(n + 1), "B": lambda n: 2**n * math.factorial(n), "G": lambda n: 12}
POSITIVE_ROOTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n, "G": lambda n: 6}


@dataclass(frozen=True)
class Workload:
    """One CLI command and the facts its output must show."""

    name: str
    kind: str  # "sweep", "char" or "kernel"
    family: str
    rank: int
    grid: int
    parallel: bool
    digest: str

    @property
    def argv(self) -> list[str]:
        """Arguments after ``python -m demchar``."""
        common = ["--type", self.family, "--rank", str(self.rank)]
        if self.kind == "sweep":
            args = ["verify-theorem", *common, "--grid", str(self.grid)]
        elif self.kind == "kernel":
            args = ["verify-kernel", *common, "--grid", str(self.grid)]
        else:
            args = ["demchar", *common, "--tau", "w0", "--mu", ",".join(["1"] * self.rank)]
        args += ["--format", "json"]
        return args + ["--parallel"] if self.parallel else args

    @property
    def serial_argv(self) -> list[str]:
        return [a for a in self.argv if a != "--parallel"]


def gate(w: Workload, returncode: int, stdout: bytes) -> list[str]:
    """Every output gate the workload misses; empty when the output is right."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    misses = []
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != w.digest:
        misses.append(f"stdout sha256 {digest} != recorded {w.digest}")
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return misses + [f"stdout is not JSON: {exc}"]
    if w.kind in ("sweep", "kernel") and out.get("all_passed") is not True:
        misses.append("all_passed is not true")
    if w.kind == "sweep":
        expected = WEYL_ORDER[w.family](w.rank) * w.grid**w.rank
        if out.get("checks") != expected:
            misses.append(f"checks {out.get('checks')} != |W|*grid^rank = {expected}")
    if w.kind == "kernel" and len(out.get("per_lambda", ())) != w.grid**w.rank:
        misses.append(f"per_lambda has {len(out.get('per_lambda', ()))} entries, not {w.grid**w.rank}")
    if w.kind == "char":
        expected = 2 ** POSITIVE_ROOTS[w.family](w.rank)
        dim = sum(int(t["coeff"]) for t in out.get("terms", ()))
        if dim != expected:
            misses.append(f"dimension {dim} != 2^|Phi+| = {expected}")
    return misses


# The --parallel run must print exactly what the serial run prints, so both
# carry one digest.
_B4_SWEEP = "efbe2110859b0bf62373e74cf9726c632498e331d630c0158383c7c05dee5624"

WORKLOADS = {
    w.name: w
    for w in [
        Workload("sweep-B4", "sweep", "B", 4, 2, False, _B4_SWEEP),
        Workload("sweep-B4-par", "sweep", "B", 4, 2, True, _B4_SWEEP),
        Workload("char-B5", "char", "B", 5, 0, False,
                 "22f675094756c20448cbf4c4a5c79406c3901ad54c3c03fccb6fc4ed828d7387"),
        Workload("kernel-G2", "kernel", "G", 2, 5, False,
                 "145babf069d2da0dbd181161e1aad6cae2ccaef757169b892d09faeeef2a6a9a"),
    ]
}

# The same four commands at A2 size, for the benchmark's self-tests.
_A2_SWEEP = "0b11d54334ea1b29ebbaaa65fa02e14be6d7389f639acb05dce8d30e515c9829"
SMOKE = {
    w.name: w
    for w in [
        Workload("sweep-A2", "sweep", "A", 2, 2, False, _A2_SWEEP),
        Workload("sweep-A2-par", "sweep", "A", 2, 2, True, _A2_SWEEP),
        Workload("char-A2", "char", "A", 2, 0, False,
                 "8e27f55c86eb02b99447aea3b1e781090209919e7e1d813dd8bee6070369645f"),
        Workload("kernel-A2", "kernel", "A", 2, 2, False,
                 "8664beb962d16c40c545a6ce8e8f991a506f111a965a776c847f570c4fdee748"),
    ]
}
