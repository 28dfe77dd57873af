"""Acceptance suite: every criterion at exact integer equality (tolerance zero).

Each test prints one pass line on success; a pytest failure is the fail line.
"""

import itertools
import json
import random
import subprocess
import sys

import pytest

from demchar.charring import CharElement
from demchar.demazure import demazure_char, demazure_word, top_cohomology_char
from demchar.kernel import (
    decompose,
    in_kernel,
    kernel_basis_element,
    verify_characterization,
)
from demchar.rootsys import simple_reflection, weight_neg, weight_sub
from demchar.theorem import epsilon_char, sweep_verify_lemma31, sweep_verify_theorem
from demchar.weyl import act, bruhat_leq

import oracles
from oracles import alternative_reduced_words, element_by_word, extreme_weight, psi_character, w_apply

monomial, zero = CharElement.monomial, CharElement.zero

SWEEP_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)]
KERNEL_TYPES = [("A", 1), ("A", 2), ("B", 2)]


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def sweep_lambdas(rank: int, family: str) -> list[tuple[int, ...]]:
    grid = [tuple(c) for c in itertools.product((1, 2), repeat=rank)]
    rng = random.Random(f"sweep-{family}{rank}")
    extra = [tuple(rng.randint(1, 5) for _ in range(rank)) for _ in range(5)]
    return grid + extra


def test_criterion_1_theorem_exhaustive(announce):
    checks = 0
    for family, rank in SWEEP_TYPES:
        g = oracles.group(family, rank)
        for lam in sweep_lambdas(rank, family):
            reports = sweep_verify_theorem(g, lam)
            assert all(r.passed for r in reports), (family, rank, lam)
            checks += len(reports)
    announce(f"PASS criterion 1: summed dual top-cohomology identity, {checks} (tau, lambda) checks exact")


def test_criterion_2_kernel_character_sums(announce):
    checks = 0
    for family, rank in SWEEP_TYPES:
        g = oracles.group(family, rank)
        d = g.datum
        for lam in sweep_lambdas(rank, family):
            reports = sweep_verify_lemma31(g, lam)
            assert all(r.passed for r in reports), (family, rank, lam)
            checks += len(reports)
            shifted = weight_sub(lam, d.rho)
            for w in range(g.order):
                eps = epsilon_char(g.datum, g.word(w), lam)
                assert all(c > 0 for c in eps.terms.values()), (family, rank, lam, g.word(w))
                if eps.is_zero():
                    continue
                low = act(g.datum, g.word(w), shifted)
                assert eps.terms.get(low) == 1, (family, rank, lam, g.word(w))
                assert oracles.is_dominance_minimum(d, eps, low), (family, rank, lam, g.word(w))
    announce(f"PASS criterion 2: kernel-character sums and lowest weights, {checks} interval checks exact")


def test_criterion_3_operator_laws(announce):
    counts = {"idempotence": 0, "words": 0, "numerator": 0, "fixed_points": 0}
    for family, rank in SWEEP_TYPES:
        g = oracles.group(family, rank)
        d = g.datum
        rng = random.Random(f"ops-{family}{rank}")
        for _ in range(100):
            v = oracles.random_char(rng, rank)
            lam = oracles.random_weight(rng, rank, -6, 6)
            for i in range(1, rank + 1):
                once = demazure_word(d, (i,), v)
                assert demazure_word(d, (i,), once) == once
                counts["idempotence"] += 1
                alpha = d.simple_roots[i - 1]
                lhs = (monomial((0,) * rank) - monomial(weight_neg(alpha))) * demazure_word(
                    d, (i,), monomial(lam)
                )
                rhs = monomial(lam) - monomial(weight_sub(simple_reflection(d, i, lam), alpha))
                assert lhs == rhs
                counts["numerator"] += 1
                s_i = element_by_word(g, (i,))
                assert (demazure_word(d, (i,), v) == v) == (w_apply(g, s_i, v) == v)
                symmetric = v + w_apply(g, s_i, v)
                assert demazure_word(d, (i,), symmetric) == symmetric
                counts["fixed_points"] += 1
    for family, rank in [("A", 3), ("B", 2)]:
        g = oracles.group(family, rank)
        rng = random.Random(f"words-{family}{rank}")
        for e in range(g.order):
            words = alternative_reduced_words(g, e)
            if len(words) < 2:
                continue
            for _ in range(3):
                v = monomial(oracles.random_weight(rng, rank, -5, 5))
                images = [demazure_word(g.datum, word, v) for word in words]
                assert all(img == images[0] for img in images[1:])
                counts["words"] += len(words)
    announce(
        "PASS criterion 3: operator laws exact "
        f"(idempotence {counts['idempotence']}, numerator {counts['numerator']}, "
        f"fixed points {counts['fixed_points']}, word evaluations {counts['words']})"
    )


def test_criterion_4_weyl_dimension_oracle(announce):
    for family, rank in SWEEP_TYPES:
        g = oracles.group(family, rank)
        rng = random.Random(f"dims-{family}{rank}")
        for _ in range(10):
            lam = tuple(rng.randint(0, 4) for _ in range(rank))
            assert demazure_char(g.datum, g.word(g.longest), lam).dimension() == oracles.weyl_dimension(
                g.datum, lam
            )
    g2 = oracles.group("A", 2)
    assert demazure_char(g2.datum, g2.word(g2.longest), (1, 1)).dimension() == 8
    gg = oracles.group("G", 2)
    dims = {
        demazure_char(gg.datum, gg.word(gg.longest), lam).dimension() for lam in [(1, 0), (0, 1)]
    }
    assert dims == {7, 14}
    announce("PASS criterion 4: section-character dimensions match the Weyl dimension formula")


def test_criterion_5_kernel_basis_and_decomposition(announce):
    combos_checked = 0
    for family, rank in KERNEL_TYPES:
        g = oracles.group(family, rank)
        d = g.datum
        dual = lambda mu: weight_neg(act(g.datum, g.word(g.longest), mu))
        grid = [tuple(c) for c in itertools.product((1, 2, 3), repeat=rank)]
        basis = {}
        for lam in grid:
            v = kernel_basis_element(g.datum, lam)
            basis[lam] = v
            assert in_kernel(d, v), (family, rank, lam)
            assert decompose(d, v) == {dual(weight_sub(lam, d.rho)): 1}, (family, rank, lam)
            assert verify_characterization(d, v)
        rng = random.Random(f"kernel-{family}{rank}")
        for _ in range(50):
            chosen = rng.sample(grid, rng.randint(1, min(3, len(grid))))
            coeffs = {lam: rng.choice([-3, -2, -1, 1, 2, 3]) for lam in chosen}
            v = zero(rank)
            for lam, c in coeffs.items():
                v = v + c * basis[lam]
            expected = {dual(weight_sub(lam, d.rho)): c for lam, c in coeffs.items()}
            assert decompose(d, v) == expected
            assert verify_characterization(d, v)
            combos_checked += 1
        for _ in range(50):
            assert verify_characterization(d, oracles.random_char(rng, rank))
    announce(
        f"PASS criterion 5: kernel membership, characterization, and {combos_checked} "
        "decomposition round trips exact"
    )


def test_criterion_6_serre_twist_forced_cases(announce):
    for family, rank in SWEEP_TYPES:
        g = oracles.group(family, rank)
        zero_wt = (0,) * rank
        # chi' is forced to 2*rho on the identity and to 0 on the longest element
        assert psi_character(g, g.identity, (2,) * rank) == zero_wt
        assert psi_character(g, g.longest, zero_wt) == zero_wt
    announce("PASS criterion 6: Serre-twist weights vanish in both forced cases, all types")


def test_criterion_7_combinatorial_substrate(announce):
    expected_orders = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("B", 3): 48, ("G", 2): 12}
    for (family, rank), order in expected_orders.items():
        g = oracles.group(family, rank)
        assert g.order == order
        assert g.length[g.longest] == len(g.datum.positive_roots)
    pairs = 0
    for family, rank in [("A", 3), ("B", 2)]:
        g = oracles.group(family, rank)
        for tau in range(g.order):
            reachable = oracles.subword_lower_set(g, tau)
            for w in range(g.order):
                assert bruhat_leq(g.datum, g.word(w), g.word(tau)) == (w in reachable)
                pairs += 1
    announce(f"PASS criterion 7: group orders, l(w0)=|R+|, Bruhat vs subword oracle on {pairs} pairs")


def test_criterion_8_nonvanishing_at_two_rho(announce):
    for family, rank in SWEEP_TYPES:
        g = oracles.group(family, rank)
        d = g.datum
        lam = tuple(2 * c for c in d.rho)
        for w in range(g.order):
            v = top_cohomology_char(g.datum, g.word(w), lam)
            assert not v.is_zero(), (family, rank, g.word(w))
            high = weight_sub(act(g.datum, g.word(w), weight_sub(d.rho, lam)), d.rho)
            assert extreme_weight(d, v, "highest") == high
            assert v.terms.get(high) == 1
    announce("PASS criterion 8: top cohomology nonvanishing with predicted highest weight at 2*rho")


def test_criterion_9_serial_parallel_determinism(announce):
    base = [
        sys.executable,
        "-m",
        "demchar",
        "verify-theorem",
        "--type",
        "A",
        "--rank",
        "3",
        "--grid",
        "2",
    ]
    serial = subprocess.run(base, capture_output=True, text=True)
    parallel = subprocess.run(base + ["--parallel"], capture_output=True, text=True)
    assert serial.returncode == 0 and parallel.returncode == 0
    assert serial.stdout == parallel.stdout
    assert "PASS" in serial.stdout
    json_serial = subprocess.run(base + ["--format", "json"], capture_output=True, text=True)
    json_parallel = subprocess.run(
        base + ["--format", "json", "--parallel"], capture_output=True, text=True
    )
    assert json_serial.stdout == json_parallel.stdout
    assert json.loads(json_serial.stdout)["all_passed"] is True
    announce("PASS criterion 9: verify-theorem output byte-identical between serial and parallel runs")
