import itertools
import random

import jsonschema
import pytest

from demchar.charring import CharElement
from demchar.demazure import demazure_char, top_cohomology_char
from demchar import theorem
from demchar.rootsys import weight_neg, weight_sub
from demchar.theorem import (
    VERIFICATION_REPORT_SCHEMA,
    epsilon_char,
    sweep_verify_lemma31,
    sweep_verify_theorem,
    verify_lemma31,
    verify_theorem,
)
from demchar.weyl import element_by_word, lower_interval

import oracles
from oracles import extreme_weight, psi_character

monomial = CharElement.monomial


def test_lhs_frozen_examples():
    g1 = oracles.group("A", 1)
    s = g1.longest_element
    assert verify_theorem(g1, s, (2,)).lhs == monomial((2,)) + monomial((0,))
    assert verify_theorem(g1, g1.identity_element, (3,)).lhs == monomial((3,))
    g2 = oracles.group("A", 2)
    s1 = element_by_word(g2, (1,))
    assert verify_theorem(g2, s1, (2, 1)).lhs == monomial((2, 1)) + monomial((0, 2))


def test_rhs_frozen_examples():
    g1 = oracles.group("A", 1)
    s = g1.longest_element
    assert verify_theorem(g1, s, (2,)).rhs == monomial((2,)) + monomial((0,))
    g2 = oracles.group("A", 2)
    s1 = element_by_word(g2, (1,))
    assert verify_theorem(g2, s1, (2, 1)).rhs == monomial((2, 1)) + monomial((0, 2))
    assert verify_theorem(g2, g2.longest_element, (1, 1)).rhs == monomial((1, 1))


def test_verify_examples():
    g1 = oracles.group("A", 1)
    r = verify_theorem(g1, g1.longest_element, (2,))
    assert r.passed and r.lhs == r.rhs and r.difference.is_zero()
    g2 = oracles.group("A", 2)
    r = verify_theorem(g2, g2.longest_element, (1, 1))
    assert r.passed
    assert r.lhs == monomial((1, 1))
    assert r.interval_size == 6


def test_verify_exhaustive_a2():
    g = oracles.group("A", 2)
    for tau in g.elements:
        r = verify_theorem(g, tau, (2, 2))
        assert r.passed
        assert r.dim_lhs == r.dim_rhs


def test_precondition_regular_dominant():
    g = oracles.group("A", 2)
    for fn in (verify_theorem, verify_lemma31, epsilon_char):
        with pytest.raises(ValueError):
            fn(g, g.longest_element, (0, 1))
    for fn in (sweep_verify_theorem, sweep_verify_lemma31):
        with pytest.raises(ValueError):
            fn(g, (0, 1))


def test_weight_length_must_match_rank():
    g = oracles.group("A", 2)
    for lam in [(1,), (1, 1, 5)]:
        for fn in (verify_theorem, verify_lemma31, epsilon_char):
            with pytest.raises(ValueError, match="coordinates"):
                fn(g, g.longest_element, lam)
        for fn in (sweep_verify_theorem, sweep_verify_lemma31):
            with pytest.raises(ValueError, match="coordinates"):
                fn(g, lam)


def test_report_passed_iff_difference_zero():
    g = oracles.group("A", 1)
    r = verify_theorem(g, g.longest_element, (3,))
    assert r.passed == r.difference.is_zero() == (r.lhs == r.rhs) == True  # noqa: E712


def test_report_json_schema_and_per_w():
    g = oracles.group("A", 2)
    tau = g.longest_element
    r = verify_theorem(g, tau, (2, 1))
    data = r.to_json_dict(tau, (2, 1))
    jsonschema.validate(data, VERIFICATION_REPORT_SCHEMA)
    assert data["passed"] is True
    assert data["difference_terms"] == []
    total = CharElement.zero(2)
    for w in lower_interval(g, tau):
        total = total + top_cohomology_char(g, w, (2, 1)).star()
    assert total == r.lhs


def test_epsilon_frozen_examples():
    g = oracles.group("A", 1)
    s = g.longest_element
    assert epsilon_char(g, g.identity_element, (2,)) == monomial((1,))
    assert epsilon_char(g, s, (2,)) == monomial((-1,))
    g2 = oracles.group("A", 2)
    for lam in [(1, 1), (3, 2)]:
        assert epsilon_char(g2, g2.identity_element, lam) == monomial(weight_sub(lam, (1, 1)))


def test_lemma_examples():
    g = oracles.group("A", 1)
    s = g.longest_element
    r = verify_lemma31(g, s, (2,))
    assert r.passed
    assert r.lhs == monomial((1,)) + monomial((-1,))
    assert verify_lemma31(g, g.identity_element, (4,)).passed


def test_lemma_exhaustive_b2():
    g = oracles.group("B", 2)
    for tau in g.elements:
        assert verify_lemma31(g, tau, (2, 2)).passed


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_epsilon_nonnegative_with_expected_lowest_weight(family, rank):
    g = oracles.group(family, rank)
    d = g.datum
    for lam in itertools.product((1, 2), repeat=rank):
        for w in g.elements:
            eps = epsilon_char(g, w, lam)
            assert all(c > 0 for c in eps.terms.values())
            if not eps.is_zero():
                low = w.apply(weight_sub(lam, d.rho))
                assert extreme_weight(d, eps, "lowest") == low
                assert eps.coeff(low) == 1


def test_starred_top_lowest_weight():
    g = oracles.group("B", 2)
    d = g.datum
    lam = (2, 3)
    for w in g.elements:
        v = top_cohomology_char(g, w, lam).star()
        if v.is_zero():
            continue
        expected = tuple(a + b for a, b in zip(w.apply(weight_sub(lam, d.rho)), d.rho))
        assert extreme_weight(d, v, "lowest") == expected


def test_dimension_bookkeeping():
    g = oracles.group("A", 2)
    lam = (2, 2)
    for tau in g.elements:
        total = sum(epsilon_char(g, w, lam).dimension() for w in lower_interval(g, tau))
        assert total == demazure_char(g, tau, weight_sub(lam, g.datum.rho)).dimension()


def test_psi_character_forced_cases():
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)]:
        g = oracles.group(family, rank)
        zero = (0,) * rank
        # the twist chi' is forced to 2*rho on the identity and to 0 on the longest element
        assert psi_character(g.identity_element, (2,) * rank) == zero
        assert psi_character(g.longest_element, zero) == zero
        assert psi_character(g.identity_element, zero) == (2,) * rank


def test_psi_character_arithmetic_identity():
    g = oracles.group("B", 2)
    rng = random.Random(43)
    rho = g.datum.rho
    for _ in range(50):
        chi = oracles.random_weight(rng, 2, -5, 5)
        w = g.elements[rng.randrange(g.order)]
        lhs = weight_sub(psi_character(w, chi), rho)
        rhs = weight_sub(w.apply(rho), w.apply(chi))
        assert lhs == rhs


def test_sweeps_match_pairwise_verification():
    for family, rank, lam in [("B", 2, (2, 1)), ("G", 2, (1, 2))]:
        g = oracles.group(family, rank)
        sweep_t = sweep_verify_theorem(g, lam)
        sweep_l = sweep_verify_lemma31(g, lam)
        for tau in g.elements:
            assert verify_theorem(g, tau, lam) == sweep_t[tau.index]
            assert verify_lemma31(g, tau, lam) == sweep_l[tau.index]


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_both_identities_match_reference(family, rank):
    g = oracles.group(family, rank)
    minus_rho = monomial(weight_neg(g.datum.rho))
    for lam in [(1, 1), (2, 1), (1, 3), (3, 2)]:
        sweep_t = sweep_verify_theorem(g, lam)
        sweep_l = sweep_verify_lemma31(g, lam)
        for tau in g.elements:
            lhs, rhs = oracles.theorem_sides(g, tau, lam)
            assert lhs == rhs, (family, tau.word, lam)
            t, l = sweep_t[tau.index], sweep_l[tau.index]
            assert (t.lhs, t.rhs) == (lhs, rhs)
            assert (l.lhs, l.rhs) == (minus_rho * lhs, minus_rho * rhs)
            assert t.interval_size == l.interval_size == len(oracles.subword_lower_set(g, tau))


def test_single_tau_tables_cover_only_its_interval(monkeypatch):
    g = oracles.group("B", 3)
    tau = element_by_word(g, (1, 2))
    real = theorem._image_table
    computed = []

    def spy(*args):
        images = real(*args)
        computed.append(sum(1 for v in images if v is not None))
        return images

    monkeypatch.setattr(theorem, "_image_table", spy)
    assert verify_theorem(g, tau, (1, 2, 1)).passed
    assert verify_lemma31(g, tau, (1, 2, 1)).passed
    assert computed == [len(lower_interval(g, tau))] * 4


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3)])
def test_incremental_sums_match_interval_reference(family, rank):
    g = oracles.group(family, rank)
    minus_rho = monomial(weight_neg(g.datum.rho))
    for lam in [(1, 1, 1), (2, 1, 3)]:
        sweep_t = sweep_verify_theorem(g, lam)
        sweep_l = sweep_verify_lemma31(g, lam)
        for tau in g.elements:
            reference = oracles.interval_sum(g, tau, lam)
            t, l = sweep_t[tau.index], sweep_l[tau.index]
            assert t.lhs == reference, (family, tau.word, lam)
            assert l.lhs == minus_rho * reference, (family, tau.word, lam)
            assert t.interval_size == l.interval_size == len(lower_interval(g, tau))
