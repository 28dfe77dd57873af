import copy
import itertools
import random
import weakref
from collections import Counter

import jsonschema
import pytest

from demchar import theorem
from demchar.charring import CharElement
from demchar.demazure import demazure_char, top_cohomology_char
from demchar.rootsys import Packing, orbit_size, weight_neg, weight_sub
from demchar.theorem import (
    VERIFICATION_REPORT_SCHEMA,
    epsilon_char,
    sweep_verify_lemma31,
    sweep_verify_theorem,
)
from demchar.weyl import act

import oracles
from oracles import element_by_word, extreme_weight, lower_interval, psi_character

monomial = CharElement.monomial


@pytest.mark.usefixtures("sections_of_lam")
def test_lhs_frozen_examples():
    g1 = oracles.group("A", 1)
    s = g1.longest
    assert sweep_verify_theorem(g1, (2,))[s].sides[0] == monomial((2,)) + monomial((0,))
    assert sweep_verify_theorem(g1, (3,))[g1.identity].sides[0] == monomial((3,))
    g2 = oracles.group("A", 2)
    s1 = element_by_word(g2, (1,))
    assert sweep_verify_theorem(g2, (2, 1))[s1].sides[0] == monomial((2, 1)) + monomial((0, 2))


def test_rhs_frozen_examples(request):
    g1 = oracles.group("A", 1)
    g2 = oracles.group("A", 2)
    cases = [
        (g1, g1.longest, (2,), monomial((2,)) + monomial((0,))),
        (g2, element_by_word(g2, (1,)), (2, 1), monomial((2, 1)) + monomial((0, 2))),
        (g2, g2.longest, (1, 1), monomial((1, 1))),
    ]
    # a pass makes rhs equal to lhs, which the seeded run keeps
    assert all(sweep_verify_theorem(g, lam)[tau].passed for g, tau, lam, _ in cases)
    request.getfixturevalue("sections_of_lam")
    for g, tau, lam, rhs in cases:
        r = sweep_verify_theorem(g, lam)[tau]
        assert r.sides == (rhs, demazure_char(g.datum, g.word(tau), lam).shift(g.datum.rho))


def test_verify_examples(request):
    g1 = oracles.group("A", 1)
    r = sweep_verify_theorem(g1, (2,))[g1.longest]
    assert r.passed and r.sides is None
    g2 = oracles.group("A", 2)
    r = sweep_verify_theorem(g2, (1, 1))[g2.longest]
    assert r.passed
    assert r.interval_size == 6
    request.getfixturevalue("sections_of_lam")
    assert sweep_verify_theorem(g2, (1, 1))[g2.longest].sides[0] == monomial((1, 1))


def test_verify_exhaustive_a2():
    g = oracles.group("A", 2)
    for r in sweep_verify_theorem(g, (2, 2)):
        assert r.passed
        assert r.dim_lhs == r.dim_rhs


def test_precondition_regular_dominant():
    g = oracles.group("A", 2)
    with pytest.raises(ValueError):
        epsilon_char(g.datum, g.word(g.longest), (0, 1))
    for fn in (sweep_verify_theorem, sweep_verify_lemma31):
        with pytest.raises(ValueError):
            fn(g, (0, 1))


def test_weight_length_must_match_rank():
    g = oracles.group("A", 2)
    for lam in [(1,), (1, 1, 5)]:
        with pytest.raises(ValueError, match="coordinates"):
            epsilon_char(g.datum, g.word(g.longest), lam)
        for fn in (sweep_verify_theorem, sweep_verify_lemma31):
            with pytest.raises(ValueError, match="coordinates"):
                fn(g, lam)


def test_report_passed_iff_difference_zero(request):
    g = oracles.group("A", 1)
    r = sweep_verify_theorem(g, (3,))[g.longest]
    assert r.passed and r.sides is None
    request.getfixturevalue("sections_of_lam")
    r = sweep_verify_theorem(g, (3,))[g.longest]
    assert not r.passed and not (r.sides[0] - r.sides[1]).is_zero()


def test_report_json_schema_and_per_w(request):
    g = oracles.group("A", 2)
    tau = g.longest
    r = sweep_verify_theorem(g, (2, 1))[tau]
    data = r.to_json_dict(g.word(tau), (2, 1))
    jsonschema.validate(data, VERIFICATION_REPORT_SCHEMA)
    assert data["passed"] is True
    assert data["difference_terms"] == []
    request.getfixturevalue("sections_of_lam")
    r = sweep_verify_theorem(g, (2, 1))[tau]
    data = r.to_json_dict(g.word(tau), (2, 1))
    jsonschema.validate(data, VERIFICATION_REPORT_SCHEMA)
    assert data["passed"] is False
    assert data["difference_terms"] == (r.sides[0] - r.sides[1]).to_json_dict()["terms"]
    total = CharElement.zero(2)
    for w in lower_interval(g, tau):
        total = total + top_cohomology_char(g.datum, g.word(w), (2, 1)).star()
    assert total == r.sides[0]


def test_passing_report_json_builds_no_character(monkeypatch):
    g = oracles.group("B", 2)
    reports = sweep_verify_theorem(g, (1, 2))

    def refuse(self):
        raise AssertionError("a passing report built a character to write its difference")

    monkeypatch.setattr(CharElement, "to_json_dict", refuse)
    for tau, r in enumerate(reports):
        data = r.to_json_dict(g.word(tau), (1, 2))
        assert data["passed"] is True and data["difference_terms"] == []
        jsonschema.validate(data, VERIFICATION_REPORT_SCHEMA)


def test_epsilon_frozen_examples():
    g = oracles.group("A", 1)
    s = g.longest
    assert epsilon_char(g.datum, g.word(g.identity), (2,)) == monomial((1,))
    assert epsilon_char(g.datum, g.word(s), (2,)) == monomial((-1,))
    g2 = oracles.group("A", 2)
    for lam in [(1, 1), (3, 2)]:
        assert epsilon_char(g2.datum, g2.word(g2.identity), lam) == monomial(weight_sub(lam, (1, 1)))


def test_lemma_examples(request):
    g = oracles.group("A", 1)
    s = g.longest
    assert sweep_verify_lemma31(g, (2,))[s].passed
    assert sweep_verify_lemma31(g, (4,))[g.identity].passed
    request.getfixturevalue("sections_of_lam")
    assert sweep_verify_lemma31(g, (2,))[s].sides[0] == monomial((1,)) + monomial((-1,))


def test_lemma_exhaustive_b2():
    g = oracles.group("B", 2)
    assert all(r.passed for r in sweep_verify_lemma31(g, (2, 2)))


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_epsilon_nonnegative_with_expected_lowest_weight(family, rank):
    g = oracles.group(family, rank)
    d = g.datum
    for lam in itertools.product((1, 2), repeat=rank):
        for w in range(g.order):
            eps = epsilon_char(g.datum, g.word(w), lam)
            assert all(c > 0 for c in eps.terms.values())
            if not eps.is_zero():
                low = act(g.datum, g.word(w), weight_sub(lam, d.rho))
                assert extreme_weight(d, eps, "lowest") == low
                assert eps.terms.get(low) == 1


def test_starred_top_lowest_weight():
    g = oracles.group("B", 2)
    d = g.datum
    lam = (2, 3)
    for w in range(g.order):
        v = top_cohomology_char(g.datum, g.word(w), lam).star()
        if v.is_zero():
            continue
        expected = tuple(a + b for a, b in zip(act(g.datum, g.word(w), weight_sub(lam, d.rho)), d.rho))
        assert extreme_weight(d, v, "lowest") == expected


def test_dimension_bookkeeping():
    g = oracles.group("A", 2)
    lam = (2, 2)
    for tau in range(g.order):
        total = sum(epsilon_char(g.datum, g.word(w), lam).dimension() for w in lower_interval(g, tau))
        assert total == demazure_char(g.datum, g.word(tau), weight_sub(lam, g.datum.rho)).dimension()


def test_psi_character_forced_cases():
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)]:
        g = oracles.group(family, rank)
        zero = (0,) * rank
        # the twist chi' is forced to 2*rho on the identity and to 0 on the longest element
        assert psi_character(g, g.identity, (2,) * rank) == zero
        assert psi_character(g, g.longest, zero) == zero
        assert psi_character(g, g.identity, zero) == (2,) * rank


def test_psi_character_arithmetic_identity():
    g = oracles.group("B", 2)
    rng = random.Random(43)
    rho = g.datum.rho
    for _ in range(50):
        chi = oracles.random_weight(rng, 2, -5, 5)
        w = rng.randrange(g.order)
        lhs = weight_sub(psi_character(g, w, chi), rho)
        rhs = weight_sub(act(g.datum, g.word(w), rho), act(g.datum, g.word(w), chi))
        assert lhs == rhs


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_both_identities_match_reference(family, rank, request):
    g = oracles.group(family, rank)
    rho = g.datum.rho
    minus_rho = monomial(weight_neg(rho))
    lams = [(1, 1), (2, 1), (1, 3), (3, 2)]
    # a pass makes rhs equal to lhs, which the seeded run below keeps
    for lam in lams:
        assert all(r.passed for r in sweep_verify_theorem(g, lam) + sweep_verify_lemma31(g, lam)), lam
    request.getfixturevalue("sections_of_lam")
    for lam in lams:
        sweep_t = sweep_verify_theorem(g, lam)
        sweep_l = sweep_verify_lemma31(g, lam)
        for tau in range(g.order):
            lhs, rhs = oracles.theorem_sides(g, tau, lam)
            assert lhs == rhs, (family, g.word(tau), lam)
            t, l = sweep_t[tau], sweep_l[tau]
            section = demazure_char(g.datum, g.word(tau), lam)
            assert t.sides == (lhs, section.shift(rho))
            assert l.sides == (minus_rho * lhs, section)
            assert t.interval_size == l.interval_size == len(oracles.subword_lower_set(g, tau))


@pytest.mark.usefixtures("sections_of_lam")
@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3)])
def test_incremental_sums_match_interval_reference(family, rank):
    g = oracles.group(family, rank)
    minus_rho = monomial(weight_neg(g.datum.rho))
    for lam in [(1, 1, 1), (2, 1, 3)]:
        sweep_t = sweep_verify_theorem(g, lam)
        sweep_l = sweep_verify_lemma31(g, lam)
        for tau in range(g.order):
            reference = oracles.interval_sum(g, tau, lam)
            t, l = sweep_t[tau], sweep_l[tau]
            assert t.sides[0] == reference, (family, g.word(tau), lam)
            assert l.sides[0] == minus_rho * reference, (family, g.word(tau), lam)
            assert t.interval_size == l.interval_size == len(lower_interval(g, tau))


@pytest.mark.parametrize(
    "family,lams",
    [
        ("D", list(itertools.product((1, 2), repeat=4))),
        ("F", [(1, 1, 1, 1)] + [tuple(2 if j == i else 1 for j in range(4)) for i in range(4)]),
    ],
    ids=["D4", "F4"],
)
def test_rank_four_sweeps_pass_and_sum_the_interval(family, lams, request):
    g = oracles.group(family, 4)
    for lam in lams:
        sweep = sweep_verify_theorem(g, lam)
        assert all(r.passed and r.sides is None for r in sweep), (family, lam)
        assert all(r.passed for r in sweep_verify_lemma31(g, lam)), (family, lam)
    # lam is the last weight
    request.getfixturevalue("sections_of_lam")
    sweep = sweep_verify_theorem(g, lam)
    taus = [g.longest, *random.Random(53).sample(range(g.order), 4)]
    for tau in taus:
        assert sweep[tau].sides[0] == oracles.interval_sum(g, tau, lam), (family, g.word(tau))


@pytest.mark.parametrize("family,rank", [("B", 3), ("D", 4), ("B", 4)])
def test_sweeps_step_the_section_once_per_minimal_coset_representative(family, rank, monkeypatch):
    # D_tau(e^mu) = D_(tau^J)(e^mu) for mu = lam - rho: one image step per tau != e, one section step per tau^J != e
    g = oracles.group(family, rank)
    d = g.datum
    real = Packing.step
    calls = 0

    def step(packing, pos, terms):
        nonlocal calls
        calls += 1
        return real(packing, pos, terms)

    monkeypatch.setattr(Packing, "step", step)
    for lam in itertools.product((1, 2), repeat=rank):
        expected = (g.order - 1) + (orbit_size(d, weight_sub(lam, d.rho)) - 1)
        for sweep in (sweep_verify_theorem, sweep_verify_lemma31):
            calls = 0
            sweep(g, lam)
            assert calls == expected, (sweep.__name__, lam)


class _Tagged(dict):
    """A step result that a weakref can follow, tagged one level above the terms it was stepped from."""

    level = 0


@pytest.mark.parametrize("family,rank", [("B", 3), ("D", 4)])
def test_the_sweep_holds_at_most_two_lengths_of_values(family, rank, monkeypatch):
    # images are stepped from e^-lam along the peeling walk, so an image's tag is its element's length
    g = oracles.group(family, rank)
    d = g.datum
    sizes = Counter(g.length)
    real = Packing.step
    alive, top = [], 0  # weakrefs to the step results, and the highest tag so far

    def step(packing, pos, terms):
        nonlocal top
        out = _Tagged(real(packing, pos, terms))
        out.level = getattr(terms, "level", 0) + 1
        top = max(top, out.level)
        alive[:] = [r for r in alive if r() is not None] + [weakref.ref(out)]
        # each window value holds one image and one section or L, and a shared section is one object
        assert len(alive) <= 2 * (sizes[top - 1] + sizes[top]) + 1, (lam, top)
        return out

    monkeypatch.setattr(Packing, "step", step)
    for lam in itertools.product((1, 2), repeat=rank):
        for sweep in (sweep_verify_theorem, sweep_verify_lemma31):
            alive, top = [], 0
            assert all(r.passed for r in sweep(g, lam)), (sweep.__name__, lam)
            assert top == g.length[g.longest]


def section_mismatches(g, taus):
    """(lam, tau, frame) for each grid-2 lam, tau in taus and frame whose section differs from the word reference.

    Run under ``eps_times_minus_rho``: every report fails and keeps its section.
    """
    d = g.datum
    mismatches = []
    for lam in itertools.product((1, 2), repeat=d.rank):
        sweeps = {d.rho: sweep_verify_theorem(g, lam), (0,) * d.rank: sweep_verify_lemma31(g, lam)}
        for tau in taus:
            section = demazure_char(d, g.word(tau), weight_sub(lam, d.rho))
            for frame, reports in sweeps.items():
                assert not reports[tau].passed, (g.word(tau), lam)
                if reports[tau].sides[1] != section.shift(frame):
                    mismatches.append((lam, tau, frame))
    return mismatches


@pytest.mark.usefixtures("eps_times_minus_rho")
@pytest.mark.parametrize(
    "family,rank,sample", [("A", 3, None), ("B", 3, None), ("C", 3, None), ("G", 2, None), ("D", 4, 8)]
)
def test_shared_sections_match_the_word_reference(family, rank, sample):
    # grid 2 holds lam = rho, where mu = 0 and every section is shared, and lam with mu singular and nonzero
    g = oracles.group(family, rank)
    taus = range(g.order) if sample is None else [g.longest, *random.Random(59).sample(range(g.order), sample)]
    assert section_mismatches(g, taus) == []


@pytest.mark.usefixtures("eps_times_minus_rho")
@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_sections_keyed_on_sigma_fail_the_word_reference(family, rank, monkeypatch):
    # the key reflection sees zero roots, so tau is looked up at sigma(mu); the Demazure steps keep their roots
    real = theorem.packing_for

    def packing_for(d, weights, shift=()):
        packing = real(d, weights, shift)
        unreflected = copy.copy(packing)
        unreflected.roots, unreflected.step = (0,) * d.rank, packing.step
        return unreflected

    monkeypatch.setattr(theorem, "packing_for", packing_for)
    g = oracles.group(family, rank)
    assert section_mismatches(g, range(g.order))


def reports_and_reference(g, lam):
    """Both frames' reports at lam, from the library and from ``oracles.reference_interval_reports``."""
    rank = g.datum.rank
    for sweep, frame in ((sweep_verify_theorem, g.datum.rho), (sweep_verify_lemma31, (0,) * rank)):
        yield sweep(g, lam), oracles.reference_interval_reports(g, lam, frame)


REFERENCE_TYPES = [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("B", 4)]


@pytest.mark.parametrize(
    "family,rank,fixture",
    [(family, rank, fixture) for fixture in (None, "eps_times_minus_rho") for family, rank in REFERENCE_TYPES]
    # sections_of_lam seeds the section with e^lam, lam regular, so no coset is shared; D4 and B4 would add 13 s and 84 s
    + [(family, rank, "sections_of_lam") for family, rank in REFERENCE_TYPES[:4]],
)
def test_reports_match_the_reference_engine(family, rank, fixture, request):
    # a tau outside W^J takes L(tau) and the verdict of its coset; the reference grows L(tau) at every tau
    if fixture is not None:
        request.getfixturevalue(fixture)
    g = oracles.group(family, rank)
    for lam in itertools.product((1, 2), repeat=rank):
        for reports, reference in reports_and_reference(g, lam):
            assert reports == reference, lam


@pytest.mark.usefixtures("empty_steps_keep_a_term")
@pytest.mark.parametrize("family,rank,failed", [("B", 3, 143), ("A", 3, 85), ("G", 2, 21)])
def test_left_sides_that_differ_across_a_coset_are_not_shared(family, rank, failed):
    # eps_w != 0 off W^J, so L(tau) may differ from L(y) for y in tau's coset; each report must still be tau's own
    g = oracles.group(family, rank)
    failures = 0
    for lam in itertools.product((1, 2), repeat=rank):
        for reports, reference in reports_and_reference(g, lam):
            assert reports == reference, lam
            failures += sum(not r.passed for r in reports)
    assert failures == 2 * failed  # the same verdicts in both frames
