import itertools
import random

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demchar.charring import CharElement
from demchar.demazure import demazure_char, top_cohomology_char
from demchar.kernel import (
    DECOMPOSITION_SCHEMA,
    decompose,
    decomposition_to_json,
    in_kernel,
    is_demazure_invariant,
    kernel_basis_element,
    verify_characterization,
)
from demchar.rootsys import weight_neg, weight_sub

import oracles
from oracles import dominance_leq, w_apply

monomial, zero = CharElement.monomial, CharElement.zero


def dual_label(g, lam):
    """Index of the basis element recovered from kernel_basis_element(lam):
    -w0(lam - rho), which is lam - rho itself whenever -w0 is the identity."""
    return weight_neg(g.longest_element.apply(weight_sub(lam, g.datum.rho)))


def test_in_kernel_examples():
    g = oracles.group("A", 1)
    assert in_kernel(g, zero(1))
    assert in_kernel(g, monomial((-1,)))
    assert in_kernel(g, monomial((-2,)) + monomial((0,)))
    assert not in_kernel(g, monomial((1,)))


def test_is_demazure_invariant_examples():
    g = oracles.group("A", 1)
    assert is_demazure_invariant(g, monomial((1,)) + monomial((-1,)))
    assert is_demazure_invariant(g, monomial((0,)))
    assert not is_demazure_invariant(g, monomial((1,)))


def test_kernel_basis_element_frozen():
    g1 = oracles.group("A", 1)
    assert kernel_basis_element(g1, (2,)) == monomial((-2,)) + monomial((0,))
    assert kernel_basis_element(g1, (1,)) == monomial((-1,))
    g2 = oracles.group("A", 2)
    assert kernel_basis_element(g2, (1, 1)) == monomial((-1, -1))


def test_kernel_basis_element_rejects_non_regular():
    g = oracles.group("A", 2)
    with pytest.raises(ValueError):
        kernel_basis_element(g, (1, 0))


def test_characterization_examples():
    g = oracles.group("A", 1)
    member = monomial((-2,)) + monomial((0,))
    assert in_kernel(g, member) and is_demazure_invariant(g, monomial((1,)) * member)
    assert verify_characterization(g, member)
    assert verify_characterization(g, zero(1))
    non_member = monomial((1,))
    assert not in_kernel(g, non_member)
    assert verify_characterization(g, non_member)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_characterization_on_random_elements(family, rank):
    g = oracles.group(family, rank)
    rng = random.Random(47)
    for _ in range(60):
        assert verify_characterization(g, oracles.random_char(rng, rank))


def test_decompose_frozen_example():
    g = oracles.group("A", 1)
    v = monomial((-2,)) + monomial((0,))
    assert decompose(g, v) == {(1,): 1}
    assert decompose(g, zero(1)) == {}


def test_decompose_rejects_non_members():
    g = oracles.group("A", 1)
    with pytest.raises(ValueError):
        decompose(g, monomial((1,)))


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_decompose_round_trips_basis_elements(family, rank):
    g = oracles.group(family, rank)
    for lam in itertools.product((1, 2, 3), repeat=rank):
        v = kernel_basis_element(g, lam)
        assert in_kernel(g, v)
        assert decompose(g, v) == {dual_label(g, lam): 1}


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_decompose_round_trips_integer_combinations(family, rank):
    g = oracles.group(family, rank)
    grid = list(itertools.product((1, 2, 3), repeat=rank))
    basis = {lam: kernel_basis_element(g, lam) for lam in grid}
    rng = random.Random(53)
    for _ in range(25):
        chosen = rng.sample(grid, rng.randint(1, min(3, len(grid))))
        coeffs = {lam: rng.choice([-3, -2, -1, 1, 2, 3]) for lam in chosen}
        v = zero(rank)
        for lam, c in coeffs.items():
            v = v + c * basis[lam]
        expected = {dual_label(g, lam): c for lam, c in coeffs.items()}
        assert decompose(g, v) == expected


def test_decompose_round_count_bounded_by_support():
    g = oracles.group("A", 2)
    v = kernel_basis_element(g, (2, 2)) - 2 * kernel_basis_element(g, (1, 1))
    twisted_support = len((monomial(g.datum.rho) * v).terms)
    coeffs, rounds = oracles.peel_decompose(g, v, with_stats=True)
    assert rounds <= twisted_support
    assert set(coeffs.values()) == {1, -2}
    folded, reflections = decompose(g, v, with_stats=True)
    assert folded == coeffs
    assert reflections <= twisted_support * len(g.datum.positive_roots)


def test_decompose_is_deterministic():
    g = oracles.group("B", 2)
    v = kernel_basis_element(g, (2, 1)) + kernel_basis_element(g, (1, 2))
    assert decompose(g, v) == decompose(g, v)


def test_dual_label_is_identity_when_minus_w0_is():
    for family, rank in [("A", 1), ("B", 2)]:
        g = oracles.group(family, rank)
        for lam in itertools.product((1, 2, 3), repeat=rank):
            assert dual_label(g, lam) == weight_sub(lam, g.datum.rho)


def test_decomposition_json_schema():
    g = oracles.group("A", 2)
    v = kernel_basis_element(g, (2, 1))
    payload = decomposition_to_json(g, decompose(g, v))
    jsonschema.validate(payload, DECOMPOSITION_SCHEMA)
    (entry,) = payload["coefficients"]
    assert tuple(entry["mu"]) == dual_label(g, (2, 1))
    assert [a + b for a, b in zip(entry["mu"], [1, 1])] == entry["lambda"]
    assert entry["coeff"] == "1"


@pytest.mark.parametrize("fn", [in_kernel, is_demazure_invariant, verify_characterization, decompose])
def test_character_rank_must_match_rank(fn):
    # the operators pack each weight (demazure.Packing), so an unchecked rank-3 character would be
    # packed with three coordinates
    g = oracles.group("A", 2)
    for v in [CharElement(3, {(1, 0, 0): 1}), CharElement(1, {(1,): 1})]:
        with pytest.raises(ValueError, match="needs rank 2"):
            fn(g, v)


@pytest.mark.parametrize("lam", [(1,), (1, 1, 5)])
def test_kernel_basis_element_weight_length_must_match_rank(lam):
    with pytest.raises(ValueError, match="coordinates"):
        kernel_basis_element(oracles.group("A", 2), lam)


@pytest.mark.parametrize("family,rank,lam", [("A", 2, (2, 1)), ("B", 2, (1, 2)), ("G", 2, (2, 2)), ("B", 3, (1, 2, 1))])
def test_kernel_basis_element_is_the_sum_of_top_characters(family, rank, lam):
    g = oracles.group(family, rank)
    total = zero(rank)
    for w in g.elements:
        total = total + top_cohomology_char(g, w, lam)
    assert kernel_basis_element(g, lam) == total


def test_decompose_takes_incomparable_weights_in_one_round():
    g = oracles.group("A", 2)
    v = kernel_basis_element(g, (4, 1)) + kernel_basis_element(g, (1, 4)) - 2 * kernel_basis_element(g, (2, 2))
    coeffs, rounds = oracles.peel_decompose(g, v, with_stats=True)
    assert coeffs == {(0, 3): 1, (3, 0): 1, (1, 1): -2}
    assert not dominance_leq(g.datum, (0, 3), (3, 0)) and not dominance_leq(g.datum, (3, 0), (0, 3))
    # round 1 peels both (0, 3) and (3, 0); round 2 peels (1, 1)
    assert rounds == 2
    folded, reflections = decompose(g, v, with_stats=True)
    assert folded == coeffs
    assert reflections <= len((monomial(g.datum.rho) * v).terms) * len(g.datum.positive_roots)


@pytest.mark.parametrize("family,rank", [("B", 3), ("G", 2)])
def test_decomposition_reconstructs_the_twisted_element(family, rank):
    g = oracles.group(family, rank)
    grid = list(itertools.product((1, 2), repeat=rank))
    basis = {lam: kernel_basis_element(g, lam) for lam in grid}
    rng = random.Random(59)
    for _ in range(6):
        v = zero(rank)
        for lam in rng.sample(grid, rng.randint(1, 3)):
            v = v + rng.choice([-2, -1, 1, 3]) * basis[lam]
        rebuilt = zero(rank)
        for mu, c in decompose(g, v).items():
            rebuilt = rebuilt + c * demazure_char(g, g.longest_element, mu)
        assert rebuilt == v.shift(g.datum.rho)


def test_decompose_f4():
    g = oracles.group("F", 4)
    rho = g.datum.rho
    neg_rho = weight_neg(rho)
    v = demazure_char(g, g.longest_element, rho).shift(neg_rho) + 3 * monomial(neg_rho)
    assert decompose(g, v) == {rho: 1, (0, 0, 0, 0): 3}


@pytest.mark.parametrize(
    "family,rank,n",
    [("A", 1, 25), ("A", 2, 25), ("A", 3, 25), ("B", 2, 25), ("B", 3, 25), ("C", 3, 25), ("G", 2, 25), ("D", 4, 10)],
)
def test_fold_matches_peel_on_seeded_combinations(family, rank, n):
    g = oracles.group(family, rank)
    grid = list(itertools.product((1, 2, 3) if rank <= 2 else (1, 2), repeat=rank))
    basis = {lam: kernel_basis_element(g, lam) for lam in grid}
    rng = random.Random(61)
    for _ in range(n):
        v = zero(rank)
        for lam in rng.sample(grid, rng.randint(1, min(3, len(grid)))):
            v = v + rng.choice([-3, -2, -1, 1, 2, 3]) * basis[lam]
        coeffs = decompose(g, v)
        assert coeffs == oracles.peel_decompose(g, v)
        assert list(coeffs) == sorted(coeffs)


def test_fold_matches_peel_f4():
    g = oracles.group("F", 4)
    neg_rho = weight_neg(g.datum.rho)
    v = demazure_char(g, g.longest_element, g.datum.rho).shift(neg_rho) + 3 * monomial(neg_rho)
    assert decompose(g, v) == oracles.peel_decompose(g, v)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    fr=st.sampled_from([("A", 2), ("B", 2), ("G", 2)]),
    terms=st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-4, 4), min_size=1, max_size=4
    ),
)
def test_fold_matches_peel_on_symmetrized_characters(fr, terms):
    # e^-rho times a W-symmetrized character is in N; its support meets the walls
    g = oracles.group(*fr)
    f = CharElement(2, terms)
    sym = zero(2)
    for w in g.elements:
        sym = sym + w_apply(w, f)
    v = sym.shift(weight_neg(g.datum.rho))
    coeffs = decompose(g, v)
    assert coeffs == oracles.peel_decompose(g, v)
    rebuilt = zero(2)
    for mu, c in coeffs.items():
        rebuilt = rebuilt + c * demazure_char(g, g.longest_element, mu)
    assert rebuilt == sym


def test_fold_past_its_bound_is_an_internal_error(monkeypatch):
    from demchar import kernel

    g = oracles.group("A", 2)
    v = kernel_basis_element(g, (2, 3))
    monkeypatch.setattr(kernel, "simple_reflection", lambda d, i, x: x)
    with pytest.raises(RuntimeError, match="more than 3 reflections"):
        decompose(g, v)


def test_invariance_check_names_the_first_reflection_that_moves_u():
    g = oracles.group("B", 2)
    # u = e^rho * v = e^(0,1) + e^(0,-1) is fixed by s_1 but not by s_2
    v = CharElement(2, {(-1, 0): 1, (-1, -2): 1})
    u = v.shift(g.datum.rho)
    s1, s2 = (g.elements[g.left_mult[g.identity * g.datum.rank + i]] for i in (0, 1))
    assert w_apply(s1, u) == u and w_apply(s2, u) != u
    with pytest.raises(ValueError, match="not in the joint Demazure kernel: simple reflection 2 moves"):
        decompose(g, v)


def test_invariant_element_outside_the_kernel_is_an_internal_error(monkeypatch):
    # in_kernel runs after the invariance lookup, as a guard that the two agree
    from demchar import kernel

    g = oracles.group("A", 2)
    v = kernel_basis_element(g, (2, 1))
    monkeypatch.setattr(kernel, "in_kernel", lambda g, v: False)
    with pytest.raises(RuntimeError, match="kernel membership and invariance disagree"):
        decompose(g, v)
