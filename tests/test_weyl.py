import pickle
import random

import pytest

from demchar.rootsys import build_datum
from demchar.weyl import (
    bit_indices,
    bruhat_leq,
    classified_order,
    element_by_word,
    generate,
    lower_interval,
)

import oracles
from oracles import alternative_reduced_words, inversions


@pytest.mark.parametrize(
    "family,rank,order",
    [
        ("A", 1, 2),
        ("A", 2, 6),
        ("A", 3, 24),
        ("B", 2, 8),
        ("B", 3, 48),
        ("C", 3, 48),
        ("D", 4, 192),
        ("G", 2, 12),
        ("F", 4, 1152),
    ],
)
def test_group_orders(family, rank, order):
    g = oracles.group(family, rank)
    assert g.order == order == oracles.classical_weyl_order(family, rank)


def test_a2_lengths():
    g = oracles.group("A", 2)
    assert sorted(e.length for e in g.elements) == [0, 1, 1, 2, 2, 3]


def test_longest_element_properties():
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)]:
        g = oracles.group(family, rank)
        w0 = g.longest_element
        assert w0.length == len(g.datum.positive_roots)
        assert element_by_word(g, w0.word + w0.word) == g.identity_element


REFERENCE_TYPES = [t for t in oracles.ALL_TYPES if oracles.classical_weyl_order(*t) <= 1920]


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES)
def test_orbit_generation_matches_matrix_reference(family, rank):
    g = oracles.group(family, rank)
    ref = oracles.matrix_group(g.datum)
    assert [e.word for e in g.elements] == ref.words
    assert all(e.length == len(e.word) for e in g.elements)
    assert g.right_mult == ref.right_mult
    assert g.left_mult == ref.left_mult
    assert g.bruhat_rows == ref.bruhat_rows
    rng = random.Random(7)
    for e, m in zip(g.elements, ref.matrices):
        lam = oracles.random_weight(rng, rank, -6, 6)
        assert e.apply(lam) == tuple(sum(a * x for a, x in zip(row, lam)) for row in m)


def test_bruhat_rows_built_on_first_read_and_pickled():
    g = generate(build_datum("B", 3))
    assert "bruhat_rows" not in vars(g)
    rows = g.bruhat_rows
    assert vars(g)["bruhat_rows"] is rows
    copy = pickle.loads(pickle.dumps(g))
    assert vars(copy)["bruhat_rows"] == rows
    assert copy.elements == g.elements
    # one roots tuple shared by every element, so pickle stores it once
    assert all(e.simple_roots is copy.datum.simple_roots for e in copy.elements)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("G", 2)])
def test_length_equals_inversion_count(family, rank):
    g = oracles.group(family, rank)
    for e in g.elements:
        assert e.length == len(e.word) == inversions(g, e)


def test_canonical_word_is_lex_smallest():
    g = oracles.group("A", 3)
    for e in g.elements:
        words = alternative_reduced_words(g, e)
        assert e.word == min(words)
        assert len(set(words)) == len(words)
        assert all(len(word) == e.length for word in words)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_bruhat_agrees_with_subword_oracle(family, rank):
    g = oracles.group(family, rank)
    for tau in g.elements:
        reachable = oracles.subword_lower_set(g, tau)
        for w in g.elements:
            assert bruhat_leq(g, w, tau) == (w.index in reachable)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_bruhat_leq_walk_matches_the_table(family, rank):
    g = oracles.group(family, rank)
    for tau in g.elements:
        row = g.bruhat_rows[tau.index]
        for w in g.elements:
            assert bruhat_leq(g, w, tau) == bool((row >> w.index) & 1)


def test_bruhat_basics():
    g = oracles.group("A", 2)
    e = g.identity_element
    s1 = element_by_word(g, (1,))
    s2 = element_by_word(g, (2,))
    s12 = element_by_word(g, (1, 2))
    s21 = element_by_word(g, (2, 1))
    for tau in g.elements:
        assert bruhat_leq(g, e, tau)
        assert bruhat_leq(g, tau, tau)
    assert bruhat_leq(g, s1, s12)
    assert not bruhat_leq(g, s12, s21) and not bruhat_leq(g, s21, s12)
    assert bruhat_leq(g, s2, s21)


def test_bruhat_refined_by_length():
    for family, rank in [("A", 3), ("B", 3), ("G", 2)]:
        g = oracles.group(family, rank)
        for tau in g.elements:
            for w in lower_interval(g, tau):
                assert w == tau or w.length < tau.length


def test_lower_interval_examples():
    g = oracles.group("A", 2)
    assert lower_interval(g, g.identity_element) == [g.identity_element]
    assert len(lower_interval(g, g.longest_element)) == g.order
    s12 = element_by_word(g, (1, 2))
    assert [x.word for x in lower_interval(g, s12)] == [(), (1,), (2,), (1, 2)]


def test_lower_interval_ordering_and_monotonicity():
    g = oracles.group("B", 2)
    for tau in g.elements:
        interval = lower_interval(g, tau)
        keys = [(x.length, x.word) for x in interval]
        assert keys == sorted(keys)
        assert [x.index for x in interval] == bit_indices(g.bruhat_rows[tau.index])
        for w in interval:
            assert set(lower_interval(g, w)) <= set(interval)


def test_alternative_reduced_words_examples():
    g2 = oracles.group("A", 2)
    assert sorted(alternative_reduced_words(g2, g2.longest_element)) == [(1, 2, 1), (2, 1, 2)]
    assert alternative_reduced_words(g2, element_by_word(g2, (1,))) == [(1,)]
    gb = oracles.group("B", 2)
    assert sorted(alternative_reduced_words(gb, gb.longest_element)) == [(1, 2, 1, 2), (2, 1, 2, 1)]
    assert len(alternative_reduced_words(gb, gb.longest_element, limit=1)) == 1


def test_apply_examples():
    g = oracles.group("A", 1)
    s = g.longest_element
    assert s.apply((3,)) == (-3,)
    assert g.identity_element.apply((3,)) == (3,)
    assert s.apply((0,)) == (0,)


def test_longest_sends_dominant_to_antidominant():
    rng = random.Random(3)
    for family, rank in [("A", 3), ("B", 3), ("G", 2)]:
        g = oracles.group(family, rank)
        w0 = g.longest_element
        for _ in range(20):
            lam = tuple(rng.randint(0, 5) for _ in range(rank))
            assert all(c <= 0 for c in w0.apply(lam))


def test_length_subadditive():
    rng = random.Random(11)
    g = oracles.group("B", 3)
    for _ in range(100):
        w = g.elements[rng.randrange(g.order)]
        v = g.elements[rng.randrange(g.order)]
        wv = element_by_word(g, w.word + v.word)
        assert wv.length <= w.length + v.length


def test_simple_multiplication_changes_length_by_one():
    # equality case of subadditivity along generation edges
    g = oracles.group("B", 2)
    for e in g.elements:
        for i in range(g.datum.rank):
            neighbour = g.elements[g.right_mult[e.index][i]]
            assert abs(neighbour.length - e.length) == 1


def test_max_order_guard():
    with pytest.raises(ValueError):
        generate(build_datum("A", 3), max_order=10)
    assert generate(build_datum("A", 2), max_order=6).order == 6


@pytest.mark.parametrize("family,rank", oracles.ALL_TYPES)
def test_classified_order(family, rank):
    assert classified_order(build_datum(family, rank)) == oracles.classical_weyl_order(family, rank)


def test_too_large_group_is_refused_before_generation():
    # generating E7 element by element up to the default bound takes minutes
    with pytest.raises(ValueError, match="2903040 elements.*--max-group-order"):
        generate(build_datum("E", 7))


def test_element_by_word_validates_letters():
    g = oracles.group("A", 2)
    with pytest.raises(ValueError):
        element_by_word(g, (3,))
