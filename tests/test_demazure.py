import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demchar.charring import CharElement
from demchar.demazure import (
    _image_table,
    demazure_char,
    demazure_step,
    demazure_word,
    euler_char,
    packing_for,
    top_cohomology_char,
)
from demchar.rootsys import build_datum, simple_reflection, weight_neg, weight_sub
from demchar.weyl import element_by_word, lower_interval

import oracles
from oracles import alternative_reduced_words, extreme_weight, w_apply

monomial = CharElement.monomial


def unpacked_images(g, v):
    """The full image table of v, each entry D_w(v) unpacked, indexed like g.elements."""
    packing = packing_for(g.datum, v.terms)
    images = _image_table(g, packing, packing.pack_terms(v.terms), None)
    return [CharElement.adopt(v.rank, packing.unpack_terms(p)) for p in images]


def numerator_identity_holds(d, i, lam):
    """(1 - e^{-alpha}) * D_i(e^lam) == e^lam - e^{s_i(lam) - alpha}, exactly."""
    alpha = d.simple_roots[i - 1]
    lhs = (monomial((0,) * d.rank) - monomial(weight_neg(alpha))) * demazure_step(d, i, monomial(lam))
    rhs = monomial(lam) - monomial(weight_sub(simple_reflection(d, i, lam), alpha))
    return lhs == rhs


def test_step_frozen_a1():
    d = build_datum("A", 1)
    assert demazure_step(d, 1, monomial((3,))) == CharElement(
        1, {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}
    )
    assert demazure_step(d, 1, monomial((-1,))).is_zero()
    assert demazure_step(d, 1, monomial((-2,))) == CharElement(1, {(0,): -1})
    for t in range(-6, 7):
        assert numerator_identity_holds(d, 1, (t,))


def test_step_linear():
    d = build_datum("A", 2)
    u = monomial((1, 0))
    v = monomial((-2, 3))
    assert demazure_step(d, 1, u + 2 * v) == demazure_step(d, 1, u) + 2 * demazure_step(d, 1, v)


def test_step_index_validation():
    d = build_datum("A", 2)
    with pytest.raises(ValueError):
        demazure_step(d, 0, monomial((1, 1)))
    with pytest.raises(ValueError):
        demazure_step(d, 3, monomial((1, 1)))


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_numerator_identity_random(family, rank):
    d = build_datum(family, rank)
    rng = random.Random(17)
    for _ in range(100):
        lam = oracles.random_weight(rng, rank, -6, 6)
        for i in range(1, rank + 1):
            assert numerator_identity_holds(d, i, lam)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_step_idempotent(family, rank):
    d = build_datum(family, rank)
    rng = random.Random(23)
    for _ in range(100):
        v = oracles.random_char(rng, rank)
        for i in range(1, rank + 1):
            once = demazure_step(d, i, v)
            assert demazure_step(d, i, once) == once


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_fixed_points_are_reflection_invariants(family, rank):
    g = oracles.group(family, rank)
    d = g.datum
    rng = random.Random(29)
    for _ in range(100):
        v = oracles.random_char(rng, rank)
        for i in range(1, rank + 1):
            s_i = element_by_word(g, (i,))
            symmetric = v + w_apply(s_i, v)
            assert demazure_step(d, i, symmetric) == symmetric
            assert (demazure_step(d, i, v) == v) == (w_apply(s_i, v) == v)


def test_word_examples():
    d = build_datum("A", 2)
    v = monomial((1, 0))
    assert demazure_word(d, (), v) == v
    assert demazure_word(d, (1,), v) == monomial((1, 0)) + monomial((-1, 1))
    expected = monomial((1, 0)) + monomial((-1, 1)) + monomial((0, -1))
    assert demazure_word(d, (1, 2, 1), v) == expected
    assert demazure_word(d, (1, 2, 1), v).dimension() == 3


def test_word_composition_order_last_letter_first():
    d = build_datum("A", 2)
    v = monomial((-2, 1))
    by_hand = demazure_step(d, 1, demazure_step(d, 2, v))
    assert demazure_word(d, (1, 2), v) == by_hand


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_reduced_word_independence(family, rank):
    g = oracles.group(family, rank)
    rng = random.Random(31)
    for e in g.elements:
        words = alternative_reduced_words(g, e)
        if len(words) < 2:
            continue
        for _ in range(3):
            v = monomial(oracles.random_weight(rng, rank, -5, 5))
            results = {tuple(sorted(demazure_word(g.datum, w, v).terms.items())) for w in words}
            assert len(results) == 1


def test_demazure_char_examples():
    g1 = oracles.group("A", 1)
    assert demazure_char(g1, g1.identity_element, (5,)) == monomial((5,))
    assert demazure_char(g1, g1.longest_element, (2,)) == CharElement(
        1, {(2,): 1, (0,): 1, (-2,): 1}
    )
    g2 = oracles.group("A", 2)
    assert demazure_char(g2, g2.longest_element, (1, 1)).dimension() == 8


def test_demazure_char_rejects_non_dominant():
    g = oracles.group("A", 2)
    with pytest.raises(ValueError):
        demazure_char(g, g.longest_element, (-1, 2))


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]
)
def test_full_demazure_char_matches_weyl_dimension(family, rank):
    g = oracles.group(family, rank)
    rng = random.Random(37)
    for _ in range(10):
        lam = tuple(rng.randint(0, 4) for _ in range(rank))
        assert demazure_char(g, g.longest_element, lam).dimension() == oracles.weyl_dimension(
            g.datum, lam
        )


@pytest.mark.parametrize(
    "family,rank,mu",
    [
        (family, rank, mu)
        for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]
        for mu in [(1,) * rank, (2,) + (0,) * (rank - 1), (0,) * (rank - 1) + (3,)]
    ]
    + [("D", 4, (1, 1, 1, 1)), ("F", 4, (1, 0, 0, 1))],
)
def test_full_demazure_char_matches_freudenthal(family, rank, mu):
    # the w0 row against multiplicities that no Demazure step computes
    g = oracles.group(family, rank)
    assert demazure_char(g, g.longest_element, mu) == oracles.freudenthal_char(g, mu)


def test_fundamental_dimensions_pin_cartan_convention():
    gb = oracles.group("B", 2)
    dims_b = {demazure_char(gb, gb.longest_element, lam).dimension() for lam in [(1, 0), (0, 1)]}
    assert dims_b == {4, 5}
    gg = oracles.group("G", 2)
    dims_g = {demazure_char(gg, gg.longest_element, lam).dimension() for lam in [(1, 0), (0, 1)]}
    assert dims_g == {7, 14}


def test_euler_char_examples():
    g = oracles.group("A", 1)
    s = g.longest_element
    assert euler_char(g, g.identity_element, (-7,)) == monomial((-7,))
    assert euler_char(g, s, (-1,)).is_zero()
    assert euler_char(g, s, (-2,)) == CharElement(1, {(0,): -1})


def test_top_cohomology_examples():
    g = oracles.group("A", 1)
    s = g.longest_element
    assert top_cohomology_char(g, g.identity_element, (3,)) == monomial((-3,))
    assert top_cohomology_char(g, s, (2,)) == monomial((0,))
    assert top_cohomology_char(g, s, (1,)).is_zero()


def test_top_cohomology_rejects_non_regular():
    g = oracles.group("A", 2)
    for bad in [(0, 1), (2, 0), (-1, 3)]:
        with pytest.raises(ValueError):
            top_cohomology_char(g, g.longest_element, bad)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_nonvanishing_and_highest_weight_at_two_rho(family, rank):
    g = oracles.group(family, rank)
    d = g.datum
    lam = tuple(2 * c for c in d.rho)
    for w in g.elements:
        v = top_cohomology_char(g, w, lam)
        assert not v.is_zero()
        expected = weight_sub(w.apply(weight_sub(d.rho, lam)), d.rho)
        assert extreme_weight(d, v, "highest") == expected
        assert v.coeff(expected) == 1


def test_image_table_matches_wordwise_evaluation():
    for family, rank in [("A", 2), ("B", 2)]:
        g = oracles.group(family, rank)
        rng = random.Random(41)
        v = oracles.random_char(rng, rank)
        images = unpacked_images(g, v)
        for e in g.elements:
            assert images[e.index] == demazure_word(g.datum, e.word, v)


def test_image_table_restricted_to_lower_intervals():
    g = oracles.group("B", 3)
    v = oracles.random_char(random.Random(47), 3)
    packing = packing_for(g.datum, v.terms)
    terms = packing.pack_terms(v.terms)
    full = _image_table(g, packing, terms, None)
    taus = [element_by_word(g, (1, 2)), element_by_word(g, (3, 2, 3))]
    within = {w.index: w for tau in taus for w in lower_interval(g, tau)}
    images = _image_table(g, packing, terms, within.values())
    for e in g.elements:
        assert images[e.index] == (full[e.index] if e.index in within else None)
    with pytest.raises(ValueError):
        _image_table(g, packing, terms, [g.identity_element, element_by_word(g, (1, 2))])


@pytest.mark.parametrize("weight", [(1,), (1, 1, 5)])
def test_weight_length_must_match_rank(weight):
    g = oracles.group("A", 2)
    for fn in (demazure_char, euler_char, top_cohomology_char):
        with pytest.raises(ValueError, match="coordinates"):
            fn(g, g.longest_element, weight)


@pytest.mark.parametrize(
    "apply",
    [
        lambda g, v: demazure_step(g.datum, 1, v),
        lambda g, v: demazure_word(g.datum, (1, 2), v),
    ],
    ids=["demazure_step", "demazure_word"],
)
def test_character_rank_must_match_rank(apply):
    g = oracles.group("A", 2)
    for v in [CharElement(3, {(1, 0, 0): 1}), CharElement(1, {(1,): 1})]:
        with pytest.raises(ValueError, match="needs rank 2"):
            apply(g, v)


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
)
def test_packed_operators_match_tuple_reference(family, rank):
    g = oracles.group(family, rank)
    d = g.datum
    rng = random.Random(f"packed-{family}{rank}")
    for _ in range(6):
        v = oracles.random_char(rng, rank)
        for i in range(1, rank + 1):
            assert demazure_step(d, i, v) == oracles.tuple_word(d, (i,), v)
        word = [rng.randint(1, rank) for _ in range(rng.randint(0, 6))]
        assert demazure_word(d, word, v) == oracles.tuple_word(d, word, v)
    v = oracles.random_char(rng, rank, lo=-2, hi=2)
    images = unpacked_images(g, v)
    for e in g.elements:
        assert images[e.index] == oracles.tuple_word(d, e.word, v)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_image_weights_lie_within_the_radix_bound(family, rank):
    g = oracles.group(family, rank)
    d = g.datum
    highest_coroot = max(sum(c) for c in d.positive_coroots)
    rng = random.Random(f"hull-{family}{rank}")
    for _ in range(3):
        v = oracles.random_char(rng, rank, lo=-3, hi=3)
        pairing = max(abs(sum(x * c for x, c in zip(mu, coroot))) for mu in v.terms for coroot in d.positive_coroots)
        bound = highest_coroot * max(abs(x) for mu in v.terms for x in mu)
        assert pairing <= bound < packing_for(d, v.terms).bias
        for image in unpacked_images(g, v):
            assert all(abs(x) <= pairing for mu in image.terms for x in mu)


BOUNDARY = [2**15 - 1, 2**15, 10**6, 10**12]


@pytest.mark.parametrize("x", [2**15 - 1, 2**15, -(2**15 - 1), -(2**15)])
def test_long_strings_at_the_radix_boundary(x):
    d = build_datum("B", 2)
    v = CharElement(2, {(x, 10**12): 3, (1, -(10**12)): -2})
    assert demazure_step(d, 1, v) == oracles.tuple_word(d, (1,), v)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_radix_widens_for_large_coordinates(data):
    family, rank = data.draw(st.sampled_from([("A", 2), ("B", 2), ("G", 2), ("A", 3)]))
    g = oracles.group(family, rank)
    d = g.datum
    # operators act only on small coordinates, so every string stays short
    # while the others sit at or past the 16-bit boundary
    stepped = sorted(data.draw(st.sets(st.integers(0, rank - 1), min_size=1, max_size=rank - 1)))
    large = st.sampled_from(BOUNDARY).flatmap(lambda x: st.sampled_from([x, -x]))
    mu = tuple(data.draw(st.integers(-3, 3) if p in stepped else large) for p in range(rank))
    word = data.draw(st.lists(st.sampled_from([p + 1 for p in stepped]), min_size=1, max_size=4))
    v = CharElement(rank, {mu: data.draw(st.integers(1, 5))})
    assert demazure_step(d, word[0], v) == oracles.tuple_word(d, word[:1], v)
    assert demazure_word(d, word, v) == oracles.tuple_word(d, word, v)
    w = element_by_word(g, word)
    assert euler_char(g, w, mu) == oracles.tuple_word(d, w.word, monomial(mu))
