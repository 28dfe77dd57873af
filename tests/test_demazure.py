import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demchar.charring import CharElement
from demchar.demazure import (
    demazure_char,
    demazure_word,
    euler_char,
    top_cohomology_char,
)
from demchar.kernel import kernel_basis_element
from demchar.rootsys import (
    GuardBoundError,
    build_datum,
    packing_for,
    simple_reflection,
    weight_neg,
    weight_sub,
)
from demchar.weyl import act, canonical_word, peel

import oracles
from oracles import alternative_reduced_words, element_by_word, extreme_weight, w_apply

monomial = CharElement.monomial


def unpacked_images(g, v):
    """D_w(v) for every group element, from the peeling walk, unpacked and indexed by element."""
    packing = packing_for(g.datum, v.terms)
    images = [packing.pack_terms(v.terms)]
    for _, i, sigma in peel(g):
        images.append(packing.step(i, images[sigma]))
    return [CharElement.adopt(v.rank, packing.unpack_terms(p)) for p in images]


def numerator_identity_holds(d, i, lam):
    """(1 - e^{-alpha}) * D_i(e^lam) == e^lam - e^{s_i(lam) - alpha}, exactly."""
    alpha = d.simple_roots[i - 1]
    lhs = (monomial((0,) * d.rank) - monomial(weight_neg(alpha))) * demazure_word(d, (i,), monomial(lam))
    rhs = monomial(lam) - monomial(weight_sub(simple_reflection(d, i, lam), alpha))
    return lhs == rhs


def test_step_frozen_a1():
    d = build_datum("A", 1)
    assert demazure_word(d, (1,), monomial((3,))) == CharElement(
        1, {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}
    )
    assert demazure_word(d, (1,), monomial((-1,))).is_zero()
    assert demazure_word(d, (1,), monomial((-2,))) == CharElement(1, {(0,): -1})
    for t in range(-6, 7):
        assert numerator_identity_holds(d, 1, (t,))


def test_step_linear():
    d = build_datum("A", 2)
    u = monomial((1, 0))
    v = monomial((-2, 3))
    assert demazure_word(d, (1,), u + 2 * v) == demazure_word(d, (1,), u) + 2 * demazure_word(d, (1,), v)


def test_step_index_validation():
    d = build_datum("A", 2)
    with pytest.raises(ValueError):
        demazure_word(d, (0,), monomial((1, 1)))
    with pytest.raises(ValueError):
        demazure_word(d, (3,), monomial((1, 1)))


def test_step_guard_admits_exactly_its_bound(monkeypatch):
    # on A2, e^(3,0) under s_1 is a string of 4 weights, with pairings 0..3 against alpha_2^vee,
    # so the step of letter 2 then expands 1 + 2 + 3 + 4 = 10 weight-string terms
    from demchar import rootsys

    d = build_datum("A", 2)
    v = monomial((3, 0))
    expected = oracles.tuple_word(d, (2, 1), v)
    monkeypatch.setattr(rootsys, "MAX_GUARD_TERMS", 10)
    assert demazure_word(d, (2, 1), v) == expected
    monkeypatch.setattr(rootsys, "MAX_GUARD_TERMS", 9)
    with pytest.raises(ValueError, match="step of letter 2 would expand 10 weight-string terms.*= 9$"):
        demazure_word(d, (2, 1), v)
    with pytest.raises(ValueError, match="step of letter 1 would expand 10 weight-string terms.*= 9$"):
        demazure_word(d, (1,), monomial((9, 0)))


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
            once = demazure_word(d, (i,), v)
            assert demazure_word(d, (i,), once) == once


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_fixed_points_are_reflection_invariants(family, rank):
    g = oracles.group(family, rank)
    d = g.datum
    rng = random.Random(29)
    for _ in range(100):
        v = oracles.random_char(rng, rank)
        for i in range(1, rank + 1):
            s_i = element_by_word(g, (i,))
            symmetric = v + w_apply(g, s_i, v)
            assert demazure_word(d, (i,), symmetric) == symmetric
            assert (demazure_word(d, (i,), v) == v) == (w_apply(g, s_i, v) == v)


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
    by_hand = demazure_word(d, (1,), demazure_word(d, (2,), v))
    assert demazure_word(d, (1, 2), v) == by_hand


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_reduced_word_independence(family, rank):
    g = oracles.group(family, rank)
    rng = random.Random(31)
    for e in range(g.order):
        words = alternative_reduced_words(g, e)
        if len(words) < 2:
            continue
        for _ in range(3):
            v = monomial(oracles.random_weight(rng, rank, -5, 5))
            results = {tuple(sorted(demazure_word(g.datum, w, v).terms.items())) for w in words}
            assert len(results) == 1


def test_demazure_char_examples():
    g1 = oracles.group("A", 1)
    assert demazure_char(g1.datum, g1.word(g1.identity), (5,)) == monomial((5,))
    assert demazure_char(g1.datum, g1.word(g1.longest), (2,)) == CharElement(
        1, {(2,): 1, (0,): 1, (-2,): 1}
    )
    g2 = oracles.group("A", 2)
    assert demazure_char(g2.datum, g2.word(g2.longest), (1, 1)).dimension() == 8


def test_demazure_char_rejects_non_dominant():
    g = oracles.group("A", 2)
    with pytest.raises(ValueError):
        demazure_char(g.datum, g.word(g.longest), (-1, 2))


@pytest.mark.parametrize(
    "family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]
)
def test_full_demazure_char_matches_weyl_dimension(family, rank):
    g = oracles.group(family, rank)
    rng = random.Random(37)
    for _ in range(10):
        lam = tuple(rng.randint(0, 4) for _ in range(rank))
        assert demazure_char(g.datum, g.word(g.longest), lam).dimension() == oracles.weyl_dimension(
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
    assert demazure_char(g.datum, g.word(g.longest), mu) == oracles.freudenthal_char(g, mu)


def test_fundamental_dimensions_pin_cartan_convention():
    gb = oracles.group("B", 2)
    dims_b = {demazure_char(gb.datum, gb.word(gb.longest), lam).dimension() for lam in [(1, 0), (0, 1)]}
    assert dims_b == {4, 5}
    gg = oracles.group("G", 2)
    dims_g = {demazure_char(gg.datum, gg.word(gg.longest), lam).dimension() for lam in [(1, 0), (0, 1)]}
    assert dims_g == {7, 14}


def test_euler_char_examples():
    g = oracles.group("A", 1)
    s = g.longest
    assert euler_char(g.datum, g.word(g.identity), (-7,)) == monomial((-7,))
    assert euler_char(g.datum, g.word(s), (-1,)).is_zero()
    assert euler_char(g.datum, g.word(s), (-2,)) == CharElement(1, {(0,): -1})


def test_top_cohomology_examples():
    g = oracles.group("A", 1)
    s = g.longest
    assert top_cohomology_char(g.datum, g.word(g.identity), (3,)) == monomial((-3,))
    assert top_cohomology_char(g.datum, g.word(s), (2,)) == monomial((0,))
    assert top_cohomology_char(g.datum, g.word(s), (1,)).is_zero()


def test_top_cohomology_rejects_non_regular():
    g = oracles.group("A", 2)
    for bad in [(0, 1), (2, 0), (-1, 3)]:
        with pytest.raises(ValueError):
            top_cohomology_char(g.datum, g.word(g.longest), bad)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_nonvanishing_and_highest_weight_at_two_rho(family, rank):
    g = oracles.group(family, rank)
    d = g.datum
    lam = tuple(2 * c for c in d.rho)
    for w in range(g.order):
        v = top_cohomology_char(g.datum, g.word(w), lam)
        assert not v.is_zero()
        expected = weight_sub(act(g.datum, g.word(w), weight_sub(d.rho, lam)), d.rho)
        assert extreme_weight(d, v, "highest") == expected
        assert v.terms.get(expected) == 1


def test_image_table_matches_wordwise_evaluation():
    for family, rank in [("A", 2), ("B", 2)]:
        g = oracles.group(family, rank)
        rng = random.Random(41)
        v = oracles.random_char(rng, rank)
        images = unpacked_images(g, v)
        for e in range(g.order):
            assert images[e] == demazure_word(g.datum, g.word(e), v)


@pytest.mark.parametrize("weight", [(1,), (1, 1, 5)])
def test_weight_length_must_match_rank(weight):
    g = oracles.group("A", 2)
    for fn in (demazure_char, euler_char, top_cohomology_char):
        with pytest.raises(ValueError, match="coordinates"):
            fn(g.datum, g.word(g.longest), weight)


@pytest.mark.parametrize(
    "apply",
    [
        lambda g, v: demazure_word(g.datum, (1,), v),
        lambda g, v: demazure_word(g.datum, (1, 2), v),
    ],
    ids=["one_letter", "demazure_word"],
)
def test_character_rank_must_match_rank(apply):
    g = oracles.group("A", 2)
    for v in [CharElement(3, {(1, 0, 0): 1}), CharElement(1, {(1,): 1})]:
        with pytest.raises(ValueError, match="needs rank 2"):
            apply(g, v)


# the types on which Packing.step is compared with the tuple reference
STEP_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("family,rank", STEP_TYPES)
def test_packed_operators_match_tuple_reference(family, rank):
    g = oracles.group(family, rank)
    d = g.datum
    rng = random.Random(f"packed-{family}{rank}")
    for _ in range(6):
        v = oracles.random_char(rng, rank)
        for i in range(1, rank + 1):
            assert demazure_word(d, (i,), v) == oracles.tuple_word(d, (i,), v)
        word = [rng.randint(1, rank) for _ in range(rng.randint(0, 6))]
        assert demazure_word(d, word, v) == oracles.tuple_word(d, word, v)
    v = oracles.random_char(rng, rank, lo=-2, hi=2)
    images = unpacked_images(g, v)
    for e in range(g.order):
        assert images[e] == oracles.tuple_word(d, g.word(e), v)


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
    assert demazure_word(d, (1,), v) == oracles.tuple_word(d, (1,), v)


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
    assert demazure_word(d, (word[0],), v) == oracles.tuple_word(d, word[:1], v)
    assert demazure_word(d, word, v) == oracles.tuple_word(d, word, v)
    w = element_by_word(g, word)
    assert euler_char(d, word, mu) == oracles.tuple_word(d, g.word(w), monomial(mu))


# The step writes only the s_i-asymmetric part of each pair {mu, s_i(mu)}; random characters
# rarely hold both weights of a pair, so the inputs below are built from pairs.
def packed_step(d, pos, terms):
    """``Packing.step`` of letter pos + 1 on weight-keyed terms, unpacked."""
    packing = packing_for(d, terms)
    return packing.unpack_terms(packing.step(pos, packing.pack_terms(terms)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_step_on_reflection_pairs_matches_tuple_reference(data):
    # each drawn mu comes with c * e^mu + c2 * e^(s_i mu), c2 equal to c or not, either one 0
    family, rank = data.draw(st.sampled_from(STEP_TYPES))
    d = build_datum(family, rank)
    pos = data.draw(st.integers(0, rank - 1))
    coeff = st.integers(-3, 3)
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        t = data.draw(st.sampled_from([1, 2, 3, 10**12]))
        mu = tuple(t if p == pos else data.draw(st.integers(-3, 3)) for p in range(rank))
        c = data.draw(coeff)
        c2 = data.draw(st.one_of(st.just(c), coeff))
        for nu, b in ((mu, c), (simple_reflection(d, pos + 1, mu), c2)):
            terms[nu] = terms.get(nu, 0) + b
    terms = {nu: c for nu, c in terms.items() if c}
    if any(abs(nu[pos]) == 10**12 for nu in terms):
        # the guard counts the terms of every weight string, partners or not
        size = sum(abs(nu[pos] + 1) for nu in terms)
        with pytest.raises(GuardBoundError, match=f"would expand {size} weight-string terms"):
            packed_step(d, pos, terms)
    else:
        assert packed_step(d, pos, terms) == oracles.tuple_step_terms(d.simple_roots[pos], pos, terms)


@pytest.mark.parametrize("family,rank", STEP_TYPES)
def test_step_on_perturbed_orbit_sums_matches_tuple_reference(family, rank):
    # a W-orbit sum is fixed by every step; one changed coefficient leaves one pair unequal
    d = build_datum(family, rank)
    rng = random.Random(f"orbit-pairs-{family}{rank}")
    for _ in range(3):
        orbit, todo = set(), [oracles.random_weight(rng, rank, -2, 2)]
        while todo:
            x = todo.pop()
            if x not in orbit:
                orbit.add(x)
                todo += [simple_reflection(d, i, x) for i in range(1, rank + 1)]
        terms = dict.fromkeys(orbit, rng.choice([-2, 1, 3]))
        for pos in range(rank):
            assert packed_step(d, pos, terms) == terms
        terms[rng.choice(sorted(orbit))] += rng.choice([-1, 1, 2])
        terms = {nu: c for nu, c in terms.items() if c}
        for pos in range(rank):
            assert packed_step(d, pos, terms) == oracles.tuple_step_terms(d.simple_roots[pos], pos, terms)


@pytest.mark.parametrize("family,rank", STEP_TYPES)
def test_step_on_kernel_walk_images_matches_tuple_reference(family, rank):
    # each step of Norton's chain of 1 - D_i that builds the kernel element of lam, then each step of that element
    d = build_datum(family, rank)
    lam = tuple(2 if p in (0, rank - 1) else 1 for p in range(rank)) if rank > 1 else (3,)
    packing = packing_for(d, [lam])
    chain = monomial(weight_neg(lam))
    for i in reversed(canonical_word(d, weight_neg(d.rho))):
        stepped = packing.unpack_terms(packing.step(i - 1, packing.pack_terms(chain.terms)))
        assert stepped == oracles.tuple_step_terms(d.simple_roots[i - 1], i - 1, chain.terms)
        chain = chain - CharElement(rank, stepped)
    v = kernel_basis_element(d, lam)
    assert v == chain
    for pos in range(rank):
        assert packed_step(d, pos, v.terms) == oracles.tuple_step_terms(d.simple_roots[pos], pos, v.terms) == {}
