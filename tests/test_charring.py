import json
import pickle
import random

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demchar.charring import CHAR_ELEMENT_SCHEMA, CHUNK_TERMS, CharElement, Fragment, json_chunks, json_text
from demchar.rootsys import build_datum

import oracles
from oracles import element_by_word, extreme_weight, w_apply

monomial, zero = CharElement.monomial, CharElement.zero

RANK2_WEIGHTS = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


def chars(rank_weights=RANK2_WEIGHTS, rank=2):
    return st.dictionaries(rank_weights, st.integers(-9, 9), max_size=5).map(
        lambda terms: CharElement(rank, terms)
    )


def test_monomial_and_zero():
    one = monomial((0, 0))
    v = monomial((2, -1))
    assert one * v == v
    assert monomial((1, 1)) * monomial((-1, -1)) == one
    assert zero(2) + v == v
    assert zero(2).is_zero() and not v.is_zero()


def test_addition_and_scaling():
    v = monomial((1, 0)) + monomial((0, 1))
    assert (v + v * -1).is_zero()
    assert (monomial((1, 0)) * 3).terms == {(1, 0): 3}
    assert (3 * monomial((1, 0))).terms == {(1, 0): 3}
    assert (v - v).is_zero()


def test_a1_square_frozen():
    v = monomial((1,)) + monomial((-1,))
    expected = CharElement(1, {(2,): 1, (0,): 2, (-2,): 1})
    assert v * v == expected


def test_distributivity_example():
    u = monomial((1, 0)) + monomial((0, 1))
    w = monomial((1, 1))
    assert u * w == monomial((2, 1)) + monomial((1, 2))


def test_canonical_form_drops_zeros():
    v = CharElement(2, {(1, 0): 0, (0, 1): 2})
    assert (1, 0) not in v.terms
    assert v.dimension() == 2


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        monomial((1,)) + monomial((1, 0))
    with pytest.raises(ValueError):
        monomial((1,)) * monomial((1, 0))


@settings(max_examples=60, deadline=None)
@given(chars(), chars(), chars())
def test_ring_axioms(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert (u * v) * w == u * (v * w)
    assert u * v == v * u
    assert u * (v + w) == u * v + u * w


@settings(max_examples=60, deadline=None)
@given(chars(), chars())
def test_dimension_additive_and_multiplicative(u, v):
    assert (u + v).dimension() == u.dimension() + v.dimension()
    assert (u * v).dimension() == u.dimension() * v.dimension()


def test_star_examples():
    assert monomial((2, -1)).star() == monomial((-2, 1))
    v = monomial((1, 0)) + 3 * monomial((0, -2))
    assert v.star().star() == v


@settings(max_examples=60, deadline=None)
@given(chars(), chars())
def test_star_is_ring_automorphism(u, v):
    assert (u + v).star() == u.star() + v.star()
    assert (u * v).star() == u.star() * v.star()


@settings(max_examples=40, deadline=None)
@given(chars(), chars(), st.sampled_from([(1,), (2,), (1, 2), (2, 1), (1, 2, 1)]))
def test_w_apply_is_ring_map(u, v, word):
    g = oracles.group("A", 2)
    w = element_by_word(g, word)
    assert w_apply(g, w, u + v) == w_apply(g, w, u) + w_apply(g, w, v)
    assert w_apply(g, w, u * v) == w_apply(g, w, u) * w_apply(g, w, v)
    assert w_apply(g, w, u).dimension() == u.dimension()


def test_w_apply_examples():
    g1 = oracles.group("A", 1)
    s = g1.longest
    sym = monomial((1,)) + monomial((-1,))
    assert w_apply(g1, s, sym) == sym
    assert w_apply(g1, g1.identity, sym) == sym


def test_w_apply_longest_after_star_preserves_invariant_dimension():
    g = oracles.group("A", 2)
    w0 = g.longest
    # full orbit sum of (1,0): a W-invariant element
    v = monomial((1, 0)) + monomial((-1, 1)) + monomial((0, -1))
    assert all(w_apply(g, w, v) == v for w in range(g.order))
    image = w_apply(g, w0, v.star())
    assert image.dimension() == v.dimension()
    assert len(image.terms) == len(v.terms)


def test_extreme_weight_examples():
    d1 = build_datum("A", 1)
    assert extreme_weight(d1, monomial((4,)), "lowest") == (4,)
    assert extreme_weight(d1, monomial((4,)), "highest") == (4,)
    string = monomial((2,)) + monomial((0,)) + monomial((-2,))
    assert extreme_weight(d1, string, "lowest") == (-2,)
    assert extreme_weight(d1, string, "highest") == (2,)
    d2 = build_datum("A", 2)
    incomparable = monomial((1, 0)) + monomial((0, 1))
    assert extreme_weight(d2, incomparable, "lowest") is None
    assert extreme_weight(d2, incomparable, "highest") is None


def test_extreme_weight_error_cases():
    d = build_datum("A", 1)
    with pytest.raises(ValueError):
        extreme_weight(d, zero(1), "lowest")
    with pytest.raises(ValueError):
        extreme_weight(d, monomial((1,)), "sideways")


def test_json_round_trip_and_schema():
    v = CharElement(2, {(1, -2): 3, (-1, 0): -7, (0, 0): 10**30})
    data = v.to_json_dict()
    jsonschema.validate(data, CHAR_ELEMENT_SCHEMA)
    assert CharElement.from_json_dict(data) == v
    # canonical order: lexicographic on coordinates
    weights = [tuple(item["weight"]) for item in data["terms"]]
    assert weights == sorted(weights)
    # coefficients as decimal strings survive the wire exactly
    assert data["terms"][1]["coeff"] == str(10**30)
    assert CharElement.from_json_dict(json.loads(json.dumps(data))) == v


def test_json_rank_validation():
    with pytest.raises(ValueError):
        CharElement.from_json_dict({"rank": 2, "terms": [{"weight": [1], "coeff": "1"}]})


def test_constructor_refuses_a_weight_of_the_wrong_rank():
    # a short weight would otherwise be packed with zeros appended, and operators would answer wrongly
    for terms in [{(1,): 1}, {(1, 2, 3): 1}, [((1, 0), 1), ((1,), 2)]]:
        with pytest.raises(ValueError, match=r"weight \[1.*\] does not have rank 2"):
            CharElement(2, terms)
    assert CharElement(2, [((1, 0), 1), ((0, 1), 2)]).terms == {(1, 0): 1, (0, 1): 2}


@pytest.mark.parametrize(
    "data",
    [
        {},
        [],
        None,
        {"rank": 2},
        {"terms": []},
        {"rank": "two", "terms": []},
        {"rank": 0, "terms": []},
        {"rank": 2, "terms": {}},
        {"rank": 2, "terms": [1]},
        {"rank": 2, "terms": [{"coeff": "1"}]},
        {"rank": 2, "terms": [{"weight": [1, 0]}]},
        {"rank": 2, "terms": [{"weight": [1, True], "coeff": "1"}]},
        {"rank": 2, "terms": [{"weight": [1, 0], "coeff": 1.5}]},
        {"rank": 2, "terms": [{"weight": [1, 0], "coeff": "x"}]},
        {"rank": 2, "terms": [{"weight": [1, 0], "coeff": "1"}, {"weight": [1, 0], "coeff": "2"}]},
        {"rank": 2, "terms": [{"weight": [1, 0], "coeff": "1_000"}]},
        {"rank": 2, "terms": [{"weight": [1, 0], "coeff": "\u0663"}]},
        {"rank": 2, "terms": [{"weight": [1, 0], "coeff": " 5"}]},
        {"rank": 2, "terms": [{"weight": [1, 0], "coeff": "+5"}]},
    ],
)
def test_json_malformed_rejected(data):
    with pytest.raises(ValueError):
        CharElement.from_json_dict(data)


def test_big_coefficients_exact():
    v = monomial((1,)) * 10**40
    assert (v * v).terms == {(2,): 10**80}


def test_str_is_canonical():
    v = CharElement(2, {(1, 0): 1, (0, 1): -2})
    assert str(v) == "-2*e[0, 1] + e[1, 0]"
    assert str(zero(2)) == "0"


def test_fast_minimum_oracle_agrees_with_extreme_weight():
    # the acceptance suite checks minima pair by pair; pin that to the search by height
    import random

    d = build_datum("B", 2)
    rng = random.Random(61)
    alpha1, alpha2 = d.simple_roots
    for _ in range(60):
        base = oracles.random_weight(rng, 2)
        terms = {base: 1}
        for _ in range(rng.randint(0, 4)):
            shift = tuple(
                b + rng.randint(0, 2) * a1 + rng.randint(0, 2) * a2
                for b, a1, a2 in zip(base, alpha1, alpha2)
            )
            terms[shift] = terms.get(shift, 0) + rng.randint(1, 3)
        v = CharElement(2, terms)
        low = extreme_weight(d, v, "lowest")
        if low is not None:
            assert oracles.is_dominance_minimum(d, v, low)
        for mu in v.terms:
            assert oracles.is_dominance_minimum(d, v, mu) == (low == mu)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([("A", 2), ("B", 2), ("G", 2), ("A", 3)]),
    st.sampled_from(["lowest", "highest"]),
    st.data(),
)
def test_extreme_weight_agrees_with_pairwise_oracle(family_rank, direction, data):
    d = build_datum(*family_rank)
    base = data.draw(st.tuples(*[st.integers(-4, 4)] * d.rank))
    terms = {base: 1}
    for steps in data.draw(st.lists(st.tuples(*[st.integers(-1, 2)] * d.rank), max_size=4)):
        mu = base
        for c, alpha in zip(steps, d.simple_roots):
            mu = tuple(m + c * a for m, a in zip(mu, alpha))
        terms[mu] = 1
    if data.draw(st.booleans()):
        terms[data.draw(st.tuples(*[st.integers(-4, 4)] * d.rank))] = 1
    v = CharElement(d.rank, terms)
    # the highest weight of v is minus the lowest weight of its dual
    probe, sign = (v, 1) if direction == "lowest" else (v.star(), -1)
    expected = [mu for mu in probe.terms if oracles.is_dominance_minimum(d, probe, mu)]
    result = extreme_weight(d, v, direction)
    assert result == (tuple(sign * c for c in expected[0]) if expected else None)


# the integers the documents hold, at and past every fixed width
BIG_INTS = st.one_of(
    st.sampled_from([0, 1, -1, 10**12, -(10**12), 10**30, -(10**30)]),
    st.integers(-(10**40), 10**40),
)
# quotes, backslashes, control characters, non-ASCII text and surrogate pairs
JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2203\U0001d11e'), st.characters()),
    max_size=8,
)
JSON_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(), BIG_INTS, JSON_TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(BIG_INTS, max_size=4),
        st.dictionaries(JSON_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
def test_json_text_matches_the_stdlib_encoder(doc):
    assert json_text(doc) == oracles.json_reference(doc)


@st.composite
def wide_chars(draw):
    rank = draw(st.integers(0, 8))
    coordinate = st.one_of(st.integers(-3, 3), st.sampled_from([10**12, -(10**12)]))
    coefficient = st.one_of(st.integers(-9, 9), st.sampled_from([10**30, -(10**30)]))
    terms = draw(st.dictionaries(st.tuples(*[coordinate] * rank), coefficient, max_size=6))
    return CharElement(rank, terms)


@settings(max_examples=200, deadline=None)
@given(wide_chars(), JSON_DOCS)
def test_json_text_writes_a_char_element_as_its_json_dict(v, doc):
    assert json_text(v) == oracles.json_reference(v.to_json_dict())
    # nested, the element's lines take the indent of where it sits
    nested = {"doc": doc, "v": [v]}
    assert json_text(nested) == oracles.json_reference({"doc": doc, "v": [v.to_json_dict()]})


def with_fragments(doc, choose):
    """doc with the values that ``choose()`` picks rendered ahead as Fragments, inner ones first."""
    if isinstance(doc, list):
        doc = [with_fragments(x, choose) for x in doc]
    elif isinstance(doc, dict):
        doc = {key: with_fragments(x, choose) for key, x in doc.items()}
    return Fragment(json_text(doc)) if choose() else doc


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS, st.data())
def test_json_text_writes_a_fragment_as_the_value_it_was_rendered_from(doc, data):
    mixed = with_fragments(doc, lambda: data.draw(st.booleans()))
    assert json_text(mixed) == oracles.json_reference(doc)
    # a fragment that crossed a process boundary
    assert json_text(pickle.loads(pickle.dumps({"a": [mixed]}))) == oracles.json_reference({"a": [doc]})


def long_char(size: int) -> CharElement:
    """A rank-3 character of ``size`` distinct weights, inserted out of weight order."""
    rng = random.Random(size)
    weights = rng.sample([(k // 100 - 50, k % 100 - 50, k % 7) for k in range(10**4)], size)
    return CharElement(3, {mu: rng.choice([-(10**30), -3, 1, 2, 10**30]) for mu in weights})


@pytest.mark.parametrize("size", [0, 2 * CHUNK_TERMS + 1], ids=["empty", "over-two-chunks"])
def test_json_text_writes_a_character_in_chunks_as_its_json_dict(size):
    v = long_char(size)
    assert len(v.terms) == size
    assert json_text(v) == oracles.json_reference(v.to_json_dict())
    nested = {"a": [1, v], "b": v}
    assert json_text(nested) == oracles.json_reference({"a": [1, v.to_json_dict()], "b": v.to_json_dict()})
    # the head, ceil(size / CHUNK_TERMS) chunks of at most CHUNK_TERMS terms, and the close
    pieces = list(json_chunks(v))
    assert len(pieces) == (2 + -(-size // CHUNK_TERMS) if size else 1)
    assert max(piece.count('"coeff"') for piece in pieces) <= CHUNK_TERMS


def test_json_text_of_the_zero_element_and_of_bools():
    assert json_text(zero(3)) == '{\n  "rank": 3,\n  "terms": []\n}'
    assert json_text([True, False, 1, 0]) == "[\n  true,\n  false,\n  1,\n  0\n]"
    assert json_text({"a": [], "b": {}}) == oracles.json_reference({"a": [], "b": {}})


@pytest.mark.parametrize("obj", [1.5, (1, 2), [0.0], {1: "x"}, {"a": {None: 1}}, {"a": [(1,)]}, {1, 2}, b"x"])
def test_json_text_refuses_values_outside_the_documents(obj):
    with pytest.raises(TypeError):
        json_text(obj)
