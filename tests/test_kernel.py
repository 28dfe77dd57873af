import itertools
import random
import time

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
from demchar.rootsys import MAX_GUARD_TERMS, GuardBoundError, Packing, build_datum, orbit_size, packing_for
from demchar.rootsys import simple_reflection, weight_add, weight_neg, weight_sub
from demchar.weyl import act, canonical_word, peel

import oracles
from oracles import dominance_leq, w_apply

monomial, zero = CharElement.monomial, CharElement.zero


def dual_label(g, lam):
    """Index of the basis element recovered from kernel_basis_element(lam):
    -w0(lam - rho), which is lam - rho itself whenever -w0 is the identity."""
    return weight_neg(act(g.datum, g.word(g.longest), weight_sub(lam, g.datum.rho)))


# every type whose group has at most 1152 elements (F4 the largest)
REFERENCE_TYPES = [t for t in oracles.ALL_TYPES if oracles.classical_weyl_order(*t) <= 1152]


def outcome(fn, d, v):
    """One decompose call as data: coefficients in order and reflection count, or the error's type and message."""
    try:
        coefficients, reflections = fn(d, v, with_stats=True)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    assert fn(d, v) == coefficients
    return list(coefficients.items()), reflections


def assert_matches_the_tuple_reference(d, v):
    packed = outcome(decompose, d, v)
    assert packed == outcome(oracles.tuple_decompose, d, v)
    return packed


def test_in_kernel_examples():
    d = build_datum("A", 1)
    assert in_kernel(d, zero(1))
    assert in_kernel(d, monomial((-1,)))
    assert in_kernel(d, monomial((-2,)) + monomial((0,)))
    assert not in_kernel(d, monomial((1,)))


def test_is_demazure_invariant_examples():
    d = build_datum("A", 1)
    assert is_demazure_invariant(d, monomial((1,)) + monomial((-1,)))
    assert is_demazure_invariant(d, monomial((0,)))
    assert not is_demazure_invariant(d, monomial((1,)))


def test_kernel_basis_element_frozen():
    a1 = build_datum("A", 1)
    assert kernel_basis_element(a1, (2,)) == monomial((-2,)) + monomial((0,))
    assert kernel_basis_element(a1, (1,)) == monomial((-1,))
    assert kernel_basis_element(build_datum("A", 2), (1, 1)) == monomial((-1, -1))


def test_kernel_basis_element_rejects_non_regular():
    with pytest.raises(ValueError, match="not regular dominant"):
        kernel_basis_element(build_datum("A", 2), (1, 0))


def test_characterization_examples():
    d = build_datum("A", 1)
    member = monomial((-2,)) + monomial((0,))
    assert in_kernel(d, member) and is_demazure_invariant(d, monomial((1,)) * member)
    assert verify_characterization(d, member)
    assert verify_characterization(d, zero(1))
    non_member = monomial((1,))
    assert not in_kernel(d, non_member)
    assert verify_characterization(d, non_member)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_characterization_on_random_elements(family, rank):
    d = build_datum(family, rank)
    rng = random.Random(47)
    for _ in range(60):
        assert verify_characterization(d, oracles.random_char(rng, rank))


def test_decompose_frozen_example():
    d = build_datum("A", 1)
    v = monomial((-2,)) + monomial((0,))
    assert decompose(d, v) == {(1,): 1}
    assert decompose(d, zero(1)) == {}


def test_decompose_rejects_non_members():
    d = build_datum("A", 1)
    with pytest.raises(ValueError):
        decompose(d, monomial((1,)))


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_decompose_round_trips_basis_elements(family, rank):
    g = oracles.group(family, rank)
    for lam in itertools.product((1, 2, 3), repeat=rank):
        v = kernel_basis_element(g.datum, lam)
        assert in_kernel(g.datum, v)
        assert decompose(g.datum, v) == {dual_label(g, lam): 1}


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_decompose_round_trips_integer_combinations(family, rank):
    g = oracles.group(family, rank)
    grid = list(itertools.product((1, 2, 3), repeat=rank))
    basis = {lam: kernel_basis_element(g.datum, lam) for lam in grid}
    rng = random.Random(53)
    for _ in range(25):
        chosen = rng.sample(grid, rng.randint(1, min(3, len(grid))))
        coeffs = {lam: rng.choice([-3, -2, -1, 1, 2, 3]) for lam in chosen}
        v = zero(rank)
        for lam, c in coeffs.items():
            v = v + c * basis[lam]
        expected = {dual_label(g, lam): c for lam, c in coeffs.items()}
        assert decompose(g.datum, v) == expected


def test_decompose_round_count_bounded_by_support():
    g = oracles.group("A", 2)
    v = kernel_basis_element(g.datum, (2, 2)) - 2 * kernel_basis_element(g.datum, (1, 1))
    twisted_support = len((monomial(g.datum.rho) * v).terms)
    coeffs, rounds = oracles.peel_decompose(g, v, with_stats=True)
    assert rounds <= twisted_support
    assert set(coeffs.values()) == {1, -2}
    folded, reflections = decompose(g.datum, v, with_stats=True)
    assert folded == coeffs
    assert reflections <= twisted_support * len(g.datum.positive_roots)


def test_decompose_is_deterministic():
    g = oracles.group("B", 2)
    v = kernel_basis_element(g.datum, (2, 1)) + kernel_basis_element(g.datum, (1, 2))
    assert decompose(g.datum, v) == decompose(g.datum, v)


def test_dual_label_is_identity_when_minus_w0_is():
    for family, rank in [("A", 1), ("B", 2)]:
        g = oracles.group(family, rank)
        for lam in itertools.product((1, 2, 3), repeat=rank):
            assert dual_label(g, lam) == weight_sub(lam, g.datum.rho)


def test_decomposition_json_schema():
    g = oracles.group("A", 2)
    v = kernel_basis_element(g.datum, (2, 1))
    payload = decomposition_to_json(g.datum, decompose(g.datum, v))
    jsonschema.validate(payload, DECOMPOSITION_SCHEMA)
    (entry,) = payload["coefficients"]
    assert tuple(entry["mu"]) == dual_label(g, (2, 1))
    assert [a + b for a, b in zip(entry["mu"], [1, 1])] == entry["lambda"]
    assert entry["coeff"] == "1"


@pytest.mark.parametrize("fn", [in_kernel, is_demazure_invariant, verify_characterization, decompose])
def test_character_rank_must_match_rank(fn):
    # the operators pack each weight (rootsys.Packing), so an unchecked rank-3 character would be
    # packed with three coordinates
    d = build_datum("A", 2)
    for v in [CharElement(3, {(1, 0, 0): 1}), CharElement(1, {(1,): 1})]:
        with pytest.raises(ValueError, match="needs rank 2"):
            fn(d, v)


@pytest.mark.parametrize("lam", [(1,), (1, 1, 5)])
def test_kernel_basis_element_weight_length_must_match_rank(lam):
    with pytest.raises(ValueError, match="coordinates"):
        kernel_basis_element(build_datum("A", 2), lam)


def rho_plus(rank, *omegas):
    """rho plus the fundamental weights omega_i, i in omegas (1-based, each at most once)."""
    return tuple(2 if j in omegas else 1 for j in range(1, rank + 1))


def definition_sum(g, lam):
    """sum_w (-1)^l(w) D_w(e^-lam), one ``top_cohomology_char`` per element of the generated group."""
    total = zero(g.datum.rank)
    for w in range(g.order):
        total = total + top_cohomology_char(g.datum, g.word(w), lam)
    return total


# at 2 rho every element of W has a nonzero term; at rho + omega_1 only the minimal coset representatives do
@pytest.mark.parametrize(
    "family,rank,lam",
    [("A", 2, (2, 1)), ("B", 2, (1, 2)), ("G", 2, (2, 2)), ("B", 3, (1, 2, 1))]
    + [
        (family, rank, lam)
        for family, rank in [("A", 3), ("C", 3), ("B", 4)]
        for lam in [(2,) * rank, rho_plus(rank, 1)]
    ],
)
def test_kernel_basis_element_is_the_sum_of_top_characters(family, rank, lam):
    g = oracles.group(family, rank)
    assert kernel_basis_element(g.datum, lam) == definition_sum(g, lam)


@pytest.mark.parametrize("family,rank", [t for t in oracles.ALL_TYPES if oracles.classical_weyl_order(*t) <= 384])
def test_kernel_basis_element_matches_nortons_product_at_grid_2(family, rank):
    d = build_datum(family, rank)
    for lam in itertools.product((1, 2), repeat=rank):
        assert kernel_basis_element(d, lam) == oracles.norton_kernel_element(d, lam), lam


@pytest.mark.parametrize(
    "family,rank,omegas", [("F", 4, (1, 4)), ("E", 6, (4,)), ("E", 7, (7,)), ("E", 8, (8,)), ("E", 8, (1,))]
)
def test_kernel_basis_element_matches_nortons_product_on_exceptional_types(family, rank, omegas):
    d = build_datum(family, rank)
    lam = rho_plus(rank, *omegas)
    assert kernel_basis_element(d, lam) == oracles.norton_kernel_element(d, lam)


@pytest.mark.parametrize("family,rank,lam", [("A", 3, (1, 2, 1)), ("B", 3, (2, 1, 2)), ("G", 2, (2, 2))])
def test_nortons_product_that_skips_a_letter_or_applies_d_i_fails_the_definition(monkeypatch, family, rank, lam):
    from demchar import kernel

    g = oracles.group(family, rank)
    expected = definition_sum(g, lam)
    assert kernel_basis_element(g.datum, lam) == expected
    # the middle letter: at a singular lam - rho an end letter can act as 1 (D_i e^-lam = 0 where lam_i = 1)
    longest = canonical_word(g.datum, weight_neg(g.datum.rho))
    middle = len(longest) // 2
    monkeypatch.setattr(kernel, "canonical_word", lambda d, key: longest[:middle] + longest[middle + 1 :])
    assert kernel_basis_element(g.datum, lam) != expected
    monkeypatch.undo()

    real = Packing.step

    def complement(self, pos, terms):  # terms - D_i(terms), so that the product applies D_i in place of 1 - D_i
        image = real(self, pos, terms)
        return {k: c for k in terms.keys() | image.keys() if (c := terms.get(k, 0) - image.get(k, 0))}

    monkeypatch.setattr(Packing, "step", complement)
    assert kernel_basis_element(g.datum, lam) != expected


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 4), ("D", 4), ("G", 2), ("F", 4), ("D", 5)])
def test_the_walk_visits_one_element_per_weight_of_the_orbit_of_lam_minus_rho(family, rank):
    # MAX_ELEMENTS bounds the w with D_w(e^-lam) != 0, the nonzero images of the peeling walk over W
    g = oracles.group(family, rank)
    d = g.datum
    for lam in itertools.product((1, 2), repeat=rank):
        packing = packing_for(d, [lam])
        images = peel(g, {packing.pack(weight_neg(lam)): 1}, lambda w, i, sigma, below: packing.step(i, below[sigma]))
        assert sum(1 for _, p in images if p) == orbit_size(d, weight_sub(lam, d.rho)), lam


def test_kernel_basis_element_refuses_a_walk_above_the_bound_before_walking(monkeypatch):
    from demchar import kernel

    def refuse(*args):
        raise AssertionError("a Demazure step ran")

    monkeypatch.setattr(Packing, "step", refuse)
    with pytest.raises(ValueError, match=r"E7 sums over 2903040 elements, above the bound MAX_ELEMENTS = 1000000$"):
        kernel_basis_element(build_datum("E", 7), (2,) * 7)
    with pytest.raises(ValueError, match="E8 sums over 696729600 elements"):
        kernel_basis_element(build_datum("E", 8), (2,) * 8)
    monkeypatch.setattr(kernel, "MAX_ELEMENTS", 23)
    with pytest.raises(ValueError, match="A3 sums over 24 elements, above the bound MAX_ELEMENTS = 23"):
        kernel_basis_element(build_datum("A", 3), (2, 2, 2))


@pytest.mark.parametrize("omega,terms", [(8, 241), (1, 2401)])
def test_e8_kernel_basis_elements_are_members_and_decompose_to_their_weight(omega, terms):
    d = build_datum("E", 8)
    lam = rho_plus(8, omega)
    v = kernel_basis_element(d, lam)
    assert len(v.terms) == terms
    assert in_kernel(d, v)
    mu = weight_sub(lam, d.rho)
    dual = weight_neg(act(d, canonical_word(d, weight_neg(d.rho)), mu))
    assert dual == mu  # w0 = -1 on E8
    assert decompose(d, v) == {dual: 1}


def test_decompose_takes_incomparable_weights_in_one_round():
    g = oracles.group("A", 2)
    basis = lambda lam: kernel_basis_element(g.datum, lam)
    v = basis((4, 1)) + basis((1, 4)) - 2 * basis((2, 2))
    coeffs, rounds = oracles.peel_decompose(g, v, with_stats=True)
    assert coeffs == {(0, 3): 1, (3, 0): 1, (1, 1): -2}
    assert not dominance_leq(g.datum, (0, 3), (3, 0)) and not dominance_leq(g.datum, (3, 0), (0, 3))
    # round 1 peels both (0, 3) and (3, 0); round 2 peels (1, 1)
    assert rounds == 2
    folded, reflections = decompose(g.datum, v, with_stats=True)
    assert folded == coeffs
    assert reflections <= len((monomial(g.datum.rho) * v).terms) * len(g.datum.positive_roots)


@pytest.mark.parametrize("family,rank", [("B", 3), ("G", 2)])
def test_decomposition_reconstructs_the_twisted_element(family, rank):
    g = oracles.group(family, rank)
    grid = list(itertools.product((1, 2), repeat=rank))
    basis = {lam: kernel_basis_element(g.datum, lam) for lam in grid}
    rng = random.Random(59)
    for _ in range(6):
        v = zero(rank)
        for lam in rng.sample(grid, rng.randint(1, 3)):
            v = v + rng.choice([-2, -1, 1, 3]) * basis[lam]
        rebuilt = zero(rank)
        for mu, c in decompose(g.datum, v).items():
            rebuilt = rebuilt + c * demazure_char(g.datum, g.word(g.longest), mu)
        assert rebuilt == v.shift(g.datum.rho)


def test_decompose_f4():
    g = oracles.group("F", 4)
    rho = g.datum.rho
    neg_rho = weight_neg(rho)
    v = demazure_char(g.datum, g.word(g.longest), rho).shift(neg_rho) + 3 * monomial(neg_rho)
    assert decompose(g.datum, v) == {rho: 1, (0, 0, 0, 0): 3}


@pytest.mark.parametrize(
    "family,rank,n",
    [("A", 1, 25), ("A", 2, 25), ("A", 3, 25), ("B", 2, 25), ("B", 3, 25), ("C", 3, 25), ("G", 2, 25), ("D", 4, 10)],
)
def test_fold_matches_peel_on_seeded_combinations(family, rank, n):
    g = oracles.group(family, rank)
    grid = list(itertools.product((1, 2, 3) if rank <= 2 else (1, 2), repeat=rank))
    basis = {lam: kernel_basis_element(g.datum, lam) for lam in grid}
    rng = random.Random(61)
    for _ in range(n):
        v = zero(rank)
        for lam in rng.sample(grid, rng.randint(1, min(3, len(grid)))):
            v = v + rng.choice([-3, -2, -1, 1, 2, 3]) * basis[lam]
        coeffs = decompose(g.datum, v)
        assert coeffs == oracles.peel_decompose(g, v)
        assert list(coeffs) == sorted(coeffs)
        assert_matches_the_tuple_reference(g.datum, v)


def test_fold_matches_peel_f4():
    g = oracles.group("F", 4)
    neg_rho = weight_neg(g.datum.rho)
    v = demazure_char(g.datum, g.word(g.longest), g.datum.rho).shift(neg_rho) + 3 * monomial(neg_rho)
    assert decompose(g.datum, v) == oracles.peel_decompose(g, v)


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
    for w in range(g.order):
        sym = sym + w_apply(g, w, f)
    v = sym.shift(weight_neg(g.datum.rho))
    coeffs = decompose(g.datum, v)
    assert coeffs == oracles.peel_decompose(g, v)
    assert_matches_the_tuple_reference(g.datum, v)
    rebuilt = zero(2)
    for mu, c in coeffs.items():
        rebuilt = rebuilt + c * demazure_char(g.datum, g.word(g.longest), mu)
    assert rebuilt == sym


def orbit_sum(d, nu, letters=None):
    """m_nu, the sum of e^mu over the W-orbit of nu, closed under ``simple_reflection``; no group is generated.

    With ``letters``, the orbit of the subgroup those simple reflections generate.
    """
    orbit, todo = {nu}, [nu]
    while todo:
        mu = todo.pop()
        for i in range(1, d.rank + 1) if letters is None else letters:
            if (x := simple_reflection(d, i, mu)) not in orbit:
                orbit.add(x)
                todo.append(x)
    return CharElement(d.rank, dict.fromkeys(orbit, 1))


FUNDAMENTAL = lambda rank, *i: tuple(int(j + 1 in i) for j in range(rank))


@pytest.mark.parametrize(
    "family,rank,nu",
    [
        ("B", 4, (1, 1, 0, 1)),
        ("F", 4, (0, 1, 0, 1)),
        ("D", 5, FUNDAMENTAL(5, 4)),
        ("E", 6, FUNDAMENTAL(6, 1)),
        ("E", 6, FUNDAMENTAL(6, 2, 6)),
        ("E", 7, FUNDAMENTAL(7, 7)),
        ("E", 8, FUNDAMENTAL(8, 7)),
        ("E", 8, FUNDAMENTAL(8, 1)),
    ],
    ids=["B4-1101", "F4-0101", "D5-w4", "E6-w1", "E6-w2+w6", "E7-w7", "E8-w7", "E8-w1"],
)
def test_the_kernel_basis_spans_e_minus_rho_times_an_orbit_sum(family, rank, nu):
    # the paper's basis claim, checked on an element of N built without the basis: v = e^-rho * m_nu is in N
    # by the characterization, and the basis elements at -w0(mu) + rho, weighted by decompose's
    # coefficients, rebuild v term by term; the coefficients are unitriangular (1 at nu, every other mu below)
    d = build_datum(family, rank)
    m = orbit_sum(d, nu)
    assert len(m.terms) == orbit_size(d, nu)
    v = m.shift(weight_neg(d.rho))
    coefficients = decompose(d, v)
    assert coefficients[nu] == 1
    assert all(oracles.dominance_leq(d, mu, nu) for mu in coefficients)
    longest = canonical_word(d, weight_neg(d.rho))
    rebuilt = zero(rank)
    for mu, c in coefficients.items():
        rebuilt = rebuilt + c * kernel_basis_element(d, weight_add(weight_neg(act(d, longest, mu)), d.rho))
    assert rebuilt == v


def test_fold_past_its_bound_is_an_internal_error(freeze_reflections):
    g = oracles.group("A", 2)
    v = kernel_basis_element(g.datum, (2, 3))
    freeze_reflections()
    with pytest.raises(RuntimeError, match="more than 3 reflections"):
        decompose(g.datum, v)


def test_invariance_check_names_the_first_reflection_that_moves_u():
    g = oracles.group("B", 2)
    # u = e^rho * v = e^(0,1) + e^(0,-1) is fixed by s_1 but not by s_2
    v = CharElement(2, {(-1, 0): 1, (-1, -2): 1})
    u = v.shift(g.datum.rho)
    s1, s2 = (g.left_mult[g.identity * g.datum.rank + i] for i in (0, 1))
    assert w_apply(g, s1, u) == u and w_apply(g, s2, u) != u
    with pytest.raises(ValueError, match="not in the joint Demazure kernel: simple reflection 2 moves"):
        decompose(g.datum, v)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)])
def test_invariance_matches_one_tuple_demazure_step_per_letter(family, rank):
    # D_i v = v iff s_i v = v, so the reflection lookup answers what the tuple reference's steps do, on random
    # characters, on orbit sums of the subgroup generated by a random set of letters (fixed by those, the last
    # letter among them or not), and on e^rho times kernel basis elements (fixed by every letter)
    d = build_datum(family, rank)
    rng = random.Random(f"invariance-{family}{rank}")
    letters = range(1, rank + 1)
    chars = [oracles.random_char(rng, rank) for _ in range(70)]
    for _ in range(70):
        subset = [i for i in letters if rng.random() < 0.6]
        chars.append(rng.randint(1, 3) * orbit_sum(d, oracles.random_weight(rng, rank, -3, 3), subset))
    chars += [kernel_basis_element(d, lam).shift(d.rho) for lam in itertools.product((1, 2, 3), repeat=rank)]
    answers = [is_demazure_invariant(d, v) for v in chars]
    assert answers == [all(oracles.tuple_word(d, (i,), v) == v for i in letters) for v in chars]
    assert 0 < sum(answers) < len(chars)


def test_invariance_of_a_twelve_digit_orbit_sum_expands_no_weight_string():
    # one Demazure step on either element would expand about 2 * 10^12 weight-string terms, far above MAX_GUARD_TERMS
    d = build_datum("A", 2)
    m = orbit_sum(d, (10**12, 0))
    for v, invariant in [(m, True), (m + monomial((10**12, 0)), False)]:
        start = time.perf_counter()
        assert is_demazure_invariant(d, v) is invariant
        assert time.perf_counter() - start < 1


def test_invariant_element_outside_the_kernel_is_an_internal_error(monkeypatch):
    # in_kernel runs after the invariance lookup, as a guard that the two agree
    from demchar import kernel

    g = oracles.group("A", 2)
    v = kernel_basis_element(g.datum, (2, 1))
    monkeypatch.setattr(kernel, "in_kernel", lambda d, v: False)
    with pytest.raises(RuntimeError, match="kernel membership and invariance disagree"):
        decompose(g.datum, v)


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES)
def test_packed_decompose_matches_the_tuple_reference_on_every_basis_element(family, rank):
    g = oracles.group(family, rank)
    for lam in itertools.product((1, 2), repeat=rank):
        coefficients, _ = assert_matches_the_tuple_reference(g.datum, kernel_basis_element(g.datum, lam))
        assert coefficients == [(dual_label(g, lam), 1)]


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("B", 3), ("D", 4)])
def test_packed_decompose_matches_the_tuple_reference_on_non_members(family, rank):
    g = oracles.group(family, rank)
    rng = random.Random(71)
    basis = kernel_basis_element(g.datum, (2,) * rank)
    candidates = [oracles.random_char(rng, rank) for _ in range(20)]
    candidates += [basis + monomial(oracles.random_weight(rng, rank)) for _ in range(5)]
    candidates += [CharElement(rank + 1, {(1,) * (rank + 1): 1})]
    for v in candidates:
        result = assert_matches_the_tuple_reference(g.datum, v)
        if v.rank != rank or not in_kernel(g.datum, v):
            assert result[0] is ValueError


@pytest.mark.parametrize("family,rank,lam", [("A", 1, (10**12,)), ("A", 2, (10**12, 0)), ("G", 2, (10**12, 7))])
def test_packed_decompose_matches_the_tuple_reference_at_a_twelve_digit_coordinate(monkeypatch, family, rank, lam):
    # e^-rho times a W-orbit sum is in N; its guard's first step would expand about 10^12 terms and
    # is refused, so both guards are made to answer True (which is right), leaving the lookup and the fold
    from demchar import kernel

    g = oracles.group(family, rank)
    orbit = zero(rank)
    for w in range(g.order):
        orbit = orbit + monomial(act(g.datum, g.word(w), lam))
    v = orbit.shift(weight_neg(g.datum.rho))
    with pytest.raises(GuardBoundError):
        decompose(g.datum, v)
    monkeypatch.setattr(kernel, "in_kernel", lambda d, v: True)
    monkeypatch.setattr(oracles, "in_kernel", lambda d, v: True)
    coefficients, _ = assert_matches_the_tuple_reference(g.datum, v)
    # the sum over W holds each orbit weight |W_lam| times, and so holds chi(lam) that often
    assert (lam, g.order // len(orbit.terms)) in coefficients
    moved = v + monomial((10**12,) + (0,) * (rank - 1))
    assert assert_matches_the_tuple_reference(g.datum, moved)[0] is ValueError


def test_guard_bound_refuses_a_large_invariant_element_at_the_guards_first_step(monkeypatch):
    # v = e^(N-1) + e^(-N-1) is in N; the membership guard's step of letter 1 would expand
    # two strings of N weights each, measured as |t + 1| at t = N - 1 and t = -N - 1
    from demchar import rootsys

    d = build_datum("A", 1)
    spread = lambda n: CharElement(1, {(n - 1,): 1, (-n - 1,): 1})
    assert decompose(d, spread(1000)) == {(998,): -1, (1000,): 1}
    expected = (
        "the Demazure step of letter 1 would expand 20000000 weight-string terms, "
        f"above the bound MAX_GUARD_TERMS = {MAX_GUARD_TERMS}$"
    )
    with pytest.raises(GuardBoundError, match=expected):
        decompose(d, spread(10**7))
    monkeypatch.setattr(rootsys, "MAX_GUARD_TERMS", 2000)
    assert decompose(d, spread(1000)) == {(998,): -1, (1000,): 1}
    monkeypatch.setattr(rootsys, "MAX_GUARD_TERMS", 1999)
    with pytest.raises(GuardBoundError, match="2000 weight-string terms"):
        decompose(d, spread(1000))


def test_guard_bound_sums_the_strings_of_the_guard(monkeypatch):
    # the membership guard's Demazure steps on v expand sum |t| weights over letters and the support of e^rho * v
    counted = []
    real = Packing.step

    def step(packing, pos, terms):
        shift = packing.shifts[pos]
        for k in terms:
            t = ((k >> shift) & packing.mask) - packing.bias
            counted.append(t + 1 if t >= 0 else max(-t - 1, 0))
        return real(packing, pos, terms)

    monkeypatch.setattr(Packing, "step", step)
    for family, rank, lam in [("A", 2, (2, 3)), ("B", 3, (1, 2, 1)), ("G", 2, (3, 1))]:
        g = oracles.group(family, rank)
        v = kernel_basis_element(g.datum, lam)
        counted.clear()
        assert in_kernel(g.datum, v)
        u = v.shift(g.datum.rho)
        assert sum(counted) == sum(abs(x) for nu in u.terms for x in nu)
