import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demchar.rootsys import (
    Packing,
    build_datum,
    check_regular_dominant,
    is_dominant,
    orbit_size,
    packing_for,
    pairing,
    simple_reflection,
    weight_add,
    weight_sub,
    weyl_dimension,
)
from demchar.weyl import act

import oracles
from oracles import dominance_leq, height

# det(C) is the index of the root lattice in the weight lattice
INDEX_OF_CONNECTION = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2, "D": lambda n: 4}
INDEX_OF_CONNECTION_EXCEPTIONAL = {("E", 6): 3, ("E", 7): 2, ("E", 8): 1, ("F", 4): 1, ("G", 2): 1}

TEST_MATRIX = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]


def test_a1_datum():
    d = build_datum("A", 1)
    assert d.cartan == ((2,),)
    assert d.simple_roots == ((2,),)
    assert d.rho == (1,)
    assert d.positive_roots == ((2,),)


def test_a2_datum():
    d = build_datum("A", 2)
    assert d.cartan == ((2, -1), (-1, 2))
    assert d.simple_roots == ((2, -1), (-1, 2))
    assert len(d.positive_roots) == 3
    assert (1, 1) in d.positive_roots  # alpha_1 + alpha_2


def test_g2_datum():
    d = build_datum("G", 2)
    assert len(d.positive_roots) == 6


@pytest.mark.parametrize("family,rank", TEST_MATRIX)
def test_positive_root_count_classical(family, rank):
    d = build_datum(family, rank)
    assert len(d.positive_roots) == oracles.classical_positive_root_count(family, rank)


@pytest.mark.parametrize("family,rank", TEST_MATRIX)
def test_positive_roots_sum_to_twice_rho(family, rank):
    d = build_datum(family, rank)
    total = (0,) * rank
    for beta in d.positive_roots:
        total = weight_add(total, beta)
    assert total == tuple(2 * c for c in d.rho)


@pytest.mark.parametrize("family,rank", TEST_MATRIX)
def test_simple_reflection_permutes_other_positive_roots(family, rank):
    d = build_datum(family, rank)
    positives = set(d.positive_roots)
    for i in range(1, rank + 1):
        alpha = d.simple_roots[i - 1]
        images = {simple_reflection(d, i, beta) for beta in positives if beta != alpha}
        assert images == positives - {alpha}
        assert simple_reflection(d, i, alpha) == tuple(-c for c in alpha)


def test_cartan_diagonal_and_sign_pattern():
    for family, rank in TEST_MATRIX:
        d = build_datum(family, rank)
        for i in range(rank):
            assert d.cartan[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert d.cartan[i][j] <= 0
                    assert (d.cartan[i][j] == 0) == (d.cartan[j][i] == 0)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)],
)
def test_invalid_type_rejected(family, rank):
    with pytest.raises(ValueError):
        build_datum(family, rank)


def test_rank_guard_configurable():
    with pytest.raises(ValueError, match="supported bound 8"):
        build_datum("A", 9)


def test_pairing_examples():
    d2 = build_datum("A", 2)
    assert pairing(d2, (1, 1), 1) == 1
    assert pairing(d2, (-2, 1), 1) == -2
    d1 = build_datum("A", 1)
    assert pairing(d1, (3,), 1) == 3
    with pytest.raises(ValueError):
        pairing(d2, (1, 1), 3)
    with pytest.raises(ValueError):
        pairing(d2, (1, 1), 0)


def test_simple_reflection_examples():
    d = build_datum("A", 2)
    assert simple_reflection(d, 1, (1, 0)) == (-1, 1)
    # rho maps to rho - alpha_i for every i
    for i in (1, 2):
        assert simple_reflection(d, i, d.rho) == weight_sub(d.rho, d.simple_roots[i - 1])


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.sampled_from([1, 2]))
def test_simple_reflection_involution(lam, i):
    d = build_datum("A", 2)
    assert simple_reflection(d, i, simple_reflection(d, i, lam)) == lam


def test_dominance_flags():
    d = build_datum("A", 2)
    check_regular_dominant(d, d.rho)
    assert is_dominant(d, (0, 3))
    assert not is_dominant(d, (-1, 2))
    for lam in [(0, 3), (-1, 2)]:
        with pytest.raises(ValueError, match="not regular dominant"):
            check_regular_dominant(d, lam)


@pytest.mark.parametrize("lam", [(1,), (1, 2, 3)])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, lam: simple_reflection(g.datum, 1, lam),
        lambda g, lam: is_dominant(g.datum, lam),
        lambda g, lam: act(g.datum, g.word(g.longest), lam),
    ],
    ids=["simple_reflection", "is_dominant", "act"],
)
def test_weight_functions_refuse_a_weight_of_the_wrong_rank(call, lam):
    # each would otherwise answer from the coordinates it reads, or fail with IndexError
    g = oracles.group("A", 2)
    with pytest.raises(ValueError, match=rf"has {len(lam)} coordinates; A2 needs 2"):
        call(g, lam)


def test_dominance_compare_examples():
    d = build_datum("A", 2)
    # lam - mu = alpha_1, so mu <= lam
    assert dominance_leq(d, (-1, 1), (1, 0)) and not dominance_leq(d, (1, 0), (-1, 1))
    assert dominance_leq(d, (1, 0), (1, 0))
    # omega_1 - omega_2 is not in the root lattice
    assert not dominance_leq(d, (0, 1), (1, 0)) and not dominance_leq(d, (1, 0), (0, 1))
    # alpha_1 - alpha_2 has mixed signs
    assert not dominance_leq(d, (0, 0), (3, -3)) and not dominance_leq(d, (3, -3), (0, 0))


def test_dominance_transitivity_random_triples():
    rng = random.Random(7)
    for family, rank in [("A", 2), ("B", 2), ("A", 3)]:
        d = build_datum(family, rank)
        for _ in range(50):
            nu = oracles.random_weight(rng, rank)
            mu = nu
            for i in range(rank):
                c = rng.randint(0, 3)
                mu = weight_add(mu, tuple(c * x for x in d.simple_roots[i]))
            lam = mu
            for i in range(rank):
                c = rng.randint(0, 3)
                lam = weight_add(lam, tuple(c * x for x in d.simple_roots[i]))
            assert dominance_leq(d, nu, mu)
            assert dominance_leq(d, mu, lam)
            assert dominance_leq(d, nu, lam)


def test_family_normalization():
    assert build_datum("a", 2).family == "A"


@pytest.mark.parametrize("family,rank", oracles.ALL_TYPES)
def test_cartan_adjugate_is_det_times_inverse(family, rank):
    # the integer adjugate that the height and dominance oracles stand on
    d = build_datum(family, rank)
    cartan = d.cartan
    adj, det = oracles.integer_adjugate(d)
    product = [[sum(adj[i][k] * cartan[k][j] for k in range(rank)) for j in range(rank)] for i in range(rank)]
    assert product == [[det * (i == j) for j in range(rank)] for i in range(rank)]
    expected = INDEX_OF_CONNECTION_EXCEPTIONAL.get((family, rank)) or INDEX_OF_CONNECTION[family](rank)
    assert det == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TEST_MATRIX), st.data())
def test_height_increases_along_positive_roots(family_rank, data):
    d = build_datum(*family_rank)
    mu = data.draw(st.tuples(*[st.integers(-9, 9)] * d.rank))
    beta = data.draw(st.sampled_from(d.positive_roots))
    above = weight_add(mu, beta)
    assert height(d, above) > height(d, mu)
    assert dominance_leq(d, mu, above) and not dominance_leq(d, above, mu)


def test_dominance_compare_non_integral_on_other_cosets():
    # D4 has index 4: omega_1 and omega_1 - omega_3 are not in the root lattice;
    # omega_2, the highest root, is, and lies above 0
    d = build_datum("D", 4)
    for lo, hi in [((0, 0, 1, 0), (1, 0, 0, 0)), ((0, 0, 0, 0), (1, 0, 0, 0))]:
        assert not dominance_leq(d, lo, hi) and not dominance_leq(d, hi, lo)
    assert dominance_leq(d, (0, 0, 0, 0), (0, 1, 0, 0))


@pytest.mark.parametrize("family,rank", oracles.ALL_TYPES)
def test_integer_weyl_dimension_matches_the_fraction_reference(family, rank):
    d = build_datum(family, rank)
    seeded = oracles.random_weight(random.Random(rank * 31 + ord(family)), rank, -3, 5)
    for lam in [(0,) * rank, d.rho, seeded]:
        assert weyl_dimension(d, lam) == oracles.weyl_dimension(d, lam)
    assert weyl_dimension(d, (0,) * rank) == 1
    # dim V(rho) = 2^|Phi+|
    assert weyl_dimension(d, d.rho) == 2 ** len(d.positive_roots)


@pytest.mark.parametrize("family,rank", [t for t in oracles.ALL_TYPES if oracles.classical_weyl_order(*t) <= 1920])
def test_orbit_size_counts_the_orbit(family, rank):
    # the orbit of 0, rho, each omega_i and a few random dominant weights, counted element by element
    g = oracles.group(family, rank)
    d = g.datum
    rng = random.Random(f"orbit-{family}{rank}")
    weights = [(0,) * rank, d.rho, *(tuple(int(j == i) for j in range(rank)) for i in range(rank))]
    weights += [tuple(rng.choice((0, 0, 1, 3)) for _ in range(rank)) for _ in range(3)]
    for nu in weights:
        assert orbit_size(d, nu) == len({oracles.act(g, k, nu) for k in range(g.order)}), nu


@pytest.mark.parametrize("family,rank", oracles.ALL_TYPES)
def test_orbit_size_of_rho_is_the_group_order(family, rank):
    d = build_datum(family, rank)
    assert orbit_size(d, d.rho) == oracles.classical_weyl_order(family, rank)
    assert orbit_size(d, (0,) * rank) == 1


def test_orbit_size_refuses_a_non_dominant_weight():
    d = build_datum("B", 3)
    with pytest.raises(ValueError, match=r"weight \[1, -1, 0\] is not dominant"):
        orbit_size(d, (1, -1, 0))
    with pytest.raises(ValueError, match="has 2 coordinates"):
        orbit_size(d, (1, 1))


@pytest.mark.parametrize("family,rank", [t for t in TEST_MATRIX if t != ("E", 6)])
def test_packed_reflection_of_the_orbit_of_rho(family, rank):
    # weyl.generate reflects a packed key k as k - t*a_i, t read by one shift and mask
    d = build_datum(family, rank)
    packing = packing_for(d, [d.rho])
    orbit, frontier = {d.rho}, [d.rho]
    while frontier:
        mu = frontier.pop()
        k = packing.pack(mu)
        assert packing.unpack_terms({k: 1}) == {mu: 1}
        for i, a in enumerate(packing.roots):
            t = ((k >> packing.shifts[i]) & packing.mask) - packing.bias
            nu = simple_reflection(d, i + 1, mu)
            assert t == mu[i] and k - t * a == packing.pack(nu)
            if nu not in orbit:
                orbit.add(nu)
                frontier.append(nu)
    assert len(orbit) == oracles.classical_weyl_order(family, rank)


@pytest.mark.parametrize("family,rank", [("A", 1), ("B", 3), ("G", 2), ("F", 4)])
def test_pack_terms_packs_each_weight(family, rank):
    d = build_datum(family, rank)
    rng = random.Random(rank * 37 + ord(family))
    for scale in (5, 10**12):
        terms = {oracles.random_weight(rng, rank, -scale, scale): rng.randint(-9, 9) for _ in range(30)}
        terms[(-scale,) * rank] = 1
        terms[(scale,) * rank] = 2
        packing = packing_for(d, terms, d.rho)
        assert packing.pack_terms(terms) == {packing.pack(mu): c for mu, c in terms.items()}
        assert packing.pack_terms(terms, d.rho) == {packing.pack(weight_add(mu, d.rho)): c for mu, c in terms.items()}
        assert packing.unpack_terms(packing.pack_terms(terms)) == terms
        for shift in (d.rho, weight_sub((0,) * rank, d.rho)):
            shifted = {weight_add(mu, shift): c for mu, c in terms.items()}
            assert packing.unpack_terms(packing.pack_terms(terms), shift) == shifted


@st.composite
def packed_weights(draw):
    """A packing and weights that fit it, with a shift the unpacked weights stay inside the field for."""
    family, rank = draw(st.sampled_from([("A", 1), ("A", 3), ("B", 2), ("G", 2), ("F", 4)]))
    d = build_datum(family, rank)
    bound = draw(st.sampled_from([3, 40, 10**12]))
    coordinate = st.integers(-bound, bound)
    weights = draw(st.lists(st.tuples(*[coordinate] * rank), min_size=2, max_size=12, unique=True))
    shift = draw(st.sampled_from([(), d.rho, weight_sub((0,) * rank, d.rho)]))
    return packing_for(d, weights, shift), weights, shift


@settings(max_examples=200, deadline=None)
@given(packed_weights())
def test_packed_key_order_is_weight_order(case):
    # coordinate 1 has the most significant field, so integer order on keys is lexicographic order
    packing, weights, shift = case
    mu, nu = weights[:2]
    assert (packing.pack(mu) < packing.pack(nu)) == (mu < nu)
    terms = {packing.pack(mu): k + 1 for k, mu in enumerate(weights)}
    unpacked = packing.unpack_terms(terms, shift)
    assert list(unpacked) == sorted(unpacked)
    assert unpacked == {weight_add(mu, shift) if shift else mu: k + 1 for k, mu in enumerate(weights)}
