import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demchar.rootsys import (
    build_datum,
    check_regular_dominant,
    is_dominant,
    pairing,
    simple_reflection,
    weight_add,
    weight_sub,
)

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
