import pickle
import random
import tracemalloc
from array import array

import pytest

from demchar.rootsys import build_datum, orbit_size, weight_neg
from demchar.weyl import (
    MAX_BRUHAT_TABLE_BYTES,
    bit_indices,
    bruhat_leq,
    canonical_word,
    check_bruhat_table,
    generate,
    act,
    peel,
)

import oracles
from oracles import alternative_reduced_words, element_by_word, inversions, lower_interval


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
    assert sorted(g.length) == [0, 1, 1, 2, 2, 3]


def test_longest_properties():
    for family, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)]:
        g = oracles.group(family, rank)
        w0 = g.longest
        assert g.length[w0] == len(g.datum.positive_roots)
        assert element_by_word(g, g.word(w0) + g.word(w0)) == g.identity
        assert element_by_word(g, iter(g.word(w0))) == w0


REFERENCE_TYPES = [t for t in oracles.ALL_TYPES if oracles.classical_weyl_order(*t) <= 1920]


def flat(rows) -> array:
    """A tuple-of-tuples table in the group's flat layout: entry (k, i) at k * rank + i."""
    return array("i", [x for row in rows for x in row])


def assert_right_mult(g, right_mult) -> None:
    """w_k*s_(i+1), by the word of w_k followed by i + 1, is ``right_mult[k][i]`` for every k and i."""
    for k, row in enumerate(right_mult):
        word = g.word(k)
        assert [element_by_word(g, word + (i,)) for i in range(1, g.datum.rank + 1)] == list(row)


@pytest.mark.parametrize("family,rank", [t for t in oracles.ALL_TYPES if oracles.classical_weyl_order(*t) <= 51840])
def test_compact_tables_match_the_tuple_generator(family, rank):
    d = build_datum(family, rank)
    g, ref = generate(d), oracles.tuple_generate(d)
    assert_right_mult(g, ref.right_mult)
    assert g.left_mult == flat(ref.left_mult)
    assert [g.word(k) for k in range(g.order)] == ref.words
    assert g.length == bytes(len(word) for word in ref.words)
    assert g.first == bytes(word[0] if word else 0 for word in ref.words)
    assert (g.identity, g.longest) == (0, len(ref.words) - 1)


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES)
def test_peel_visits_the_steps_of_the_tuple_tables(family, rank):
    # each tau is peeled by the first letter of its word, to sigma = s*tau of the previous tables
    d = build_datum(family, rank)
    ref = oracles.tuple_generate(d)
    expected = [(tau, word[0] - 1, ref.left_mult[tau][word[0] - 1]) for tau, word in enumerate(ref.words) if word]
    assert list(peel(generate(d))) == expected


def test_a_generated_group_keeps_under_32_bytes_per_element():
    d = build_datum("D", 5)
    tracemalloc.start()
    try:
        g = generate(d)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 1920
    assert kept < 32 * g.order


def test_bruhat_table_bound_admits_b5_and_refuses_e6_before_generation():
    for family, rank in [("B", 5), ("A", 6), ("D", 5), ("F", 4)]:
        check_bruhat_table(build_datum(family, rank))
    for family, rank in [("D", 6), ("E", 6), ("E", 8)]:
        with pytest.raises(ValueError, match="weyl, verify-theorem and verify-lemma31 need it.*bruhat"):
            check_bruhat_table(build_datum(family, rank))
    assert oracles.classical_weyl_order("B", 5) ** 2 // 8 <= MAX_BRUHAT_TABLE_BYTES
    g = generate(build_datum("E", 6))
    with pytest.raises(ValueError, match=f"bound {MAX_BRUHAT_TABLE_BYTES}"):
        g.bruhat_rows
    assert "bruhat_rows" not in vars(g)


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES)
def test_orbit_generation_matches_matrix_reference(family, rank):
    g = oracles.group(family, rank)
    ref = oracles.matrix_group(g.datum)
    assert [g.word(k) for k in range(g.order)] == ref.words
    assert all(g.length[k] == len(g.word(k)) for k in range(g.order))
    assert_right_mult(g, ref.right_mult)
    assert g.left_mult == flat(ref.left_mult)
    assert g.bruhat_rows == ref.bruhat_rows
    rng = random.Random(7)
    for k, m in enumerate(ref.matrices):
        lam = oracles.random_weight(rng, rank, -6, 6)
        image = tuple(sum(a * x for a, x in zip(row, lam)) for row in m)
        assert act(g.datum, g.word(k), lam) == oracles.act(g, k, lam) == image


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES)
def test_lower_covers_lie_below_by_the_table_free_walk(family, rank):
    g = oracles.group(family, rank)
    rows = g.bruhat_rows
    by_length = {}
    for w, l in enumerate(g.length):
        by_length.setdefault(l, []).append(w)
    assert g.lower_covers[g.identity] == ()
    for tau in range(1, g.order):
        covers = list(g.lower_covers[tau])
        # the covers by the table-free index walk and the lengths alone
        assert covers == [w for w in by_length[g.length[tau] - 1] if oracles.bruhat_leq_index(g, w, tau)]
        assert all(rows[c] & ~rows[tau] == 0 for c in covers)  # [e, c] lies in [e, tau]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("G", 2)])
def test_lower_covers_are_the_interval_one_length_down(family, rank):
    g = oracles.group(family, rank)
    rows = g.bruhat_rows
    for tau, covers in enumerate(g.lower_covers):
        assert list(covers) == [w for w in lower_interval(g, tau) if g.length[w] == g.length[tau] - 1]
        assert all(rows[c] & ~rows[tau] == 0 for c in covers)  # [e, c] lies in [e, tau]


def test_lower_covers_built_on_first_read_and_pickled():
    g = generate(build_datum("B", 3))
    assert "lower_covers" not in vars(g) and "bruhat_rows" not in vars(g)
    covers = g.lower_covers
    assert vars(g)["lower_covers"] is covers
    assert vars(pickle.loads(pickle.dumps(g)))["lower_covers"] == covers


def test_bruhat_rows_built_on_first_read_and_pickled():
    g = generate(build_datum("B", 3))
    assert "bruhat_rows" not in vars(g)
    bare = pickle.loads(pickle.dumps(g))
    assert "bruhat_rows" not in vars(bare)
    rows = g.bruhat_rows
    assert vars(g)["bruhat_rows"] is rows
    copy = pickle.loads(pickle.dumps(g))
    assert vars(copy)["bruhat_rows"] == rows
    for other in (bare, copy):
        for name in ("left_mult", "length", "first", "identity", "longest"):
            assert getattr(other, name) == getattr(g, name)
        assert [other.word(k) for k in range(other.order)] == [g.word(k) for k in range(g.order)]
        assert other.datum == g.datum
    assert bare.bruhat_rows == rows


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("G", 2)])
def test_length_equals_inversion_count(family, rank):
    g = oracles.group(family, rank)
    for k in range(g.order):
        assert g.length[k] == len(g.word(k)) == inversions(g, k)


def test_canonical_word_is_lex_smallest():
    g = oracles.group("A", 3)
    for k in range(g.order):
        words = alternative_reduced_words(g, k)
        assert g.word(k) == min(words)
        assert len(set(words)) == len(words)
        assert all(len(word) == g.length[k] for word in words)


@pytest.mark.parametrize("family,rank", [t for t in oracles.ALL_TYPES if oracles.classical_weyl_order(*t) <= 1920])
def test_canonical_word_from_the_image_of_rho_matches_the_group(family, rank):
    g = oracles.group(family, rank)
    d = g.datum
    for k in range(g.order):
        assert canonical_word(d, oracles.act(g, k, d.rho)) == g.word(k)


@pytest.mark.parametrize("family,rank", REFERENCE_TYPES)
def test_word_key_names_the_element_by_word(family, rank):
    # random words, mostly not reduced, keyed by act(d, word, rho) on the datum alone and in the generated group
    g = oracles.group(family, rank)
    d = g.datum
    rng = random.Random(f"word-key-{family}{rank}")
    for _ in range(200):
        word = [rng.randint(1, rank) for _ in range(rng.randint(0, 2 * len(d.positive_roots)))]
        k = element_by_word(g, word)
        assert act(d, word, d.rho) == oracles.act(g, k, d.rho)
        assert canonical_word(d, act(d, iter(word), d.rho)) == g.word(k)


def test_canonical_word_of_minus_rho_is_the_longest_word_on_e6():
    g = oracles.group("E", 6)
    assert canonical_word(g.datum, weight_neg(g.datum.rho)) == g.word(g.longest)


def test_canonical_word_refuses_a_weight_outside_the_orbit_of_rho():
    d = build_datum("B", 2)
    assert canonical_word(d, (1, 1)) == ()
    for key in [(0, 1), (-2, 2), (1, 1, 1)]:
        with pytest.raises(ValueError):
            canonical_word(d, key)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_bruhat_agrees_with_subword_oracle(family, rank):
    g = oracles.group(family, rank)
    words = [g.word(k) for k in range(g.order)]
    for tau in range(g.order):
        reachable = oracles.subword_lower_set(g, tau)
        for w in range(g.order):
            assert bruhat_leq(g.datum, words[w], words[tau]) == (w in reachable)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_bruhat_leq_walk_matches_the_table(family, rank):
    # the lifting property on the keys w(rho), and the index walk of the tests, against the table
    g = oracles.group(family, rank)
    words = [g.word(k) for k in range(g.order)]
    for tau in range(g.order):
        row = g.bruhat_rows[tau]
        for w in range(g.order):
            expected = bool((row >> w) & 1)
            assert bruhat_leq(g.datum, words[w], words[tau]) == oracles.bruhat_leq_index(g, w, tau) == expected


def test_bruhat_basics():
    d = build_datum("A", 2)
    g = oracles.group("A", 2)
    for k in range(g.order):
        tau = g.word(k)
        assert bruhat_leq(d, (), tau)
        assert bruhat_leq(d, tau, tau)
    assert bruhat_leq(d, (1,), (1, 2))
    assert not bruhat_leq(d, (1, 2), (2, 1)) and not bruhat_leq(d, (2, 1), (1, 2))
    assert bruhat_leq(d, (2,), (2, 1))
    # words need not be reduced: s1*s1 = e, and s1*s2*s1*s2 = s2*s1
    assert bruhat_leq(d, (1, 1), ()) and not bruhat_leq(d, (1,), (2, 2))
    assert bruhat_leq(d, (1, 2, 1, 2), (2, 1)) and bruhat_leq(d, (2, 1), (1, 2, 1, 2))
    assert not bruhat_leq(d, (1, 2, 1, 2), (1, 2))


def test_bruhat_refined_by_length():
    for family, rank in [("A", 3), ("B", 3), ("G", 2)]:
        g = oracles.group(family, rank)
        for tau in range(g.order):
            for w in lower_interval(g, tau):
                assert w == tau or g.length[w] < g.length[tau]


def test_lower_interval_examples():
    g = oracles.group("A", 2)
    assert lower_interval(g, g.identity) == [g.identity]
    assert lower_interval(g, g.longest) == list(range(g.order))
    s12 = element_by_word(g, (1, 2))
    assert [g.word(x) for x in lower_interval(g, s12)] == [(), (1,), (2,), (1, 2)]


def test_lower_interval_ordering_and_monotonicity():
    g = oracles.group("B", 2)
    for tau in range(g.order):
        interval = lower_interval(g, tau)
        keys = [(g.length[x], g.word(x)) for x in interval]
        assert keys == sorted(keys)
        assert interval == bit_indices(g.bruhat_rows[tau])
        for w in interval:
            assert set(lower_interval(g, w)) <= set(interval)


def test_alternative_reduced_words_examples():
    g2 = oracles.group("A", 2)
    assert sorted(alternative_reduced_words(g2, g2.longest)) == [(1, 2, 1), (2, 1, 2)]
    assert alternative_reduced_words(g2, element_by_word(g2, (1,))) == [(1,)]
    gb = oracles.group("B", 2)
    assert sorted(alternative_reduced_words(gb, gb.longest)) == [(1, 2, 1, 2), (2, 1, 2, 1)]
    assert len(alternative_reduced_words(gb, gb.longest, limit=1)) == 1


def test_apply_examples():
    d = build_datum("A", 1)
    assert act(d, (1,), (3,)) == (-3,)
    assert act(d, (), (3,)) == (3,)
    assert act(d, (1,), (0,)) == (0,)
    assert act(d, (1, 1), [3]) == (3,)


def test_longest_sends_dominant_to_antidominant():
    rng = random.Random(3)
    for family, rank in [("A", 3), ("B", 3), ("G", 2)]:
        g = oracles.group(family, rank)
        for _ in range(20):
            lam = tuple(rng.randint(0, 5) for _ in range(rank))
            assert all(c <= 0 for c in act(g.datum, g.word(g.longest), lam))


def test_length_subadditive():
    rng = random.Random(11)
    g = oracles.group("B", 3)
    for _ in range(100):
        w = rng.randrange(g.order)
        v = rng.randrange(g.order)
        wv = element_by_word(g, g.word(w) + g.word(v))
        assert g.length[wv] <= g.length[w] + g.length[v]


def test_simple_multiplication_changes_length_by_one():
    # equality case of subadditivity along generation edges
    g = oracles.group("B", 2)
    for k in range(g.order):
        for i in range(g.datum.rank):
            neighbour = g.left_mult[k * g.datum.rank + i]
            assert abs(g.length[neighbour] - g.length[k]) == 1


def test_max_order_guard():
    with pytest.raises(ValueError, match="A3 has 24 elements, which exceeds the bound 10; raise max_order$"):
        generate(build_datum("A", 3), max_order=10)
    assert generate(build_datum("A", 2), max_order=6).order == 6


@pytest.mark.parametrize("family,rank", oracles.ALL_TYPES)
def test_classified_order(family, rank):
    # |W| is Macdonald's product at rho, which generate reads, and names, before generating anything
    d = build_datum(family, rank)
    order = oracles.classical_weyl_order(family, rank)
    assert orbit_size(d, d.rho) == order
    with pytest.raises(ValueError, match=f"has {order} elements, which exceeds the bound {order - 1};"):
        generate(d, max_order=order - 1)


def test_too_large_group_is_refused_before_generation():
    # generating E7 element by element up to the default bound takes minutes
    with pytest.raises(ValueError, match="2903040 elements, which exceeds the bound 1000000; raise max_order$"):
        generate(build_datum("E", 7))


def test_element_indices_out_of_range_are_refused():
    # an element is an index 0..|W|-1: -1 would otherwise read as the longest element
    g = oracles.group("A", 2)
    for k in (-1, g.order):
        with pytest.raises(ValueError, match=rf"element index {k} is out of range 0\.\.5"):
            g.word(k)


def test_word_letters_out_of_range_are_refused():
    # an element named by a word is checked letter by letter
    from demchar.demazure import demazure_char, euler_char, top_cohomology_char
    from demchar.theorem import epsilon_char

    d = build_datum("A", 2)
    with_weight = (demazure_char, euler_char, top_cohomology_char, epsilon_char)
    calls = [
        lambda word: act(d, word, d.rho),
        lambda word: bruhat_leq(d, word, (1, 2, 1)),
        lambda word: bruhat_leq(d, (), word),
        *(lambda word, fn=fn: fn(d, word, (1, 1)) for fn in with_weight),
    ]
    for call in calls:
        for i in (0, 3):
            with pytest.raises(ValueError, match=rf"word letter {i} out of range 1\.\.2"):
                call((1, i, 2))


def test_element_by_word_validates_letters():
    g = oracles.group("A", 2)
    with pytest.raises(ValueError):
        element_by_word(g, (3,))
