"""Independent oracles and shared helpers for the test suite.

Everything here deliberately avoids the code paths it is used to check:
the dimension formula works from the positive coroots alone, the
Bruhat oracle enumerates subwords of a single fixed reduced word, the
reference generator multiplies integer matrices, the theorem references
evaluate one operator string per interval element, the decomposition
reference subtracts one full section character per peeled weight, the
operator reference steps weights as tuples instead of packed ints, and the
full section character is rebuilt by Freudenthal's multiplicity formula with
no Demazure operator at all.

The helpers that the library does not need live here too: the dominance
order and height on the integer adjugate det(C) * C^-1, extreme weights in
that order, a Weyl-group element acting on a character, inversion counts,
every reduced word of an element by descent search, and the Serre-twist
weight rho + w(rho) - w(chi').
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import NamedTuple

from demchar import build_datum, generate
from demchar.charring import CharElement
from demchar.demazure import check_char_rank, demazure_char, top_cohomology_char
from demchar.kernel import in_kernel
from demchar.rootsys import RootDatum, Weight, weight_add, weight_sub
from demchar.weyl import WeylElement, WeylGroup, lower_interval

_GROUPS: dict[tuple[str, int], WeylGroup] = {}

# every valid (family, rank) that build_datum accepts
ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def group(family: str, rank: int) -> WeylGroup:
    key = (family, rank)
    if key not in _GROUPS:
        _GROUPS[key] = generate(build_datum(family, rank))
    return _GROUPS[key]


Matrix = tuple[tuple[int, ...], ...]


def reflection_matrix(d: RootDatum, i: int) -> Matrix:
    """Matrix of the i-th simple reflection acting on omega-coordinates."""
    j0 = i - 1
    return tuple(
        tuple((1 if k == j else 0) - (d.cartan[k][j0] if j == j0 else 0) for j in range(d.rank))
        for k in range(d.rank)
    )


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    rng = range(len(a))
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in rng) for j in rng) for i in rng)


class MatrixGroup(NamedTuple):
    """A Weyl group as integer matrices, indexed in generation order."""

    matrices: list[Matrix]
    words: list[tuple[int, ...]]
    right_mult: tuple[tuple[int, ...], ...]
    left_mult: tuple[tuple[int, ...], ...]
    bruhat_rows: tuple[int, ...]


def matrix_group(d: RootDatum) -> MatrixGroup:
    """The reference generator: breadth-first closure under matrix products.

    Levels are scanned with parents in index order and generators ascending,
    so the first discovery gives the lexicographically smallest reduced
    word.  Both multiplication tables are matrix products looked up by
    matrix.  Bruhat row t is the definition of the order, with no lifting
    property: t itself plus the rows of every t*s_beta of smaller length,
    over the reflections s_beta of all positive roots.
    """
    rank = d.rank
    refl = [reflection_matrix(d, i) for i in range(1, rank + 1)]
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    matrices, words = [ident], [()]
    index_of = {ident: 0}
    level = [0]
    while level:
        nxt = []
        for p in level:
            for i in range(1, rank + 1):
                m = _matmul(matrices[p], refl[i - 1])
                if m not in index_of:
                    index_of[m] = len(matrices)
                    nxt.append(len(matrices))
                    matrices.append(m)
                    words.append(words[p] + (i,))
        level = nxt
    right_mult = tuple(tuple(index_of[_matmul(m, r)] for r in refl) for m in matrices)
    left_mult = tuple(tuple(index_of[_matmul(r, m)] for r in refl) for m in matrices)
    # s_beta(lam) = lam - <lam, beta^vee> beta, with beta^vee in the simple-coroot basis
    reflections = [
        tuple(tuple(int(k == j) - beta[k] * coroot[j] for j in range(rank)) for k in range(rank))
        for beta, coroot in zip(d.positive_roots, d.positive_coroots)
    ]
    rows: list[int] = []
    for t, m in enumerate(matrices):
        row = 1 << t
        for r in reflections:
            u = index_of[_matmul(m, r)]
            if len(words[u]) < len(words[t]):
                row |= rows[u]
        rows.append(row)
    return MatrixGroup(matrices, words, right_mult, left_mult, tuple(rows))


def classical_weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C"):
        return 2**rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    if family == "F":
        return 1152
    if family == "G":
        return 12
    raise ValueError(family)


def classical_positive_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    if family == "F":
        return 24
    if family == "G":
        return 6
    raise ValueError(family)


def weyl_dimension(d: RootDatum, lam: Weight) -> int:
    """Weyl dimension formula from the positive coroots, exactly."""
    shifted = tuple(c + 1 for c in lam)
    result = Fraction(1)
    for coroot in d.positive_coroots:
        num = sum(a * b for a, b in zip(shifted, coroot))
        den = sum(coroot)
        result *= Fraction(num, den)
    assert result.denominator == 1
    return result.numerator


def _symmetrizer(d: RootDatum) -> list[int]:
    """Positive integers s_i, proportional to (alpha_i, alpha_i), with s_i * a_ij == s_j * a_ji."""
    ratio = [Fraction(0)] * d.rank
    ratio[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(d.rank):
            if d.cartan[i][j] and not ratio[j]:
                ratio[j] = ratio[i] * d.cartan[i][j] / d.cartan[j][i]
                todo.append(j)
    scale = math.lcm(*(r.denominator for r in ratio))
    return [int(r * scale) for r in ratio]


def freudenthal_char(g: WeylGroup, mu: Weight) -> CharElement:
    """The character of V(mu), mu dominant, by Freudenthal's formula (Humphreys, GTM 9, 22.3).

    (|mu+rho|^2 - |nu+rho|^2) m(nu) = 2 sum_{beta > 0} sum_{k >= 1} m(nu + k beta) (nu + k beta, beta)
    over the dominant weights nu <= mu, highest first; m of any other weight
    is m of its dominant conjugate.  The form (x, y) = sum_j c_j s_j y_j,
    with c = C^-1 x the simple-root coordinates of x, is scaled by det(C)
    and the symmetrizer s, so every term is an integer and the division is
    checked exact.  Each dominant weight is then spread over its W-orbit by
    simple reflections.  No Demazure operator is used.
    """
    d = g.datum
    adj, det = integer_adjugate(d)
    sym = _symmetrizer(d)

    def form(x: Weight, y: Weight) -> int:
        return sum(sum(a * v for a, v in zip(row, x)) * s * w for row, s, w in zip(adj, sym, y))

    def reflect(x: Weight, i: int) -> Weight:
        return tuple(a - x[i] * b for a, b in zip(x, d.simple_roots[i]))

    def dominant(x: Weight) -> Weight:
        while min(x) < 0:
            x = reflect(x, next(i for i, a in enumerate(x) if a < 0))
        return x

    # every dominant weight below mu is reached from mu through dominant weights, one positive root
    # at a time (Stembridge, "The partial order of dominant weights", Adv. Math. 136, 1998)
    below, todo = {mu}, [mu]
    while todo:
        nu = todo.pop()
        for beta in d.positive_roots:
            x = weight_sub(nu, beta)
            if min(x) >= 0 and x not in below:
                below.add(x)
                todo.append(x)
    top = tuple(c + 1 for c in mu)
    mult: dict[Weight, int] = {}
    for nu in sorted(below, key=lambda x: -height(d, x)):
        if nu == mu:
            mult[nu] = 1
            continue
        total = 0
        for beta in d.positive_roots:
            x = weight_add(nu, beta)
            # the beta-string through nu is unbroken, so it ends at the first non-weight
            while (y := dominant(x)) in below:
                total += mult[y] * form(x, beta)
                x = weight_add(x, beta)
        shifted = tuple(c + 1 for c in nu)
        num, den = 2 * total, form(top, top) - form(shifted, shifted)
        assert den > 0 and num % den == 0, (mu, nu, num, den)
        mult[nu] = num // den
    terms: dict[Weight, int] = {}
    for nu, m in mult.items():
        orbit, todo = {nu}, [nu]
        while todo:
            x = todo.pop()
            for i in range(d.rank):
                y = reflect(x, i)
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        for x in orbit:
            terms[x] = m
    return CharElement(d.rank, terms)


def subword_lower_set(g: WeylGroup, tau) -> set[int]:
    """Indices of all subword products of tau's fixed canonical reduced word."""
    word = tau.word
    reachable = set()
    for mask in range(1 << len(word)):
        idx = g.identity
        for pos, letter in enumerate(word):
            if (mask >> pos) & 1:
                idx = g.right_mult[idx][letter - 1]
        reachable.add(idx)
    return reachable


def w_apply(w: WeylElement, v: CharElement) -> CharElement:
    """Push a character through a Weyl-group element: e^mu -> e^{w(mu)}."""
    out: dict[Weight, int] = {}
    for mu, c in v.terms.items():
        key = w.apply(mu)
        out[key] = out.get(key, 0) + c
    return CharElement(v.rank, out)


def inversions(g: WeylGroup, w: WeylElement) -> int:
    """Number of positive roots sent to negative roots by w."""
    positives = set(g.datum.positive_roots)
    return sum(1 for beta in positives if tuple(-c for c in w.apply(beta)) in positives)


def alternative_reduced_words(g: WeylGroup, w: WeylElement, limit: int | None = None) -> list[tuple[int, ...]]:
    """Distinct reduced words for w (up to ``limit``), by DFS over right descents."""
    out: list[tuple[int, ...]] = []

    def rec(idx: int, tail: list[int]) -> None:
        if limit is not None and len(out) >= limit:
            return
        if g.elements[idx].length == 0:
            out.append(tuple(reversed(tail)))
            return
        for i in range(1, g.datum.rank + 1):
            j = g.right_mult[idx][i - 1]
            if g.elements[j].length < g.elements[idx].length:
                tail.append(i)
                rec(j, tail)
                tail.pop()

    rec(w.index, [])
    return out


def psi_character(w: WeylElement, chi_prime: Weight) -> Weight:
    """Serre-duality twist weight: rho + w(rho) - w(chi'), with rho all ones."""
    rho = (1,) * len(chi_prime)
    return weight_sub(weight_add(rho, w.apply(rho)), w.apply(chi_prime))


def theorem_sides(g: WeylGroup, tau, lam: Weight) -> tuple[CharElement, CharElement]:
    """Both sides of the main identity, evaluated term by term.

    The left side is one operator string per w in the subword lower set of
    tau, starred and summed; the right side is e^rho times the section
    character of lam - rho.  No table and no Bruhat row is shared.
    """
    lhs = CharElement.zero(g.datum.rank)
    for k in sorted(subword_lower_set(g, tau)):
        lhs = lhs + top_cohomology_char(g, g.elements[k], lam).star()
    rho = g.datum.rho
    return lhs, CharElement.monomial(rho) * demazure_char(g, tau, weight_sub(lam, rho))


def interval_sum(g: WeylGroup, tau, lam: Weight) -> CharElement:
    """The left side of the main identity, one addition per w in lower_interval(g, tau).

    Each term is the signed top-cohomology character of -lam on w, starred
    and evaluated from its own operator string; no partial sum is reused.
    """
    total = CharElement.zero(g.datum.rank)
    for w in lower_interval(g, tau):
        total = total + top_cohomology_char(g, w, lam).star()
    return total


def rational_inverse(d: RootDatum) -> tuple[list[list[Fraction]], Fraction]:
    """C^-1 and det(C) by Gauss-Jordan over the rationals, with row pivoting."""
    n = d.rank
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(d.cartan)]
    det = Fraction(1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work], det


def simple_root_solve(d: RootDatum, lam: Weight) -> list[Fraction]:
    """Coordinates of lam in the simple-root basis, as exact rationals."""
    inv, _ = rational_inverse(d)
    return [sum(a * x for a, x in zip(row, lam)) for row in inv]


@functools.cache
def integer_adjugate(d: RootDatum) -> tuple[tuple[tuple[int, ...], ...], int]:
    """det(C) * C^-1 as an integer matrix, plus det(C) (> 0 for Cartan matrices)."""
    inv, det = rational_inverse(d)
    scaled = [[x * det for x in row] for row in inv]
    assert det.denominator == 1 and all(x.denominator == 1 for row in scaled for x in row)
    return tuple(tuple(int(x) for x in row) for row in scaled), int(det)


def height(d: RootDatum, mu: Weight) -> int:
    """det(C) times the sum of mu's simple-root coordinates.

    Strictly larger on mu than on any weight strictly below mu in dominance,
    since their difference is a nonzero sum of simple roots.
    """
    adj, _ = integer_adjugate(d)
    return sum(a * x for row in adj for a, x in zip(row, mu))


def dominance_leq(d: RootDatum, mu: Weight, lam: Weight) -> bool:
    """True iff mu <= lam, that is lam - mu is a sum of simple roots with nonnegative integer coefficients."""
    adj, det = integer_adjugate(d)
    delta = weight_sub(lam, mu)
    return all((c := sum(a * x for a, x in zip(row, delta))) >= 0 and c % det == 0 for row in adj)


def is_dominance_minimum(d: RootDatum, v: CharElement, nu: Weight) -> bool:
    """True iff nu is <= every support weight of v, checked pair by pair."""
    return all(dominance_leq(d, nu, mu) for mu in v.terms)


def extreme_weight(d: RootDatum, v: CharElement, direction: str) -> Weight | None:
    """The dominance-least (or -greatest) weight of the support, if one exists.

    Only the weight of least signed height can be extreme, so it alone is
    compared with the rest of the support.  Returns None when the support has
    no such element; raises ValueError on the zero element.
    """
    if v.is_zero():
        raise ValueError("the zero element has no extreme weight")
    if direction not in ("lowest", "highest"):
        raise ValueError(f"direction must be 'lowest' or 'highest', got {direction!r}")
    sign = 1 if direction == "lowest" else -1
    heights = {mu: sign * height(d, mu) for mu in v.terms}
    best = min(heights, key=heights.get)
    if sum(1 for h in heights.values() if h == heights[best]) > 1:
        return None
    pairs = ((best, mu) if sign > 0 else (mu, best) for mu in v.terms)
    return best if all(dominance_leq(d, lo, hi) for lo, hi in pairs) else None


def random_weight(rng: random.Random, rank: int, lo: int = -4, hi: int = 4) -> Weight:
    return tuple(rng.randint(lo, hi) for _ in range(rank))


def random_char(
    rng: random.Random,
    rank: int,
    max_terms: int = 5,
    lo: int = -4,
    hi: int = 4,
    coeff_bound: int = 9,
) -> CharElement:
    terms: dict[Weight, int] = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_weight(rng, rank, lo, hi)] = rng.randint(-coeff_bound, coeff_bound)
    return CharElement(rank, terms)


def peel_decompose(g: WeylGroup, v: CharElement, with_stats: bool = False):
    """Reference for ``kernel.decompose``: triangular extraction by height.

    Each round takes the support weights of greatest height in the running
    remainder.  No support weight lies above them, since it would be higher,
    so they are dominant by W-invariance; the other weights of a section
    character lie below its highest weight, so the round records their
    coefficients and subtracts the matching section characters.  With
    ``with_stats``, also returns the number of rounds.
    """
    check_char_rank(g.datum, v)
    if not in_kernel(g, v):
        raise ValueError("element is not in the joint Demazure kernel")
    d = g.datum
    u = v.shift(d.rho)
    for i in range(1, d.rank + 1):
        s_i = g.elements[g.left_mult[g.identity][i - 1]]
        if w_apply(s_i, u) != u:
            raise RuntimeError(
                f"e^rho * v is not invariant under simple reflection {i}; "
                "kernel membership and invariance disagree"
            )
    coefficients: dict[Weight, int] = {}
    w0 = g.longest_element
    max_rounds = max(1, len(u.terms))
    rounds = 0
    processed: set[Weight] = set()
    while not u.is_zero():
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("decomposition failed to terminate; internal inconsistency")
        heights = {mu: height(d, mu) for mu in u.terms}
        top = max(heights.values())
        for mu in sorted(mu for mu, h in heights.items() if h == top):
            if mu in processed:
                raise RuntimeError(f"weight {list(mu)} re-entered the support; internal inconsistency")
            if any(c < 0 for c in mu):
                raise RuntimeError(f"dominance-maximal weight {list(mu)} is not dominant")
            processed.add(mu)
            c = u.terms[mu]
            coefficients[mu] = c
            u = u - c * demazure_char(g, w0, mu)
    if with_stats:
        return coefficients, rounds
    return coefficients


def tuple_step_terms(alpha: Weight, pos: int, terms: dict[Weight, int]) -> dict[Weight, int]:
    """Reference for ``Packing.step``: the Demazure step with tuple weights."""
    out: dict[Weight, int] = {}
    get = out.get
    for mu, c in terms.items():
        t = mu[pos]
        if t >= 0:
            w = mu
            out[w] = get(w, 0) + c
            for _ in range(t):
                w = tuple(x - a for x, a in zip(w, alpha))
                out[w] = get(w, 0) + c
        elif t <= -2:
            w = mu
            for _ in range(-t - 1):
                w = tuple(x + a for x, a in zip(w, alpha))
                out[w] = get(w, 0) - c
    return {mu: c for mu, c in out.items() if c}


def tuple_word(d: RootDatum, word, v: CharElement) -> CharElement:
    """Reference for ``demazure_word``: ``tuple_step_terms`` along word, last letter first."""
    terms = v.terms
    for i in reversed(tuple(word)):
        terms = tuple_step_terms(d.simple_roots[i - 1], i - 1, terms)
    return CharElement(v.rank, terms)
