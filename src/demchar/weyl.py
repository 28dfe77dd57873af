"""Weyl-group generation, reduced words, the Bruhat order, and the dot action.

Elements are integer matrices acting on omega-coordinates, deduplicated and
hashed by matrix alone; each element carries one canonical reduced word (the
lexicographically smallest).  Groups are generated once by breadth-first
closure and are immutable afterwards, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .rootsys import RootDatum, Weight, reflection_matrix

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_MAX_GROUP_ORDER = 1_000_000

_EXCEPTIONAL_ORDER = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600, ("F", 4): 1152, ("G", 2): 12}


def classified_order(d: RootDatum) -> int:
    """|W| from the classification, known before any element is generated."""
    n = d.rank
    if d.family == "A":
        return factorial(n + 1)
    if d.family in ("B", "C"):
        return 2**n * factorial(n)
    if d.family == "D":
        return 2 ** (n - 1) * factorial(n)
    return _EXCEPTIONAL_ORDER[d.family, n]


@dataclass(frozen=True, eq=False)
class WeylElement:
    """One group element: matrix, length, and its canonical reduced word.

    Words use 1-based simple-root letters.  Equality and hashing use the
    matrix only; words are not unique.
    """

    index: int
    matrix: Matrix
    length: int
    word: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def apply(self, lam: Weight) -> Weight:
        return tuple(sum(row[j] * lam[j] for j in range(len(lam))) for row in self.matrix)

    def __repr__(self) -> str:
        return f"WeylElement(index={self.index}, length={self.length}, word={list(self.word)})"


@dataclass(frozen=True, eq=False)
class WeylGroup:
    """A fully generated Weyl group with precomputed order tables.

    ``elements`` is sorted by (length, canonical word); ``bruhat_rows[t]``
    is a bitmask over element indices w with w <= elements[t] in Bruhat
    order.  Immutable after generation.
    """

    datum: RootDatum
    elements: tuple[WeylElement, ...]
    identity: int
    longest: int
    right_mult: tuple[tuple[int, ...], ...]
    left_mult: tuple[tuple[int, ...], ...]
    bruhat_rows: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_element(self) -> WeylElement:
        return self.elements[self.identity]

    @property
    def longest_element(self) -> WeylElement:
        return self.elements[self.longest]


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    rng = range(n)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in rng) for j in rng) for i in rng)


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def generate(d: RootDatum, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> WeylGroup:
    """Generate the full Weyl group of a root datum by breadth-first closure.

    BFS depth gives the length; the first discovery (parents scanned in
    canonical-word order, generators ascending) gives the lexicographically
    smallest reduced word, so output is deterministic.  Raises ValueError,
    before generating anything, if the group has more than ``max_order``
    elements.
    """
    order = classified_order(d)
    if order > max_order:
        raise ValueError(
            f"Weyl group of {d.family}{d.rank} has {order} elements, which exceeds the bound "
            f"{max_order}; raise max_order (--max-group-order on the command line)"
        )
    rank = d.rank
    refl = [reflection_matrix(d, i) for i in range(1, rank + 1)]
    ident = _identity_matrix(rank)
    matrices: list[Matrix] = [ident]
    words: list[tuple[int, ...]] = [()]
    lengths: list[int] = [0]
    index_of: dict[Matrix, int] = {ident: 0}
    level = [0]
    while level:
        nxt: list[int] = []
        for p in level:
            for i in range(1, rank + 1):
                m = _matmul(matrices[p], refl[i - 1])
                if m not in index_of:
                    index_of[m] = len(matrices)
                    nxt.append(len(matrices))
                    matrices.append(m)
                    words.append(words[p] + (i,))
                    lengths.append(lengths[p] + 1)
        level = nxt

    n = len(matrices)
    if n != order:
        raise RuntimeError(f"generated {n} elements, but the Weyl group of {d.family}{d.rank} has {order}")
    elements = tuple(
        WeylElement(index=k, matrix=matrices[k], length=lengths[k], word=words[k]) for k in range(n)
    )
    right_mult = tuple(
        tuple(index_of[_matmul(matrices[k], refl[i])] for i in range(rank)) for k in range(n)
    )
    left_mult = tuple(
        tuple(index_of[_matmul(refl[i], matrices[k])] for i in range(rank)) for k in range(n)
    )
    if n >= 2 and lengths[-2] == lengths[-1]:
        raise RuntimeError("no unique longest element; generation is inconsistent")

    bruhat_rows = _bruhat_table(elements, left_mult)
    return WeylGroup(
        datum=d,
        elements=elements,
        identity=0,
        longest=n - 1,
        right_mult=right_mult,
        left_mult=left_mult,
        bruhat_rows=bruhat_rows,
    )


def _bruhat_table(elements: tuple[WeylElement, ...], left_mult) -> tuple[int, ...]:
    # Lifting property, filled bottom-up by length: pick s with s*tau < tau,
    # then w <= tau iff (sw <= s*tau if sw < w else w <= s*tau).  The first
    # letter of the canonical word is the smallest left descent.
    n = len(elements)
    rows = [0] * n
    rows[0] = 1
    for t in range(1, n):
        lt = elements[t].length
        s = elements[t].word[0] - 1
        base = rows[left_mult[t][s]]
        mask = 0
        for w in range(n):
            if elements[w].length > lt:
                break
            sw = left_mult[w][s]
            probe = sw if elements[sw].length < elements[w].length else w
            if (base >> probe) & 1:
                mask |= 1 << w
        rows[t] = mask
    return tuple(rows)


def apply(w: WeylElement, lam: Weight) -> Weight:
    """Linear action of w on a weight in omega-coordinates."""
    return w.apply(lam)


def dot_apply(w: WeylElement, lam: Weight) -> Weight:
    """Affine dot action w(lam + rho) - rho (rho is all-ones)."""
    shifted = tuple(c + 1 for c in lam)
    return tuple(c - 1 for c in w.apply(shifted))


def bruhat_leq(g: WeylGroup, w: WeylElement, tau: WeylElement) -> bool:
    """True iff w <= tau in the Bruhat order."""
    return bool((g.bruhat_rows[tau.index] >> w.index) & 1)


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of a Bruhat row (or any mask), ascending.

    ``lower_interval`` keeps its own scan of the row, so tests that compare
    the sweep with it do not share this code.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def lower_interval(g: WeylGroup, tau: WeylElement) -> list[WeylElement]:
    """All w <= tau, ordered by length then canonical word."""
    row = g.bruhat_rows[tau.index]
    return [g.elements[k] for k in range(g.order) if (row >> k) & 1]


def alternative_reduced_words(g: WeylGroup, w: WeylElement, limit: int | None = None) -> list[tuple[int, ...]]:
    """Distinct reduced words for w (up to ``limit``), by DFS over descents."""
    rank = g.datum.rank
    out: list[tuple[int, ...]] = []

    def rec(idx: int, tail: list[int]) -> None:
        if limit is not None and len(out) >= limit:
            return
        if g.elements[idx].length == 0:
            out.append(tuple(reversed(tail)))
            return
        for i in range(1, rank + 1):
            j = g.right_mult[idx][i - 1]
            if g.elements[j].length < g.elements[idx].length:
                tail.append(i)
                rec(j, tail)
                tail.pop()

    rec(w.index, [])
    return out


def element_by_word(g: WeylGroup, letters) -> WeylElement:
    """Product of simple reflections for a (not necessarily reduced) word."""
    idx = g.identity
    for i in letters:
        if not 1 <= i <= g.datum.rank:
            raise ValueError(f"word letter {i} out of range 1..{g.datum.rank}")
        idx = g.right_mult[idx][i - 1]
    return g.elements[idx]


def inversions(g: WeylGroup, w: WeylElement) -> int:
    """Number of positive roots sent to negative roots by w."""
    positives = set(g.datum.positive_roots)
    count = 0
    for beta in g.datum.positive_roots:
        image = w.apply(beta)
        if tuple(-c for c in image) in positives:
            count += 1
    return count
