"""Weyl-group generation, canonical reduced words and the Bruhat order.

The group is enumerated as the orbit of the regular weight rho: element w is
keyed by w^-1(rho), so w*s_i has the key s_i(w^-1(rho)), and each step of
the search is one simple reflection of a vector.  Elements are plain indices
with one canonical reduced word each (the lexicographically smallest), and
they act on weights along that word.  Generation is one breadth-first
search; the Bruhat table is built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

from .rootsys import RootDatum, Weight, simple_reflection

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


@dataclass(frozen=True)
class WeylElement:
    """One group element: its index, length and canonical reduced word.

    Words use 1-based simple-root letters.  Equality and hashing use
    (index, length, word); ``simple_roots`` is the datum's shared tuple,
    kept only so that ``apply`` needs no group.
    """

    index: int
    length: int
    word: tuple[int, ...]
    simple_roots: tuple[Weight, ...] = field(compare=False, repr=False)

    def apply(self, lam: Weight) -> Weight:
        """w(lam): the simple reflections of the word, last letter first."""
        for i in reversed(self.word):
            t = lam[i - 1]
            lam = tuple(x - t * a for x, a in zip(lam, self.simple_roots[i - 1]))
        return tuple(lam)

    def __repr__(self) -> str:
        return f"WeylElement(index={self.index}, length={self.length}, word={list(self.word)})"


@dataclass(frozen=True, eq=False)
class WeylGroup:
    """A fully generated Weyl group with its multiplication tables.

    ``elements`` is sorted by (length, canonical word).  Immutable after
    generation apart from the cached Bruhat table.
    """

    datum: RootDatum
    elements: tuple[WeylElement, ...]
    identity: int
    longest: int
    right_mult: tuple[tuple[int, ...], ...]
    left_mult: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_element(self) -> WeylElement:
        return self.elements[self.identity]

    @property
    def longest_element(self) -> WeylElement:
        return self.elements[self.longest]

    @cached_property
    def bruhat_rows(self) -> tuple[int, ...]:
        """``bruhat_rows[t]`` is a bitmask over the indices w with w <= elements[t].

        The rows are built on first read, one OR per Bruhat pair, and then
        cached on the group, so a pickled group carries them once they exist.
        Two threads that read first may both compute them (Python 3.12 dropped
        the lock of ``cached_property``); both compute the same tuple from
        immutable tables, so the group stays safe to share across threads.
        """
        return _bruhat_table(self.elements, self.left_mult)


def generate(d: RootDatum, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> WeylGroup:
    """Generate the full Weyl group of a root datum as the orbit of rho.

    A queue visits parents in index order and letters ascending, so BFS
    depth is the length and the first discovery gives the lexicographically
    smallest reduced word; output is deterministic.  Raises ValueError,
    before generating anything, if the group has more than ``max_order``
    elements.
    """
    order = classified_order(d)
    if order > max_order:
        raise ValueError(
            f"Weyl group of {d.family}{d.rank} has {order} elements, which exceeds the bound "
            f"{max_order}; raise max_order (--max-group-order on the command line)"
        )
    words: list[tuple[int, ...]] = [()]
    index_of: dict[Weight, int] = {d.rho: 0}
    keys: list[Weight] = [d.rho]
    right_mult: list[tuple[int, ...]] = []
    # keys grows while it is read, so this loop is the BFS queue
    for p, key in enumerate(keys):
        row = []
        for i in range(1, d.rank + 1):
            child = simple_reflection(d, i, key)
            k = index_of.get(child)
            if k is None:
                k = index_of[child] = len(keys)
                keys.append(child)
                words.append(words[p] + (i,))
            row.append(k)
        right_mult.append(tuple(row))

    n = len(keys)
    if n != order:
        raise RuntimeError(f"generated {n} elements, but the Weyl group of {d.family}{d.rank} has {order}")
    if n >= 2 and len(words[-2]) == len(words[-1]):
        raise RuntimeError("no unique longest element; generation is inconsistent")
    inv = []
    for word in words:
        k = 0
        for i in reversed(word):
            k = right_mult[k][i - 1]
        inv.append(k)
    # s_i * w = (w^-1 * s_i)^-1
    left_mult = tuple(tuple(inv[j] for j in right_mult[inv[k]]) for k in range(n))
    return WeylGroup(
        datum=d,
        elements=tuple(WeylElement(k, len(words[k]), words[k], d.simple_roots) for k in range(n)),
        identity=0,
        longest=n - 1,
        right_mult=tuple(right_mult),
        left_mult=left_mult,
    )


def _bruhat_table(elements: tuple[WeylElement, ...], left_mult) -> tuple[int, ...]:
    # Filled by index, so by length: with s the first letter of tau's
    # canonical word, sigma = s*tau < tau and [e, tau] = [e, sigma] | s[e, sigma]
    # (lifting property).
    rows = [1]
    for t in range(1, len(elements)):
        s = elements[t].word[0] - 1
        base = rows[left_mult[t][s]]
        mask = base
        for w in bit_indices(base):
            mask |= 1 << left_mult[w][s]
        rows.append(mask)
    return tuple(rows)


def bruhat_leq(g: WeylGroup, w: WeylElement, tau: WeylElement) -> bool:
    """True iff w <= tau in the Bruhat order, without the Bruhat table.

    Lifting property (Bjorner-Brenti, GTM 231, Prop. 2.2.7): for the first
    letter s of tau's canonical word, s*tau < tau, and w <= tau iff
    min(w, s*w) <= s*tau.  The rest of the word is s*tau's canonical word, so
    one pass over tau's letters takes l(tau) steps and ends at tau = e.
    """
    k = w.index
    for i in tau.word:
        sk = g.left_mult[k][i - 1]
        if g.elements[sk].length < g.elements[k].length:
            k = sk
    return k == g.identity


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


def element_by_word(g: WeylGroup, letters) -> WeylElement:
    """Product of simple reflections for a (not necessarily reduced) word."""
    idx = g.identity
    for i in letters:
        if not 1 <= i <= g.datum.rank:
            raise ValueError(f"word letter {i} out of range 1..{g.datum.rank}")
        idx = g.right_mult[idx][i - 1]
    return g.elements[idx]
