"""Weyl-group generation, canonical reduced words and the Bruhat order.

The group is enumerated as the orbit of the regular weight rho: element w is
keyed by w(rho), packed into one int (``rootsys.Packing``), so s_i*w has the
key k - t*a_i, with t = <w(rho), alpha_i^vee> read by one shift and mask.
The smallest i with t < 0 is w's smallest left descent, the first letter of
its canonical (lexicographically smallest) reduced word (Bjorner-Brenti,
GTM 231, section 2.2), so W is the tree of peeling that letter off.  It is
kept as compact tables, in the manner of Casselman (Invent. Math. 116,
1994) and Stembridge (MSJ Memoirs 11, 2001): a flat ``array('i')``
left-multiplication table and byte arrays of lengths and first letters,
down which an element's word is read.  An element of a generated group is
its index and nothing else.  |W| is Macdonald's product ``orbit_size(d,
d.rho)``, known before any element is generated.  The Bruhat table is built
on first read.

No group is needed to name one element: ``act(d, word, d.rho)`` is w(rho),
``canonical_word`` reads w's canonical word back from that key, and
``bruhat_leq`` compares two words by the lifting property on their keys.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .rootsys import RootDatum, Weight, check_weight_rank, orbit_size, packing_for, simple_reflection

# The most elements that ``generate`` lists, and the most nonzero terms |W * (lam - rho)| of the sum
# over W that ``kernel.kernel_basis_element`` computes, unless told otherwise.
MAX_ELEMENTS = 1_000_000

# The Bruhat table holds about |W|^2 / 8 bytes.  This bound admits A6 (5,040
# elements, 3.2 MB) and B5 (3,840), and refuses D6 (23,040, 66 MB), E6 and
# every larger group before a single element is generated.
MAX_BRUHAT_TABLE_BYTES = 1 << 24

def check_bruhat_table(d: RootDatum) -> None:
    """Raise ValueError, before anything is built, if d's Bruhat table exceeds ``MAX_BRUHAT_TABLE_BYTES``.

    |W| is ``orbit_size(d, d.rho)``, so no element is generated to count it.
    """
    order = orbit_size(d, d.rho)
    size = order * order // 8
    if size > MAX_BRUHAT_TABLE_BYTES:
        raise ValueError(
            f"the Bruhat table of {d.family}{d.rank} ({order} elements) would take about {size} bytes, "
            f"above the bound {MAX_BRUHAT_TABLE_BYTES}; weyl, verify-theorem and verify-lemma31 need it, "
            "and bruhat compares two elements without it"
        )


def _smallest_descent(key: Weight) -> int:
    """The smallest i with <key, alpha_i^vee> < 0, 1-based; 0 if key is dominant."""
    return next((i for i, c in enumerate(key, 1) if c < 0), 0)


def canonical_word(d: RootDatum, key: Weight) -> tuple[int, ...]:
    """The canonical reduced word of the w with w(rho) = key, read without generating W.

    The first letter is w's smallest left descent, the smallest i with
    <w(rho), alpha_i^vee> = key_i < 0 (Bjorner-Brenti, GTM 231, sections 1.4
    and 2.2); the rest is the word of s_i*w, whose key is s_i(key).
    """
    letters, x = [], key
    while i := _smallest_descent(x):
        letters.append(i)
        x = simple_reflection(d, i, x)
    if x != d.rho:
        raise ValueError(f"weight {list(key)} is not in the W-orbit of rho")
    return tuple(letters)


def act(d: RootDatum, letters: Iterable[int], lam: Weight) -> Weight:
    """w(lam) for the product w of simple reflections along a (not necessarily reduced) word.

    The reflections act from the word's right end, and a letter outside
    1..rank is refused with a ValueError; so
    ``canonical_word(d, act(d, letters, d.rho))`` names w without generating W.
    """
    check_weight_rank(d, lam)
    for i in reversed(tuple(letters)):
        if not 1 <= i <= d.rank:
            raise ValueError(f"word letter {i} out of range 1..{d.rank}")
        lam = simple_reflection(d, i, lam)
    return tuple(lam)


@dataclass(frozen=True, eq=False)
class WeylGroup:
    """A fully generated Weyl group as compact tables over the indices 0..|W|-1.

    Indices are sorted by (length, canonical word): ``identity`` is 0 and
    ``longest`` is |W| - 1.  With r the rank and i a 0-based letter:

    - ``left_mult[k*r + i]`` is the index of s_(i+1)*w_k, a flat ``array('i')``;
    - ``length[k]`` is l(w_k) and ``first[k]`` the first (1-based) letter of
      its canonical word, 0 for the identity, both bytes.

    The canonical word of w_k is ``first[k]`` followed by the word of
    s_first*w_k, so it is read down ``left_mult``.  An element is its index:
    every function that takes a group takes indices, and loops over the
    group read the arrays.  Immutable after generation apart from the
    cached Bruhat table and its table of largest lower covers.
    """

    datum: RootDatum
    left_mult: array
    length: bytes
    first: bytes

    @property
    def order(self) -> int:
        return len(self.length)

    @property
    def identity(self) -> int:
        return 0

    @property
    def longest(self) -> int:
        return self.order - 1

    def word(self, k: int) -> tuple[int, ...]:
        """The canonical reduced word of element k, read down its first letters."""
        check_element(self, k)
        first, left_mult, rank = self.first, self.left_mult, self.datum.rank
        letters = []
        while k:
            i = first[k]
            letters.append(i)
            k = left_mult[k * rank + i - 1]
        return tuple(letters)

    @cached_property
    def bruhat_rows(self) -> tuple[int, ...]:
        """``bruhat_rows[t]`` is a bitmask over the indices k with w_k <= w_t.

        The rows are built on first read, one OR per Bruhat pair, and then
        cached on the group, so a pickled group carries them once they exist.
        Two threads that read first may both compute them (Python 3.12 dropped
        the lock of ``cached_property``); both compute the same tuple from
        immutable tables, so the group stays safe to share across threads.
        A group whose table exceeds ``MAX_BRUHAT_TABLE_BYTES`` raises ValueError.
        """
        return _bruhat_table(self)

    @cached_property
    def largest_covers(self) -> tuple[tuple[int | None, tuple[int, ...]], ...]:
        """``largest_covers[t]`` is (c, increment): the lower cover c of w_t with the
        largest interval, and the indices of ``bruhat_rows[t] & ~bruhat_rows[c]``, ascending.

        Ties go to the smallest index.  The identity has no cover: its entry is
        (None, (identity,)).  Built on first read from the Bruhat table and
        cached like it.
        """
        return _largest_covers(self)


def check_element(g: WeylGroup, k: int) -> None:
    """Raise ValueError unless k is an element index of g; a negative index does not count from the end."""
    if not 0 <= k < g.order:
        raise ValueError(f"element index {k} is out of range 0..{g.order - 1}")


def generate(d: RootDatum, max_order: int = MAX_ELEMENTS) -> WeylGroup:
    """Generate the full Weyl group of a root datum as the orbit of rho.

    Letters ascending and, for each, the elements of one length in index
    order: the key of s_i*w is looked up only where t > 0, that is where
    s_i*w is one letter longer, and the same lookup fills in s_i*(s_i*w) = w.
    An element whose smallest left descent is j < i was found at letter j,
    so each is found first from its peeling parent, and indices come out in
    (length, first letter, parent index) order, which is (length, canonical
    word) order.  The search holds the keys of two lengths at a time and the
    tables are allocated at their final size up front: E7 takes about
    126 MB.  |W| is ``orbit_size(d, d.rho)``, so a group of more than
    ``max_order`` elements is refused with a ValueError before any is generated.
    """
    order = orbit_size(d, d.rho)
    if order > max_order:
        raise ValueError(
            f"Weyl group of {d.family}{d.rank} has {order} elements, which exceeds the bound "
            f"{max_order}; raise max_order"
        )
    rank = d.rank
    packing = packing_for(d, [d.rho])
    mask, bias = packing.mask, packing.bias
    left_mult = array("i", [0]) * (order * rank)
    length, first = bytearray(order), bytearray(order)
    level, start, n = [packing.pack(d.rho)], 0, 1
    while level:  # the keys of one length, in index order
        index_of: dict[int, int] = {}
        for i, (a, shift) in enumerate(zip(packing.roots, packing.shifts)):
            for p, key in enumerate(level, start):
                t = ((key >> shift) & mask) - bias
                if t > 0:
                    k = index_of.setdefault(key - t * a, n)
                    if k == n:
                        if n == order:
                            raise RuntimeError(f"generated more than the {order} elements of {d.family}{d.rank}")
                        length[n], first[n] = length[p] + 1, i + 1
                        n += 1
                    left_mult[p * rank + i] = k
                    left_mult[k * rank + i] = p
        start += len(level)
        level = list(index_of)  # a dict keeps insertion order, which is index order
    if n != order:
        raise RuntimeError(f"generated {n} elements, but the Weyl group of {d.family}{d.rank} has {order}")
    if n >= 2 and length[-2] == length[-1]:
        raise RuntimeError("no unique longest element; generation is inconsistent")
    return WeylGroup(datum=d, left_mult=left_mult, length=bytes(length), first=bytes(first))


def peel(g: WeylGroup, seed, advance):
    """Yield (tau, value) for every index tau of W, in index order.

    With i the 0-based first letter of tau's canonical word and sigma = s_i*tau,
    one letter shorter, [e, tau] = [e, sigma] u s_i[e, sigma] (lifting property,
    Bjorner-Brenti, GTM 231, Prop. 2.2.7).  The value at e is ``seed`` and any
    other is ``advance(tau, i, sigma, below)``, where ``below`` maps every
    index of length l(tau) - 1 to its value, so sigma's value is
    ``below[sigma]``.  ``below`` is one dict per length: every tau of a
    length gets the same dict, already complete and not changed while that
    length is walked, so a caller may index it once, at the first tau of a
    length.  Index order is length order; a value is kept only while the
    walk is at its length or the next.
    """
    lengths, first, left_mult, rank = g.length, g.first, g.left_mult, g.datum.rank
    shorter, current, length = {}, {}, 0
    for tau in range(g.order):
        if lengths[tau] > length:
            shorter, current, length = current, {}, lengths[tau]
        if length:
            i = first[tau] - 1
            current[tau] = advance(tau, i, left_mult[tau * rank + i], shorter)
        else:
            current[tau], seed = seed, None  # the window alone holds it
        yield tau, current[tau]


def _bruhat_table(g: WeylGroup) -> tuple[int, ...]:
    check_bruhat_table(g.datum)
    rank = g.datum.rank
    columns = [tuple(g.left_mult[s::rank]) for s in range(rank)]  # columns[s][w] is s*w

    def advance(tau, s, sigma, below):  # the row of tau is base | s*base, one OR per Bruhat pair
        mask = base = below[sigma]
        column = columns[s]
        for w in bit_indices(base):
            mask |= 1 << column[w]
        return mask

    return tuple(row for _, row in peel(g, 1, advance))


def lower_covers(g: WeylGroup) -> list[list[int]]:
    """``lower_covers(g)[t]``: the indices c with w_c < w_t and l(c) = l(t) - 1, ascending.

    Elements are sorted by length, so the elements of one length fill a
    contiguous index range, and the covers of t are the bits of its Bruhat
    row in the range one length down: one shift and mask per element.
    """
    rows, length = g.bruhat_rows, g.length
    start = [0] * (length[g.longest] + 2)  # start[l] is the first index of length l
    for k, l in enumerate(length):
        start[l + 1] = k + 1
    covers = []
    for t, l in enumerate(length):
        if not l:
            covers.append([])
            continue
        lo, hi = start[l - 1], start[l]
        covers.append([lo + k for k in bit_indices((rows[t] >> lo) & ((1 << (hi - lo)) - 1))])
    return covers


def _largest_covers(g: WeylGroup) -> tuple[tuple[int | None, tuple[int, ...]], ...]:
    rows = g.bruhat_rows
    size = [row.bit_count() for row in rows]
    table = []
    for tau, covers in enumerate(lower_covers(g)):
        if not covers:
            table.append((None, (tau,)))
            continue
        c = max(covers, key=size.__getitem__)  # the first maximum: the smallest index on ties
        table.append((c, tuple(bit_indices(rows[tau] & ~rows[c]))))
    return tuple(table)


def bruhat_leq(d: RootDatum, w: Iterable[int], tau: Iterable[int]) -> bool:
    """True iff w <= tau in the Bruhat order, for elements named by (not necessarily reduced) words.

    Lifting property (Bjorner-Brenti, GTM 231, Prop. 2.2.7), read on the keys
    x = w(rho) and y = tau(rho), where s_i*x < x iff <x, alpha_i^vee> < 0:
    for the smallest left descent s of tau, s*tau < tau, and w <= tau iff
    min(w, s*w) <= s*tau.  The walk takes l(tau) steps and ends at tau = e;
    no group is generated and no table is read.
    """
    x, y = act(d, w, d.rho), act(d, tau, d.rho)
    while i := _smallest_descent(y):
        if x[i - 1] < 0:
            x = simple_reflection(d, i, x)
        y = simple_reflection(d, i, y)
    return x == d.rho


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of a Bruhat row (or any mask), ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
