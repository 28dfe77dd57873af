"""Demazure operators and the characters they compute.

The operator for a simple root acts on a monomial e^mu through the exact
weight-string expansion, with t = <mu, alpha^vee>:

    t >= 0 :   e^mu + e^{mu-alpha} + ... + e^{mu-t*alpha}
    t = -1 :   0
    t <= -2:  -(e^{mu+alpha} + ... + e^{mu+(-t-1)*alpha})

This is the linear extension of the divided-difference closed form, kept
division-free so every computation stays in exact integers.  Composites are
evaluated along reduced words with the last letter acting first.

Inside a computation each weight is one packed int: with b bits per
coordinate and bias B = 2^(b-1), x packs to k = sum_i (x_i + B) * 2^(b*i).
Adding a weight adds its unbiased offset sum_i x_i * 2^(b*i), the pairing t
is ((k >> b*pos) & (2^b - 1)) - B, and a weight string is an integer range
whose step is the offset a of alpha: range(k, k - (t+1)*a, -a) for t >= 0
and range(k + a, k - t*a, a) for t <= -2.  Negating a weight and adding
delta is one subtraction, (2*pack(0) + offset(delta)) - k.  Tuples stay at
every public boundary: CharElement and JSON.

The radix is widened, never wrapped.  One step keeps D_i(e^nu) on the
segment from nu to s_i(nu), so every weight of D_w(e^nu) lies in the convex
hull of the orbit W*nu, and each of its coordinates is at most
max |<nu, beta^vee>| <= ht(theta^vee) * max_j |nu_j| in absolute value,
theta^vee the highest coroot.  ``packing_for`` chooses b from that bound,
plus any shift to be folded in, once per word or table before the first
step; no step tests a coordinate.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .charring import CharElement
from .rootsys import RootDatum, Weight, check_regular_dominant, check_weight_rank, is_dominant
from .weyl import WeylElement, WeylGroup


class Packing:
    """Weights of one rank with coordinates in [-2^(bits-1), 2^(bits-1)) as packed ints."""

    def __init__(self, d: RootDatum, bits: int):
        self.rank = d.rank
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.bias = 1 << (bits - 1)
        self.origin = sum(self.bias << (bits * i) for i in range(d.rank))
        self.roots = tuple(self.offset(alpha) for alpha in d.simple_roots)

    def offset(self, mu: Weight) -> int:
        """The unbiased image of mu: pack(nu) + offset(mu) == pack(nu + mu)."""
        return sum(x << (self.bits * i) for i, x in enumerate(mu))

    def pack(self, mu: Weight) -> int:
        return self.origin + self.offset(mu)

    def star_key(self, delta: Weight) -> int:
        """The key m with m - pack(mu) == pack(delta - mu) for every mu."""
        return 2 * self.origin + self.offset(delta)

    def pack_terms(self, terms: Mapping[Weight, int]) -> dict[int, int]:
        return {self.pack(mu): c for mu, c in terms.items()}

    def unpack_terms(self, terms: Mapping[int, int]) -> dict[Weight, int]:
        mask, bias = self.mask, self.bias
        # one coordinate at a time over all keys; zip builds the tuples
        columns = [[((k >> s) & mask) - bias for k in terms] for s in range(0, self.bits * self.rank, self.bits)]
        return dict(zip(zip(*columns), terms.values()))

    def step(self, pos: int, terms: dict[int, int]) -> dict[int, int]:
        """The operator of simple root pos + 1 (0-based pos) on packed terms."""
        shift, mask, bias, a = self.bits * pos, self.mask, self.bias, self.roots[pos]
        out: dict[int, int] = {}
        get = out.get
        for k, c in terms.items():
            t = ((k >> shift) & mask) - bias
            if t >= 0:
                for w in range(k, k - (t + 1) * a, -a):
                    out[w] = get(w, 0) + c
            elif t <= -2:
                for w in range(k + a, k - t * a, a):
                    out[w] = get(w, 0) - c
        return {k: c for k, c in out.items() if c} if 0 in out.values() else out


def packing_for(d: RootDatum, weights: Iterable[Weight], shift: Weight = ()) -> Packing:
    """A packing wide enough for every weight of D_w(e^nu) + shift, nu in weights, w in W.

    It also holds each simple root, so that distinct roots have distinct
    nonzero offsets even when every weight is 0.
    """
    highest_coroot = max(sum(c) for c in d.positive_coroots)
    hull = highest_coroot * max((abs(x) for mu in weights for x in mu), default=0)
    roots = max(abs(x) for alpha in d.simple_roots for x in alpha)
    return Packing(d, max(hull + max(map(abs, shift), default=0), roots).bit_length() + 1)


def check_char_rank(d: RootDatum, v: CharElement) -> None:
    """Raise ValueError unless v is a character of d's rank."""
    if v.rank != d.rank:
        raise ValueError(f"character of rank {v.rank} given; {d.family}{d.rank} needs rank {d.rank}")


def demazure_step(d: RootDatum, i: int, v: CharElement) -> CharElement:
    """Apply the Demazure operator of the i-th simple root (1-based)."""
    check_char_rank(d, v)
    if not 1 <= i <= d.rank:
        raise ValueError(f"simple-root index {i} out of range 1..{d.rank}")
    return demazure_word(d, (i,), v)


def demazure_word(d: RootDatum, word, v: CharElement) -> CharElement:
    """Compose Demazure steps along a word; the last letter acts first."""
    check_char_rank(d, v)
    letters = tuple(reversed(tuple(word)))
    for i in letters:
        if not 1 <= i <= d.rank:
            raise ValueError(f"word letter {i} out of range 1..{d.rank}")
    packing = packing_for(d, v.terms)
    terms = packing.pack_terms(v.terms)
    for i in letters:
        terms = packing.step(i - 1, terms)
    return CharElement.adopt(v.rank, packing.unpack_terms(terms))


def demazure_char(g: WeylGroup, tau: WeylElement, lam: Weight) -> CharElement:
    """Character of the sections of the lam-line bundle over the tau cell closure.

    Defined for dominant lam only: the operator string along tau's canonical
    reduced word applied to e^lam.
    """
    check_weight_rank(g.datum, lam)
    if not is_dominant(g.datum, lam):
        raise ValueError(f"weight {list(lam)} is not dominant")
    return demazure_word(g.datum, tau.word, CharElement.monomial(lam))


def euler_char(g: WeylGroup, w: WeylElement, mu: Weight) -> CharElement:
    """Alternating sum of cohomology characters for any weight mu."""
    check_weight_rank(g.datum, mu)
    return demazure_word(g.datum, w.word, CharElement.monomial(mu))


def top_cohomology_char(g: WeylGroup, w: WeylElement, lam: Weight) -> CharElement:
    """Character of the top (degree l(w)) cohomology of the (-lam)-bundle.

    Requires lam regular dominant, which concentrates cohomology in degree
    l(w); the character is then the Euler characteristic up to sign.
    """
    check_regular_dominant(g.datum, lam)
    v = euler_char(g, w, tuple(-c for c in lam))
    return -v if w.length % 2 else v


def _image_table(
    g: WeylGroup, packing: Packing, terms: dict[int, int], within: Iterable[WeylElement] | None
) -> list[dict[int, int] | None]:
    """Packed D_w(terms) for every group element, indexed like ``g.elements``.

    Peels the smallest left descent of each element, which is exactly the
    first letter of its canonical word, so each value is one operator step
    away from an already-computed one.  ``within``, if given, is a set of
    elements closed under that peeling, such as a union of lower intervals;
    only its entries are computed and the others are None.  ``packing`` must
    be wide enough for the images of ``terms`` (``packing_for``).
    """
    images: list[dict[int, int] | None] = [None] * g.order
    images[g.identity] = terms
    step = packing.step
    elements = g.elements if within is None else sorted(within, key=lambda e: e.index)
    for e in elements:
        if e.length == 0:
            continue
        i = e.word[0]
        base = images[g.left_mult[e.index][i - 1]]
        if base is None:
            raise ValueError(f"element {list(e.word)} is in the set but not its left-descent parent")
        images[e.index] = step(i - 1, base)
    return images
