"""Demazure operators and the characters they compute.

The operator for a simple root acts on a monomial e^mu through the exact
weight-string expansion, with t = <mu, alpha^vee>:

    t >= 0 :   e^mu + e^{mu-alpha} + ... + e^{mu-t*alpha}
    t = -1 :   0
    t <= -2:  -(e^{mu+alpha} + ... + e^{mu+(-t-1)*alpha})

This is the linear extension of the divided-difference closed form, kept
division-free so every computation stays in exact integers.  Composites are
evaluated along reduced words with the last letter acting first.

Inside a computation each weight is one packed int (``rootsys.Packing``),
so a weight string is an integer range whose step is the packed simple
root.  ``packing_for`` chooses the radix once per word or per walk over the
group (``weyl.peel``) before the first step; no step tests a coordinate.
Tuples stay at every public boundary: CharElement and JSON.
"""

from __future__ import annotations

from .charring import CharElement
from .rootsys import RootDatum, Weight, check_regular_dominant, check_weight_rank, is_dominant, packing_for
from .weyl import WeylGroup


def check_char_rank(d: RootDatum, v: CharElement) -> None:
    """Raise ValueError unless v is a character of d's rank."""
    if v.rank != d.rank:
        raise ValueError(f"character of rank {v.rank} given; {d.family}{d.rank} needs rank {d.rank}")


def demazure_step(d: RootDatum, i: int, v: CharElement) -> CharElement:
    """Apply the Demazure operator of the i-th simple root (1-based)."""
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


def demazure_char(g: WeylGroup, tau: int, lam: Weight) -> CharElement:
    """Character of the sections of the lam-line bundle over the tau cell closure.

    Defined for dominant lam only: the operator string along the canonical
    reduced word of element tau applied to e^lam.
    """
    check_weight_rank(g.datum, lam)
    if not is_dominant(g.datum, lam):
        raise ValueError(f"weight {list(lam)} is not dominant")
    return demazure_word(g.datum, g.word(tau), CharElement.monomial(lam))


def euler_char(g: WeylGroup, w: int, mu: Weight) -> CharElement:
    """Alternating sum of cohomology characters over the cell closure of element w, for any weight mu."""
    check_weight_rank(g.datum, mu)
    return demazure_word(g.datum, g.word(w), CharElement.monomial(mu))


def top_cohomology_char(g: WeylGroup, w: int, lam: Weight) -> CharElement:
    """Character of the top (degree l(w)) cohomology of the (-lam)-bundle.

    Requires lam regular dominant, which concentrates cohomology in degree
    l(w); the character is then the Euler characteristic up to sign.
    """
    check_regular_dominant(g.datum, lam)
    v = euler_char(g, w, tuple(-c for c in lam))
    return -v if g.length[w] % 2 else v
