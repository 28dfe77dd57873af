"""Demazure operators and the characters they compute.

The operator for a simple root acts on a monomial e^mu through the exact
weight-string expansion, with t = <mu, alpha^vee>:

    t >= 0 :   e^mu + e^{mu-alpha} + ... + e^{mu-t*alpha}
    t = -1 :   0
    t <= -2:  -(e^{mu+alpha} + ... + e^{mu+(-t-1)*alpha})

This is the linear extension of the divided-difference closed form, kept
division-free so every computation stays in exact integers.  Composites are
evaluated along reduced words with the last letter acting first.

The step need not expand every string: it fixes e^mu + e^{s_i mu}, so of a
pair c*e^mu + c'*e^{s_i mu} with t > 0 it writes only (c - c') times
e^{mu-alpha} + ... + e^{s_i mu}, and a term with t < 0 expands only when its
partner s_i mu is absent.  Inside a computation each weight is one packed int
(``rootsys.Packing``), so a weight string is an integer range whose step is
the packed simple root.  ``packing_for`` chooses the radix once per word or
per walk over W before the first step; no step tests a coordinate.
Tuples stay at every public boundary: CharElement and JSON.

An element of W is named by a word, and the characters act along its
canonical reduced word (``weyl.act`` on rho, ``weyl.canonical_word``),
read from the root datum alone.  Each step is bounded where it runs: above
``rootsys.MAX_GUARD_TERMS`` weight-string terms, counted by the expansion
above whether or not partners cancel, ``Packing.step`` refuses it before it
expands anything.
"""

from __future__ import annotations

from .charring import CharElement
from .rootsys import RootDatum, Weight, check_regular_dominant, check_weight_rank, is_dominant, packing_for, weight_neg
from .weyl import act, canonical_word


def check_char_rank(d: RootDatum, v: CharElement) -> None:
    """Raise ValueError unless v is a character of d's rank."""
    if v.rank != d.rank:
        raise ValueError(f"character of rank {v.rank} given; {d.family}{d.rank} needs rank {d.rank}")


def demazure_word(d: RootDatum, word, v: CharElement) -> CharElement:
    """Compose Demazure steps along a word; the last letter acts first.  A one-letter word is one step."""
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


def demazure_char(d: RootDatum, word, lam: Weight) -> CharElement:
    """Character of the sections of the lam-line bundle over the closure of the cell of tau.

    Defined for dominant lam only, where it is the Euler characteristic: the
    operator string along the canonical reduced word of tau, the product
    along ``word``, applied to e^lam.
    """
    if not is_dominant(d, lam):
        raise ValueError(f"weight {list(lam)} is not dominant")
    return euler_char(d, word, lam)


def euler_char(d: RootDatum, word, mu: Weight) -> CharElement:
    """Alternating sum of cohomology characters over the cell closure of w, the product along ``word``, for any mu."""
    check_weight_rank(d, mu)
    return demazure_word(d, canonical_word(d, act(d, word, d.rho)), CharElement.monomial(mu))


def top_cohomology_char(d: RootDatum, word, lam: Weight) -> CharElement:
    """Character of the top (degree l(w)) cohomology of the (-lam)-bundle, w the product along ``word``.

    Requires lam regular dominant, which concentrates cohomology in degree
    l(w); the character is then the Euler characteristic up to sign.
    """
    check_regular_dominant(d, lam)
    word = canonical_word(d, act(d, word, d.rho))
    v = demazure_word(d, word, CharElement.monomial(weight_neg(lam)))
    return -v if len(word) % 2 else v
