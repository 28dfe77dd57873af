"""Demazure operators and the characters they compute.

The operator for a simple root acts on a monomial e^mu through the exact
weight-string expansion, with t = <mu, alpha^vee>:

    t >= 0 :   e^mu + e^{mu-alpha} + ... + e^{mu-t*alpha}
    t = -1 :   0
    t <= -2:  -(e^{mu+alpha} + ... + e^{mu+(-t-1)*alpha})

This is the linear extension of the divided-difference closed form, kept
division-free so every computation stays in exact integers.  Composites are
evaluated along reduced words with the last letter acting first.
"""

from __future__ import annotations

from typing import Iterable

from .charring import CharElement
from .rootsys import RootDatum, Weight, check_weight_rank, is_dominant, is_regular_dominant
from .weyl import WeylElement, WeylGroup


def _step_terms(alpha: Weight, pos: int, terms: dict[Weight, int]) -> dict[Weight, int]:
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


def check_char_rank(d: RootDatum, v: CharElement) -> None:
    """Raise ValueError unless v is a character of d's rank."""
    if v.rank != d.rank:
        raise ValueError(f"character of rank {v.rank} given; {d.family}{d.rank} needs rank {d.rank}")


def demazure_step(d: RootDatum, i: int, v: CharElement) -> CharElement:
    """Apply the Demazure operator of the i-th simple root (1-based)."""
    check_char_rank(d, v)
    if not 1 <= i <= d.rank:
        raise ValueError(f"simple-root index {i} out of range 1..{d.rank}")
    return CharElement.adopt(v.rank, _step_terms(d.simple_roots[i - 1], i - 1, v.terms))


def demazure_word(d: RootDatum, word, v: CharElement) -> CharElement:
    """Compose Demazure steps along a word; the last letter acts first."""
    check_char_rank(d, v)
    terms = v.terms
    for i in reversed(tuple(word)):
        if not 1 <= i <= d.rank:
            raise ValueError(f"word letter {i} out of range 1..{d.rank}")
        terms = _step_terms(d.simple_roots[i - 1], i - 1, terms)
    return CharElement.adopt(v.rank, terms)


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
    check_weight_rank(g.datum, lam)
    if not is_regular_dominant(g.datum, lam):
        raise ValueError(f"weight {list(lam)} is not regular dominant")
    v = euler_char(g, w, tuple(-c for c in lam))
    return -v if w.length % 2 else v


def all_demazure_images(
    g: WeylGroup, v: CharElement, within: Iterable[WeylElement] | None = None, /
) -> list[CharElement | None]:
    """D_w(v) for every group element at once, indexed like ``g.elements``.

    Peels the smallest left descent of each element, which is exactly the
    first letter of its canonical word, so each value is one operator step
    away from an already-computed one.  ``within``, if given, is a set of
    elements closed under that peeling, such as a union of lower intervals;
    only its entries are computed and the others are None.
    """
    check_char_rank(g.datum, v)
    images: list[CharElement | None] = [None] * g.order
    images[g.identity] = v
    d = g.datum
    elements = g.elements if within is None else sorted(within, key=lambda e: e.index)
    for e in elements:
        if e.length == 0:
            continue
        i = e.word[0]
        base = images[g.left_mult[e.index][i - 1]]
        if base is None:
            raise ValueError(f"element {list(e.word)} is in the set but not its left-descent parent")
        images[e.index] = CharElement.adopt(v.rank, _step_terms(d.simple_roots[i - 1], i - 1, base.terms))
    return images
