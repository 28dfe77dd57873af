"""The joint kernel N of all Demazure operators on the root datum alone:
membership, the e^rho-twist characterization, basis elements as Norton's
product of the 1 - D_i along w0's word, and the decomposition into the
full-group section-character basis, read off by folding each weight into
the dominant chamber (Weyl's character formula).

Every layer works on packed weight keys (``rootsys.Packing``).  Membership
is the definition of N and takes Demazure steps; every step it or a basis
element takes is refused by ``Packing.step`` above
``rootsys.MAX_GUARD_TERMS`` with ``GuardBoundError``.  Invariance is read
from the simple reflections, since D_i v = v iff s_i v = v (Demazure, Ann.
Sci. ENS 7, 1974): one lookup per key and letter, which expands no weight
string.  The decomposition packs e^rho * v once and uses those keys for
that lookup and for the fold; only the resulting weights are unpacked.
"""

from __future__ import annotations

from itertools import chain

from .charring import CharElement
from .demazure import check_char_rank
from .rootsys import Packing, RootDatum, Weight, check_regular_dominant, orbit_size, packing_for
from .rootsys import weight_add, weight_neg, weight_sub
from .weyl import MAX_ELEMENTS, canonical_word

DECOMPOSITION_SCHEMA = {
    "type": "object",
    "required": ["coefficients"],
    "properties": {
        "coefficients": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["mu", "lambda", "coeff"],
                "properties": {
                    "mu": {"type": "array", "items": {"type": "integer"}},
                    "lambda": {"type": "array", "items": {"type": "integer"}},
                    "coeff": {"type": "string", "pattern": "^-?[0-9]+$"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


def _moving_letter(packing: Packing, u: dict[int, int]) -> int:
    """The first letter i whose simple reflection moves the packed u, 1-based; 0 if u is W-invariant.

    s_i permutes the weights, so s_i(u) == u iff u[k - t * a_i] == u[k] for every key k,
    t = <nu, alpha_i^vee> read by one shift and mask.  The packing must hold the W-orbit of u.
    """
    mask, bias, get = packing.mask, packing.bias, u.get
    for pos, (a, shift) in enumerate(zip(packing.roots, packing.shifts)):
        for k, c in u.items():
            t = ((k >> shift) & mask) - bias
            if t and get(k - t * a) != c:
                return pos + 1
    return 0


def in_kernel(d: RootDatum, v: CharElement) -> bool:
    """True iff every simple-root Demazure operator annihilates v."""
    check_char_rank(d, v)
    packing = packing_for(d, v.terms)
    terms = packing.pack_terms(v.terms)
    return not any(packing.step(pos, terms) for pos in range(d.rank))


def is_demazure_invariant(d: RootDatum, v: CharElement) -> bool:
    """True iff every simple-root Demazure operator fixes v, that is iff every simple reflection does."""
    check_char_rank(d, v)
    packing = packing_for(d, v.terms)
    return not _moving_letter(packing, packing.pack_terms(v.terms))


def kernel_basis_element(d: RootDatum, lam: Weight) -> CharElement:
    """Sum over W of the top-cohomology characters of -lam, (-1)^l(w) * D_w(e^-lam).

    By Norton's 0-Hecke identity (J. Austral. Math. Soc. A 27, 1979) the sum is the
    product of the 1 - D_i along any reduced word of w0, so the packed e^-lam takes one
    ``Packing.step`` per letter of w0's canonical word, last letter first: N = |Phi+| steps.
    The sum has |W * (lam - rho)| nonzero terms (``rootsys.orbit_size``); above
    ``MAX_ELEMENTS`` it is refused before the first step.
    """
    check_regular_dominant(d, lam)
    size = orbit_size(d, weight_sub(lam, d.rho))
    if size > MAX_ELEMENTS:
        raise ValueError(
            f"the kernel basis element of {list(lam)} on {d.family}{d.rank} sums over {size} elements, "
            f"above the bound MAX_ELEMENTS = {MAX_ELEMENTS}"
        )
    packing = packing_for(d, [lam])
    terms = {packing.pack(weight_neg(lam)): 1}
    for i in reversed(canonical_word(d, weight_neg(d.rho))):
        image = packing.step(i - 1, terms)
        terms = {k: c for k in terms.keys() | image.keys() if (c := terms.get(k, 0) - image.get(k, 0))}
    return CharElement.adopt(d.rank, packing.unpack_terms(terms))


def verify_characterization(d: RootDatum, v: CharElement) -> bool:
    """Check the biconditional: v is in N (Demazure steps) iff e^rho * v is W-invariant (reflections)."""
    return in_kernel(d, v) == is_demazure_invariant(d, v.shift(d.rho))


def decompose(d: RootDatum, v: CharElement, with_stats: bool = False):
    """Write e^rho * v as an integer combination of full-group section characters.

    Requires v in N, that is u = e^rho * v W-invariant.  u is packed once
    (``rootsys.Packing``), wide enough for the W-orbits of nu and nu + rho,
    nu in its support, and everything below works on those keys.  The
    invariance lookup of ``is_demazure_invariant`` runs on them, and the
    first reflection that moves u is named in a ValueError.  ``in_kernel``
    runs next, as a guard that the two agree; its steps are bounded like
    every step, so an element too large for it is refused with
    ``GuardBoundError`` (a ValueError).

    By Weyl's character formula A_rho * chi(mu) = A_{mu+rho} (Humphreys,
    GTM 9, section 24), the coefficient of chi(mu) is
    sum_w sign(w) u[w(mu+rho) - rho].  So each packed x = nu + rho is
    reflected at its last negative coordinate, x -= t * a_i, until it is
    dominant, flipping the sign each time (Brauer-Klimyk, Racah-Speiser); a
    regular x adds to mu = x - rho, an x with a zero coordinate adds
    nothing.  Each reflection turns one positive coroot from negative to
    positive on x, so the order of the negative coordinates changes neither
    the end nor the count.  The fold needs no mask per coordinate: a coordinate is negative
    iff the top bit of its field is clear, and the top bits are the
    packing's origin; the lowest set bit of that mask is the last negative
    coordinate's.  Returns {mu -> coefficient} in weight order, and
    with ``with_stats`` also the number of reflections; the basis element
    of N recovered at mu is the one attached to the weight mu + rho.
    """
    check_char_rank(d, v)
    # nu + rho has coordinates of size at most max |mu_j| + 2, and so does its W-orbit up to ht(theta^vee)
    packing = packing_for(d, [(max(map(abs, chain.from_iterable(v.terms)), default=0) + 2,)])
    mask, bias, origin = packing.mask, packing.bias, packing.origin
    u = packing.pack_terms(v.terms, d.rho)
    if moved := _moving_letter(packing, u):
        raise ValueError(f"element is not in the joint Demazure kernel: simple reflection {moved} moves e^rho * v")
    if not in_kernel(d, v):
        raise RuntimeError(
            "e^rho * v is W-invariant but v is not in the joint Demazure kernel; "
            "kernel membership and invariance disagree"
        )
    # each reflection turns exactly one positive coroot from negative to positive on x
    bound = len(d.positive_roots)
    rho = packing.offset(d.rho)
    # the top bit of field i, as the lowest bit of a negative-coordinate mask -> (shift, packed root)
    letter = {bias << shift: (shift, a) for shift, a in zip(packing.shifts, packing.roots)}
    totals: dict[int, int] = {}
    get_total = totals.get
    reflections = 0
    for k, c in u.items():
        x = k + rho
        steps = 0
        negative = origin & ~x
        while negative:
            steps += 1
            if steps > bound:
                (nu,) = packing.unpack_terms({k: c})
                raise RuntimeError(f"weight {list(nu)} needs more than {bound} reflections; internal inconsistency")
            shift, a = letter[negative & -negative]
            x -= (((x >> shift) & mask) - bias) * a
            negative = origin & ~x
        reflections += steps
        mu = x - rho
        # x is dominant; mu = x - rho is dominant too iff x is regular
        if not origin & ~mu:
            totals[mu] = get_total(mu, 0) + (-c if steps & 1 else c)
    coefficients = packing.unpack_terms({mu: c for mu, c in totals.items() if c})
    if with_stats:
        return coefficients, reflections
    return coefficients


def decomposition_to_json(d: RootDatum, coefficients: dict[Weight, int]) -> dict:
    rho = d.rho
    return {
        "coefficients": [
            {"mu": list(mu), "lambda": list(weight_add(mu, rho)), "coeff": str(c)}
            for mu, c in sorted(coefficients.items())
        ]
    }
