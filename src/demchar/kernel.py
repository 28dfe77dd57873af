"""The joint kernel N of all Demazure operators: membership, the e^rho-twist
characterization, basis elements from summed top-cohomology characters, and a
triangular decomposition into the full-group section-character basis that
peels the support by height.
"""

from __future__ import annotations

from .charring import CharElement, w_apply
from .demazure import all_demazure_images, check_char_rank, demazure_char, demazure_step
from .rootsys import Weight, check_weight_rank, height, is_regular_dominant, weight_add
from .weyl import WeylGroup

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


def in_kernel(g: WeylGroup, v: CharElement) -> bool:
    """True iff every simple-root Demazure operator annihilates v."""
    check_char_rank(g.datum, v)
    return all(demazure_step(g.datum, i, v).is_zero() for i in range(1, g.datum.rank + 1))


def is_demazure_invariant(g: WeylGroup, v: CharElement) -> bool:
    """True iff every simple-root Demazure operator fixes v."""
    check_char_rank(g.datum, v)
    return all(demazure_step(g.datum, i, v) == v for i in range(1, g.datum.rank + 1))


def kernel_basis_element(g: WeylGroup, lam: Weight) -> CharElement:
    """Sum over the whole group of the top-cohomology characters of -lam."""
    check_weight_rank(g.datum, lam)
    if not is_regular_dominant(g.datum, lam):
        raise ValueError(f"weight {list(lam)} is not regular dominant")
    images = all_demazure_images(g, CharElement.monomial(tuple(-c for c in lam)))
    total: dict[Weight, int] = {}
    get = total.get
    for e, v in zip(g.elements, images):
        sign = -1 if e.length % 2 else 1
        for mu, c in v.terms.items():
            total[mu] = get(mu, 0) + sign * c
    return CharElement.adopt(g.datum.rank, total)


def verify_characterization(g: WeylGroup, v: CharElement) -> bool:
    """Check the biconditional: v is in N iff e^rho * v is Demazure-invariant."""
    check_char_rank(g.datum, v)
    twisted = v.shift(g.datum.rho)
    return in_kernel(g, v) == is_demazure_invariant(g, twisted)


def decompose(g: WeylGroup, v: CharElement, with_stats: bool = False):
    """Write e^rho * v as an integer combination of full-group section characters.

    Requires v in N.  Triangular extraction: each round takes the support
    weights of greatest height in the running remainder.  No support weight
    lies above them, since it would be higher, so they are dominant by
    W-invariance; the other weights of a section character lie below its
    highest weight, so the round records their coefficients and subtracts
    the matching section characters.  Returns {mu -> coefficient}; the basis
    element of N recovered at mu is the one attached to the weight mu + rho.
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


def decomposition_to_json(g: WeylGroup, coefficients: dict[Weight, int]) -> dict:
    rho = g.datum.rho
    return {
        "coefficients": [
            {"mu": list(mu), "lambda": list(weight_add(mu, rho)), "coeff": str(c)}
            for mu, c in sorted(coefficients.items())
        ]
    }
