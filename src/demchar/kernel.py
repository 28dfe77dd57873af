"""The joint kernel N of all Demazure operators: membership, the e^rho-twist
characterization, basis elements from summed top-cohomology characters, and
the decomposition into the full-group section-character basis, read off by
folding each weight into the dominant chamber (Weyl's character formula).
"""

from __future__ import annotations

from .charring import CharElement
from .demazure import _image_table, check_char_rank, packing_for
from .rootsys import Weight, check_regular_dominant, simple_reflection, weight_add, weight_neg, weight_sub
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


def _packed_steps(g: WeylGroup, v: CharElement):
    """v packed once, and a lazy stream of its images under each simple-root operator."""
    check_char_rank(g.datum, v)
    packing = packing_for(g.datum, v.terms)
    terms = packing.pack_terms(v.terms)
    return terms, (packing.step(pos, terms) for pos in range(g.datum.rank))


def in_kernel(g: WeylGroup, v: CharElement) -> bool:
    """True iff every simple-root Demazure operator annihilates v."""
    _, images = _packed_steps(g, v)
    return not any(images)


def is_demazure_invariant(g: WeylGroup, v: CharElement) -> bool:
    """True iff every simple-root Demazure operator fixes v."""
    terms, images = _packed_steps(g, v)
    return all(image == terms for image in images)


def kernel_basis_element(g: WeylGroup, lam: Weight) -> CharElement:
    """Sum over the whole group of the top-cohomology characters of -lam.

    The character on w is (-1)^l(w) * D_w(e^-lam), so the packed image table
    of e^-lam is summed with those signs and unpacked once.
    """
    check_regular_dominant(g.datum, lam)
    packing = packing_for(g.datum, [lam])
    images = _image_table(g, packing, {packing.pack(weight_neg(lam)): 1}, None)
    total: dict[int, int] = {}
    get = total.get
    for e, p in zip(g.elements, images):
        sign = -1 if e.length % 2 else 1
        for k, c in p.items():
            total[k] = get(k, 0) + sign * c
    return CharElement.adopt(g.datum.rank, packing.unpack_terms(total))


def verify_characterization(g: WeylGroup, v: CharElement) -> bool:
    """Check the biconditional: v is in N iff e^rho * v is Demazure-invariant."""
    return in_kernel(g, v) == is_demazure_invariant(g, v.shift(g.datum.rho))


def decompose(g: WeylGroup, v: CharElement, with_stats: bool = False):
    """Write e^rho * v as an integer combination of full-group section characters.

    Requires v in N, that is u = e^rho * v W-invariant.  That is checked
    first by looking up u[s_i(nu)] for every simple reflection s_i, which
    costs no weight string, and then by ``in_kernel`` as a guard.  By Weyl's
    character formula A_rho * chi(mu) = A_{mu+rho} (Humphreys, GTM 9, section
    24), the coefficient of chi(mu) is sum_w sign(w) u[w(mu+rho) - rho].  So
    each x = nu + rho, nu in the support of u, is reflected in simple roots on
    which it is negative until it is dominant, flipping the sign each time
    (Brauer-Klimyk, Racah-Speiser); a regular x adds to mu = x - rho, an x on
    a wall adds nothing.  Returns {mu -> coefficient} in weight order, and
    with ``with_stats`` also the number of reflections; the basis element of
    N recovered at mu is the one attached to the weight mu + rho.
    """
    check_char_rank(g.datum, v)
    d = g.datum
    u = v.shift(d.rho)
    # s_i permutes the weights, so u[s_i(nu)] == u[nu] for all nu is s_i(u) == u
    for i in range(1, d.rank + 1):
        if any(u.terms.get(simple_reflection(d, i, nu)) != c for nu, c in u.terms.items()):
            raise ValueError(f"element is not in the joint Demazure kernel: simple reflection {i} moves e^rho * v")
    if not in_kernel(g, v):
        raise RuntimeError(
            "e^rho * v is W-invariant but v is not in the joint Demazure kernel; "
            "kernel membership and invariance disagree"
        )
    # each reflection turns exactly one positive coroot from negative to positive on x
    bound = len(d.positive_roots)
    totals: dict[Weight, int] = {}
    reflections = 0
    for nu, c in u.terms.items():
        x = weight_add(nu, d.rho)
        steps = 0
        while min(x) < 0:
            steps += 1
            if steps > bound:
                raise RuntimeError(f"weight {list(nu)} needs more than {bound} reflections; internal inconsistency")
            x = simple_reflection(d, 1 + next(i for i, a in enumerate(x) if a < 0), x)
        reflections += steps
        if 0 not in x:
            mu = weight_sub(x, d.rho)
            totals[mu] = totals.get(mu, 0) + (-c if steps % 2 else c)
    coefficients = {mu: c for mu, c in sorted(totals.items()) if c}
    if with_stats:
        return coefficients, reflections
    return coefficients


def decomposition_to_json(g: WeylGroup, coefficients: dict[Weight, int]) -> dict:
    rho = g.datum.rho
    return {
        "coefficients": [
            {"mu": list(mu), "lambda": list(weight_add(mu, rho)), "coeff": str(c)}
            for mu, c in sorted(coefficients.items())
        ]
    }
