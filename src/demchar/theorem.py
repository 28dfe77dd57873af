"""Verification of the character identities tying together top-cohomology
duals, section characters, and boundary-restriction kernels.

The two sides of the main identity are computed by independent routes: the
left side sums starred top-cohomology characters over a Bruhat lower
interval, the right side is a single operator string shifted by e^rho.  A
report never fudges: passed is exact term-by-term equality of both sides.
The kernel-character identity is the main identity times e^-rho, checked by
the same engine; it is not independent evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .charring import CharElement
from .demazure import all_demazure_images, top_cohomology_char
from .rootsys import Weight, check_weight_rank, is_regular_dominant, weight_add, weight_neg, weight_sub
from .weyl import WeylElement, WeylGroup, bit_indices

VERIFICATION_REPORT_SCHEMA = {
    "type": "object",
    "required": ["tau", "lambda", "passed", "dim_lhs", "dim_rhs", "difference_terms"],
    "properties": {
        "tau": {"type": "array", "items": {"type": "integer"}},
        "lambda": {"type": "array", "items": {"type": "integer"}},
        "passed": {"type": "boolean"},
        "dim_lhs": {"type": "string", "pattern": "^-?[0-9]+$"},
        "dim_rhs": {"type": "string", "pattern": "^-?[0-9]+$"},
        "difference_terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["weight", "coeff"],
                "properties": {
                    "weight": {"type": "array", "items": {"type": "integer"}},
                    "coeff": {"type": "string", "pattern": "^-?[0-9]+$"},
                },
                "additionalProperties": False,
            },
        },
        "interval_size": {"type": "integer"},
    },
    "additionalProperties": False,
}


@dataclass
class VerificationReport:
    """Outcome of one identity check: both sides, their difference, and sizes."""

    lhs: CharElement
    rhs: CharElement
    difference: CharElement
    passed: bool
    dim_lhs: int
    dim_rhs: int
    interval_size: int

    @classmethod
    def compare(cls, lhs: CharElement, rhs: CharElement, interval_size: int) -> "VerificationReport":
        """Report on lhs = rhs; passed is exact term-by-term equality."""
        difference = lhs - rhs if lhs != rhs else CharElement.zero(lhs.rank)
        return cls(
            lhs=lhs,
            rhs=rhs,
            difference=difference,
            passed=difference.is_zero(),
            dim_lhs=lhs.dimension(),
            dim_rhs=rhs.dimension(),
            interval_size=interval_size,
        )

    def to_json_dict(self, tau: WeylElement, lam: Weight) -> dict:
        return {
            "tau": list(tau.word),
            "lambda": list(lam),
            "passed": self.passed,
            "dim_lhs": str(self.dim_lhs),
            "dim_rhs": str(self.dim_rhs),
            "difference_terms": [
                {"weight": list(mu), "coeff": str(c)}
                for mu, c in sorted(self.difference.terms.items())
            ],
            "interval_size": self.interval_size,
        }


def _require_regular_dominant(g: WeylGroup, lam: Weight) -> None:
    check_weight_rank(g.datum, lam)
    if not is_regular_dominant(g.datum, lam):
        raise ValueError(f"weight {list(lam)} is not regular dominant")


def starred_top_characters(
    g: WeylGroup, lam: Weight, within: Iterable[WeylElement] | None = None, /
) -> list[CharElement | None]:
    """Duals of the top-cohomology characters for every w, indexed like g.elements.

    ``within`` restricts the table as in ``all_demazure_images``.
    """
    _require_regular_dominant(g, lam)
    images = all_demazure_images(g, CharElement.monomial(tuple(-c for c in lam)), within)
    return [
        None
        if v is None
        else CharElement.adopt(v.rank, {weight_neg(mu): -c if e.length % 2 else c for mu, c in v.terms.items()})
        for e, v in zip(g.elements, images)
    ]


def _interval_reports(
    g: WeylGroup, lam: Weight, taus: Sequence[WeylElement], twist: Weight
) -> list[VerificationReport]:
    """Check e^twist * sum_{w <= tau} T*_w = e^(twist + rho) * D_tau(e^(lam - rho)) per tau.

    T*_w is the starred top-cohomology character of -lam on w.  The left
    side L(tau) is summed over the lower interval, the right side is one
    entry of a table of operator strings.  Both tables cover only the union
    of the taus' lower intervals, which is closed under peeling the first
    letter s of a canonical word, so a single tau costs in proportion to its
    interval.  By the lifting property, sigma = s*tau < tau has
    [e, tau] = [e, sigma] u s[e, sigma], so L(tau) is L(sigma) plus T*_w over
    the bits of rows[tau] & ~rows[sigma] alone.
    """
    _require_regular_dominant(g, lam)
    rank, rho = g.datum.rank, g.datum.rho
    rows = g.bruhat_rows
    needed = 0
    for tau in taus:
        needed |= rows[tau.index]
    within = [g.elements[k] for k in bit_indices(needed)]
    starred = starred_top_characters(g, lam, within)
    sections = all_demazure_images(g, CharElement.monomial(weight_sub(lam, rho)), within)
    if any(twist):
        starred = [None if t is None else t.shift(twist) for t in starred]
    sums: list[CharElement | None] = [None] * g.order
    for e in within:
        k = e.index
        if e.length == 0:
            acc, new = {}, rows[k]
        else:
            sigma = g.left_mult[k][e.word[0] - 1]
            acc, new = dict(sums[sigma].terms), rows[k] & ~rows[sigma]
        get = acc.get
        for w in bit_indices(new):
            for mu, c in starred[w].terms.items():
                acc[mu] = get(mu, 0) + c
        sums[k] = CharElement.adopt(rank, acc)
    section_twist = weight_add(twist, rho)
    return [
        VerificationReport.compare(
            sums[t.index], sections[t.index].shift(section_twist), rows[t.index].bit_count()
        )
        for t in taus
    ]


def verify_theorem(g: WeylGroup, tau: WeylElement, lam: Weight) -> VerificationReport:
    """Check the summed-dual-characters identity for one (tau, lam)."""
    return _interval_reports(g, lam, [tau], (0,) * g.datum.rank)[0]


def sweep_verify_theorem(g: WeylGroup, lam: Weight) -> list[VerificationReport]:
    """Reports of ``verify_theorem`` for every tau at one lam, indexed like g.elements."""
    return _interval_reports(g, lam, g.elements, (0,) * g.datum.rank)


def epsilon_char(g: WeylGroup, w: WeylElement, lam: Weight) -> CharElement:
    """Character of the boundary-restriction kernel on w, via the e^rho twist."""
    _require_regular_dominant(g, lam)
    return top_cohomology_char(g, w, lam).star().shift(weight_neg(g.datum.rho))


def verify_lemma31(g: WeylGroup, tau: WeylElement, lam: Weight) -> VerificationReport:
    """Check that the kernel characters over the interval sum to the section character.

    This is the main identity multiplied by e^-rho, computed from the same
    tables, so it is not independent evidence for the theorem.
    """
    return _interval_reports(g, lam, [tau], weight_neg(g.datum.rho))[0]


def sweep_verify_lemma31(g: WeylGroup, lam: Weight) -> list[VerificationReport]:
    """Reports of ``verify_lemma31`` for every tau at one lam, indexed like g.elements."""
    return _interval_reports(g, lam, g.elements, weight_neg(g.datum.rho))


def psi_character(w: WeylElement, chi_prime: Weight) -> Weight:
    """Serre-duality twist weight: rho + w(rho) - w(chi')."""
    rho = (1,) * len(chi_prime)
    return weight_sub(weight_add(rho, w.apply(rho)), w.apply(chi_prime))


def chi_prime_identity(rank: int) -> Weight:
    """Canonical-twist weight forced for the identity element: 2*rho."""
    return (2,) * rank


def chi_prime_longest(rank: int) -> Weight:
    """Canonical-twist weight forced for the longest element: 0."""
    return (0,) * rank
