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
from .weyl import WeylElement, WeylGroup, lower_interval

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
        difference = lhs - rhs
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
        None if v is None else (v if g.elements[k].length % 2 == 0 else -v).star()
        for k, v in enumerate(images)
    ]


def _times_monomial(mu: Weight, v: CharElement) -> CharElement:
    return CharElement.monomial(mu) * v if any(mu) else v


def _interval_reports(
    g: WeylGroup, lam: Weight, taus: Sequence[WeylElement], twist: Weight
) -> list[VerificationReport]:
    """Check e^twist * sum_{w <= tau} T*_w = e^(twist + rho) * D_tau(e^(lam - rho)) per tau.

    T*_w is the starred top-cohomology character of -lam on w.  The left
    side sums a table over the lower interval; the right side is one entry
    of a table of operator strings.  Both tables cover only the union of the
    taus' lower intervals, which is closed under peeling the first letter of
    a canonical word, so a single tau costs in proportion to its interval.
    """
    _require_regular_dominant(g, lam)
    rho = g.datum.rho
    intervals = [lower_interval(g, tau) for tau in taus]
    within = {w.index: w for interval in intervals for w in interval}.values()
    starred = starred_top_characters(g, lam, within)
    sections = all_demazure_images(g, CharElement.monomial(weight_sub(lam, rho)), within)
    terms = [None if t is None else _times_monomial(twist, t) for t in starred]
    section_twist = weight_add(twist, rho)
    reports = []
    for tau, interval in zip(taus, intervals):
        lhs = CharElement.zero(g.datum.rank)
        for w in interval:
            lhs = lhs + terms[w.index]
        rhs = _times_monomial(section_twist, sections[tau.index])
        reports.append(VerificationReport.compare(lhs, rhs, len(interval)))
    return reports


def verify_theorem(g: WeylGroup, tau: WeylElement, lam: Weight) -> VerificationReport:
    """Check the summed-dual-characters identity for one (tau, lam)."""
    return _interval_reports(g, lam, [tau], (0,) * g.datum.rank)[0]


def sweep_verify_theorem(g: WeylGroup, lam: Weight) -> list[VerificationReport]:
    """Reports of ``verify_theorem`` for every tau at one lam, indexed like g.elements."""
    return _interval_reports(g, lam, g.elements, (0,) * g.datum.rank)


def epsilon_char(g: WeylGroup, w: WeylElement, lam: Weight) -> CharElement:
    """Character of the boundary-restriction kernel on w, via the e^rho twist."""
    _require_regular_dominant(g, lam)
    minus_rho = tuple(-c for c in g.datum.rho)
    return CharElement.monomial(minus_rho) * top_cohomology_char(g, w, lam).star()


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
    rank = len(w.matrix)
    rho = (1,) * rank
    return weight_sub(weight_add(rho, w.apply(rho)), w.apply(chi_prime))


def chi_prime_identity(rank: int) -> Weight:
    """Canonical-twist weight forced for the identity element: 2*rho."""
    return (2,) * rank


def chi_prime_longest(rank: int) -> Weight:
    """Canonical-twist weight forced for the longest element: 0."""
    return (0,) * rank
