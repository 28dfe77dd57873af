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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .charring import CharElement
from .demazure import Packing, _image_table, packing_for, top_cohomology_char
from .rootsys import Weight, check_regular_dominant, weight_add, weight_neg, weight_sub
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


class _Sides:
    """Both sides of one check as packed terms, read back in the report's frame.

    A side is unpacked and shifted by ``frame`` only when it is read, so a
    passing check never leaves the packed form.  Two values are equal when
    both sides read back equal.
    """

    def __init__(self, packing: Packing, lhs: dict[int, int], rhs: dict[int, int], frame: Weight):
        self.packing, self.packed, self.frame = packing, (lhs, rhs), frame

    def read(self, side: int) -> CharElement:
        p = self.packing
        return CharElement.adopt(p.rank, p.unpack_terms(self.packed[side])).shift(self.frame)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Sides) and all(self.read(k) == other.read(k) for k in (0, 1))


@dataclass
class VerificationReport:
    """Outcome of one identity check: its verdict, sizes, and both sides on demand."""

    passed: bool
    dim_lhs: int
    dim_rhs: int
    interval_size: int
    sides: _Sides = field(repr=False)

    @property
    def lhs(self) -> CharElement:
        return self.sides.read(0)

    @property
    def rhs(self) -> CharElement:
        return self.sides.read(1)

    @property
    def difference(self) -> CharElement:
        """lhs - rhs; passed is exact term-by-term equality, so a passing check reads zero."""
        if self.passed:
            return CharElement.zero(self.sides.packing.rank)
        return self.lhs - self.rhs

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


def _starred_table(
    g: WeylGroup, lam: Weight, within: Iterable[WeylElement] | None, packing: Packing, delta: Weight
) -> list[dict[int, int] | None]:
    """Packed e^delta * T*_w for every w, T*_w the starred top-cohomology character of -lam.

    T*_w is (-1)^l(w) * D_w(e^-lam) with every weight negated, so the star
    and the shift by delta are one subtraction per key.
    """
    images = _image_table(g, packing, {packing.pack(weight_neg(lam)): 1}, within)
    m = packing.star_key(delta)
    return [
        None if p is None else {m - k: -c if e.length % 2 else c for k, c in p.items()}
        for e, p in zip(g.elements, images)
    ]


def starred_top_characters(g: WeylGroup, lam: Weight) -> list[CharElement]:
    """Duals of the top-cohomology characters for every w, indexed like g.elements."""
    check_regular_dominant(g.datum, lam)
    packing = packing_for(g.datum, [lam])
    starred = _starred_table(g, lam, None, packing, (0,) * g.datum.rank)
    return [CharElement.adopt(g.datum.rank, packing.unpack_terms(p)) for p in starred]


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

    Both tables are packed with one packing.  The starred entries carry the
    factor e^-rho, folded into their negation, so e^-rho * L(tau) is
    compared with the unshifted section entry as packed dicts; each side is
    moved to the frame e^(twist + rho) only when a report is read.
    """
    check_regular_dominant(g.datum, lam)
    rho = g.datum.rho
    rows = g.bruhat_rows
    needed = 0
    for tau in taus:
        needed |= rows[tau.index]
    within = [g.elements[k] for k in bit_indices(needed)]
    packing = packing_for(g.datum, [lam], rho)
    starred = _starred_table(g, lam, within, packing, weight_neg(rho))
    sections = _image_table(g, packing, {packing.pack(weight_sub(lam, rho)): 1}, within)
    sums: list[dict[int, int] | None] = [None] * g.order
    for e in within:
        k = e.index
        if e.length == 0:
            acc, new = {}, rows[k]
        else:
            sigma = g.left_mult[k][e.word[0] - 1]
            acc, new = dict(sums[sigma]), rows[k] & ~rows[sigma]
        get = acc.get
        for w in bit_indices(new):
            for mu, c in starred[w].items():
                acc[mu] = get(mu, 0) + c
        sums[k] = acc
    frame = weight_add(twist, rho)
    reports = []
    for t in taus:
        lhs, rhs = sums[t.index], sections[t.index]
        if 0 in lhs.values():
            lhs = {mu: c for mu, c in lhs.items() if c}
        reports.append(
            VerificationReport(
                passed=lhs == rhs,
                dim_lhs=sum(lhs.values()),
                dim_rhs=sum(rhs.values()),
                interval_size=rows[t.index].bit_count(),
                sides=_Sides(packing, lhs, rhs, frame),
            )
        )
    return reports


def verify_theorem(g: WeylGroup, tau: WeylElement, lam: Weight) -> VerificationReport:
    """Check the summed-dual-characters identity for one (tau, lam)."""
    return _interval_reports(g, lam, [tau], (0,) * g.datum.rank)[0]


def sweep_verify_theorem(g: WeylGroup, lam: Weight) -> list[VerificationReport]:
    """Reports of ``verify_theorem`` for every tau at one lam, indexed like g.elements."""
    return _interval_reports(g, lam, g.elements, (0,) * g.datum.rank)


def epsilon_char(g: WeylGroup, w: WeylElement, lam: Weight) -> CharElement:
    """Character of the boundary-restriction kernel on w, via the e^rho twist."""
    check_regular_dominant(g.datum, lam)
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
