"""Verification of the character identities tying together top-cohomology
duals, section characters, and boundary-restriction kernels.

One engine checks lemma 3.1: the left side sums the kernel characters eps_w
over a Bruhat lower interval along the peeling walk ``weyl.peel``, the right
side is a single operator string.  The main identity is the same check read
in the frame e^rho, so the two are not independent evidence.  A report
never fudges: passed is exact term-by-term equality of both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .charring import CHAR_ELEMENT_SCHEMA, CharElement
from .demazure import top_cohomology_char
from .rootsys import RootDatum, Weight, check_regular_dominant, packing_for, weight_neg, weight_sub
from .weyl import WeylGroup, peel

VERIFICATION_REPORT_SCHEMA = {
    "type": "object",
    "required": ["tau", "lambda", "passed", "dim_lhs", "dim_rhs", "difference_terms"],
    "properties": {
        "tau": {"type": "array", "items": {"type": "integer"}},
        "lambda": {"type": "array", "items": {"type": "integer"}},
        "passed": {"type": "boolean"},
        "dim_lhs": {"type": "string", "pattern": "^-?[0-9]+$"},
        "dim_rhs": {"type": "string", "pattern": "^-?[0-9]+$"},
        "difference_terms": CHAR_ELEMENT_SCHEMA["properties"]["terms"],
        "interval_size": {"type": "integer"},
    },
    "additionalProperties": False,
}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check: its verdict, sizes, and the two sides of a failure.

    sides is None when the check passed, since both sides are then equal;
    a failing check keeps (lhs, rhs), read in its frame.
    """

    passed: bool
    dim_lhs: int
    dim_rhs: int
    interval_size: int
    sides: tuple[CharElement, CharElement] | None

    def to_json_dict(self, word: Sequence[int], lam: Weight) -> dict:
        """The report as JSON, with ``word`` (tau's canonical word) as its "tau"."""
        difference = [] if self.sides is None else (self.sides[0] - self.sides[1]).to_json_dict()["terms"]
        return {
            "tau": list(word),
            "lambda": list(lam),
            "passed": self.passed,
            "dim_lhs": str(self.dim_lhs),
            "dim_rhs": str(self.dim_rhs),
            "difference_terms": difference,
            "interval_size": self.interval_size,
        }


def _interval_reports(g: WeylGroup, lam: Weight, frame: Weight) -> list[VerificationReport]:
    """Check sum_{w <= tau} eps_w = D_tau(e^(lam - rho)) for every tau, both sides read in e^frame.

    One ``weyl.peel`` walk over W.  At each tau one operator step from
    sigma = s*tau's entries gives D_tau(e^-lam) and the section
    D_tau(e^(lam - rho)), and one star and sign per key turn the first into
    lemma 3.1's eps_tau = e^-rho * ch(H^l(tau)(X(tau), L_-lam))^*.
    L(tau) is not grown from sigma but from c, the lower cover of tau with the
    largest interval (``WeylGroup.largest_covers``): [e, c] lies in [e, tau]
    (Bjorner-Brenti, GTM 231, section 2.2), so L(tau) is a copy of L(c) plus
    eps_w over the increment, the bits of rows[tau] & ~rows[c].  Both c and the
    increment depend on tau alone, so they are read from the group, not
    derived per lam; c is one letter shorter than tau, so L(c) is in the
    walk's window.  Each tau is compared as soon as it is reached.

    The walk keeps two lengths of images and L; every eps_w stays, since a
    later tau may add any w.  Both sides share one packing and are compared
    packed.  A passing report keeps no character; a failing one unpacks L(tau)
    and the section once, times e^frame (the theorem is lemma 3.1 times e^rho).
    """
    check_regular_dominant(g.datum, lam)
    rho = g.datum.rho
    rows = g.bruhat_rows
    covers = g.largest_covers
    length = g.length
    packing = packing_for(g.datum, [lam], rho)
    step, m = packing.step, packing.star_key(weight_neg(rho))
    read = lambda terms: CharElement.adopt(g.datum.rank, packing.unpack_terms(terms, frame))
    epsilon: list[dict[int, int] | None] = [None] * g.order
    reports = []

    def entries(k, image, section, acc, new):  # (D_k(e^-lam), D_k(e^(lam - rho)), L(k)), storing eps_k
        epsilon[k] = {m - key: -c if length[k] % 2 else c for key, c in image.items()}
        acc = dict(acc)
        get = acc.get
        for w in new:
            for mu, c in epsilon[w].items():
                acc[mu] = get(mu, 0) + c
        return image, section, acc

    def advance(k, i, sigma, below):
        image, section, _ = below[sigma]
        c, new = covers[k]
        return entries(k, step(i, image), step(i, section), below[c][2], new)

    e = g.identity
    seed = entries(e, {packing.pack(weight_neg(lam)): 1}, {packing.pack(weight_sub(lam, rho)): 1}, {}, covers[e][1])
    for k, (_, section, acc) in peel(g, seed, advance):
        lhs = {mu: c for mu, c in acc.items() if c} if 0 in acc.values() else acc
        passed = lhs == section
        dim = sum(section.values())
        reports.append(
            VerificationReport(
                passed=passed,
                dim_lhs=dim if passed else sum(lhs.values()),
                dim_rhs=dim,
                interval_size=rows[k].bit_count(),
                sides=None if passed else (read(lhs), read(section)),
            )
        )
    return reports


def sweep_verify_theorem(g: WeylGroup, lam: Weight) -> list[VerificationReport]:
    """Check the summed-dual-characters identity at lam for every tau; the reports are indexed by element."""
    return _interval_reports(g, lam, g.datum.rho)


def epsilon_char(d: RootDatum, word, lam: Weight) -> CharElement:
    """Lemma 3.1's eps_w = e^-rho * ch(H^l(w)(X(w), L_-lam))^*, the kernel character on w.

    w is the product along ``word``, as in ``demazure.top_cohomology_char``.
    """
    return top_cohomology_char(d, word, lam).star().shift(weight_neg(d.rho))


def sweep_verify_lemma31(g: WeylGroup, lam: Weight) -> list[VerificationReport]:
    """Check at lam, for every tau, that the kernel characters over [e, tau] sum to the section character.

    This is the main identity multiplied by e^-rho, computed from the same
    tables, so it is not independent evidence for the theorem.  The reports
    are indexed by element.
    """
    return _interval_reports(g, lam, (0,) * g.datum.rank)
