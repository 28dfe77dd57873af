"""Verification of the character identities tying together top-cohomology
duals, section characters, and boundary-restriction kernels.

One engine checks lemma 3.1: the left side sums the kernel characters eps_w
over a Bruhat lower interval along the peeling walk ``weyl.peel``, the right
side is a single operator string.  That string, the section character
D_tau(e^(lam - rho)), depends on tau only through tau(lam - rho), so it is
stepped once per coset of the stabilizer of lam - rho and shared across the
coset.  The main identity is the same check read in the frame e^rho, so the
two are not independent evidence.  A report never fudges: passed is exact
term-by-term equality of both sides.
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
    sigma = s_i*tau's entries gives D_tau(e^-lam), and one star and sign per
    key turn it into lemma 3.1's eps_tau = e^-rho * ch(H^l(tau)(X(tau), L_-lam))^*.

    The section D_tau(e^mu), mu = lam - rho, is stepped only at tau in W^J, J
    the letters that fix mu.  With tau = tau^J * u and u in W_J, D_j e^mu = e^mu
    for j in J gives D_tau(e^mu) = D_(tau^J)(e^mu), which depends on tau(mu)
    alone (Demazure, Ann. Sci. ENS 7, 1974).  A tau outside W^J has a right
    descent s_j with j in J, and tau*s_j is one letter shorter with the same
    tau(mu), so its section is in the walk's window; a tau in W^J is the
    shortest of its coset.  So each value carries x = tau(mu), packed, and
    x_tau = s_i(x_sigma) is one shift and mask as in ``weyl.generate``; x_e is
    the section's own seed key.  The window's previous length is indexed by x
    once per length (``weyl.peel`` passes one dict per length), and tau takes
    the section found at its x, or else steps sigma's.  Per lam that is
    (|W| - 1) + (|W * mu| - 1) steps in place of 2(|W| - 1).

    L(tau) is not grown from sigma but from c, the lower cover of tau with the
    largest interval (``WeylGroup.largest_covers``): [e, c] lies in [e, tau]
    (Bjorner-Brenti, GTM 231, section 2.2), so L(tau) is a copy of L(c) plus
    eps_w over the increment, the bits of rows[tau] & ~rows[c].  Both c and the
    increment depend on tau alone, so they are read from the group, not
    derived per lam; c is one letter shorter than tau, so L(c) is in the
    walk's window.  Each tau is compared as soon as it is reached.

    The walk keeps two lengths of images, sections and L; every eps_w stays,
    since a later tau may add any w.  Both sides share one packing and are
    compared packed.  A passing report keeps no character; a failing one
    unpacks L(tau) and the section once, times e^frame (the theorem is
    lemma 3.1 times e^rho).
    """
    check_regular_dominant(g.datum, lam)
    rho = g.datum.rho
    rows = g.bruhat_rows
    covers = g.largest_covers
    length = g.length
    packing = packing_for(g.datum, [lam], rho)
    step, m = packing.step, packing.star_key(weight_neg(rho))
    read = lambda terms: CharElement.adopt(g.datum.rank, packing.unpack_terms(terms, frame))
    shifts, mask, bias, roots = packing.shifts, packing.mask, packing.bias, packing.roots
    epsilon: list[dict[int, int] | None] = [None] * g.order
    reports = []
    window, sections = None, {}  # the window's previous length, and its sections by packed tau(mu)

    def entries(k, image, section, acc, new, x):  # (D_k(e^-lam), D_k(e^mu), L(k), k(mu)), mu = lam - rho; stores eps_k
        epsilon[k] = {m - key: -c if length[k] % 2 else c for key, c in image.items()}
        acc = dict(acc)
        get = acc.get
        for w in new:
            for mu, c in epsilon[w].items():
                acc[mu] = get(mu, 0) + c
        return image, section, acc, x

    def advance(k, i, sigma, below):
        nonlocal window, sections
        if below is not window:  # the first tau of a new length
            window, sections = below, {x: section for _, section, _, x in below.values()}
        image, section, _, x = below[sigma]
        x -= (((x >> shifts[i]) & mask) - bias) * roots[i]  # tau(mu) = s_i(sigma(mu))
        shared = sections.get(x)
        c, new = covers[k]
        return entries(k, step(i, image), step(i, section) if shared is None else shared, below[c][2], new, x)

    e = g.identity
    x = packing.pack(weight_sub(lam, rho))
    seed = entries(e, {packing.pack(weight_neg(lam)): 1}, {x: 1}, {}, covers[e][1], x)
    for k, (_, section, acc, _) in peel(g, seed, advance):
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
