"""Verification of the character identities tying together top-cohomology
duals, section characters, and boundary-restriction kernels.

One engine checks lemma 3.1: the left side sums the kernel characters eps_w
over a Bruhat lower interval, the right side is a single operator string.
The main identity is the same check read in the frame e^rho, so the two are
not independent evidence.  A report never fudges: passed is exact
term-by-term equality of both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .charring import CharElement
from .demazure import Packing, _image_table, packing_for, top_cohomology_char
from .rootsys import Weight, check_regular_dominant, weight_neg, weight_sub
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
    """Outcome of one identity check: its verdict, sizes, and both sides on demand.

    Both sides are held as packed terms and read back, unpacked and
    multiplied by e^frame, only when asked for, so a passing check never
    leaves the packed form.  Two reports are equal when their verdicts,
    sizes and sides as read back agree.
    """

    passed: bool
    dim_lhs: int
    dim_rhs: int
    interval_size: int
    _packing: Packing = field(repr=False, compare=False)
    _packed: tuple[dict[int, int], dict[int, int]] = field(repr=False, compare=False)
    _frame: Weight = field(repr=False, compare=False)

    def _read(self, side: int) -> CharElement:
        p = self._packing
        return CharElement.adopt(p.rank, p.unpack_terms(self._packed[side])).shift(self._frame)

    @property
    def lhs(self) -> CharElement:
        return self._read(0)

    @property
    def rhs(self) -> CharElement:
        return self._read(1)

    def __eq__(self, other: object) -> bool:
        key = lambda r: (r.passed, r.dim_lhs, r.dim_rhs, r.interval_size, r.lhs, r.rhs)
        return isinstance(other, VerificationReport) and key(self) == key(other)

    @property
    def difference(self) -> CharElement:
        """lhs - rhs; passed is exact term-by-term equality, so a passing check reads zero."""
        if self.passed:
            return CharElement.zero(self._packing.rank)
        return self.lhs - self.rhs

    def to_json_dict(self, tau: WeylElement, lam: Weight) -> dict:
        return {
            "tau": list(tau.word),
            "lambda": list(lam),
            "passed": self.passed,
            "dim_lhs": str(self.dim_lhs),
            "dim_rhs": str(self.dim_rhs),
            "difference_terms": self.difference.to_json_dict()["terms"],
            "interval_size": self.interval_size,
        }


def _epsilon_table(
    g: WeylGroup, lam: Weight, within: Iterable[WeylElement], packing: Packing
) -> list[dict[int, int] | None]:
    """Packed eps_w = e^-rho * ch(H^l(w)(X(w), L_-lam))^* for every w in ``within``.

    These are the summands of lemma 3.1.  The top-cohomology character is
    (-1)^l(w) * D_w(e^-lam), so its star and the factor e^-rho are one
    subtraction per key.
    """
    images = _image_table(g, packing, {packing.pack(weight_neg(lam)): 1}, within)
    m = packing.star_key(weight_neg(g.datum.rho))
    return [
        None if p is None else {m - k: -c if e.length % 2 else c for k, c in p.items()}
        for e, p in zip(g.elements, images)
    ]


def _interval_reports(
    g: WeylGroup, lam: Weight, taus: Sequence[WeylElement], frame: Weight
) -> list[VerificationReport]:
    """Check sum_{w <= tau} eps_w = D_tau(e^(lam - rho)) per tau, both sides read in e^frame.

    The eps_w are lemma 3.1's summands (``_epsilon_table``).  The left side
    L(tau) is summed over the lower interval, the right side is one entry of
    a table of operator strings.  Both tables cover only the union of the
    taus' lower intervals, which is closed under peeling the first letter s
    of a canonical word, so a single tau costs in proportion to its
    interval.  By the lifting property, sigma = s*tau < tau has
    [e, tau] = [e, sigma] u s[e, sigma], so L(tau) is L(sigma) plus eps_w
    over the bits of rows[tau] & ~rows[sigma] alone.

    Both tables are packed with one packing and compared as packed dicts.
    A report multiplies its sides by e^frame only when they are read: the
    main identity is lemma 3.1 times e^rho.
    """
    check_regular_dominant(g.datum, lam)
    rho = g.datum.rho
    rows = g.bruhat_rows
    needed = 0
    for tau in taus:
        needed |= rows[tau.index]
    within = [g.elements[k] for k in bit_indices(needed)]
    packing = packing_for(g.datum, [lam], rho)
    epsilon = _epsilon_table(g, lam, within, packing)
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
            for mu, c in epsilon[w].items():
                acc[mu] = get(mu, 0) + c
        sums[k] = acc
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
                _packing=packing,
                _packed=(lhs, rhs),
                _frame=frame,
            )
        )
    return reports


def verify_theorem(g: WeylGroup, tau: WeylElement, lam: Weight) -> VerificationReport:
    """Check the summed-dual-characters identity for one (tau, lam)."""
    return _interval_reports(g, lam, [tau], g.datum.rho)[0]


def sweep_verify_theorem(g: WeylGroup, lam: Weight) -> list[VerificationReport]:
    """Reports of ``verify_theorem`` for every tau at one lam, indexed like g.elements."""
    return _interval_reports(g, lam, g.elements, g.datum.rho)


def epsilon_char(g: WeylGroup, w: WeylElement, lam: Weight) -> CharElement:
    """Lemma 3.1's eps_w = e^-rho * ch(H^l(w)(X(w), L_-lam))^*, the kernel character on w."""
    return top_cohomology_char(g, w, lam).star().shift(weight_neg(g.datum.rho))


def verify_lemma31(g: WeylGroup, tau: WeylElement, lam: Weight) -> VerificationReport:
    """Check that the kernel characters over the interval sum to the section character.

    This is the main identity multiplied by e^-rho, computed from the same
    tables, so it is not independent evidence for the theorem.
    """
    return _interval_reports(g, lam, [tau], (0,) * g.datum.rank)[0]


def sweep_verify_lemma31(g: WeylGroup, lam: Weight) -> list[VerificationReport]:
    """Reports of ``verify_lemma31`` for every tau at one lam, indexed like g.elements."""
    return _interval_reports(g, lam, g.elements, (0,) * g.datum.rank)
