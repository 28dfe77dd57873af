"""The character ring Z[X(T)]: sparse Laurent elements over the weight lattice.

A CharElement is a finitely supported map from weights to nonzero integers
(Python ints, so coefficients never overflow).  Values are immutable data:
every operation returns a fresh element, so sharing across threads and
parallel additive reductions are safe.
"""

from __future__ import annotations

import re
from operator import add
from typing import Iterable, Mapping

from .rootsys import Weight, weight_add, weight_neg

CHAR_ELEMENT_SCHEMA = {
    "type": "object",
    "required": ["rank", "terms"],
    "properties": {
        "rank": {"type": "integer", "minimum": 1},
        "terms": {
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
    },
    "additionalProperties": False,
}


# the coeff pattern of the schema; int() alone also reads "1_000", " 5", "+5" and non-ASCII digits
_DECIMAL = re.compile("-?[0-9]+")


def _json_int(x, what: str) -> int:
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        try:
            return int(x)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"{what} must be an integer or a decimal string, got {x!r}")


class CharElement:
    """A sparse element of the group ring of the weight lattice."""

    def __init__(self, rank: int, terms: Mapping[Weight, int] | Iterable[tuple[Weight, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.rank = rank
        self.terms: dict[Weight, int] = {mu: c for mu, c in items if c}

    @classmethod
    def zero(cls, rank: int) -> "CharElement":
        return cls(rank)

    @classmethod
    def monomial(cls, lam: Weight) -> "CharElement":
        return cls(len(lam), {tuple(lam): 1})

    @classmethod
    def adopt(cls, rank: int, terms: dict[Weight, int]) -> "CharElement":
        """Wrap ``terms`` as an element, copying it only to drop zero coefficients.

        The caller hands the dict over and must not change it afterwards.
        """
        v = cls.__new__(cls)
        v.rank = rank
        v.terms = {mu: c for mu, c in terms.items() if c} if 0 in terms.values() else terms
        return v

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def dimension(self) -> int:
        """Sum of coefficients: additive under +, multiplicative under *."""
        return sum(self.terms.values())

    def support(self) -> list[Weight]:
        return sorted(self.terms)

    def coeff(self, mu: Weight) -> int:
        return self.terms.get(tuple(mu), 0)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CharElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __add__(self, other: "CharElement") -> "CharElement":
        self._check_rank(other)
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, 0) + c
        return CharElement(self.rank, out)

    def __sub__(self, other: "CharElement") -> "CharElement":
        self._check_rank(other)
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, 0) - c
        return CharElement(self.rank, out)

    def __neg__(self) -> "CharElement":
        return CharElement(self.rank, {mu: -c for mu, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return CharElement(self.rank, {mu: c * other for mu, c in self.terms.items()})
        self._check_rank(other)
        small, large = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        out: dict[Weight, int] = {}
        for mu, c in small.terms.items():
            for nu, e in large.terms.items():
                key = weight_add(mu, nu)
                out[key] = out.get(key, 0) + c * e
        return CharElement(self.rank, out)

    __rmul__ = __mul__

    def shift(self, mu: Weight) -> "CharElement":
        """The product e^mu * self, computed as a shift of every weight."""
        if len(mu) != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {len(mu)}")
        return CharElement.adopt(self.rank, {tuple(map(add, nu, mu)): c for nu, c in self.terms.items()})

    def star(self) -> "CharElement":
        """Dual character: e^mu -> e^{-mu}."""
        return CharElement(self.rank, {weight_neg(mu): c for mu, c in self.terms.items()})

    def _check_rank(self, other: "CharElement") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [{"weight": list(mu), "coeff": str(c)} for mu, c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json_dict(cls, data) -> "CharElement":
        """Parse the JSON form; ValueError on a missing or ill-typed field."""
        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise ValueError('a character must be a JSON object with "rank" and a "terms" list')
        rank = _json_int(data.get("rank"), "rank")
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        terms = {}
        for item in data["terms"]:
            if not isinstance(item, dict) or not isinstance(item.get("weight"), list):
                raise ValueError('each term must be a JSON object with a "weight" list and a "coeff"')
            mu = tuple(_json_int(x, "a weight coordinate") for x in item["weight"])
            if len(mu) != rank:
                raise ValueError(f"weight {list(mu)} does not have rank {rank}")
            if mu in terms:
                raise ValueError(f"weight {list(mu)} appears in more than one term")
            terms[mu] = _json_int(item.get("coeff"), "coeff")
        return cls(rank, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mu, c in sorted(self.terms.items()):
            body = f"e{list(mu)}" if abs(c) == 1 else f"{abs(c)}*e{list(mu)}"
            parts.append(("- " if c < 0 else "+ ") + body)
        first = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([first] + parts[1:])

    def __repr__(self) -> str:
        return f"CharElement(rank={self.rank}, terms={dict(sorted(self.terms.items()))})"
