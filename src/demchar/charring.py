"""The character ring Z[X(T)]: sparse Laurent elements over the weight lattice.

A CharElement is a finitely supported map from weights to nonzero integers
(Python ints, so coefficients never overflow).  Values are immutable data:
every operation returns a fresh element, so sharing across threads and
parallel additive reductions are safe.

``json_chunks`` writes every JSON document the command line prints, in
pieces, with the bytes of ``json.dumps(obj, indent=2, sort_keys=True)``;
``json_text`` joins them.  A part of a document can be rendered ahead, in
another process, and handed in as a ``Fragment``.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii
from operator import add
from typing import Iterable, Iterator, Mapping

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
        for mu in self.terms:
            if len(mu) != rank:
                raise ValueError(f"weight {list(mu)} does not have rank {rank}")

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


class Fragment:
    """A value already rendered by ``json_text``, which writes it verbatim where it sits.

    The text is rendered at indent 0; placed deeper, each of its newlines
    gains the indent of the line it starts on.  JSON text has no raw newline
    inside a string, so that re-indents it exactly.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for the values the CLI prints.

    Those are str-keyed dicts, lists, str, int, bool, None and CharElement,
    which is written as its ``to_json_dict()`` would be without building that
    tree, and Fragment, which stands for the value it was rendered from.
    Anything else (a float, a tuple, a non-str key) is a TypeError.
    """
    return "".join(json_chunks(obj))


# A character is written this many terms at a time: a chunk is 80-160 kB of text (rank 2 to 8),
# so one write per chunk costs nothing against the formatting, and no more than one chunk of a
# character's text is held at once (V(rho) of B5 is 52K terms and 6 MB).
CHUNK_TERMS = 1000


def json_chunks(obj) -> Iterator[str]:
    """The text of ``json_text(obj)`` in pieces, none holding more than ``CHUNK_TERMS`` terms of a character.

    A dict or a list is written one entry at a time, a character ``CHUNK_TERMS``
    terms at a time, and any other value whole.
    """
    return _json_chunks(obj, "\n")


def _json_chunks(obj, nl: str) -> Iterator[str]:
    # nl is a newline followed by the indent of the line obj starts on
    inner = nl + "  "
    if isinstance(obj, dict) and obj:
        sep = "{" + inner
        for key in sorted(obj):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(obj[key], inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(obj, list) and obj and not all(type(x) is int for x in obj):
        sep = "[" + inner
        for x in obj:
            yield sep
            yield from _json_chunks(x, inner)
            sep = "," + inner
        yield nl + "]"
    elif isinstance(obj, CharElement):
        yield from _char_chunks(obj, nl)
    else:
        yield _json_value(obj, nl)


def _json_value(obj, nl: str) -> str:
    """The text of a value that is written whole: a scalar, an empty container, a list of ints or a Fragment."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]"
    if isinstance(obj, dict):
        return "{}"
    if isinstance(obj, Fragment):
        return obj.text.replace("\n", nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _char_chunks(v: CharElement, nl: str) -> Iterator[str]:
    """The text of ``v.to_json_dict()``: one %-template per term, built once from the rank."""
    i1 = nl + "  "  # "rank" and "terms"
    i2 = i1 + "  "  # each term
    i3 = i2 + "  "  # "coeff" and "weight"
    i4 = i3 + "  "  # each coordinate
    head = "{" + i1 + '"rank": ' + int.__repr__(v.rank) + "," + i1 + '"terms": '
    if not v.terms:
        yield head + "[]" + nl + "}"
        return
    weight = "[" + i4 + ("," + i4).join(["%d"] * v.rank) + i3 + "]" if v.rank else "[]"
    term = "{" + i3 + '"coeff": "%d",' + i3 + '"weight": ' + weight + i2 + "}"
    terms, sep = v.terms, "," + i2
    order = sorted(terms)  # one linear pass when the terms are in weight order already, as unpacked ones are
    yield head + "["
    for start in range(0, len(order), CHUNK_TERMS):
        chunk = sep.join([term % (terms[mu], *mu) for mu in order[start : start + CHUNK_TERMS]])
        yield (sep if start else i2) + chunk
    yield i1 + "]" + nl + "}"
