"""Root-system data and weight-lattice primitives for the finite families A-G.

Weights are integer coordinate vectors in the fundamental-weight basis, so
pairing a weight with the i-th simple coroot is a coordinate lookup.  The
simple roots are the columns of the Cartan matrix under the convention
``cartan[i][j] = <alpha_j, alpha_i^vee>``.  Everything is exact and
integral: the positive roots come from closing the simple roots under
simple reflections, so no linear system is solved.

Where speed counts, a weight is one packed int (``Packing``): with b bits
per coordinate, bias B = 2^(b-1) and coordinate i of n in the field at bit
f_i = b*(n-i), x packs to k = sum_i (x_i + B) * 2^(f_i).  x_1 has the most
significant field, so integer order on keys is lexicographic order on
weights.  Adding a weight adds its unbiased offset sum_i x_i * 2^(f_i), the
pairing <x, alpha_i^vee> is ((k >> f_i) & (2^b - 1)) - B, and so the
simple reflection s_i is k - t * a_i with t that pairing and a_i the offset
of alpha_i.  Only ``Packing`` knows the layout: every caller reads the field
shifts from ``Packing.shifts``.  Negating a weight and adding delta is one
subtraction, (2*pack(0) + offset(delta)) - k.

The Demazure step D_i expands only the s_i-asymmetric part of a character.
D_i fixes every s_i-invariant character (Demazure, Ann. Sci. ENS 7, 1974),
so with c_k the coefficient of key k, t its pairing and a = a_i,

    D_i f = f + sum_{t > 0} (c_k - c_{k - t*a}) * (e^{k - a} + ... + e^{k - t*a})
              - sum_{t < 0, k - t*a not in f} c_k * (e^k + ... + e^{k - (t+1)*a}).

Each string is an integer range whose step is a: the step copies f, writes
range(k - a, k - (t+1)*a, -a) for a key with t > 0 only when its coefficient
differs from its partner's, and range(k, k - t*a, a) for a key with t < 0
whose partner is absent.  At t = +-1 a string is one weight, s(k) or k, and
is written as one dict update with no range; at t = -1 it cancels the copied
term.

The radix is widened, never wrapped.  One Demazure step keeps D_i(e^nu) on
the segment from nu to s_i(nu), so every weight of D_w(e^nu), and every
weight of the orbit W*nu, lies in the convex hull of W*nu, and each of its
coordinates is at most max |<nu, beta^vee>| <= ht(theta^vee) * max_j |nu_j|
in absolute value, theta^vee the highest coroot.  ``packing_for`` chooses b
from that bound, plus any shift to be folded in.  ``Packing.step`` is the
program's only Demazure step, and it holds the bound on each step's work:
it still counts sum |t + 1|, the terms of the weight-string formula, and the
dict it builds holds at most ``len(terms)`` plus that count.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lshift, mul
from typing import Iterable, Mapping

Weight = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# Construction refuses larger ranks: Weyl groups beyond this are no longer
# desk-scale, and the rank arrives from outside the program.
MAX_RANK = 8

# A Demazure step that would expand more weight-string terms than this is
# refused; at the bound it takes a few seconds and a few hundred MB.
MAX_GUARD_TERMS = 10**7


class GuardBoundError(ValueError):
    """A Demazure step would expand more than ``MAX_GUARD_TERMS`` weight-string terms."""


@dataclass(frozen=True)
class RootDatum:
    """Immutable root-system data for one finite family and rank.

    ``positive_coroots[k]`` holds the coroot of ``positive_roots[k]`` in the
    simple-coroot basis, so ``<lam, beta^vee>`` is an integer dot product.
    Instances are safe for unrestricted concurrent reads.
    """

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    positive_coroots: tuple[tuple[int, ...], ...]
    rho: Weight


def weight_add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def weight_sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def weight_neg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def _validate_family_rank(family: str, rank: int) -> str:
    family = family.upper()
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} exceeds the supported bound {MAX_RANK}")
    minimum = {"A": 1, "B": 2, "C": 3, "D": 4}
    if family in minimum and rank < minimum[family]:
        raise ValueError(f"{family}_{rank} is not a valid type ({family}_n needs n >= {minimum[family]})")
    if family == "E" and rank not in (6, 7, 8):
        raise ValueError("type E exists only in ranks 6, 7, 8")
    if family == "F" and rank != 4:
        raise ValueError("type F exists only in rank 4")
    if family == "G" and rank != 2:
        raise ValueError("type G exists only in rank 2")
    return family


def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        # aij is <alpha_j, alpha_i^vee>, stored at row i, column j
        a[i][j] = aij
        a[j][i] = aji

    if family in ("A", "B", "C"):
        for k in range(rank - 2):
            edge(k, k + 1)
        if rank >= 2:
            if family == "A":
                edge(rank - 2, rank - 1)
            elif family == "B":
                # alpha_n short: <alpha_n, alpha_{n-1}^vee> = -1, <alpha_{n-1}, alpha_n^vee> = -2
                edge(rank - 2, rank - 1, -1, -2)
            else:
                # alpha_n long
                edge(rank - 2, rank - 1, -2, -1)
    elif family == "D":
        for k in range(rank - 2):
            edge(k, k + 1)
        edge(rank - 3, rank - 1)
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for u, v in zip(chain, chain[1:]):
            edge(u, v)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    elif family == "G":
        edge(0, 1, -3, -1)
    return a


def _positive_root_closure(cartan: list[list[int]]) -> tuple[list[Weight], list[tuple[int, ...]]]:
    """Close the simple roots under simple reflections, keeping positives.

    Roots are carried in omega-coordinates together with their alpha-basis
    coordinates (for the positivity test) and the coroot's coordinates in
    the simple-coroot basis (kept in lockstep through each reflection).
    """
    rank = len(cartan)
    simple = [tuple(cartan[k][j] for k in range(rank)) for j in range(rank)]
    seen: dict[Weight, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    frontier: list[Weight] = []
    for j in range(rank):
        unit = tuple(int(t == j) for t in range(rank))
        seen[simple[j]] = (unit, unit)
        frontier.append(simple[j])
    while frontier:
        nxt: list[Weight] = []
        for omega in frontier:
            alpha, coroot = seen[omega]
            for i in range(rank):
                t = omega[i]
                new_omega = tuple(x - t * a for x, a in zip(omega, simple[i]))
                new_alpha = tuple(c - t if k == i else c for k, c in enumerate(alpha))
                pair = sum(coroot[j] * cartan[j][i] for j in range(rank))
                new_coroot = tuple(c - pair if k == i else c for k, c in enumerate(coroot))
                if any(c > 0 for c in new_alpha) and new_omega not in seen:
                    seen[new_omega] = (new_alpha, new_coroot)
                    nxt.append(new_omega)
        frontier = nxt
    # deterministic order: by height in the alpha basis, then first support index
    ordered = sorted(seen.items(), key=lambda kv: (sum(kv[1][0]), tuple(-c for c in kv[1][0])))
    roots = [omega for omega, _ in ordered]
    coroots = [coroot for _, (_, coroot) in ordered]
    return roots, coroots


def build_datum(family: str, rank: int) -> RootDatum:
    """Build the full root datum for a valid finite (family, rank) pair.

    Raises ValueError for invalid pairs or ranks beyond ``MAX_RANK``.
    """
    family = _validate_family_rank(family, rank)
    cartan = _cartan_matrix(family, rank)
    roots, coroots = _positive_root_closure(cartan)
    return RootDatum(
        family=family,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        simple_roots=tuple(tuple(cartan[k][j] for k in range(rank)) for j in range(rank)),
        positive_roots=tuple(roots),
        positive_coroots=tuple(coroots),
        rho=(1,) * rank,
    )


def pairing(d: RootDatum, lam: Weight, i: int) -> int:
    """<lam, alpha_i^vee> for the i-th simple root, 1-based index."""
    if not 1 <= i <= d.rank:
        raise ValueError(f"simple-root index {i} out of range 1..{d.rank}")
    return lam[i - 1]


def simple_reflection(d: RootDatum, i: int, lam: Weight) -> Weight:
    """Reflect lam in the hyperplane of the i-th simple root (1-based)."""
    check_weight_rank(d, lam)
    t = pairing(d, lam, i)
    alpha = d.simple_roots[i - 1]
    return tuple(x - t * a for x, a in zip(lam, alpha))


def check_weight_rank(d: RootDatum, lam: Weight) -> None:
    """Raise ValueError unless lam has one coordinate per simple root."""
    if len(lam) != d.rank:
        raise ValueError(f"weight {list(lam)} has {len(lam)} coordinates; {d.family}{d.rank} needs {d.rank}")


def check_regular_dominant(d: RootDatum, lam: Weight) -> None:
    """Raise ValueError unless lam has d's rank and is regular dominant."""
    check_weight_rank(d, lam)
    if not all(c >= 1 for c in lam):
        raise ValueError(f"weight {list(lam)} is not regular dominant")


def is_dominant(d: RootDatum, lam: Weight) -> bool:
    check_weight_rank(d, lam)
    return all(c >= 0 for c in lam)


def weyl_dimension(d: RootDatum, lam: Weight) -> int:
    """dim V(lam) by Weyl's dimension formula, prod <lam + rho, beta^vee> / prod <rho, beta^vee>.

    Both products run over the positive coroots and are integers; the
    quotient is exact, so the division is too.  For a non-dominant lam it is
    the same signed product.
    """
    num = den = 1
    for coroot in d.positive_coroots:
        num *= sum((c + 1) * a for c, a in zip(lam, coroot))
        den *= sum(coroot)
    return num // den


def orbit_size(d: RootDatum, nu: Weight) -> int:
    """|W * nu| for dominant nu, by Macdonald's product (Math. Ann. 199, 1972); ValueError unless nu is dominant.

    prod (ht(beta^vee) + 1) / ht(beta^vee) over the positive coroots is |W|, and over
    those with <nu, beta^vee> = 0 it is the order of nu's stabilizer, so the rest give |W * nu|.
    """
    if not is_dominant(d, nu):
        raise ValueError(f"weight {list(nu)} is not dominant")
    num = den = 1
    for coroot in d.positive_coroots:
        if sum(map(mul, nu, coroot)):
            num *= sum(coroot) + 1
            den *= sum(coroot)
    return num // den


class Packing:
    """Weights of one rank with coordinates in [-2^(bits-1), 2^(bits-1)) as packed ints.

    Coordinate i (0-based) sits in the field at bit ``shifts[i]``; coordinate 0 has the
    most significant field, so pack(mu) < pack(nu) iff mu < nu.
    """

    def __init__(self, d: RootDatum, bits: int):
        self.rank = d.rank
        self.shifts = tuple(range(bits * (d.rank - 1), -1, -bits))
        self.mask = (1 << bits) - 1
        self.bias = 1 << (bits - 1)
        self.origin = sum(self.bias << s for s in self.shifts)
        self.roots = tuple(self.offset(alpha) for alpha in d.simple_roots)

    def offset(self, mu: Weight) -> int:
        """The unbiased image of mu: pack(nu) + offset(mu) == pack(nu + mu)."""
        return sum(map(lshift, mu, self.shifts))

    def pack(self, mu: Weight) -> int:
        return self.origin + self.offset(mu)

    def star_key(self, delta: Weight) -> int:
        """The key m with m - pack(mu) == pack(delta - mu) for every mu."""
        return 2 * self.origin + self.offset(delta)

    def pack_terms(self, terms: Mapping[Weight, int], shift: Weight = ()) -> dict[int, int]:
        """{pack(mu + shift): c}; the empty shift packs the weights as they are."""
        origin, shifts = self.pack(shift), self.shifts
        return {origin + sum(map(lshift, mu, shifts)): c for mu, c in terms.items()}

    def unpack_terms(self, terms: Mapping[int, int], shift: Weight = ()) -> dict[Weight, int]:
        """{mu + shift: c} for each pack(mu): c, in weight order; the empty shift unpacks the weights as they are."""
        mask, keys = self.mask, sorted(terms)  # key order is weight order, and a shift keeps it
        biases = [self.bias - x for x in shift] if shift else [self.bias] * self.rank
        # one coordinate at a time over all keys, the shift folded into its bias; zip builds the tuples
        columns = [[((k >> s) & mask) - b for k in keys] for s, b in zip(self.shifts, biases)]
        return dict(zip(zip(*columns), map(terms.__getitem__, keys)))

    def step(self, pos: int, terms: dict[int, int]) -> dict[int, int]:
        """The operator of simple root pos + 1 (0-based pos) on packed terms.

        The step fixes e^k + e^(s k), s the simple reflection, so it copies the terms and
        of each c * e^k + c2 * e^(s k) with t > 0 adds (c - c2) times the string from k - a
        to s k; a key with t < 0 and no partner subtracts c times its string from k to s k - a.
        A string of one weight, at t = +-1, is one dict update.

        Raises ``GuardBoundError`` before expanding anything if the weight strings of the
        formula D(e^k) would hold more than ``MAX_GUARD_TERMS`` terms, partners or not.  A
        string holds |t + 1| terms, at most ``bias``, so they are measured only when the terms
        times ``bias`` exceed the bound.  The dict built holds at most ``len(terms)`` plus that count.
        """
        shift, mask, bias, a = self.shifts[pos], self.mask, self.bias, self.roots[pos]
        if len(terms) * bias > MAX_GUARD_TERMS:
            size = sum(abs(((k >> shift) & mask) + 1 - bias) for k in terms)
            if size > MAX_GUARD_TERMS:
                raise GuardBoundError(
                    f"the Demazure step of letter {pos + 1} would expand {size} weight-string terms, "
                    f"above the bound MAX_GUARD_TERMS = {MAX_GUARD_TERMS}"
                )
        out = dict(terms)
        get = out.get
        for k, c in terms.items():
            t = ((k >> shift) & mask) - bias
            # k - t * a is s(k), the partner of k
            if t > 0:
                d = c - terms.get(k - t * a, 0)
                if d and t == 1:  # the string is s(k) alone
                    out[k - a] = get(k - a, 0) + d
                elif d:
                    for w in range(k - a, k - (t + 1) * a, -a):
                        out[w] = get(w, 0) + d
            elif t < 0 and k - t * a not in terms:
                if t == -1:  # the string is k alone, copied above
                    out[k] -= c
                else:
                    for w in range(k, k - t * a, a):
                        out[w] = get(w, 0) - c
        return {k: c for k, c in out.items() if c} if 0 in out.values() else out


def packing_for(d: RootDatum, weights: Iterable[Weight], shift: Weight = ()) -> Packing:
    """A packing wide enough for every weight of D_w(e^nu) + shift, nu in weights, w in W.

    It also holds each simple root, so that distinct roots have distinct
    nonzero offsets even when every weight is 0.
    """
    highest_coroot = max(sum(c) for c in d.positive_coroots)
    hull = highest_coroot * max((abs(x) for mu in weights for x in mu), default=0)
    roots = max(abs(x) for alpha in d.simple_roots for x in alpha)
    return Packing(d, max(hull + max(map(abs, shift), default=0), roots).bit_length() + 1)
