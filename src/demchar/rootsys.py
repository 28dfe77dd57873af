"""Root-system data and weight-lattice primitives for the finite families A-G.

Weights are integer coordinate vectors in the fundamental-weight basis, so
pairing a weight with the i-th simple coroot is a coordinate lookup.  The
simple roots are the columns of the Cartan matrix under the convention
``cartan[i][j] = <alpha_j, alpha_i^vee>``.  Everything is exact and
integral: the positive roots come from closing the simple roots under
simple reflections, so no linear system is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

Weight = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# Construction refuses larger ranks: Weyl groups beyond this are no longer
# desk-scale, and the rank arrives from outside the program.
MAX_RANK = 8


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
    return all(c >= 0 for c in lam)
