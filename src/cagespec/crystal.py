"""Finite Cayley sum graphs from d-dimensional crystal data.

A crystal datum is an ambient lattice U with a distinguished inversion center
A and a finite-index sublattice L: folding the point set through x -> 2A - x
and quotienting by L yields a Cayley sum graph over Z^d / L whose sum set is
the projection of the integer vectors 2A - n, n running over the neighbors of
the origin.  The classical families live on D_d, the lattice of integer
vectors with even coordinate sum: a path (d = 1), a grid-like family with 2d
neighbors, and a diamond-like family built on the half-integer shifted copy of
D_d.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .abelian import DegenerateLatticeError, QuotientMap, quotient_group
from .caysum import CaySumGraph, SumSet, cayley_sum_graph
from .fullerene import TriangleSpec
from .intlinalg import IntMatrix, _int_tuple, det
from .spectra import sum_set_spectrum

__all__ = [
    "MAX_DIMENSION",
    "CrystalSpec",
    "dd_basis",
    "to_basis_coords",
    "crystal_cayley",
    "path_family",
    "grid_family",
    "diamond_family",
    "unmatched_multiset",
    "fullerene_crystal_spec",
]

# Character enumeration is exhaustive over the quotient group, so the ambient
# dimension stays small.
MAX_DIMENSION = 8


@dataclass(frozen=True)
class CrystalSpec:
    """Sum-set lift and folding sublattice, both in a fixed ambient basis.

    lifted_sum_set holds the integer vectors 2A - n for the neighbors n of the
    origin, already converted to basis coordinates; the sublattice columns
    generate the quotient lattice in the same basis.
    """

    dim: int
    lifted_sum_set: tuple[tuple[int, ...], ...]
    sublattice: IntMatrix

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {self.dim}")
        lifted = tuple(_int_tuple(v, "lifted sum set entries") for v in self.lifted_sum_set)
        if not lifted:
            raise ValueError("lifted sum set must be nonempty")
        for v in lifted:
            if len(v) != self.dim:
                raise ValueError(f"lifted vector {v!r} has wrong length for dimension {self.dim}")
        object.__setattr__(self, "lifted_sum_set", lifted)
        if self.sublattice.dim != self.dim:
            raise ValueError(
                f"sublattice is {self.sublattice.dim}x{self.sublattice.dim}, expected {self.dim}"
            )
        if det(self.sublattice) == 0:
            raise DegenerateLatticeError("crystal sublattice is singular")


def dd_basis(d: int) -> IntMatrix:
    """Column basis of D_d, the integer vectors of even coordinate sum.

    For d >= 2 the columns are (1, 1, 0, ...) and e_{k-1} - e_k; for d = 1 the
    lattice is the even integers with basis (2).
    """
    if not 1 <= d <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {d}")
    if d == 1:
        return IntMatrix.from_rows([[2]])
    rows = [[0] * d for _ in range(d)]
    rows[0][0] = 1
    rows[1][0] = 1
    for k in range(1, d):
        rows[k - 1][k] = 1
        rows[k][k] = -1
    return IntMatrix.from_rows(rows)


def to_basis_coords(basis: IntMatrix, vector: Sequence[int]) -> tuple[int, ...]:
    """Exact coordinates of an ambient integer vector in a column basis.

    Solved by Cramer's rule over the integers; raises ValueError when the
    vector is not a point of the lattice the columns span.
    """
    d = basis.dim
    if len(vector) != d:
        raise ValueError(f"vector {tuple(vector)!r} has wrong length for a {d}x{d} basis")
    den = det(basis)
    if den == 0:
        raise DegenerateLatticeError("basis is singular")
    coords = []
    for j in range(d):
        replaced = IntMatrix.from_rows(
            [
                [vector[i] if k == j else basis.entry(i, k) for k in range(d)]
                for i in range(d)
            ]
        )
        num = det(replaced)
        quo, rem = divmod(num, den)
        if rem:
            raise ValueError(f"{tuple(vector)!r} is not a point of the given lattice basis")
        coords.append(quo)
    return tuple(coords)


def crystal_cayley(c: CrystalSpec) -> tuple[QuotientMap, SumSet, CaySumGraph]:
    """Quotient group Z^d / L, projected sum set, and the Cayley sum graph.

    The graph has |det L| vertices and is |S|-regular (semiedges counted once).
    """
    q = quotient_group(c.sublattice)
    s = SumSet(q.group, tuple(q.project(v) for v in c.lifted_sum_set))
    graph = cayley_sum_graph(q.group, s)
    return q, s, graph


def path_family(n: int) -> CrystalSpec:
    """Path on n vertices with one semiedge at each end.

    The d = 1 crystal: ambient lattice of even integers, inversion center at
    1/2 (so the lifted sum set is {0, 1} in the basis (2)), folded by L = (n).
    """
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    basis = dd_basis(1)
    # 2A = 1; the ambient neighbors of the origin are +-1
    lifted = tuple(to_basis_coords(basis, (1 - s,)) for s in (1, -1))
    return CrystalSpec(dim=1, lifted_sum_set=lifted, sublattice=IntMatrix.from_rows([[n]]))


def grid_family(d: int, sublattice: IntMatrix, a_choice: str = "edge") -> CrystalSpec:
    """Grid-like crystal on D_d: the 2d ambient neighbors are the unit vectors,
    so the folded graph is 2d-regular.  For d = 2 it has exactly 4 semiedges;
    for d >= 3 the count depends on the sublattice (4, 6 or 8 for d = 3, and
    2d for the identity).

    a_choice "edge" is the edge-midpoint center A = (1/2, 0, ..., 0); "center"
    (odd d only) is A = (1/2, ..., 1/2), for which any sublattice inside
    2 D_d leaves no semiedges at all.
    """
    basis = dd_basis(d)
    if a_choice == "edge":
        doubled_a = (1,) + (0,) * (d - 1)
    elif a_choice == "center":
        if d % 2 == 0:
            raise ValueError("the body-center choice requires odd dimension")
        doubled_a = (1,) * d
    else:
        raise ValueError(f"unknown a_choice {a_choice!r} for the grid family")
    neighbors = []
    for i in range(d):
        for sign in (1, -1):
            v = [0] * d
            v[i] = sign
            neighbors.append(tuple(v))
    lifted = tuple(
        to_basis_coords(basis, tuple(a - x for a, x in zip(doubled_a, nb)))
        for nb in neighbors
    )
    return CrystalSpec(dim=d, lifted_sum_set=lifted, sublattice=sublattice)


def diamond_family(d: int, sublattice: IntMatrix, a_choice: str = "corner") -> CrystalSpec:
    """Diamond-like crystal: D_d plus its copy shifted by (1/2, ..., 1/2).

    The origin's nearest shifted points are the 2^(d-1) half-integer vectors
    with an even number of minus signs, so the folded graph is
    2^(d-1)-regular.  a_choice "corner" is the bond quarter-point
    A = (1/4, ..., 1/4), which yields at least 2^(d-1) semiedges; "offset" is
    A = (5/4, 1/4, ..., 1/4), which lies on no bond — combined with a
    sublattice inside 2 D_d it leaves no semiedges.
    """
    if d < 2:
        raise ValueError(f"diamond family needs dimension >= 2, got {d}")
    basis = dd_basis(d)
    if a_choice == "corner":
        quadrupled_a = (1,) * d
    elif a_choice == "offset":
        quadrupled_a = (5,) + (1,) * (d - 1)
    else:
        raise ValueError(f"unknown a_choice {a_choice!r} for the diamond family")
    lifted = []
    for signs in product((1, -1), repeat=d):
        if sum(1 for s in signs if s < 0) % 2:
            continue
        # 2A - n with 4A and 2n integral: (4A - 2n) / 2 is an even-sum vector
        ambient = tuple((a - s) // 2 for a, s in zip(quadrupled_a, signs))
        lifted.append(to_basis_coords(basis, ambient))
    return CrystalSpec(dim=d, lifted_sum_set=tuple(lifted), sublattice=sublattice)


def unmatched_multiset(c: CrystalSpec) -> tuple[int, ...]:
    """Canonical unmatched multiset of the crystal's Cayley sum graph: the part
    of the spectrum left over once all (lambda, -lambda) pairs are removed."""
    q, s, _ = crystal_cayley(c)
    return sum_set_spectrum(q.group, s).unmatched_canonical


def fullerene_crystal_spec(t: TriangleSpec) -> CrystalSpec:
    """Re-expression of a folded-triangle spec as a d = 2 crystal over the
    triangular lattice in its unit basis; crystal_cayley reproduces the
    triangle pipeline's graph exactly."""
    lifted = (
        (t.p1 - 1, t.p2),
        (t.p1, t.p2 - 1),
        (t.p1 - 1, t.p2 - 1),
    )
    return CrystalSpec(dim=2, lifted_sum_set=lifted, sublattice=t.lattice)
