"""Cubic plane graphs with triangle and hexagon faces from folded lattice triangles.

A sublattice L of the triangular lattice (columns AB = (p, q), AC = (r, s) in
the unit-triangle basis) plus a half-lattice translation (doubled coordinates
(p1, p2)) determines a folding of the plane triangulation.  The folded graph is
cubic with semiedges, realizable as a Cayley sum graph over Z^2 / L, and its
spectrum splits into a small unmatched multiset plus symmetric +- pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .abelian import DegenerateLatticeError, Element, QuotientMap, quotient_group
from .caysum import SumSet, total_semiedge_count
from .intlinalg import IntMatrix

# spectrum_is_paired is no longer called by the pipeline; it stays importable
# from this module because perfbench's trace table looks each layer up by
# module and name, and its self-tests require every hook target to resolve.
from .spectra import (  # noqa: F401
    InvariantViolation,
    SpectrumPartition,
    spectrum_is_paired,
    sum_set_spectrum,
)

__all__ = [
    "TriangleSpec",
    "FoldedGraph",
    "FullereneReport",
    "InvariantViolation",
    "FaceCensus",
    "CASE_TABLE",
    "group_and_sumset",
    "fold_construction",
    "verify_isomorphism",
    "face_census",
    "classify",
    "verify_spec",
    "enumerate_specs",
    "reduce_triangle_basis",
    "is_non_obtuse",
]


# Spectral classes keyed by semiedge count: canonical unmatched multiset.
CASE_TABLE: dict[int, tuple[str, tuple[int, ...]]] = {
    0: ("a", (3, -1, -1, -1)),
    2: ("b", (3, -1)),
    3: ("c", (3,)),
    4: ("d", (3, 1)),
}


@dataclass(frozen=True)
class TriangleSpec:
    """Sublattice basis columns (p, q), (r, s) plus doubled translation (p1, p2).

    p1 and p2 are parities and are reduced mod 2 on construction.  The basis
    must be nonsingular.
    """

    p: int
    q: int
    r: int
    s: int
    p1: int
    p2: int

    def __post_init__(self) -> None:
        if self.p * self.s - self.q * self.r == 0:
            raise DegenerateLatticeError(
                f"triangle basis ({self.p},{self.q}), ({self.r},{self.s}) is degenerate"
            )
        object.__setattr__(self, "p1", self.p1 % 2)
        object.__setattr__(self, "p2", self.p2 % 2)

    @property
    def lattice(self) -> IntMatrix:
        return IntMatrix.from_rows([[self.p, self.r], [self.q, self.s]])

    @property
    def index(self) -> int:
        """Number of vertices of the folded graph: |det(AB, AC)|."""
        return abs(self.p * self.s - self.q * self.r)

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.p, self.q, self.r, self.s, self.p1, self.p2)


def group_and_sumset(t: TriangleSpec) -> tuple[QuotientMap, SumSet]:
    """Quotient group and connection multiset of the folded graph.

    S collects the images of (p1-1, p2), (p1, p2-1) and (p1-1, p2-1) under the
    quotient map, so the graph is CayS(Z^2/L, S).
    """
    q = quotient_group(t.lattice)
    points = (
        (t.p1 - 1, t.p2),
        (t.p1, t.p2 - 1),
        (t.p1 - 1, t.p2 - 1),
    )
    s = SumSet(q.group, tuple(q.project(v) for v in points))
    return q, s


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_x, x = x, old_x - quo * x
        old_y, y = y, old_y - quo * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _hermite_basis(t: TriangleSpec) -> tuple[int, int, int]:
    """Column basis ((a, 0), (b, c)) of the lattice of t, with 0 <= b < a.

    Derived by gcd combinations of the generators, independently of any Smith
    reduction; used for O(1) coset reduction in the fold.
    """
    g, x, y = _egcd(t.q, t.s)
    c = g
    b = x * t.p + y * t.r
    a = abs((t.p * t.s - t.q * t.r) // g)
    return a, b % a, c


class FaceCensus(NamedTuple):
    f3: int
    f6: int
    semiedges: int


def face_census(t: TriangleSpec) -> FaceCensus:
    """Face and semiedge counts from the parity of the four symmetry points.

    The four doubled fixed points are (p1, p2), (p1+p, p2+q), (p1+r, p2+s) and
    (p1+p+r, p2+q+s); a point with both coordinates even sits on a lattice
    vertex and yields a triangle face, otherwise it is an edge midpoint and
    yields a semiedge.  Hexagon count comes from 3|V| = 3 f3 + 6 f6 + (face
    length carried by semiedges), which reduces to f6 = (|V| - f3) / 2.
    """
    points = (
        (t.p1, t.p2),
        (t.p1 + t.p, t.p2 + t.q),
        (t.p1 + t.r, t.p2 + t.s),
        (t.p1 + t.p + t.r, t.p2 + t.q + t.s),
    )
    f3 = sum(1 for x, y in points if x % 2 == 0 and y % 2 == 0)
    semi = 4 - f3
    n = t.index
    if (n - f3) % 2:
        raise InvariantViolation(f"face count parity broken for {t.as_tuple()}")
    return FaceCensus(f3=f3, f6=(n - f3) // 2, semiedges=semi)


@dataclass(frozen=True)
class FoldedGraph:
    """Quotient of the triangle-adjacency graph by lattice translations and the
    point reflection; vertices are triangle orbits.

    Every orbit contains exactly one translation-coset of up-triangles, whose
    representative reps[i] lies in the Hermite box [0, a) x [0, c); orbits are
    indexed in row-major box order.  neighbours[k, x, y] is the orbit across
    edge k of cell (x, y), the cell itself for a semiedge.  edges (index pairs
    (i, j), i < j, to multiplicities) and semiedges (index to count) are read
    off that array.
    """

    spec: TriangleSpec
    neighbours: np.ndarray = field(compare=False, repr=False)

    @property
    def n_vertices(self) -> int:
        return self.neighbours[0].size

    @property
    def reps(self) -> tuple[tuple[int, int], ...]:
        return tuple(np.ndindex(self.neighbours.shape[1:]))

    @cached_property
    def edges(self) -> dict[tuple[int, int], int]:
        rows = self.neighbours.reshape(3, -1).tolist()
        incidence = Counter((i, j) for row in rows for i, j in enumerate(row) if i != j)
        if any(incidence[(j, i)] != m for (i, j), m in incidence.items()):
            raise InvariantViolation(f"asymmetric fold incidence for {self.spec.as_tuple()}")
        return {(i, j): m for (i, j), m in sorted(incidence.items()) if i < j}

    @cached_property
    def semiedges(self) -> dict[int, int]:
        flat = self.neighbours.reshape(3, -1)
        counts = (flat == np.arange(flat.shape[1])).sum(axis=0)
        return {int(i): int(counts[i]) for i in np.flatnonzero(counts)}

    @property
    def total_semiedges(self) -> int:
        return sum(self.semiedges.values())

    def degree(self, i: int) -> int:
        deg = self.semiedges.get(i, 0)
        for (x, y), m in self.edges.items():
            if x == i or y == i:
                deg += m
        return deg

    def labels(self, q: QuotientMap) -> list[Element]:
        """Group labels of the orbits: the image of each up-representative."""
        return [q.project(rep) for rep in self.reps]


# offsets from up (i, j)'s partner to those of down (i, j), (i-1, j), (i, j-1)
_PARTNER_DX = np.array([0, 1, 0]).reshape(3, 1, 1)
_PARTNER_DY = np.array([0, 0, 1]).reshape(3, 1, 1)


def fold_construction(t: TriangleSpec) -> FoldedGraph:
    """Fold the plane triangulation geometrically; no group theory involved.

    Up-triangle (i, j) spans corners {0, a, b} from base i*a + j*b; down-triangle
    (i, j) spans {a, b, a+b}.  The reflection through the translated center maps
    up (i, j) to down (p1-1-i, p2-1-j); since every reflection-plus-translation
    is an involution, each orbit holds exactly one up-coset, so the up-coset
    representative in the Hermite box [0, a) x [0, c) indexes the orbit
    directly.  Up (i, j) borders down (i, j), (i-1, j) and (i, j-1), whose
    orbits are those of their up-partners reduced into the box; the fold is
    that (3, a, c) index array, computed for all cells at once.
    """
    a, b, c = _hermite_basis(t)
    x = (t.p1 - 1 - np.arange(a)[:, None]) + _PARTNER_DX
    beta, y = np.divmod((t.p2 - 1 - np.arange(c)) + _PARTNER_DY, c)
    return FoldedGraph(t, ((x - beta * b) % a) * c + y)


def verify_isomorphism(folded: FoldedGraph, q: QuotientMap, s: SumSet) -> bool:
    """Check that labelling orbits by the quotient map carries the folded graph
    exactly onto CayS(Z^2/L, S): labels biject onto the group, and the three
    label sums label(x) + label(y) over the neighbours y of every orbit x (a
    semiedge gives 2 label(x)) are S as a multiset.

    Labels are (i, j) @ R mod M for the rows R of the quotient map, packed
    mixed-radix into single ints; packing preserves lexicographic order, so
    each orbit's sorted packed sums compare directly against the sorted S.
    The reflection being an involution makes the incidence symmetric, so
    edge multiplicities need no separate check.
    """
    _, a, c = folded.neighbours.shape
    n = a * c
    moduli = q.group.moduli
    if n != q.group.order or len(s.elements) != 3:
        return False
    rank = len(moduli)
    m = np.array(moduli, dtype=np.int64)
    rows = np.array([row for row, _ in q._active_rows], dtype=np.int64).reshape(rank, 2)
    radix = np.array([math.prod(moduli[k + 1 :]) for k in range(rank)], dtype=np.int64)
    labels = (np.indices((a, c)).reshape(2, n).T @ rows.T) % m
    sums = ((labels + labels[folded.neighbours.reshape(3, n)]) % m) @ radix
    sums.sort(axis=0)
    # S is stored sorted, and packing preserves lexicographic order
    target = np.array(s.elements, dtype=np.int64).reshape(3, rank) @ radix
    bijective = np.bincount(labels @ radix, minlength=n).max() == 1
    return bool(bijective and (sums == target[:, None]).all())


def _fold_matches(t: TriangleSpec, q: QuotientMap, s: SumSet) -> bool:
    """The fold cross-check of verify_spec: fold_construction, then
    verify_isomorphism.  A module-level name taking the spec first, so a
    tracer can wrap the per-spec fold check."""
    return verify_isomorphism(fold_construction(t), q, s)


@dataclass(frozen=True)
class FullereneReport:
    spec: TriangleSpec
    moduli: tuple[int, ...]
    sum_set: tuple[Element, ...]
    n_vertices: int
    semiedges: int
    f3: int
    f6: int
    unmatched_raw: tuple[int, ...]
    unmatched_canonical: tuple[int, ...]
    paired: tuple[float, ...]
    case: str
    spectral_radius: float

    # reads only unmatched_raw and paired, which a report shares with a partition
    full_spectrum = SpectrumPartition.full


def _pipeline(t: TriangleSpec) -> tuple[QuotientMap, SumSet, FullereneReport]:
    q, s = group_and_sumset(t)
    trace = total_semiedge_count(q.group, s)
    part = sum_set_spectrum(q.group, s, trace)
    census = face_census(t)

    n = q.group.order
    if n != t.index:
        raise InvariantViolation(f"group order {n} != lattice index {t.index} for {t.as_tuple()}")
    if trace != census.semiedges:
        raise InvariantViolation(
            f"semiedge counts disagree (face census {census.semiedges}, "
            f"adjacency trace {trace}) for {t.as_tuple()}"
        )
    if census.semiedges not in CASE_TABLE:
        raise InvariantViolation(
            f"semiedge count {census.semiedges} outside {{0,2,3,4}} for {t.as_tuple()}"
        )
    if census.semiedges + census.f3 != 4:
        raise InvariantViolation(f"s + f3 != 4 for {t.as_tuple()}")
    case, expected = CASE_TABLE[census.semiedges]
    if part.unmatched_canonical != expected:
        raise InvariantViolation(
            f"canonical unmatched multiset {part.unmatched_canonical} != {expected} "
            f"for case {case}, spec {t.as_tuple()}"
        )
    raw = part.unmatched_raw
    # paired is descending, so its head is the largest magnitude
    radius = max(max(abs(v) for v in raw), part.paired[0] if part.paired else 0.0)
    return q, s, FullereneReport(
        spec=t,
        moduli=q.group.moduli,
        sum_set=s.elements,
        n_vertices=n,
        semiedges=census.semiedges,
        f3=census.f3,
        f6=census.f6,
        unmatched_raw=raw,
        unmatched_canonical=part.unmatched_canonical,
        paired=part.paired,
        case=case,
        spectral_radius=float(radius),
    )


def classify(t: TriangleSpec) -> FullereneReport:
    """Derive the group, sum set and spectrum, check the counting and spectral
    invariants, and report."""
    return _pipeline(t)[2]


def verify_spec(t: TriangleSpec) -> FullereneReport:
    """classify() plus the geometric cross-check: the folded triangulation must
    be isomorphic (via the quotient labelling) to the Cayley sum graph."""
    q, s, report = _pipeline(t)
    if not _fold_matches(t, q, s):
        raise InvariantViolation(f"fold does not match the Cayley sum graph for {t.as_tuple()}")
    return report


def enumerate_specs(max_index: int) -> Iterator[TriangleSpec]:
    """All sublattices of index 1..max_index in Hermite column form (a, 0), (b, c)
    with a*c = n and 0 <= b < a, each with the four doubled translations."""
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    for n in range(1, max_index + 1):
        for a in range(1, n + 1):
            if n % a:
                continue
            c = n // a
            for b in range(a):
                for p1, p2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    yield TriangleSpec(a, 0, b, c, p1, p2)


# --- optional basis normalization -------------------------------------------
#
# The triangular-lattice inner product of u = (x1, y1), v = (x2, y2), doubled to
# stay integral: 2 u.v = 2 x1 x2 + 2 y1 y2 + x1 y2 + x2 y1.

def _dot2(u: tuple[int, int], v: tuple[int, int]) -> int:
    return 2 * (u[0] * v[0] + u[1] * v[1]) + u[0] * v[1] + u[1] * v[0]


def is_non_obtuse(t: TriangleSpec) -> bool:
    """True iff the lattice triangle with sides AB, AC has no obtuse corner."""
    u = (t.p, t.q)
    v = (t.r, t.s)
    d = _dot2(u, v)
    # corners A, B, C: AB.AC >= 0, (-AB).(AC-AB) >= 0, (-AC).(AB-AC) >= 0
    return d >= 0 and _dot2(u, u) - d >= 0 and _dot2(v, v) - d >= 0


def reduce_triangle_basis(t: TriangleSpec) -> TriangleSpec:
    """Gauss-reduce the basis under the triangular form; the result spans the
    same sublattice (same graph) and its triangle has no obtuse corner."""
    u = (t.p, t.q)
    v = (t.r, t.s)
    while True:
        if _dot2(u, u) > _dot2(v, v):
            u, v = v, u
        nu = _dot2(u, u)
        d = _dot2(u, v)
        quo = (2 * d + nu) // (2 * nu)  # nearest integer to d / nu
        if quo == 0:
            break
        v = (v[0] - quo * u[0], v[1] - quo * u[1])
    if _dot2(u, v) < 0:
        v = (-v[0], -v[1])
    return TriangleSpec(u[0], u[1], v[0], v[1], t.p1, t.p2)
