"""Cubic plane graphs with triangle and hexagon faces from folded lattice triangles.

A sublattice L of the triangular lattice (columns AB = (p, q), AC = (r, s) in
the unit-triangle basis) plus a half-lattice translation (doubled coordinates
(p1, p2)) determines a folding of the plane triangulation.  The folded graph is
cubic with semiedges, realizable as a Cayley sum graph over Z^2 / L, and its
spectrum splits into a small unmatched multiset plus symmetric +- pairs.

classify_chunk and verify_chunk check a list of specs; classify and
verify_spec are the same routines on one spec.  A lattice's quotient map is
computed once for its translations: within a chunk by grouping, and across
single-spec calls by a small memo of the most recent lattices.  A chunk's sum
sets over one group are built once, as one stack in edge order that feeds the
spectrum and the fold check, and sorted only for the reports.  The fold check
compares every incidence of the folded graph with its own sum-set element.
The chunk routine builds each spec's FullereneReport, a NamedTuple, straight
from its checked fields: classify_chunk and verify_chunk return those reports,
and the CLI sweeps count, key and print them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .abelian import DegenerateLatticeError, Element, FiniteAbelianGroup, QuotientMap
from .abelian import quotient_group
from .caysum import SumSet, _NeighbourGraph, _element_stack

# total_semiedge_count, sum_set_spectrum and spectrum_is_paired are not called
# by the pipeline, which calls sum_set_spectra; they stay importable from this
# module because perfbench's trace table looks each layer up by module and
# name, and its self-tests require every hook target to resolve.
from .caysum import total_semiedge_count  # noqa: F401
from .intlinalg import IntMatrix, _int_tuple
from .spectra import (  # noqa: F401
    InvariantViolation,
    SpectrumPartition,
    spectrum_is_paired,
    sum_set_spectra,
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
    "classify_chunk",
    "verify_chunk",
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

    Entries may be ints, bools or numpy integers and are stored as Python
    ints; any other entry (a float, a string) raises ValueError.  p1 and p2
    are parities and are reduced mod 2 on construction.  The basis must be
    nonsingular.
    """

    p: int
    q: int
    r: int
    s: int
    p1: int
    p2: int

    def __post_init__(self) -> None:
        # the chained type test is the fast path for entries that are Python ints
        if not (
            type(self.p) is type(self.q) is type(self.r) is type(self.s)
            is type(self.p1) is type(self.p2) is int
        ):
            entries = _int_tuple(self.as_tuple(), "spec entries")
            for name, value in zip(("p", "q", "r", "s", "p1", "p2"), entries):
                object.__setattr__(self, name, value)
        if self.p * self.s - self.q * self.r == 0:
            raise DegenerateLatticeError(
                f"triangle basis ({self.p},{self.q}), ({self.r},{self.s}) is degenerate"
            )
        object.__setattr__(self, "p1", self.p1 % 2)
        object.__setattr__(self, "p2", self.p2 % 2)

    @classmethod
    def _of_ints(cls, p: int, q: int, r: int, s: int, p1: int, p2: int) -> TriangleSpec:
        """A spec of Python ints already known to be nonsingular, with
        parities in {0, 1}, stored without the checks of __post_init__."""
        spec = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(spec, "p", p)
        setattr_(spec, "q", q)
        setattr_(spec, "r", r)
        setattr_(spec, "s", s)
        setattr_(spec, "p1", p1)
        setattr_(spec, "p2", p2)
        return spec

    @property
    def lattice(self) -> IntMatrix:
        return IntMatrix.from_rows([[self.p, self.r], [self.q, self.s]])

    @property
    def index(self) -> int:
        """Number of vertices of the folded graph: |det(AB, AC)|."""
        return abs(self.p * self.s - self.q * self.r)

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.p, self.q, self.r, self.s, self.p1, self.p2)

    def __str__(self) -> str:
        return f"spec {self.as_tuple()}"


def _sum_set_elements(q: QuotientMap, t: TriangleSpec) -> list[Element]:
    """The images of (p1-1, p2-1), (p1, p2-1) and (p1-1, p2) under the
    quotient map q of t's lattice, in this edge order: element k is the label
    sum across edge k of every orbit of the fold (see _label_sums_match).

    Each kept row ((r0, r1), m) of q projects (p1-1, p2-1) once, to v; the
    images of +e1 and +e2 are then v + r0 and v + r1 mod m, exactly as
    q.project would give them."""
    x, y = t.p1 - 1, t.p2 - 1
    base = plus_e1 = plus_e2 = ()
    for (r0, r1), m in q._active_rows:
        v = (r0 * x + r1 * y) % m
        base += (v,)
        plus_e1 += ((v + r0) % m,)
        plus_e2 += ((v + r1) % m,)
    return [base, plus_e1, plus_e2]


@functools.lru_cache(maxsize=16)
def _lattice_quotient(p: int, q: int, r: int, s: int) -> QuotientMap:
    """quotient_group of the lattice with columns (p, q), (r, s), shared by
    consecutive calls on one lattice, such as the four translations of a
    sweep.  The memo holds a few lattices only, so a batch of distinct
    lattices evicts it; keys are Python ints (TriangleSpec stores them so),
    so the lattice is stored without IntMatrix's entry checks.
    """
    return quotient_group(IntMatrix._of_ints(((p, r), (q, s))))


def group_and_sumset(t: TriangleSpec) -> tuple[QuotientMap, SumSet]:
    """Quotient group and connection multiset of the folded graph.

    S collects the images of (p1-1, p2-1), (p1, p2-1) and (p1-1, p2) under the
    quotient map, so the graph is CayS(Z^2/L, S).
    """
    q = quotient_group(t.lattice)
    return q, SumSet(q.group, tuple(_sum_set_elements(q, t)))


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

    Mod 2 the points are o + span(u, v) in (Z/2)^2, with multiplicity: for
    odd |V| = |det(u, v)| the span is the plane and f3 = 1; for even |V|
    every point counts an even number of times and f3 is 0, 2 or 4.  So
    2 f6 + f3 = |V| and s = 4 - f3 != 1 hold by construction.
    """
    # a point's parities as two bits x | y << 1: the points are
    # o, o ^ u, o ^ v and o ^ u ^ v, and a point is even iff its bits are 0
    o = t.p1 | t.p2 << 1
    u = t.p & 1 | (t.q & 1) << 1
    v = t.r & 1 | (t.s & 1) << 1
    f3 = (o == 0) + (o == u) + (o == v) + (o == u ^ v)
    return FaceCensus(f3=f3, f6=(t.index - f3) // 2, semiedges=4 - f3)


@dataclass(frozen=True)
class FoldedGraph(_NeighbourGraph):
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

    def labels(self, q: QuotientMap) -> list[Element]:
        """Group labels of the orbits: the image of each up-representative."""
        return [q.project(rep) for rep in self.reps]


# offsets from up (i, j)'s partner to those of down (i, j), (i-1, j), (i, j-1)
_PARTNER_DX = np.array([0, 1, 0]).reshape(3, 1, 1)
_PARTNER_DY = np.array([0, 0, 1]).reshape(3, 1, 1)


def _fold_neighbours(specs: Sequence[TriangleSpec]) -> np.ndarray:
    """(k, 3, a, c) neighbour arrays of the folds of k specs sharing one
    lattice; see fold_construction."""
    a, b, c = _hermite_basis(specs[0])
    shift = np.array([(t.p1 - 1, t.p2 - 1) for t in specs])[:, :, None, None, None]
    x = (shift[:, 0] - np.arange(a)[:, None]) + _PARTNER_DX
    beta, y = np.divmod((shift[:, 1] - np.arange(c)) + _PARTNER_DY, c)
    # row-major index of the cell (x - beta * b mod a, y) of the Hermite box
    return np.ravel_multi_index((x - beta * b, y), (a, c), mode="wrap")


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
    return FoldedGraph(t, _fold_neighbours([t])[0])


def _label_sums_match(q: QuotientMap, neighbours: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The per-edge fold check for a (k, 3, a, c) stack of folds of q's
    lattice against their (k, 3, rank) sum sets in edge order (as
    _sum_set_elements gives them), with a * c the order of q's group: one
    bool per fold.

    Labels are R @ (i, j) for the rows R of the quotient map, reduced and
    packed by the group's indices.  Across edge e, up (i, j) meets the orbit
    of up (p1-1-i+dx_e, p2-1-j+dy_e); as the labelling kills L, every orbit's
    label sum across edge e is the image of (p1-1+dx_e, p2-1+dy_e), which is
    element e of the sum set in edge order.
    """
    group = q.group
    k, _, a, c = neighbours.shape
    n = a * c
    rank = group.rank
    labels = q.matrix @ np.indices((a, c)).reshape(2, n)
    sums = labels[:, None, :] + labels[:, neighbours.reshape(3 * k, n)]
    sums = group.indices(sums.reshape(rank, 3 * k * n)).reshape(k, 3, n)
    target = group.indices(edges.reshape(3 * k, rank).T).reshape(k, 3, 1)
    bijective = np.bincount(group.indices(labels), minlength=n).max() == 1
    return bijective & (sums == target).all(axis=(1, 2))


def verify_isomorphism(folded: FoldedGraph, q: QuotientMap, s: SumSet) -> bool:
    """Check that labelling orbits by the quotient map carries the folded graph
    exactly onto CayS(Z^2/L, S): S is the fold's sum set, labels biject onto
    the group, and for every orbit x the label sum label(x) + label(y) across
    its edge k (a semiedge gives 2 label(x)) is the k-th element of S in edge
    order.  So the neighbours of x are s - label(x) over S, edge by edge.

    Comparing each incidence with its own element also sees the order of a
    vertex's edges, which a multiset comparison of the three sums would not.
    The reflection being an involution makes the incidence symmetric, so edge
    multiplicities need no separate check.
    """
    _, a, c = folded.neighbours.shape
    edges = _sum_set_elements(q, folded.spec)
    if a * c != q.group.order or sorted(edges) != list(s.elements):
        return False
    stack = _element_stack([edges], q.group.rank)
    return bool(_label_sums_match(q, folded.neighbours[None], stack)[0])


def _fold_matches(
    t: TriangleSpec, q: QuotientMap, edges: np.ndarray, specs: Sequence[TriangleSpec]
) -> np.ndarray:
    """The fold check of verify_chunk, one bool per spec: for the specs
    sharing t's lattice and edges, the (k, 3, rank) stack of their sum sets in
    edge order, whether each fold matches its Cayley sum graph, from one
    stacked fold kernel.  A module-level name taking a spec first, so a tracer
    can wrap the fold check and count t's vertices.
    """
    return _label_sums_match(q, _fold_neighbours(specs), edges)


class FullereneReport(NamedTuple):
    """A spec's spectrum partition plus its group, sum set and face counts.

    A NamedTuple cannot extend another's fields, so the first four fields
    repeat SpectrumPartition's, in its order, and full is its method.
    """

    semiedge_total: int
    unmatched_raw: tuple[int, ...]
    unmatched_canonical: tuple[int, ...]
    paired: tuple[float, ...]
    spec: TriangleSpec
    moduli: tuple[int, ...]
    sum_set: tuple[Element, ...]
    n_vertices: int
    f3: int
    f6: int
    case: str
    spectral_radius: float

    full = full_spectrum = SpectrumPartition.full

    @property
    def semiedges(self) -> int:
        """The adjacency trace, which _report_row checks against 4 - f3."""
        return self.semiedge_total

    def to_json(self) -> dict:
        return {
            "spec": list(self.spec.as_tuple()),
            "moduli": list(self.moduli),
            "sum_set": [list(x) for x in self.sum_set],
            "n_vertices": self.n_vertices,
            "semiedges": self.semiedges,
            "f3": self.f3,
            "f6": self.f6,
            "M_raw": list(self.unmatched_raw),
            "M_canonical": list(self.unmatched_canonical),
            "paired": list(self.paired),
            "case": self.case,
            "spectral_radius": self.spectral_radius,
        }


def _report_row(
    t: TriangleSpec, group: FiniteAbelianGroup, elements: list[Element], spectrum: SpectrumPartition
) -> FullereneReport:
    """Check t's counting and spectral invariants and give its report, of
    spectral radius raw[0] = 3; elements is its sum set in edge order, sorted
    only for the sum_set field, and spectrum its partition from sum_set_spectra."""
    trace, raw, canonical, paired = spectrum
    census = face_census(t)
    n = group.order
    if n != t.index:
        raise InvariantViolation(f"group order {n} != lattice index {t.index} for {t.as_tuple()}")
    if trace != census.semiedges:
        raise InvariantViolation(
            f"s + f3 = 4 check failed: adjacency trace {trace} != 4 - f3 = "
            f"{census.semiedges} (face census) for {t.as_tuple()}"
        )
    case, expected = CASE_TABLE[census.semiedges]
    if canonical != expected:
        raise InvariantViolation(
            f"canonical unmatched multiset {canonical} != {expected} "
            f"for case {case}, spec {t.as_tuple()}"
        )
    # e1, e2 generate the group, so only the trivial character reaches 3
    radius = raw[0]
    return FullereneReport(
        trace, raw, canonical, paired, t, group.moduli, tuple(sorted(elements)),
        n, census.f3, census.f6, case, float(radius),
    )


def _check_chunk(specs: Sequence[TriangleSpec], fold: bool) -> list[FullereneReport]:
    """classify_chunk's reports, plus the fold check of verify_chunk when
    fold.

    Specs sharing a lattice (p, q, r, s) share its quotient (from the memo
    _lattice_quotient); specs whose quotients are equal groups share one
    (k, 3, rank) int64 stack of their sum sets in edge order, built once.  The
    whole stack feeds one sum_set_spectra call (the spectrum does not depend
    on element order), and each lattice's slice of it one stacked fold check.
    Every check still runs on each spec's own sum set.
    """
    by_lattice: dict[tuple[int, int, int, int], list[int]] = {}
    for i, t in enumerate(specs):
        by_lattice.setdefault((t.p, t.q, t.r, t.s), []).append(i)
    by_group: dict[tuple[int, ...], list[tuple[QuotientMap, list[int]]]] = {}
    for lattice, rows in by_lattice.items():
        q = _lattice_quotient(*lattice)
        by_group.setdefault(q.group.moduli, []).append((q, rows))

    checked: list = [None] * len(specs)
    for lattices in by_group.values():
        # rows lattice by lattice, so each lattice's sum sets are one slice
        group = lattices[0][0].group
        rows = [i for _, lattice_rows in lattices for i in lattice_rows]
        sum_sets = [
            _sum_set_elements(q, specs[i]) for q, lattice_rows in lattices for i in lattice_rows
        ]
        edges = _element_stack(sum_sets, group.rank)
        parts = sum_set_spectra(group, edges, names=[specs[i] for i in rows])
        for i, sum_set, spectrum in zip(rows, sum_sets, parts):
            checked[i] = _report_row(specs[i], group, sum_set, spectrum)
        if not fold:
            continue
        start = 0
        for q, lattice_rows in lattices:
            lattice_specs = [specs[i] for i in lattice_rows]
            stop = start + len(lattice_specs)
            matches = _fold_matches(lattice_specs[0], q, edges[start:stop], lattice_specs)
            for t, match in zip(lattice_specs, matches):
                if not match:
                    raise InvariantViolation(
                        f"fold does not match the Cayley sum graph for {t.as_tuple()}"
                    )
            start = stop
    return checked


def classify_chunk(specs: Sequence[TriangleSpec]) -> list[FullereneReport]:
    """classify() of each spec, in order.  The group, sum set and spectrum are
    derived, the counting and spectral invariants checked, and each spec
    reported; quotients are shared per lattice and spectrum DFTs per group."""
    return _check_chunk(specs, fold=False)


def verify_chunk(specs: Sequence[TriangleSpec]) -> list[FullereneReport]:
    """verify_spec() of each spec, in order: classify_chunk plus the geometric
    cross-check, one stacked fold check per lattice.  The folded
    triangulation must be isomorphic (via the quotient labelling) to the
    Cayley sum graph."""
    return _check_chunk(specs, fold=True)


def classify(t: TriangleSpec) -> FullereneReport:
    """Derive the group, sum set and spectrum, check the counting and spectral
    invariants, and report: classify_chunk on the one spec."""
    return classify_chunk([t])[0]


def verify_spec(t: TriangleSpec) -> FullereneReport:
    """classify() plus the geometric cross-check: verify_chunk on the one spec."""
    return verify_chunk([t])[0]


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
                    yield TriangleSpec._of_ints(a, 0, b, c, p1, p2)


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
