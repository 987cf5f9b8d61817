"""Cayley sum graphs (and ordinary Cayley graphs) over finite abelian groups.

In a Cayley sum graph two distinct vertices u, v are joined iff u + v lies in
the connection multiset S, with edge multiplicity equal to the multiplicity of
u + v in S.  A vertex u carries a semiedge (a dangling half-edge, not a loop)
for each copy of 2u in S; semiedges contribute 1 to the degree and sit on the
adjacency diagonal.  A graph is stored as its neighbour-index array (the fold
of fullerene.py too), and one routine reads edges and semiedges off it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .abelian import Element, FiniteAbelianGroup
from .intlinalg import _int_tuple

__all__ = [
    "SumSet",
    "CaySumGraph",
    "cayley_sum_graph",
    "cayley_graph",
    "total_semiedge_count",
    "semiedge_count",
    "semiedge_counts",
    "sum_set_difference",
    "translate_sum_set",
    "graph_to_json",
    "graph_from_json",
]


@dataclass(frozen=True)
class SumSet:
    """Multiset of group elements, stored sorted as Python ints (a float
    coordinate raises ValueError); repetitions are meaningful."""

    group: FiniteAbelianGroup
    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(_int_tuple(x, "sum set coordinates") for x in self.elements))
        for x in elems:
            self.group._check(x)
        object.__setattr__(self, "elements", elems)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def array(self) -> np.ndarray:
        """The elements as the rows of a (size, rank) int64 array."""
        return _element_stack([self.elements], self.group.rank)[0]

    @cached_property
    def counts(self) -> Counter:
        return Counter(self.elements)

    def multiplicity(self, x: Element) -> int:
        return self.counts.get(tuple(x), 0)


class InvariantViolation(RuntimeError):
    """An internal consistency check failed for a constructed graph."""


class _NeighbourGraph:
    """A graph stored as a neighbour-index array: vertex i meets vertex
    neighbours[k, i] along its k-th incidence, itself for a semiedge.  The
    axes after the first flatten to the n_vertices vertex indices."""

    @cached_property
    def _incidence(self) -> tuple[dict[tuple[int, int], int], dict[int, int]]:
        """Index-keyed edges {(i, j): m, i < j} and semiedges {i: m}, nonzero
        entries only, in key order.  The incidence must be symmetric: i meets j
        exactly as often as j meets i."""
        flat = self.neighbours.reshape(-1, self.n_vertices)
        n = flat.shape[1]
        vertex = np.arange(n)
        out = np.sort(vertex * n + flat, axis=None)
        if not np.array_equal(out, np.sort(flat * n + vertex, axis=None)):
            raise InvariantViolation(f"asymmetric incidence in {self!r}")
        keys, mult = np.unique(out, return_counts=True)
        i, j = np.divmod(keys, n)
        edge, semi = i < j, i == j
        edges = dict(zip(zip(i[edge].tolist(), j[edge].tolist()), mult[edge].tolist()))
        return edges, dict(zip(i[semi].tolist(), mult[semi].tolist()))

    @property
    def edges(self) -> dict:
        return self._incidence[0]

    @property
    def semiedges(self) -> dict:
        return self._incidence[1]

    @property
    def total_semiedges(self) -> int:
        """Semiedge count, read straight off the neighbour array."""
        flat = self.neighbours.reshape(-1, self.n_vertices)
        return int(np.count_nonzero(flat == np.arange(flat.shape[1])))

    def degree(self, v) -> int:
        """Number of edge endpoints at v, counting each semiedge once."""
        return self.semiedges.get(v, 0) + sum(m for pair, m in self.edges.items() if v in pair)


@dataclass(frozen=True)
class CaySumGraph(_NeighbourGraph):
    """A Cayley sum graph, stored as the (|S|, n) neighbour-index array with
    neighbours[k, u] the index of s_k - u for the k-th element s_k of the
    sorted sum set: row k holds the edges that s_k contributes, and u = s_k - u
    is a semiedge.  edges maps vertex pairs (u, v), u < v lexicographically,
    to multiplicities and semiedges maps vertices to counts, nonzero only.
    """

    group: FiniteAbelianGroup
    sum_set: SumSet

    @property
    def n_vertices(self) -> int:
        return self.group.order

    @cached_property
    def neighbours(self) -> np.ndarray:
        group, size, n = self.group, self.sum_set.size, self.group.order
        labels = group.labels  # first: a group too large to index raises ValueError
        coords = self.sum_set.array.T[:, :, None] - labels[:, None, :]
        return group.indices(coords.reshape(group.rank, size * n)).reshape(size, n)

    @cached_property
    def edges(self) -> dict[tuple[Element, Element], int]:
        elements = self.group.element_tuple
        return {(elements[i], elements[j]): m for (i, j), m in self._incidence[0].items()}

    @cached_property
    def semiedges(self) -> dict[Element, int]:
        elements = self.group.element_tuple
        return {elements[i]: m for i, m in self._incidence[1].items()}

    def vertices(self) -> tuple[Element, ...]:
        return self.group.element_tuple

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric integer adjacency; diagonal holds semiedge counts.
        Entry (u, v) counts the incidences k with neighbours[k, u] = v."""
        n = self.n_vertices
        cells = self.neighbours + np.arange(0, n * n, n)
        return np.bincount(cells.ravel(), minlength=n * n).reshape(n, n)


def cayley_sum_graph(group: FiniteAbelianGroup, s: SumSet) -> CaySumGraph:
    """Build CayS(group, s); its neighbour array is computed on first use."""
    if s.group != group:
        raise ValueError("sum set belongs to a different group")
    return CaySumGraph(group=group, sum_set=s)


def total_semiedge_count(group: FiniteAbelianGroup, s: SumSet) -> int:
    """Adjacency trace of CayS(group, s), i.e. the total semiedge count."""
    if s.group != group:
        raise ValueError("sum set belongs to a different group")
    return semiedge_count(group, s.elements)


def semiedge_count(group: FiniteAbelianGroup, elements) -> int:
    """Total semiedge count of CayS(group, S) for a multiset S of reduced
    elements (sequences of residues), without checking them: semiedge_counts
    on the one row S."""
    return int(semiedge_counts(group, _element_stack([elements], group.rank))[0])


def semiedge_counts(group: FiniteAbelianGroup, elements: np.ndarray) -> np.ndarray:
    """Total semiedge counts of CayS(group, S_i) for a (K, m, rank) integer
    array of K multisets S_i of reduced elements, as a (K,) array.

    Counted arithmetically: each g in S contributes one semiedge per solution
    of 2u = g.  Solution counts factor over the coordinates (an odd modulus
    always has exactly one, an even modulus has two when the coordinate is
    even and none otherwise), so no graph is built: only the parities of the
    even-modulus coordinates are read, with the mask of even moduli taken
    from group.moduli alone, so no O(order) table is built.
    """
    even = [n % 2 == 0 for n in group.moduli]
    return ((elements & 1) @ np.array(even, dtype=np.int64) == 0).sum(axis=1) << sum(even)


def _element_stack(sum_sets, rank: int) -> np.ndarray:
    """sum_sets, a (K, m, rank) integer array or K sequences of m reduced
    elements each, as a (K, m, rank) int64 array.  Sum sets of unequal sizes
    and non-integer coordinates (floats, strings) raise ValueError."""
    try:
        stack = np.asarray(sum_sets)
    except ValueError:  # numpy refuses a ragged nesting
        raise ValueError("sum sets of unequal sizes or ranks cannot share a stack") from None
    if stack.dtype.kind not in "biu" and stack.size:  # an empty stack converts as float64
        raise ValueError(f"sum set coordinates must be integers, got dtype {stack.dtype}")
    k = len(stack)
    return stack.astype(np.int64, copy=False).reshape(k, stack.shape[1] if k else 0, rank)


def cayley_graph(group: FiniteAbelianGroup, connection: SumSet) -> np.ndarray:
    """Adjacency of the ordinary Cayley graph: A[u][v] = multiplicity of u - v.

    The connection multiset must be symmetric (closed under negation with
    multiplicity); the diagonal holds the multiplicity of 0.  A[u][v] is
    entry (u, -v) of the sum graph CayS(group, connection), diagonal included.
    """
    if connection.group != group:
        raise ValueError("connection multiset belongs to a different group")
    counts = connection.counts
    negated = Counter({group.neg(g): m for g, m in counts.items()})
    if negated != counts:
        raise ValueError("connection multiset is not symmetric under negation")
    return cayley_sum_graph(group, connection).adjacency_matrix()[:, group.indices(-group.labels)]


def sum_set_difference(s: SumSet) -> SumSet:
    """The difference multiset S - S, of size |S|^2 (always negation-symmetric)."""
    group = s.group
    return SumSet(group, tuple(group.sub(x, y) for x in s.elements for y in s.elements))


def translate_sum_set(s: SumSet, t: Element) -> SumSet:
    """Sum set of the translated graph x -> x + t, namely S + 2t."""
    group = s.group
    group._check(tuple(t))
    shift = group.double(tuple(t))
    return SumSet(group, tuple(group.add(x, shift) for x in s.elements))


def graph_to_json(graph: CaySumGraph) -> dict:
    """Wire format: moduli, sum_set, semiedges (by vertex index), edges [i, j, mult]."""
    edges, semiedges = graph._incidence
    return {
        "moduli": list(graph.group.moduli),
        "sum_set": [list(x) for x in graph.sum_set.elements],
        "semiedges": {str(i): m for i, m in semiedges.items()},
        "edges": [[i, j, m] for (i, j), m in edges.items()],
    }


def graph_from_json(obj: dict, max_order: int | None = None) -> CaySumGraph:
    """Rebuild a graph from its wire format; edge/semiedge fields, when present,
    are validated against the reconstruction.  Moduli, sum-set coordinates and
    edge/semiedge values must be integers, and a group of order above
    max_order (when given) is rejected before its graph is built."""
    try:
        moduli = tuple(obj["moduli"])
        sum_elements = tuple(tuple(x) for x in obj["sum_set"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph JSON missing or malformed field: {exc}") from exc
    if not all(type(v) is int for v in (*moduli, *(c for x in sum_elements for c in x))):
        raise ValueError("graph JSON moduli and sum_set coordinates must be integers")
    group = FiniteAbelianGroup(moduli)
    if max_order is not None and group.order > max_order:
        raise ValueError(f"group order {group.order} exceeds the limit {max_order}")
    graph = cayley_sum_graph(group, SumSet(group, sum_elements))
    payload = graph_to_json(graph)
    for field in ("edges", "semiedges"):
        if field in obj:
            given = obj[field]
            try:
                if field == "edges":
                    given = sorted([a, b, c] for a, b, c in given)
                else:
                    given = {str(k): v for k, v in given.items()}
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"graph JSON field {field!r} is malformed: {exc}") from exc
            values = chain.from_iterable(given) if field == "edges" else given.values()
            if not all(type(x) is int for x in values):
                raise ValueError(f"graph JSON field {field!r} must hold integers")
            if given != payload[field]:
                raise ValueError(f"graph JSON field {field!r} is inconsistent with its sum set")
    return graph
