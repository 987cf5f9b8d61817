"""Cayley sum graphs (and ordinary Cayley graphs) over finite abelian groups.

In a Cayley sum graph two distinct vertices u, v are joined iff u + v lies in
the connection multiset S, with edge multiplicity equal to the multiplicity of
u + v in S.  A vertex u carries a semiedge (a dangling half-edge, not a loop)
for each copy of 2u in S; semiedges contribute 1 to the degree and sit on the
adjacency diagonal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .abelian import Element, FiniteAbelianGroup

__all__ = [
    "SumSet",
    "CaySumGraph",
    "cayley_sum_graph",
    "cayley_graph",
    "total_semiedge_count",
    "sum_set_difference",
    "translate_sum_set",
    "graph_to_json",
    "graph_from_json",
]


@dataclass(frozen=True)
class SumSet:
    """Multiset of group elements, stored sorted; repetitions are meaningful."""

    group: FiniteAbelianGroup
    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(tuple(x) for x in self.elements))
        for x in elems:
            self.group._check(x)
        object.__setattr__(self, "elements", elems)

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def counts(self) -> Counter:
        return Counter(self.elements)

    def multiplicity(self, x: Element) -> int:
        return self.counts.get(tuple(x), 0)


@dataclass(frozen=True)
class CaySumGraph:
    """A Cayley sum graph with explicit edge multiplicities and semiedge counts.

    edges maps unordered vertex pairs, keyed (u, v) with u < v lexicographically,
    to multiplicities; semiedges maps vertices to their semiedge count.  Only
    nonzero entries are stored.
    """

    group: FiniteAbelianGroup
    sum_set: SumSet
    edges: dict[tuple[Element, Element], int]
    semiedges: dict[Element, int]

    @property
    def n_vertices(self) -> int:
        return self.group.order

    @property
    def total_semiedges(self) -> int:
        return sum(self.semiedges.values())

    def vertices(self) -> tuple[Element, ...]:
        return self.group.element_tuple

    def degree(self, u: Element) -> int:
        """Number of edge endpoints at u, counting each semiedge once."""
        deg = self.semiedges.get(u, 0)
        for (x, y), m in self.edges.items():
            if x == u or y == u:
                deg += m
        return deg

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric integer adjacency; diagonal holds semiedge counts."""
        n = self.group.order
        a = np.zeros((n, n), dtype=np.int64)
        index = self.group.index_of
        for (u, v), m in self.edges.items():
            i, j = index(u), index(v)
            a[i, j] = m
            a[j, i] = m
        for u, m in self.semiedges.items():
            i = index(u)
            a[i, i] = m
        return a


def cayley_sum_graph(group: FiniteAbelianGroup, s: SumSet) -> CaySumGraph:
    """Build CayS(group, s).

    Adjacency is generated per vertex from v = g - u over the distinct values
    g of the sum set, so construction is O(|group| * |s|).
    """
    if s.group != group:
        raise ValueError("sum set belongs to a different group")
    moduli = group.moduli
    items = list(s.counts.items())
    edges: dict[tuple[Element, Element], int] = {}
    semiedges: dict[Element, int] = {}
    for u in group.element_tuple:
        for g, m in items:
            v = tuple((a - b) % n for a, b, n in zip(g, u, moduli))
            if v == u:
                semiedges[u] = m
            elif u < v:
                edges[(u, v)] = m
    return CaySumGraph(group=group, sum_set=s, edges=edges, semiedges=semiedges)


def total_semiedge_count(group: FiniteAbelianGroup, s: SumSet) -> int:
    """Adjacency trace of CayS(group, s), i.e. the total semiedge count.

    Counted arithmetically: each g in S contributes mult(g) semiedges per
    solution of 2u = g.  Solution counts factor over the coordinates (an odd
    modulus always has exactly one, an even modulus has two when the
    coordinate is even and none otherwise), so no graph is built.
    """
    if s.group != group:
        raise ValueError("sum set belongs to a different group")
    moduli = group.moduli
    total = 0
    for g, m in s.counts.items():
        k = 1
        for gi, n in zip(g, moduli):
            if n % 2 == 0:
                if gi % 2:
                    k = 0
                    break
                k *= 2
        total += m * k
    return total


def cayley_graph(group: FiniteAbelianGroup, connection: SumSet) -> np.ndarray:
    """Adjacency of the ordinary Cayley graph: A[u][v] = multiplicity of u - v.

    The connection multiset must be symmetric (closed under negation with
    multiplicity); the diagonal holds the multiplicity of 0.
    """
    if connection.group != group:
        raise ValueError("connection multiset belongs to a different group")
    counts = connection.counts
    negated = Counter({group.neg(g): m for g, m in counts.items()})
    if negated != counts:
        raise ValueError("connection multiset is not symmetric under negation")
    n = group.order
    a = np.zeros((n, n), dtype=np.int64)
    index = group.index_of
    for u in group.element_tuple:
        i = index(u)
        for g, m in counts.items():
            v = group.sub(u, g)
            a[i, index(v)] = m
    return a


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
    index = graph.group.index_of
    edges = sorted((index(u), index(v), m) for (u, v), m in graph.edges.items())
    semi = {str(index(u)): m for u, m in graph.semiedges.items()}
    return {
        "moduli": list(graph.group.moduli),
        "sum_set": [list(x) for x in graph.sum_set.elements],
        "semiedges": dict(sorted(semi.items(), key=lambda kv: int(kv[0]))),
        "edges": [list(e) for e in edges],
    }


def graph_from_json(obj: dict) -> CaySumGraph:
    """Rebuild a graph from its wire format; edge/semiedge fields, when present,
    are validated against the reconstruction."""
    try:
        moduli = tuple(int(n) for n in obj["moduli"])
        sum_elements = tuple(tuple(int(c) for c in x) for x in obj["sum_set"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph JSON missing or malformed field: {exc}") from exc
    group = FiniteAbelianGroup(moduli)
    graph = cayley_sum_graph(group, SumSet(group, sum_elements))
    payload = graph_to_json(graph)
    for field in ("edges", "semiedges"):
        if field in obj:
            given = obj[field]
            try:
                if field == "edges":
                    given = sorted([int(a), int(b), int(c)] for a, b, c in given)
                else:
                    given = {str(k): int(v) for k, v in given.items()}
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"graph JSON field {field!r} is malformed: {exc}") from exc
            if given != payload[field]:
                raise ValueError(f"graph JSON field {field!r} is inconsistent with its sum set")
    return graph
