from __future__ import annotations

import json
import random

import numpy as np
import pytest

from cagespec.abelian import FiniteAbelianGroup, _moduli_tables
from cagespec.caysum import (
    CaySumGraph,
    SumSet,
    cayley_graph,
    cayley_sum_graph,
    graph_from_json,
    graph_to_json,
    semiedge_count,
    sum_set_difference,
    total_semiedge_count,
    translate_sum_set,
)
from cagespec.spectra import character_spectrum, multiset_close, sum_set_spectrum

RNG_SEED = 0xCA75


def random_group(rng: random.Random, max_order: int = 60) -> FiniteAbelianGroup:
    while True:
        k = rng.randint(1, 3)
        moduli = tuple(rng.randint(1, 12) for _ in range(k))
        g = FiniteAbelianGroup(moduli)
        if g.order <= max_order:
            return g


def random_sum_set(rng: random.Random, g: FiniteAbelianGroup, max_size: int = 5) -> SumSet:
    size = rng.randint(1, max_size)
    return SumSet(g, tuple(rng.choice(g.element_tuple) for _ in range(size)))


def brute_adjacency(g: FiniteAbelianGroup, s: SumSet) -> np.ndarray:
    """All-pairs reference: entry (u, v) is the multiplicity of u + v in S."""
    elems = g.element_tuple
    n = g.order
    a = np.zeros((n, n), dtype=np.int64)
    for i, u in enumerate(elems):
        for j, v in enumerate(elems):
            a[i, j] = s.multiplicity(g.add(u, v))
    return a


def brute_cayley(g: FiniteAbelianGroup, connection: SumSet) -> np.ndarray:
    """All-pairs reference: entry (u, v) is the multiplicity of u - v."""
    elems = g.element_tuple
    rows = [[connection.multiplicity(g.sub(u, v)) for v in elems] for u in elems]
    return np.array(rows, dtype=np.int64)


def test_sum_set_is_sorted_multiset():
    g = FiniteAbelianGroup((2, 3))
    s = SumSet(g, ((1, 2), (0, 1), (1, 2)))
    assert s.elements == ((0, 1), (1, 2), (1, 2))
    assert s.size == 3
    assert s.multiplicity((1, 2)) == 2
    assert s.multiplicity((0, 0)) == 0


def test_sum_set_rejects_foreign_elements():
    g = FiniteAbelianGroup((2, 3))
    with pytest.raises(ValueError):
        SumSet(g, ((2, 0),))
    with pytest.raises(ValueError):
        SumSet(g, ((0,),))


def test_sum_set_stores_python_ints():
    # bools and numpy integers convert, so a bool coordinate is written to
    # JSON as 1 (not true) and the graph reads back
    g = FiniteAbelianGroup((2, 3))
    s = SumSet(g, ((0, 1), (1, 2)))
    for given in (((0, True), (True, 2)), ((np.int64(0), np.uint8(1)), np.array([1, 2]))):
        same = SumSet(g, given)
        assert same == s and all(type(c) is int for x in same.elements for c in x)
    payload = json.loads(json.dumps(graph_to_json(cayley_sum_graph(g, SumSet(g, ((0, True),))))))
    assert payload["sum_set"] == [[0, 1]]
    assert graph_from_json(payload).sum_set.elements == ((0, 1),)
    for bad in (((0, 1.0),), ((0, np.float64(1)),), (("0", 1),)):
        with pytest.raises(ValueError, match="must be integers"):
            SumSet(g, bad)


def test_adjacency_matches_all_pairs_oracle():
    rng = random.Random(RNG_SEED)
    for _ in range(40):
        g = random_group(rng)
        s = random_sum_set(rng, g)
        graph = cayley_sum_graph(g, s)
        assert np.array_equal(graph.adjacency_matrix(), brute_adjacency(g, s))


def test_graph_is_regular_of_degree_sum_set_size():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(30):
        g = random_group(rng)
        s = random_sum_set(rng, g)
        graph = cayley_sum_graph(g, s)
        adj = graph.adjacency_matrix()
        assert np.array_equal(adj, adj.T)
        # a semiedge contributes once to its endpoint's degree
        assert all(int(x) == s.size for x in adj.sum(axis=0))
        for u in g.element_tuple:
            assert graph.degree(u) == s.size


def test_semiedge_locations_and_trace():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(40):
        g = random_group(rng)
        s = random_sum_set(rng, g)
        graph = cayley_sum_graph(g, s)
        adj = graph.adjacency_matrix()
        for u in g.element_tuple:
            expected = s.multiplicity(g.double(u))
            assert graph.semiedges.get(u, 0) == expected
            assert adj[g.index_of(u), g.index_of(u)] == expected
        assert graph.total_semiedges == int(np.trace(adj))
        assert total_semiedge_count(g, s) == graph.total_semiedges


def test_semiedge_count_without_building_the_graph():
    # the arithmetic count must agree with the trace on larger groups too
    rng = random.Random(RNG_SEED + 3)
    for _ in range(200):
        g = random_group(rng, max_order=400)
        s = random_sum_set(rng, g)
        total = 0
        for u in g.element_tuple:
            total += s.multiplicity(g.double(u))
        assert total_semiedge_count(g, s) == total


def test_semiedge_count_reads_only_the_moduli():
    # the count needs the even moduli alone: on a group of order 10^6 it
    # builds none of the O(order) character tables
    misses = _moduli_tables.cache_info().misses
    assert semiedge_count(FiniteAbelianGroup((1000, 1000)), [(0, 2), (1, 3), (0, 0)]) == 8
    assert _moduli_tables.cache_info().misses == misses


def test_semiedge_count_rejects_non_integer_coordinates():
    # a float coordinate used to be truncated: (0, 1.9) counted as (0, 1)
    g = FiniteAbelianGroup((2, 4))
    elements = [(0, 1.9), (1, 3), (0, 0)]
    for given in (elements, np.array(elements)):
        with pytest.raises(ValueError, match="must be integers"):
            semiedge_count(g, given)
    assert semiedge_count(g, np.array([(0, 2), (1, 3), (0, 0)], dtype=np.uint8)) == 8
    assert semiedge_count(g, [(0, True), (1, 3), (False, 0)]) == 4
    assert semiedge_count(g, []) == 0


def test_no_loops_only_semiedges():
    g = FiniteAbelianGroup((4,))
    s = SumSet(g, ((2,),))
    graph = cayley_sum_graph(g, s)
    # 2u = 2 has the two solutions u = 1, 3; the edge set pairs 0 with 2
    assert graph.semiedges == {(1,): 1, (3,): 1}
    assert graph.edges == {((0,), (2,)): 1}


def test_translation_preserves_the_spectrum():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(25):
        g = random_group(rng)
        s = random_sum_set(rng, g)
        t = rng.choice(g.element_tuple)
        shifted = translate_sum_set(s, t)
        assert shifted.elements == tuple(
            sorted(g.add(x, g.double(t)) for x in s.elements)
        )
        a = character_spectrum(cayley_sum_graph(g, s))
        b = character_spectrum(cayley_sum_graph(g, shifted))
        assert a.unmatched_raw == b.unmatched_raw
        assert multiset_close(a.full(), b.full(), 1e-9)


def test_squared_adjacency_is_difference_cayley_graph():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(30):
        g = random_group(rng)
        s = random_sum_set(rng, g)
        adj = cayley_sum_graph(g, s).adjacency_matrix()
        diff = sum_set_difference(s)
        assert np.array_equal(adj @ adj, cayley_graph(g, diff))


def test_difference_set_is_symmetric_with_square_size():
    rng = random.Random(RNG_SEED + 6)
    for _ in range(20):
        g = random_group(rng)
        s = random_sum_set(rng, g)
        diff = sum_set_difference(s)
        assert diff.size == s.size * s.size
        assert sorted(diff.elements) == sorted(g.neg(x) for x in diff.elements)


def test_cayley_graph_matches_all_pairs_oracle():
    rng = random.Random(RNG_SEED + 8)
    cases = []
    for _ in range(30):
        g = random_group(rng)
        cases.append((g, sum_set_difference(random_sum_set(rng, g, max_size=3))))
    # the trivial group, and a connection with multiplicity 2
    trivial, z6 = FiniteAbelianGroup(()), FiniteAbelianGroup((6,))
    cases.append((trivial, SumSet(trivial, ((),))))
    cases.append((z6, SumSet(z6, ((1,), (1,), (5,), (5,), (3,)))))
    for g, connection in cases:
        a = cayley_graph(g, connection)
        assert a.dtype == np.int64
        assert np.array_equal(a, brute_cayley(g, connection))


@pytest.mark.parametrize(
    "moduli, elements",
    [((), ()), ((), ((),)), ((), ((), ())), ((6,), ()), ((2, 3), ())],
)
def test_trivial_group_and_empty_sum_set(moduli, elements):
    g = FiniteAbelianGroup(moduli)
    s = SumSet(g, elements)
    graph = cayley_sum_graph(g, s)
    assert graph.edges == {}
    assert graph.semiedges == ({(): s.size} if s.size else {})
    assert np.array_equal(graph.adjacency_matrix(), brute_adjacency(g, s))
    assert np.array_equal(cayley_graph(g, s), brute_cayley(g, s))
    back = graph_from_json(json.loads(json.dumps(graph_to_json(graph))))
    assert back == graph
    assert (back.edges, back.semiedges) == (graph.edges, graph.semiedges)


def test_cayley_graph_requires_symmetric_connection_set():
    g = FiniteAbelianGroup((5,))
    with pytest.raises(ValueError):
        cayley_graph(g, SumSet(g, ((1,),)))
    adj = cayley_graph(g, SumSet(g, ((1,), (4,))))
    assert np.array_equal(adj, adj.T)
    assert all(int(x) == 2 for x in adj.sum(axis=0))


def test_mismatched_group_raises():
    g = FiniteAbelianGroup((2, 3))
    h = FiniteAbelianGroup((2, 3))
    other = FiniteAbelianGroup((6,))
    s = SumSet(g, ((1, 1),))
    assert cayley_sum_graph(h, s).n_vertices == 6  # equal groups are fine
    with pytest.raises(ValueError):
        cayley_sum_graph(other, s)
    with pytest.raises(ValueError):
        total_semiedge_count(other, s)
    with pytest.raises(ValueError, match="different group"):
        cayley_graph(other, s)
    with pytest.raises(ValueError, match="different group"):
        sum_set_spectrum(other, s)


def test_json_round_trip():
    rng = random.Random(RNG_SEED + 7)
    for _ in range(20):
        g = random_group(rng)
        s = random_sum_set(rng, g)
        graph = cayley_sum_graph(g, s)
        payload = json.loads(json.dumps(graph_to_json(graph)))
        back = graph_from_json(payload)
        assert back.group.moduli == g.moduli
        assert back.sum_set.elements == s.elements
        assert back.edges == graph.edges
        assert back.semiedges == graph.semiedges
        assert np.array_equal(back.adjacency_matrix(), graph.adjacency_matrix())


def test_json_without_derived_fields_is_rebuilt():
    g = FiniteAbelianGroup((2, 20))
    s = SumSet(g, ((0, 0), (1, 6), (1, 7)))
    graph = cayley_sum_graph(g, s)
    payload = graph_to_json(graph)
    del payload["edges"]
    del payload["semiedges"]
    back = graph_from_json(payload)
    assert back.edges == graph.edges
    assert back.semiedges == graph.semiedges


def test_json_validation_rejects_tampering():
    g = FiniteAbelianGroup((2, 20))
    s = SumSet(g, ((0, 0), (1, 6), (1, 7)))
    payload = graph_to_json(cayley_sum_graph(g, s))
    bad = json.loads(json.dumps(payload))
    bad["edges"][0][2] += 1
    with pytest.raises(ValueError):
        graph_from_json(bad)
    bad = json.loads(json.dumps(payload))
    bad["semiedges"]["0"] = 7
    with pytest.raises(ValueError):
        graph_from_json(bad)


def test_graph_vertices_follow_group_order():
    g = FiniteAbelianGroup((2, 3))
    s = SumSet(g, ((1, 0),))
    graph = cayley_sum_graph(g, s)
    assert graph.vertices() == g.element_tuple
    assert graph.n_vertices == 6
    assert isinstance(graph, CaySumGraph)
