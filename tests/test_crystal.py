from __future__ import annotations

import math
import random
from itertools import islice

import numpy as np
import pytest

from cagespec.abelian import DegenerateLatticeError
from cagespec.caysum import cayley_sum_graph, graph_to_json, total_semiedge_count
from cagespec.crystal import (
    MAX_DIMENSION,
    CrystalSpec,
    crystal_cayley,
    dd_basis,
    diamond_family,
    fullerene_crystal_spec,
    grid_family,
    path_family,
    to_basis_coords,
    unmatched_multiset,
)
from cagespec.fullerene import TriangleSpec, enumerate_specs, group_and_sumset
from cagespec.intlinalg import IntMatrix, det
from cagespec.spectra import character_spectrum, multiset_close, numeric_spectrum

RNG_SEED = 0xC4A7


def random_sublattice(rng: random.Random, d: int, max_index: int) -> IntMatrix:
    """Upper-triangular with positive diagonal: a transversal of all sublattices."""
    while True:
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = rng.randint(1, max_index)
            for j in range(i + 1, d):
                rows[i][j] = rng.randint(-3, 3)
        m = IntMatrix.from_rows(rows)
        if abs(det(m)) <= max_index:
            return m


# --- ambient basis -----------------------------------------------------------

def test_even_sum_basis_shape():
    assert dd_basis(1).to_lists() == [[2]]
    b2 = dd_basis(2)
    assert b2.column(0) == (1, 1)
    assert b2.column(1) == (1, -1)
    for d in range(1, MAX_DIMENSION + 1):
        b = dd_basis(d)
        assert abs(det(b)) == 2
        for j in range(d):
            assert sum(b.column(j)) % 2 == 0
    with pytest.raises(ValueError):
        dd_basis(0)
    with pytest.raises(ValueError):
        dd_basis(MAX_DIMENSION + 1)


def test_basis_coords_round_trip():
    rng = random.Random(RNG_SEED)
    for _ in range(60):
        d = rng.randint(1, 5)
        basis = dd_basis(d)
        coords = tuple(rng.randint(-5, 5) for _ in range(d))
        vector = basis.apply(coords)
        assert sum(vector) % 2 == 0
        assert to_basis_coords(basis, vector) == coords


def test_basis_coords_rejects_non_lattice_points():
    with pytest.raises(ValueError):
        to_basis_coords(dd_basis(3), (1, 0, 0))  # odd coordinate sum
    with pytest.raises(ValueError):
        to_basis_coords(dd_basis(2), (1, 1, 0))  # wrong length
    with pytest.raises(DegenerateLatticeError):
        to_basis_coords(IntMatrix.from_rows([[1, 1], [1, 1]]), (1, 1))


def test_crystal_spec_validation():
    with pytest.raises(ValueError):
        CrystalSpec(0, ((0,),), IntMatrix.from_rows([[2]]))
    with pytest.raises(ValueError):
        CrystalSpec(MAX_DIMENSION + 1, ((0,),) * 2, IntMatrix.identity(9))
    with pytest.raises(ValueError):
        CrystalSpec(1, (), IntMatrix.from_rows([[2]]))
    with pytest.raises(ValueError):
        CrystalSpec(2, ((0,),), IntMatrix.identity(2))
    with pytest.raises(ValueError):
        CrystalSpec(1, ((0,),), IntMatrix.identity(2))
    with pytest.raises(DegenerateLatticeError):
        CrystalSpec(2, ((0, 0),), IntMatrix.from_rows([[1, 1], [1, 1]]))
    # non-integer lifted entries raise instead of being truncated by int()
    for bad in (0.5, 2.0, "4", np.float64(3)):
        with pytest.raises(ValueError):
            CrystalSpec(1, ((bad,),), IntMatrix.from_rows([[2]]))
    spec = CrystalSpec(1, ((np.int64(4),),), IntMatrix.from_rows([[2]]))
    assert spec.lifted_sum_set == ((4,),) and type(spec.lifted_sum_set[0][0]) is int


# --- path family -------------------------------------------------------------

def test_path_graphs_have_path_spectra():
    # folding the even integers at n gives the n-path with end semiedges,
    # whose eigenvalues are 2 cos(pi k / n)
    for n in range(2, 13):
        spec = path_family(n)
        q, s, graph = crystal_cayley(spec)
        assert graph.n_vertices == n
        assert graph.total_semiedges == 2
        assert all(graph.degree(u) == 2 for u in graph.vertices())
        part = character_spectrum(graph)
        expected = sorted(
            (2 * math.cos(math.pi * k / n) for k in range(n)), reverse=True
        )
        assert multiset_close(part.full(), expected, 1e-9)
        assert part.unmatched_canonical == ((2,) if n % 2 else (2, 0))


def test_path_edges_form_a_path():
    _, _, graph = crystal_cayley(path_family(6))
    degrees_without_semiedges = {
        u: graph.degree(u) - graph.semiedges.get(u, 0) for u in graph.vertices()
    }
    counts = sorted(degrees_without_semiedges.values())
    assert counts == [1, 1, 2, 2, 2, 2]
    # the two degree-1 vertices carry the semiedges
    ends = {u for u, d in degrees_without_semiedges.items() if d == 1}
    assert ends == set(graph.semiedges)


def test_two_vertex_path_doubles_the_bond():
    _, _, graph = crystal_cayley(path_family(2))
    assert graph.adjacency_matrix().tolist() == [[1, 1], [1, 1]]


def test_path_rejects_degenerate_lengths():
    with pytest.raises(ValueError):
        path_family(1)
    with pytest.raises(ValueError):
        path_family(0)


# --- grid family -------------------------------------------------------------

def test_plane_grids_have_four_semiedges():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(20):
        sub = random_sublattice(rng, 2, 50)
        spec = grid_family(2, sub)
        q, s, graph = crystal_cayley(spec)
        assert graph.n_vertices == abs(det(sub))
        assert graph.total_semiedges == 4
        assert all(graph.degree(u) == 4 for u in graph.vertices())
        assert unmatched_multiset(spec) in ((4,), (4, 0))


def test_space_grids_have_four_six_or_eight_semiedges():
    # for d >= 3 the count is not 2^d: it depends on the sublattice
    for rows, semiedges, unmatched in (
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 6, (6,)),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 2]], 8, (6, 2)),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 1]], 4, (6, -2)),
    ):
        spec = grid_family(3, IntMatrix.from_rows(rows))
        q, s, graph = crystal_cayley(spec)
        assert graph.total_semiedges == semiedges
        assert total_semiedge_count(q.group, s) == semiedges
        assert all(graph.degree(u) == 6 for u in graph.vertices())
        assert unmatched_multiset(spec) == unmatched


def test_grid_index_28_instance():
    spec = grid_family(2, IntMatrix.from_rows([[4, 0], [0, 7]]))
    _, _, graph = crystal_cayley(spec)
    assert graph.n_vertices == 28
    assert graph.total_semiedges == 4
    assert unmatched_multiset(spec) == (4, 0)


def test_body_centered_grid_odd_dimension_only():
    with pytest.raises(ValueError):
        grid_family(2, IntMatrix.identity(2), a_choice="center")
    with pytest.raises(ValueError):
        grid_family(2, IntMatrix.identity(2), a_choice="face")


def test_body_centered_grid_in_doubled_lattice_has_no_semiedges():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(5):
        doubled = IntMatrix.from_rows(
            [[2 * x for x in row] for row in random_sublattice(rng, 3, 6).rows]
        )
        spec = grid_family(3, doubled, a_choice="center")
        _, _, graph = crystal_cayley(spec)
        assert graph.total_semiedges == 0
        assert all(graph.degree(u) == 6 for u in graph.vertices())


def test_one_dimensional_grid_is_the_path():
    assert grid_family(1, IntMatrix.from_rows([[7]])).lifted_sum_set == path_family(
        7
    ).lifted_sum_set


# --- diamond family ----------------------------------------------------------

def test_diamond_regularity_and_corner_semiedges():
    rng = random.Random(RNG_SEED + 3)
    for d in (2, 3, 4):
        sub = random_sublattice(rng, d, 24)
        spec = diamond_family(d, sub, a_choice="corner")
        _, _, graph = crystal_cayley(spec)
        degree = 2 ** (d - 1)
        assert all(graph.degree(u) == degree for u in graph.vertices())
        assert graph.total_semiedges >= degree
    with pytest.raises(ValueError):
        diamond_family(1, IntMatrix.from_rows([[2]]))
    with pytest.raises(ValueError):
        diamond_family(3, IntMatrix.identity(3), a_choice="middle")


def test_offset_diamond_in_doubled_lattice_loses_all_semiedges():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(10):
        doubled = IntMatrix.from_rows(
            [[2 * x for x in row] for row in random_sublattice(rng, 3, 8).rows]
        )
        spec = diamond_family(3, doubled, a_choice="offset")
        _, _, graph = crystal_cayley(spec)
        assert graph.total_semiedges == 0
        assert unmatched_multiset(spec) == (4, 0, -2, -2)


def test_eight_vertex_diamond_spectrum():
    spec = diamond_family(3, IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
                          a_choice="offset")
    _, _, graph = crystal_cayley(spec)
    assert graph.n_vertices == 8
    part = character_spectrum(graph)
    assert part.unmatched_raw == (4, 2, 0, 0, 0, -2, -2, -2)
    assert part.unmatched_canonical == (4, 0, -2, -2)
    numeric = numeric_spectrum(graph.adjacency_matrix().astype(float))
    assert multiset_close(part.full(), numeric, 1e-8)


# --- folded triangulations as crystals ---------------------------------------

def test_triangle_specs_reproduce_identical_graphs():
    specs = list(islice(enumerate_specs(12), 0, None, 40))
    assert len(specs) >= 10
    for t in specs:
        q, s = group_and_sumset(t)
        direct = cayley_sum_graph(q.group, s)
        _, _, via_crystal = crystal_cayley(fullerene_crystal_spec(t))
        assert graph_to_json(direct) == graph_to_json(via_crystal)


def test_crystal_spectrum_matches_graph_spectrum():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(10):
        sub = random_sublattice(rng, 2, 30)
        spec = grid_family(2, sub)
        _, _, graph = crystal_cayley(spec)
        assert unmatched_multiset(spec) == character_spectrum(graph).unmatched_canonical
