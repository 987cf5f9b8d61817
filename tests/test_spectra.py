from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from cagespec.abelian import FiniteAbelianGroup
from cagespec.caysum import SumSet, cayley_sum_graph
from cagespec.fullerene import TriangleSpec, group_and_sumset
from cagespec.spectra import (
    EIGENSOLVER_TOL,
    MATCH_TOL,
    ConvergenceError,
    SpectrumPartition,
    canonical_unmatched,
    character_spectrum,
    eigenvectors,
    multiset_close,
    numeric_spectrum,
    spectrum_is_paired,
    sum_set_spectrum,
)

RNG_SEED = 0x5EC7


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


def brute_partition(g: FiniteAbelianGroup, s: SumSet):
    """Character sums evaluated one by one through the group's own API."""
    unmatched = []
    for a in g.involutive_elements():
        total = sum(g.character_sign(a, x) for x in s.elements)
        unmatched.append(total)
    paired = []
    for a in g.conjugate_pair_reps():
        z = sum(g.character_value(a, x) for x in s.elements)
        paired.append(abs(z))
    return sorted(unmatched, reverse=True), sorted(paired)


# --- canonical form of the unmatched multiset --------------------------------

def test_canonical_unmatched_cases():
    assert canonical_unmatched(()) == ()
    assert canonical_unmatched((3, -1, -1, -1)) == (3, -1, -1, -1)
    assert canonical_unmatched((3, 1, 1, -1)) == (3, 1)
    assert canonical_unmatched((3, -1)) == (3, -1)
    assert canonical_unmatched((3,)) == (3,)
    assert canonical_unmatched((2, -2)) == ()
    assert canonical_unmatched((4, 2, 0, 0, 0, -2, -2, -2)) == (4, 0, -2, -2)
    # zeros cancel in pairs, keeping one when the count is odd
    assert canonical_unmatched((0, 0)) == ()
    assert canonical_unmatched((0, 0, 0)) == (0,)
    assert canonical_unmatched((5, 5, -5)) == (5,)


def test_canonical_unmatched_is_descending_and_idempotent():
    rng = random.Random(RNG_SEED)
    for _ in range(200):
        values = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 8)))
        canon = canonical_unmatched(values)
        assert canon == tuple(sorted(canon, reverse=True))
        assert canonical_unmatched(canon) == canon
        # same total: cancelled pairs contribute zero
        assert sum(canon) == sum(values)
        # no {+x, -x} pair survives for x != 0; at most one zero survives
        for x in canon:
            if x > 0:
                assert -x not in canon
        assert canon.count(0) <= 1


def test_spectrum_is_paired_accepts_and_rejects():
    assert spectrum_is_paired([2.0, 1.0, -1.0, -2.0], ())
    assert spectrum_is_paired([3.0, 1.0, -1.0], (3.0,))
    assert spectrum_is_paired([3.0, 1.0, -1.0 + 5e-9], (3.0,), tol=1e-8)
    assert not spectrum_is_paired([3.0, 1.0, 1.0, -1.0], (3.0,))
    assert not spectrum_is_paired([1.0, -1.01], (), tol=1e-8)
    # removing the unmatched values must leave a negation-symmetric remainder
    assert spectrum_is_paired([2.0, -2.0], (2.0, -2.0))
    assert not spectrum_is_paired([1.0, -1.0], (3.0,))
    assert spectrum_is_paired([], ())


def test_multiset_close():
    assert multiset_close([1.0, 2.0], [2.0, 1.0])
    assert multiset_close([1.0, 2.0], [2.0 + 1e-9, 1.0 - 1e-9])
    assert not multiset_close([1.0, 2.0], [1.0])
    assert not multiset_close([1.0], [1.1])


# --- character spectrum ------------------------------------------------------

def test_sum_set_spectrum_matches_per_character_sums():
    rng = random.Random(RNG_SEED + 1)
    # random groups, then the trivial group and rank-3 groups with several even moduli
    fixed = [FiniteAbelianGroup(m) for m in ((), (2, 4, 6), (2, 2, 8))]
    for g in itertools.chain((random_group(rng) for _ in range(50)), fixed):
        s = random_sum_set(rng, g)
        part = sum_set_spectrum(g, s)
        unmatched, paired = brute_partition(g, s)
        assert list(part.unmatched_raw) == unmatched
        assert multiset_close(sorted(part.paired), paired, 1e-9)
        assert len(part.unmatched_raw) + 2 * len(part.paired) == g.order
        assert sum(part.unmatched_raw) == part.semiedge_total


def test_rank_two_groups_agree_with_per_character_sums():
    # quotients of the plane all land in the two-modulus representation
    rng = random.Random(RNG_SEED + 2)
    for _ in range(30):
        m0 = rng.choice((2, 4, 6))
        m1 = m0 * rng.randint(1, 8)
        g = FiniteAbelianGroup((m0, m1))
        s = random_sum_set(rng, g, max_size=3)
        part = sum_set_spectrum(g, s)
        unmatched, paired = brute_partition(g, s)
        assert list(part.unmatched_raw) == unmatched
        assert multiset_close(sorted(part.paired), paired, 1e-9)


def test_character_spectrum_of_graph():
    g = FiniteAbelianGroup((2, 20))
    s = SumSet(g, ((0, 0), (1, 6), (1, 7)))
    graph = cayley_sum_graph(g, s)
    part = character_spectrum(graph)
    assert part.semiedge_total == 4
    assert part.unmatched_raw == (3, 1, 1, -1)
    assert part.unmatched_canonical == (3, 1)
    full = part.full()
    assert len(full) == 40
    assert full == sorted(full, reverse=True)
    assert abs(sum(full) - 4.0) < 1e-9


def test_partition_json_shape():
    part = SpectrumPartition(
        semiedge_total=2,
        unmatched_raw=(3, -1),
        unmatched_canonical=(3, -1),
        paired=(1.5,),
    )
    payload = part.to_json()
    assert payload == {
        "s": 2,
        "M_raw": [3, -1],
        "M_canonical": [3, -1],
        "paired": [1.5],
        "full": [3.0, 1.5, -1.0, -1.5],
    }


# --- numeric oracle ----------------------------------------------------------

def test_numeric_spectrum_matches_numpy():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        n = int(rng.integers(1, 26))
        a = rng.integers(-5, 6, size=(n, n)).astype(float)
        a = a + a.T
        ours = numeric_spectrum(a)
        reference = sorted(np.linalg.eigvalsh(a).tolist(), reverse=True)
        assert len(ours) == n
        assert max(abs(x - y) for x, y in zip(ours, reference)) < 1e-9


def test_numeric_spectrum_input_validation():
    with pytest.raises(ValueError):
        numeric_spectrum(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        numeric_spectrum(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert numeric_spectrum(np.array([[7.0]])) == [7.0]


def test_numeric_spectrum_sweep_budget():
    rng = np.random.default_rng(RNG_SEED + 1)
    a = rng.integers(-5, 6, size=(10, 10)).astype(float)
    a = a + a.T
    with pytest.raises(ConvergenceError):
        numeric_spectrum(a, max_sweeps=1)


def test_numeric_agrees_with_characters_on_cubic_quotient():
    # 40-vertex regression case: the off-diagonal norm must be measured
    # directly, not via a cancellation-prone subtraction
    q, s = group_and_sumset(TriangleSpec(6, 2, -2, 6, 0, 0))
    graph = cayley_sum_graph(q.group, s)
    part = character_spectrum(graph)
    numeric = numeric_spectrum(graph.adjacency_matrix().astype(float))
    assert multiset_close(part.full(), numeric, MATCH_TOL)


def test_numeric_agrees_with_characters_randomly():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(15):
        g = random_group(rng, max_order=40)
        s = random_sum_set(rng, g)
        graph = cayley_sum_graph(g, s)
        part = character_spectrum(graph)
        numeric = numeric_spectrum(graph.adjacency_matrix().astype(float))
        assert multiset_close(part.full(), numeric, MATCH_TOL)


# --- eigenvectors ------------------------------------------------------------

def test_eigenvectors_form_an_orthonormal_eigenbasis():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(15):
        g = random_group(rng, max_order=40)
        s = random_sum_set(rng, g)
        graph = cayley_sum_graph(g, s)
        pairs = eigenvectors(graph)
        assert len(pairs) == g.order
        adjacency = graph.adjacency_matrix().astype(float)
        basis = np.column_stack([p.vector for p in pairs])
        values = np.array([p.value for p in pairs])
        for p in pairs:
            assert p.residual <= 1e-9
            recomputed = np.max(np.abs(adjacency @ p.vector - p.value * p.vector))
            assert recomputed <= 1e-9
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(g.order))) < 1e-8
        # completeness: the basis diagonalizes the adjacency matrix
        rebuilt = basis @ np.diag(values) @ basis.T
        assert np.max(np.abs(rebuilt - adjacency)) < 1e-8


def test_eigenvector_values_match_character_spectrum():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(10):
        g = random_group(rng, max_order=40)
        s = random_sum_set(rng, g)
        graph = cayley_sum_graph(g, s)
        values = [p.value for p in eigenvectors(graph)]
        assert multiset_close(values, character_spectrum(graph).full(), 1e-9)


def test_tolerance_constants():
    assert EIGENSOLVER_TOL == 1e-12
    assert MATCH_TOL == 1e-8
