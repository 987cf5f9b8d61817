from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from cagespec.abelian import FiniteAbelianGroup, _moduli_tables
from cagespec.caysum import SumSet, cayley_sum_graph
from cagespec.fullerene import TriangleSpec, group_and_sumset
from cagespec.spectra import (
    EIGENSOLVER_TOL,
    MATCH_TOL,
    ConvergenceError,
    SpectrumPartition,
    _householder,
    canonical_unmatched,
    character_spectrum,
    eigenvectors,
    multiset_close,
    numeric_spectrum,
    spectrum_is_paired,
    sum_set_spectra,
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
    # an odd remainder is never paired, not even a lone 0
    assert not spectrum_is_paired([0.0], ())
    assert not spectrum_is_paired([3.0, 0.0], (3.0,))
    # a tie removes the first nearest value (-1.0), which leaves [1.0, 1.0]
    assert not spectrum_is_paired([1.0, -1.0, 1.0], (0.0,))
    # a NaN matches nothing
    assert not spectrum_is_paired([float("nan")], (0.0,))
    assert not spectrum_is_paired([float("nan"), 1.0, -1.0], (0.0,))


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
    # the trivial group runs the same DFT check: its one character value is |S|
    trivial = FiniteAbelianGroup(())
    for size in range(3):
        graph = cayley_sum_graph(trivial, SumSet(trivial, ((),) * size))
        assert character_spectrum(graph) == SpectrumPartition(size, (size,), (size,), ())


# Stacks over ranks 0-3 with odd and even moduli: one row per sum set, the
# stack's rows all of one size.
STACK_MODULI = [(), (5,), (6,), (3, 9), (2, 10), (4, 6), (3, 5, 7), (2, 3, 4), (2, 2, 6)]


def test_stacked_spectra_equal_row_by_row_spectra():
    rng = random.Random(RNG_SEED + 5)
    for moduli in STACK_MODULI:
        g = FiniteAbelianGroup(moduli)
        for size in range(6):
            k = rng.randint(1, 6)
            rows = [[rng.choice(g.element_tuple) for _ in range(size)] for _ in range(k)]
            stacked = sum_set_spectra(g, rows)
            array = np.array(rows, dtype=np.int64).reshape(k, size, g.rank)
            assert sum_set_spectra(g, array) == stacked
            for row, part in zip(rows, stacked):
                s = SumSet(g, tuple(row))
                assert part == sum_set_spectrum(g, s)
                signs = [sum(g.character_sign(a, x) for x in row) for a in g.involutive_elements()]
                assert list(part.unmatched_raw) == sorted(signs, reverse=True)
                assert part.semiedge_total == cayley_sum_graph(g, s).total_semiedges
        assert sum_set_spectra(g, []) == []


def test_spectra_do_not_depend_on_element_order():
    # the fullerene sweep passes its sum sets in edge order, not sorted: the
    # spectra of permuted rows must equal those of the sorted rows, floats
    # included
    rng = random.Random(RNG_SEED + 7)
    for moduli in STACK_MODULI:
        g = FiniteAbelianGroup(moduli)
        for size in (3, 4, 6):
            rows = []
            for _ in range(8):
                drawn = [rng.choice(g.element_tuple) for _ in range(size - 1)]
                rows.append(sorted([*drawn, rng.choice(drawn)]))  # one repeat at least
            permuted = [rng.sample(row, size) for row in rows]
            assert any(p != row for p, row in zip(permuted, rows)) or g.order == 1
            assert sum_set_spectra(g, permuted) == sum_set_spectra(g, rows)
            for p, row in zip(permuted, rows):
                assert sum_set_spectra(g, [p]) == [sum_set_spectrum(g, SumSet(g, tuple(row)))]


def test_moduli_tables_match_the_group_enumerations():
    # index arithmetic on one side, tuple enumeration on the other; the 1s
    # among the drawn moduli are dropped by the group
    rng = random.Random(RNG_SEED + 6)
    drawn = [tuple(rng.randint(1, 8) for _ in range(rng.randint(0, 3))) for _ in range(60)]
    for moduli in [(), (1,), (2,), (7,), (1, 4, 1), (2, 2, 2), (3, 6, 5), *drawn]:
        g = FiniteAbelianGroup(moduli)
        activity, invol, reps = _moduli_tables(g.moduli)
        involutive = g.involutive_elements()
        assert invol.tolist() == [g.index_of(a) for a in involutive]
        assert reps.tolist() == sorted(g.index_of(a) for a in g.conjugate_pair_reps())
        assert activity.shape == (g.rank, len(involutive))
        for j, row in enumerate(activity.tolist()):
            assert row == [int(a[j] != 0) for a in involutive]
        for table in (activity, invol, reps):
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0


def test_spectra_reject_non_integer_coordinates():
    # a float coordinate used to be truncated: (0, 1.9) gave the spectrum of (0, 1)
    g = FiniteAbelianGroup((2, 4))
    rows = [[(0, 1.9), (1, 3), (0, 0)]]
    for given in (rows, np.array(rows), [["0", "1"]]):
        with pytest.raises(ValueError, match="must be integers"):
            sum_set_spectra(g, given)
    with pytest.raises(ValueError, match="must be integers"):
        sum_set_spectrum(g, SumSet(g, rows[0]))
    # integer dtypes other than int64, and bools, still convert
    expected = sum_set_spectra(g, [[(0, 1), (1, 3), (0, 0)]])
    assert sum_set_spectra(g, np.array([[(0, 1), (1, 3), (0, 0)]], dtype=np.uint8)) == expected
    assert sum_set_spectra(g, [[(0, True), (True, 3), (0, False)]]) == expected


def test_stacked_spectra_reject_sum_sets_of_unequal_sizes():
    g = FiniteAbelianGroup((2, 6))
    for rows in ([[(0, 1)], [(1, 2), (0, 3)]], [[], [(1, 1)]], [[(0, 0)] * 3, [(1, 5)] * 5]):
        with pytest.raises(ValueError, match="unequal sizes"):
            sum_set_spectra(g, rows)
    with pytest.raises(ValueError, match="unequal sizes"):
        sum_set_spectra(FiniteAbelianGroup(()), [[()], [(), ()]])


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


def assert_matches_eigvalsh(a, **kwargs):
    ours = numeric_spectrum(a, **kwargs)
    reference = sorted(np.linalg.eigvalsh(a).tolist(), reverse=True)
    assert len(ours) == len(reference)
    assert max(abs(x - y) for x, y in zip(ours, reference)) < 1e-9
    return ours


def test_numeric_spectrum_edge_cases():
    rng = np.random.default_rng(RNG_SEED + 2)
    # off-diagonal part at most tol: the early exit returns before any pass
    tiny = rng.uniform(-0.5, 0.5, size=(6, 6)) * EIGENSOLVER_TOL / 6
    below_threshold = np.diag(np.arange(6.0)) + tiny + tiny.T
    for a in (np.zeros((5, 5)), np.diag([3.0, -1.0, 0.0, 2.5, -1.0]), below_threshold):
        assert_matches_eigvalsh(a, max_sweeps=1)
    # complete graphs: eigenvalue -1 of multiplicity n - 1
    for n in (7, 8):
        ours = assert_matches_eigvalsh(np.ones((n, n)) - np.eye(n))
        assert max(abs(x - y) for x, y in zip(ours, [n - 1.0] + [-1.0] * (n - 1))) < 1e-9
    # even and odd orders past the sizes the random test draws
    for n in (64, 65):
        a = rng.integers(-5, 6, size=(n, n)).astype(float)
        assert_matches_eigvalsh(a + a.T)


def test_numeric_spectrum_is_accurate_at_every_scale():
    # the stopping width must grow with |lambda|: at scale 1e3 and above an
    # interval cannot shrink below tol = 1e-12, since eps * |lambda| exceeds it
    rng = np.random.default_rng(RNG_SEED + 4)
    a = rng.integers(-5, 6, size=(12, 12)).astype(float)
    a = a + a.T
    for scale in (1e-6, 1.0, 1e3, 1e6, 1e12):
        ours = numeric_spectrum(a * scale)
        reference = sorted(np.linalg.eigvalsh(a * scale).tolist(), reverse=True)
        # relative to the spectral radius, and absolute below 1 (tol is absolute)
        bound = 1e-12 * max(1.0, abs(reference[0]), abs(reference[-1]))
        assert max(abs(x - y) for x, y in zip(ours, reference)) <= bound


def test_numeric_spectrum_of_block_diagonal_matrix():
    # blocks decouple under Householder, so the tridiagonal form has zero
    # subdiagonal entries (steps with a zero reflector are skipped), and the
    # eigenvalues repeat across equal blocks.  The blocks [3] and [-3] make
    # the Gershgorin interval [-3, 3], whose midpoint 0 is tested in the
    # first pass against the leading block [0]: a zero pivot followed by a
    # zero subdiagonal entry
    path = np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
    cycle = np.roll(np.eye(4), 1, axis=1) + np.roll(np.eye(4), -1, axis=1)
    blocks = [[[0.0]], [[3.0]], [[-3.0]], path, cycle, path, cycle]
    a = np.zeros((17, 17))
    at = 0
    for block in blocks:
        size = len(block)
        a[at : at + size, at : at + size] = block
        at += size
    root2 = 2.0**0.5
    expected = [3.0, 2.0, 2.0, root2, root2] + [0.0] * 7 + [-root2, -root2, -2.0, -2.0, -3.0]
    ours = assert_matches_eigvalsh(a)
    assert max(abs(x - y) for x, y in zip(ours, expected)) < 1e-12


def test_numeric_spectrum_splits_at_negligible_subdiagonal_entries():
    # complete graphs K_1 ... K_6 on the diagonal share the eigenvalue -1,
    # so after a random orthogonal change of basis the tridiagonal form has
    # subdiagonal entries that are tiny but not exactly zero, and splits into
    # blocks of unequal lengths; couplings between consecutive blocks fall
    # on each side of the splitting threshold eps * (Gershgorin bound)
    rng = np.random.default_rng(RNG_SEED + 6)
    eps = np.finfo(float).eps
    matrices = []
    for layout in ((1, 2, 3, 4, 5, 6), (3, 3), (6, 1, 6), (2, 5, 2, 5)):
        for coupling in (0.0, 1e-15, 1e-13, 1e-10):
            n = sum(layout)
            a = np.zeros((n, n))
            at = 0
            for size in layout:
                a[at : at + size, at : at + size] = 1.0 - np.eye(size)
                if at:
                    a[at - 1, at] = a[at, at - 1] = coupling
                at += size
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            rotated = q @ a @ q.T
            matrices.append((rotated + rotated.T) / 2)
    d, e = _householder(matrices[0].copy())
    radius = np.abs(np.concatenate(([0.0], e, [0.0])))
    bound = np.abs(np.concatenate((d - radius[:-1] - radius[1:], d + radius[:-1] + radius[1:]))).max()
    assert ((np.abs(e) <= eps * bound) & (e != 0.0)).any()
    # already tridiagonal: two equal longest blocks coupled by 1e-18, and a
    # diagonal that dwarfs every coupling, so each row is its own block
    path = np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
    twin = np.kron(np.eye(2), path)
    twin[2, 3] = twin[3, 2] = 1e-18
    matrices.append(twin)
    matrices.append(np.diag(1e6 * np.arange(6.0)) + np.diag([1e-11] * 5, 1) + np.diag([1e-11] * 5, -1))
    for a in matrices:
        ours = numeric_spectrum(a)
        reference = sorted(np.linalg.eigvalsh(a).tolist(), reverse=True)
        limit = 1e-12 * max(1.0, abs(reference[0]), abs(reference[-1]))
        assert max(abs(x - y) for x, y in zip(ours, reference)) <= limit


def test_numeric_spectrum_on_order_400_folds():
    for spec in (TriangleSpec(400, 0, 0, 1, 0, 0), TriangleSpec(2, 0, 0, 200, 0, 0)):
        q, s = group_and_sumset(spec)
        a = cayley_sum_graph(q.group, s).adjacency_matrix().astype(float)
        ours = numeric_spectrum(a)
        reference = sorted(np.linalg.eigvalsh(a).tolist(), reverse=True)
        assert len(ours) == 400
        assert max(abs(x - y) for x, y in zip(ours, reference)) <= 1e-12


def test_numeric_spectrum_of_negated_adjacency_matrix():
    # -A of a zero-diagonal matrix has -0.0 on its diagonal.  For -[[0, 1],
    # [1, 0]] the Gershgorin interval [-1, 1] puts a test point at +0.0, so
    # the Sturm recurrence meets a pivot of -0.0 in the first pass; the
    # loop-free cubic folds carry the signed zeros through Householder
    folds = [
        TriangleSpec(2, 0, 0, 6, 0, 0),
        TriangleSpec(6, 0, 4, 2, 0, 0),
        TriangleSpec(2, 0, 0, 20, 0, 0),
    ]
    matrices = [np.array([[0.0, 1.0], [1.0, 0.0]])]
    for spec in folds:
        q, s = group_and_sumset(spec)
        matrices.append(cayley_sum_graph(q.group, s).adjacency_matrix().astype(float))
    for a in matrices:
        assert not np.diagonal(a).any()
        assert np.signbit(np.diagonal(-a)).all()
        assert_matches_eigvalsh(-a)


def test_numeric_spectrum_input_validation():
    with pytest.raises(ValueError):
        numeric_spectrum(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        numeric_spectrum(np.array([[0.0, 1.0], [2.0, 0.0]]))
    inf, nan = float("inf"), float("nan")
    for a in ([[inf, 1.0], [1.0, 0.0]], [[0.0, inf], [inf, 0.0]], [[nan, 1.0], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            numeric_spectrum(np.array(a))
    for tol in (-1.0, nan):
        with pytest.raises(ValueError, match="tolerance"):
            numeric_spectrum(np.array([[7.0]]), tol=tol)
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
    # the trivial group with S = {}, {()} and {(), ()}, the Z_400 and
    # Z_2 x Z_200 folds, then random groups
    trivial = FiniteAbelianGroup(())
    graphs = [cayley_sum_graph(trivial, SumSet(trivial, ((),) * size)) for size in range(3)]
    for spec in (TriangleSpec(400, 0, 0, 1, 0, 0), TriangleSpec(2, 0, 0, 200, 0, 0)):
        q, s = group_and_sumset(spec)
        graphs.append(cayley_sum_graph(q.group, s))
    for _ in range(15):
        g = random_group(rng, max_order=40)
        graphs.append(cayley_sum_graph(g, random_sum_set(rng, g)))
    for graph in graphs:
        g = graph.group
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
    # Z_12 with S = {0, 2}: chi_3(S) = 0 reads 1.1e-16 from the DFT, and
    # eigenvectors keeps that value too
    z12 = FiniteAbelianGroup((12,))
    graphs = [cayley_sum_graph(z12, SumSet(z12, ((0,), (2,))))]
    for _ in range(10):
        g = random_group(rng, max_order=40)
        graphs.append(cayley_sum_graph(g, random_sum_set(rng, g)))
    for graph in graphs:
        values = [p.value for p in eigenvectors(graph)]
        # both routes take np.abs of the same DFT, so the values agree exactly
        assert sorted(values, reverse=True) == character_spectrum(graph).full()


def test_tolerance_constants():
    assert EIGENSOLVER_TOL == 1e-12
    assert MATCH_TOL == 1e-8
