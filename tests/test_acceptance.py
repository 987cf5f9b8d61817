"""End-to-end gate: each test here checks one headline guarantee at its stated
tolerance, so a verbose run reports one pass/fail line per guarantee."""

from __future__ import annotations

import cmath
import json
import random
import time

import numpy as np

from cagespec.abelian import FiniteAbelianGroup, QuotientMap
from cagespec.caysum import (
    SumSet,
    cayley_graph,
    cayley_sum_graph,
    sum_set_difference,
)
from cagespec.cli import main
from cagespec.crystal import (
    crystal_cayley,
    diamond_family,
    grid_family,
    path_family,
    unmatched_multiset,
)
from cagespec.fullerene import TriangleSpec, classify, group_and_sumset
from cagespec.intlinalg import IntMatrix, is_unimodular, minor_gcd, snf
from cagespec.spectra import (
    character_spectrum,
    eigenvectors,
    multiset_close,
    numeric_spectrum,
)

MATCH_TOL = 1e-8
RESIDUAL_TOL = 1e-9


def test_index_forty_quotient_has_the_closed_form_spectrum():
    # the untranslated index-40 triangle: Z_2 x Z_20, no semiedges, integer
    # part {3, -1, -1, -1}, and 18 conjugate-pair magnitudes
    # |eps^b + (-1)^a eps^(7b) + (-1)^a eps^(8b)| for a in {0,1}, b in 1..9
    started = time.perf_counter()
    report = classify(TriangleSpec(6, 2, -2, 6, 0, 0))
    assert report.moduli == (2, 20)
    assert report.n_vertices == 40
    assert report.semiedges == 0
    assert report.unmatched_raw == (3, -1, -1, -1)

    eps = cmath.exp(2j * cmath.pi / 20)
    expected = sorted(
        abs(eps**b + (-1) ** a * eps ** (7 * b) + (-1) ** a * eps ** (8 * b))
        for a in (0, 1)
        for b in range(1, 10)
    )
    assert len(report.paired) == 18
    assert multiset_close(sorted(report.paired), expected, MATCH_TOL)

    q, s = group_and_sumset(report.spec)
    graph = cayley_sum_graph(q.group, s)
    numeric = numeric_spectrum(graph.adjacency_matrix().astype(float))
    assert multiset_close(report.full_spectrum(), numeric, MATCH_TOL)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0


def test_translated_quotient_matches_the_hand_worked_labels():
    # the translated index-40 triangle, worked in the fixed unimodular
    # transform [[0, 1], [-1, -7]]: sum set {(0,0), (1,6), (1,7)}, integer
    # part {3, 1, 1, -1} canonicalized to {3, 1}, adjacency trace 4, and
    # semiedges at {(0,0), (1,0), (0,10), (1,10)}
    report = classify(TriangleSpec(6, 2, -2, 6, 1, 0))
    assert report.unmatched_raw == (3, 1, 1, -1)
    assert report.unmatched_canonical == (3, 1)
    assert report.semiedges == 4

    group = FiniteAbelianGroup((2, 20))
    fixed = QuotientMap(
        dim=2,
        transform=IntMatrix.from_rows([[0, 1], [-1, -7]]),
        diagonal=(2, 20),
        group=group,
    )
    assert fixed.project((6, 2)) == (0, 0)
    assert fixed.project((-2, 6)) == (0, 0)
    worked = SumSet(
        group, (fixed.project((0, 0)), fixed.project((1, -1)), fixed.project((0, -1)))
    )
    assert worked.elements == ((0, 0), (1, 6), (1, 7))

    graph = cayley_sum_graph(group, worked)
    assert int(np.trace(graph.adjacency_matrix())) == 4
    assert set(graph.semiedges) == {(0, 0), (1, 0), (0, 10), (1, 10)}

    # the package's own transform labels the same graph: equal spectra and
    # equal semiedge labels
    q, ours = group_and_sumset(report.spec)
    assert q.group.moduli == (2, 20)
    assert set(cayley_sum_graph(q.group, ours).semiedges) == set(graph.semiedges)
    assert multiset_close(
        character_spectrum(graph).full(), report.full_spectrum(), MATCH_TOL
    )


def test_exhaustive_sweep_to_index_200_has_no_violations(capsys):
    # every Hermite-form sublattice of index <= 200, times the four doubled
    # translations; each spec re-checks the counting identities, the case
    # table, negation symmetry of the paired part, and the fold isomorphism
    started = time.perf_counter()
    code = main(["verify", "--max-index", "200"])
    out, err = capsys.readouterr()
    elapsed = time.perf_counter() - started
    assert code == 0
    expected_total = 4 * sum(d * (200 // d) for d in range(1, 201))
    summary = json.loads(out)
    assert (summary["specs"], summary["max_index"]) == (expected_total, 200)
    assert summary["violations"] == 0
    assert elapsed < 300.0


def test_character_spectra_agree_with_blind_numerics_on_random_groups():
    # 100 seeded (group, sum set) pairs, orders up to 400, sum sets up to
    # size 5: exact-character spectra vs the group-blind Householder + Sturm
    # multisection solver, residuals and orthonormality of the assembled
    # eigenbasis, and the square identity A^2 = A(Cay(G, S - S))
    rng = random.Random(0xACCE)
    bands = [(1, 60)] * 6 + [(61, 160)] * 3 + [(161, 400)]
    for trial in range(100):
        low, high = bands[trial % 10]
        while True:
            k = rng.randint(1, 3)
            group = FiniteAbelianGroup(tuple(rng.randint(1, 12) for _ in range(k)))
            if low <= group.order <= high:
                break
        size = rng.randint(1, 5)
        s = SumSet(group, tuple(rng.choice(group.element_tuple) for _ in range(size)))
        graph = cayley_sum_graph(group, s)
        adjacency = graph.adjacency_matrix()

        part = character_spectrum(graph)
        numeric = numeric_spectrum(adjacency.astype(float))
        assert multiset_close(part.full(), numeric, MATCH_TOL)

        pairs = eigenvectors(graph)
        assert len(pairs) == group.order
        assert all(p.residual <= RESIDUAL_TOL for p in pairs)
        basis = np.column_stack([p.vector for p in pairs])
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(group.order))) < MATCH_TOL

        squared = adjacency @ adjacency
        assert np.array_equal(squared, cayley_graph(group, sum_set_difference(s)))


def test_smith_forms_hold_exactly_on_500_random_matrices():
    rng = random.Random(0x5EED)
    for _ in range(500):
        d = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        )
        dec = snf(m)
        assert (dec.u @ m @ dec.v).rows == dec.d.rows
        assert is_unimodular(dec.u)
        assert is_unimodular(dec.v)
        diag = dec.diagonal
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        prod = 1
        for k, x in enumerate(diag, start=1):
            prod *= x
            assert prod == minor_gcd(m, k)


def test_crystal_families_produce_the_expected_unmatched_multisets():
    # paths: two semiedges, unmatched part {2} or {2, 0}
    for n in range(2, 21):
        spec = path_family(n)
        _, _, graph = crystal_cayley(spec)
        assert graph.total_semiedges == 2
        assert unmatched_multiset(spec) in ((2,), (2, 0))

    # plane grids: exactly four semiedges, unmatched part {4} or {4, 0};
    # one instance of index 28 included
    rng = random.Random(0x69D1)
    sublattices = [IntMatrix.from_rows([[4, 0], [0, 7]])]
    while len(sublattices) < 20:
        a = rng.randint(1, 14)
        c = rng.randint(1, 14)
        if a * c > 200:
            continue
        b = rng.randint(0, a - 1) if a > 1 else 0
        sublattices.append(IntMatrix.from_rows([[a, b], [0, c]]))
    assert any(abs(m.entry(0, 0) * m.entry(1, 1)) == 28 for m in sublattices)
    for sub in sublattices:
        spec = grid_family(2, sub)
        _, _, graph = crystal_cayley(spec)
        assert graph.total_semiedges == 4
        assert unmatched_multiset(spec) in ((4,), (4, 0))

    # offset diamonds folded inside the doubled lattice: no semiedges,
    # unmatched part {4, -2, -2} or {4, 0, -2, -2}
    rng = random.Random(0x69D2)
    count = 0
    while count < 10:
        rows = [[0] * 3 for _ in range(3)]
        for i in range(3):
            rows[i][i] = 2 * rng.randint(1, 4)
            for j in range(i + 1, 3):
                rows[i][j] = 2 * rng.randint(-2, 2)
        sub = IntMatrix.from_rows(rows)
        spec = diamond_family(3, sub, a_choice="offset")
        _, _, graph = crystal_cayley(spec)
        assert graph.total_semiedges == 0
        assert unmatched_multiset(spec) in ((4, -2, -2), (4, 0, -2, -2))
        count += 1
