from __future__ import annotations

import itertools
import json
import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cagespec import fullerene, spectra
from cagespec.abelian import DegenerateLatticeError, FiniteAbelianGroup
from cagespec.caysum import SumSet, cayley_sum_graph
from cagespec.cli import main
from cagespec.fullerene import (
    CASE_TABLE,
    FoldedGraph,
    FullereneReport,
    InvariantViolation,
    TriangleSpec,
    _fold_matches,
    classify,
    classify_chunk,
    enumerate_specs,
    face_census,
    fold_construction,
    group_and_sumset,
    is_non_obtuse,
    reduce_triangle_basis,
    verify_chunk,
    verify_isomorphism,
    verify_spec,
)
from cagespec.spectra import MATCH_TOL, SpectrumPartition, multiset_close, spectrum_is_paired

RNG_SEED = 0xF01D
TRANSLATIONS = ((0, 0), (1, 0), (0, 1), (1, 1))
# bases that are not in Hermite form, including negative entries
SKEW_BASES = ((3, 1, -1, 3), (2, 1, 1, 3), (-2, 3, 3, 2), (1, 2, 3, -4))


# --- an independent geometric fold, for cross-checking -----------------------
#
# Triangle orbits are recomputed from scratch: coset identity by Cramer
# divisibility, canonical labels by lexicographic scan of the [0, n)^2 box,
# the reflection applied directly to representatives.

class ReferenceFold:
    def __init__(self, t: TriangleSpec):
        self.det = t.p * t.s - t.q * t.r
        self.n = abs(self.det)
        self.t = t
        self._canon: dict[tuple[int, int], tuple[int, int]] = {}
        box = [(i, j) for i in range(self.n) for j in range(self.n)]
        for pt in box:
            if pt in self._canon:
                continue
            cls = [c for c in box if self.same_coset(pt, c)]
            label = min(cls)
            for c in cls:
                self._canon[c] = label
        self.up_cosets = sorted(set(self._canon.values()))

    def same_coset(self, u: tuple[int, int], v: tuple[int, int]) -> bool:
        d1, d2 = u[0] - v[0], u[1] - v[1]
        t = self.t
        return (d1 * t.s - d2 * t.r) % self.det == 0 and (
            t.p * d2 - t.q * d1
        ) % self.det == 0

    def canonical(self, pt: tuple[int, int]) -> tuple[int, int]:
        return self._canon[(pt[0] % self.n, pt[1] % self.n)]

    def partner(self, down: tuple[int, int]) -> tuple[int, int]:
        # the reflection swaps the down triangle at (x, y) with the up
        # triangle at (p1 - 1 - x, p2 - 1 - y)
        return self.canonical((self.t.p1 - 1 - down[0], self.t.p2 - 1 - down[1]))

    def build(self) -> tuple[dict, dict]:
        directed: Counter = Counter()
        semiedges: Counter = Counter()
        for c in self.up_cosets:
            i, j = c
            for down in ((i, j), (i - 1, j), (i, j - 1)):
                p = self.partner(down)
                if p == c:
                    semiedges[c] += 1
                else:
                    directed[(c, p)] += 1
        edges: dict = {}
        for (a, b), m in directed.items():
            assert directed[(b, a)] == m
            if a < b:
                edges[(a, b)] = m
        return edges, dict(semiedges)


def assert_fold_matches_reference(t: TriangleSpec) -> None:
    ref = ReferenceFold(t)
    ref_edges, ref_semi = ref.build()
    folded = fold_construction(t)
    assert folded.n_vertices == len(ref.up_cosets) == t.index
    label = {k: ref.canonical(rep) for k, rep in enumerate(folded.reps)}
    assert sorted(label.values()) == list(ref.up_cosets)
    mapped_edges = {}
    for (i, j), m in folded.edges.items():
        a, b = sorted((label[i], label[j]))
        mapped_edges[(a, b)] = m
    mapped_semi = {label[i]: m for i, m in folded.semiedges.items()}
    assert mapped_edges == ref_edges
    assert mapped_semi == ref_semi


def test_fold_matches_independent_geometry_small():
    for t in enumerate_specs(8):
        assert_fold_matches_reference(t)


def test_fold_matches_independent_geometry_skew_bases():
    for pqrs in SKEW_BASES:
        for p1, p2 in TRANSLATIONS:
            assert_fold_matches_reference(TriangleSpec(*pqrs, p1, p2))


# --- spec handling -----------------------------------------------------------

def test_spec_validation():
    with pytest.raises(DegenerateLatticeError):
        TriangleSpec(1, 2, 2, 4, 0, 0)
    with pytest.raises(DegenerateLatticeError):
        TriangleSpec(0, 0, 0, 0, 0, 0)
    t = TriangleSpec(6, 2, -2, 6, 2, 3)
    assert (t.p1, t.p2) == (0, 1)  # translations only matter mod 2
    assert t.index == 40
    assert t.as_tuple() == (6, 2, -2, 6, 0, 1)
    assert t.lattice.column(0) == (6, 2)
    assert t.lattice.column(1) == (-2, 6)


def test_spec_entries_are_stored_as_python_ints():
    # a float spec equal to an integer one must not slip into its lattice group
    with pytest.raises(ValueError):
        verify_chunk([TriangleSpec(2, 0, 1, 3, 0, 0), TriangleSpec(2.0, 0, 1.0, 3, 0, 1)])
    with pytest.raises(ValueError):
        classify(TriangleSpec(1.0, 0, 0, 1, 0, 0))
    # nor be answered from the memo an integer spec of its lattice just filled
    classify(TriangleSpec(2, 0, 1, 3, 0, 0))
    with pytest.raises(ValueError):
        classify(TriangleSpec(2.0, 0, 1.0, 3, 0, 1))
    with pytest.raises(ValueError):
        TriangleSpec("2", 0, 1, 3, 0, 0)
    t = TriangleSpec(np.int64(2), 0, 1, np.int64(3), True, np.int64(1))
    assert all(type(x) is int for x in t.as_tuple())
    assert t == TriangleSpec(2, 0, 1, 3, 1, 1)
    report = classify(t).to_json()
    assert json.loads(json.dumps(report)) == classify(TriangleSpec(2, 0, 1, 3, 1, 1)).to_json()


def test_case_table_contents():
    assert CASE_TABLE == {
        0: ("a", (3, -1, -1, -1)),
        2: ("b", (3, -1)),
        3: ("c", (3,)),
        4: ("d", (3, 1)),
    }


def test_case_table_follows_from_g_mod_2g():
    # the real characters and the semiedges depend only on the images of x0,
    # e1, e2 in G/2G = (Z/2)^r, where e1 and e2 span it (so r <= 2): the real
    # values are chi_a(x0)(1 + chi_a(e1) + chi_a(e2)) for a in (Z/2)^r, and
    # s = 2^r #{k : s_k in 2G} for the sum set x0 + {0, e1, e2}
    def chi(a, x):
        return (-1) ** sum(i * j for i, j in zip(a, x))

    def add(x, y):
        return tuple((i + j) % 2 for i, j in zip(x, y))

    seen = Counter()
    for r in range(3):
        space = list(itertools.product((0, 1), repeat=r))
        for x0, e1, e2 in itertools.product(space, repeat=3):
            if len({add(x, y) for x in (space[0], e1) for y in (space[0], e2)}) < 2**r:
                continue  # e1 and e2 do not span G/2G
            values = [chi(a, x0) * (1 + chi(a, e1) + chi(a, e2)) for a in space]
            s = 2**r * sum(not any(x) for x in (x0, add(x0, e1), add(x0, e2)))
            assert spectra.canonical_unmatched(values) == CASE_TABLE[s][1]
            seen[s] += 1
    assert sum(seen.values()) == 31
    assert set(seen) == {0, 2, 3, 4}


# --- golden quotients --------------------------------------------------------

def test_index_forty_untranslated():
    report = classify(TriangleSpec(6, 2, -2, 6, 0, 0))
    assert report.moduli == (2, 20)
    assert report.n_vertices == 40
    assert report.semiedges == 0
    assert (report.f3, report.f6) == (4, 18)
    assert report.case == "a"
    assert report.unmatched_raw == (3, -1, -1, -1)
    assert report.unmatched_canonical == (3, -1, -1, -1)
    assert report.spectral_radius == 3.0
    assert len(report.paired) == 18


def test_index_forty_translated():
    report = classify(TriangleSpec(6, 2, -2, 6, 1, 0))
    assert report.moduli == (2, 20)
    assert report.semiedges == 4
    assert (report.f3, report.f6) == (0, 20)
    assert report.case == "d"
    assert report.unmatched_raw == (3, 1, 1, -1)
    assert report.unmatched_canonical == (3, 1)
    assert report.sum_set == ((0, 0), (0, 19), (1, 2))


def test_one_vertex_quotient_has_three_semiedges():
    report = classify(TriangleSpec(1, 0, 0, 1, 0, 0))
    assert report.n_vertices == 1
    assert report.semiedges == 3
    assert (report.f3, report.f6) == (1, 0)
    assert report.case == "c"
    assert report.unmatched_raw == (3,)
    assert report.full_spectrum() == [3.0]


def test_tetrahedral_quotient_is_complete_graph():
    t = TriangleSpec(2, 0, 0, 2, 0, 0)
    report = classify(t)
    assert report.n_vertices == 4
    assert report.semiedges == 0
    assert report.case == "a"
    assert report.unmatched_raw == (3, -1, -1, -1)
    q, s = group_and_sumset(t)
    graph = cayley_sum_graph(q.group, s)
    assert len(graph.edges) == 6
    assert all(m == 1 for m in graph.edges.values())
    assert graph.semiedges == {}


def test_two_vertex_quotients():
    doubled = classify(TriangleSpec(1, 0, 0, 2, 0, 0))
    assert doubled.n_vertices == 2
    assert doubled.semiedges == 2
    assert doubled.case == "b"
    assert doubled.unmatched_raw == (3, -1)
    shifted = classify(TriangleSpec(1, 0, 0, 2, 0, 1))
    assert shifted.semiedges == 4
    assert shifted.case == "d"
    assert shifted.unmatched_raw == (3, 1)


# --- counting invariants -----------------------------------------------------

def test_face_census_golden_values():
    assert face_census(TriangleSpec(6, 2, -2, 6, 0, 0)) == (4, 18, 0)
    assert face_census(TriangleSpec(6, 2, -2, 6, 1, 0)) == (0, 20, 4)
    assert face_census(TriangleSpec(1, 0, 0, 1, 0, 0)) == (1, 0, 3)
    assert face_census(TriangleSpec(2, 0, 0, 2, 0, 0)) == (4, 0, 0)


# small lattices whose entries overflow int64
BEYOND_INT64_SPECS = [
    TriangleSpec(200000000000000000000, 3, 7, 0, 1, 1),
    TriangleSpec(1, 200000000000000000000, 1, 200000000000000000002, 0, 0),
    TriangleSpec(6, 200000000000000000000, 0, 6, 0, 0),
]


def test_face_census_counts_the_even_symmetry_points():
    skew = [TriangleSpec(*pqrs, p1, p2) for pqrs in SKEW_BASES for p1, p2 in TRANSLATIONS]
    # face_census reads only the parities of the six entries, and these 64
    # specs (det >= 3, never degenerate) hold every parity class, q odd too
    classes = [
        TriangleSpec(p + 2, q, r, s + 2, p1, p2)
        for p, q, r, s, p1, p2 in itertools.product((0, 1), repeat=6)
    ]
    for t in [*enumerate_specs(40), *skew, *BEYOND_INT64_SPECS, *classes]:
        p, q, r, s, p1, p2 = t.as_tuple()
        points = ((p1, p2), (p1 + p, p2 + q), (p1 + r, p2 + s), (p1 + p + r, p2 + q + s))
        f3 = sum(1 for x, y in points if x % 2 == 0 and y % 2 == 0)
        census = face_census(t)
        assert census == (f3, (t.index - f3) // 2, 4 - f3)
        assert all(type(v) is int for v in census)
        # f3 = 3 never occurs and |V| - f3 is even: f6 is whole, s a case key
        assert f3 in (0, 1, 2, 4)
        assert (t.index - f3) % 2 == 0
        assert 4 - f3 in CASE_TABLE


def test_counting_invariants_sweep():
    # only the trivial character reaches |chi(S)| = 3, so the real values are
    # one 3 and else +-1, fixed by their count (the moduli) and sum (s): the
    # spectral radius and the --dedup key rest on this
    unmatched: dict = {}
    pair_reps: dict = {}
    for report in classify_chunk(list(enumerate_specs(60))):
        raw = report.unmatched_raw
        assert raw.count(3) == 1
        assert -3 not in raw
        assert max(report.paired, default=0.0) < 3
        assert unmatched.setdefault((len(raw), report.semiedges), raw) == raw
        assert report.semiedges in (0, 2, 3, 4)
        assert report.semiedges + report.f3 == 4
        assert report.f6 == (report.n_vertices - report.f3) // 2
        case, expected = CASE_TABLE[report.semiedges]
        assert report.case == case
        assert report.unmatched_canonical == expected
        assert report.spectral_radius == 3.0
        assert spectrum_is_paired(
            report.full_spectrum(), report.unmatched_canonical, 1e-8
        )
        # 1 + z^u + z^v = 0 only at the two primitive cube roots of unity, so a
        # pair +-0 occurs, once, iff L lies in {x = y mod 3}: p = q, r = s mod 3
        t = report.spec
        dirac = (t.p - t.q) % 3 == 0 and (t.r - t.s) % 3 == 0
        small = [m for m in report.paired if m < 1e-3]
        assert len(small) == dirac
        assert all(m < 1e-9 for m in small)
        q = fullerene._lattice_quotient(t.p, t.q, t.r, t.s)
        # S = s0 + {0, e1, e2}, so a pair representative a has |chi_a(S)| =
        # |1 + z^u + z^v| with z = exp(2 pi i / N) and u, v the exact phases
        # of e1 and e2 at a over N = lcm(moduli)
        if report.moduli not in pair_reps:
            group = FiniteAbelianGroup(report.moduli)
            reps = group.conjugate_pair_reps()
            pair_reps[report.moduli] = np.array(reps, dtype=np.int64).reshape(len(reps), group.rank)
        reps = pair_reps[report.moduli]
        lcm = math.lcm(*report.moduli)
        weights = np.array([lcm // n for n in report.moduli], dtype=np.int64)
        u = reps @ (np.array(q.project((1, 0)), dtype=np.int64) * weights) % lcm
        v = reps @ (np.array(q.project((0, 1)), dtype=np.int64) * weights) % lcm
        closed = np.abs(1 + np.exp(2j * np.pi * u / lcm) + np.exp(2j * np.pi * v / lcm))
        closed = np.sort(closed)[::-1]
        assert len(closed) == len(report.paired)
        assert np.abs(closed - report.paired).max(initial=0.0) <= MATCH_TOL
        # triangles from the group: c = s0 - s1 + s2 is the image of
        # (p1 - 2, p2), and f3 counts the x with 2x = c, |G[2]| of them when
        # c lies in 2G (even at every even modulus) and none otherwise
        c = q.project((t.p1 - 2, t.p2))
        halvable = all(x % 2 == 0 for x, n in zip(c, report.moduli) if n % 2 == 0)
        involutions = math.prod(2 for n in report.moduli if n % 2 == 0)
        assert report.f3 == (involutions if halvable else 0)


def test_enumeration_counts_and_uniqueness():
    assert len(list(enumerate_specs(1))) == 4
    assert len(list(enumerate_specs(2))) == 16
    assert len(list(enumerate_specs(3))) == 32
    assert len(list(enumerate_specs(4))) == 60
    specs = [t.as_tuple() for t in enumerate_specs(12)]
    assert len(specs) == 508
    assert len(set(specs)) == 508
    assert all(TriangleSpec(*tup).index <= 12 for tup in specs)
    with pytest.raises(ValueError):
        list(enumerate_specs(0))


def test_enumeration_covers_every_lattice_once():
    # indexes 1..6: the number of sublattices of Z^2 of index n is sigma(n)
    sigma = {1: 1, 2: 3, 3: 4, 4: 7, 5: 6, 6: 12}
    by_index = Counter(t.index for t in enumerate_specs(6))
    for n, expected in sigma.items():
        assert by_index[n] == 4 * expected


def test_enumerated_specs_equal_the_checked_constructor():
    # enumerate_specs stores its specs without the constructor's checks; each
    # must be the spec TriangleSpec builds, also after the pickle round trip
    # through which --jobs workers receive their specs
    for t in enumerate_specs(30):
        checked = TriangleSpec(*t.as_tuple())
        assert t == checked and hash(t) == hash(checked)
        assert vars(t) == vars(checked)
        assert all(type(x) is int for x in t.as_tuple())
        copy = pickle.loads(pickle.dumps(t))
        assert copy == checked and hash(copy) == hash(checked)


# --- fold vs Cayley sum graph ------------------------------------------------

def test_folded_graph_shape():
    folded = fold_construction(TriangleSpec(6, 2, -2, 6, 0, 0))
    assert isinstance(folded, FoldedGraph)
    assert folded.n_vertices == 40
    assert folded.total_semiedges == 0
    assert all(folded.degree(i) == 3 for i in range(folded.n_vertices))
    q, _ = group_and_sumset(folded.spec)
    labels = folded.labels(q)
    assert sorted(labels) == sorted(q.group.element_tuple)


def extra_fold_specs() -> list[TriangleSpec]:
    """Non-Hermite bases plus two lattices whose quotient has rank 2."""
    bases = SKEW_BASES + ((6, 0, 0, 6), (4, 0, 2, 12))
    return [TriangleSpec(*pqrs, p1, p2) for pqrs in bases for p1, p2 in TRANSLATIONS]


def three_projections(q, t: TriangleSpec) -> list:
    """The sum set in edge order, one QuotientMap.project call per element."""
    return [q.project(v) for v in ((t.p1 - 1, t.p2 - 1), (t.p1, t.p2 - 1), (t.p1 - 1, t.p2))]


def test_sum_set_elements_are_three_projections():
    for t in [*enumerate_specs(60), *extra_fold_specs()]:
        q = fullerene._lattice_quotient(t.p, t.q, t.r, t.s)
        assert fullerene._sum_set_elements(q, t) == three_projections(q, t)


def test_fold_is_isomorphic_across_sweep():
    for t in [*enumerate_specs(8), *extra_fold_specs()]:
        folded = fold_construction(t)
        q, s = group_and_sumset(t)
        assert verify_isomorphism(folded, q, s)
        edges = np.array(fullerene._sum_set_elements(q, t))[None]
        assert _fold_matches(t, q, edges, [t])[0]


def test_fold_rejects_wrong_sum_set():
    rng = random.Random(RNG_SEED)
    checked = 0
    for t in [*enumerate_specs(6), *extra_fold_specs()]:
        q, s = group_and_sumset(t)
        if q.group.order < 3:
            continue
        folded = fold_construction(t)
        elements = fullerene._sum_set_elements(q, t)
        others = [x for x in q.group.element_tuple if x not in elements]
        if not others:
            continue
        elements[rng.randrange(3)] = rng.choice(others)
        wrong = SumSet(q.group, tuple(elements))
        if wrong.elements == s.elements:
            continue
        assert not verify_isomorphism(folded, q, wrong)
        assert not _fold_matches(t, q, np.array(elements)[None], [t])[0]
        checked += 1
    assert checked >= 20


def test_fold_check_sees_the_order_of_incidences():
    # swapping edges 1 and 2 of one cell keeps every label-sum multiset, but
    # puts two incidences against the wrong sum-set element
    rng = random.Random(RNG_SEED + 3)
    swapped = 0
    for t in enumerate_specs(40):
        if t.index < 8:
            continue
        folded = fold_construction(t)
        q, s = group_and_sumset(t)
        neighbours = folded.neighbours.copy()
        cells = np.argwhere(neighbours[1] != neighbours[2])
        if not len(cells):
            continue
        x, y = cells[rng.randrange(len(cells))]
        neighbours[[1, 2], x, y] = neighbours[[2, 1], x, y]
        assert not verify_isomorphism(FoldedGraph(t, neighbours), q, s)
        swapped += 1
    # the 132 other folds of index 8-40 have no cell whose edges 1 and 2 differ
    assert swapped == 5072


def test_verify_spec_reports_and_passes():
    report = verify_spec(TriangleSpec(6, 2, -2, 6, 1, 0))
    assert report.case == "d"
    for t in enumerate_specs(5):
        verify_spec(t)


# --- chunks ------------------------------------------------------------------
#
# A chunk shares one quotient and one fold kernel per lattice and one spectrum
# DFT per group; shuffled chunks split lattices apart and mix moduli.

def test_chunks_report_exactly_what_single_specs_report():
    specs = [*enumerate_specs(60), *extra_fold_specs()]
    random.Random(RNG_SEED + 2).shuffle(specs)
    single = [classify(t) for t in specs]
    cases = Counter(report.case for report in single)
    for size in (3, 7, 256):
        chunks = [specs[i : i + size] for i in range(0, len(specs), size)]
        assert [report for chunk in chunks for report in classify_chunk(chunk)] == single
        verified = [report for chunk in chunks for report in verify_chunk(chunk)]
        assert Counter(report.case for report in verified) == cases
        assert verified == single


REPORT_KEYS = [
    "spec", "moduli", "sum_set", "n_vertices", "semiedges", "f3", "f6",
    "M_raw", "M_canonical", "paired", "case", "spectral_radius",
]


def test_single_spec_calls_through_the_memo_equal_the_chunk_path():
    # other lattices fill the memo first; then each lattice of the sweep misses
    # once and its other three translations hit
    verify_chunk([*enumerate_specs(30)][-64:])
    specs = list(enumerate_specs(12))
    before = fullerene._lattice_quotient.cache_info()
    single_verified = [verify_spec(t) for t in specs]
    single_classified = [classify(t) for t in specs]
    after = fullerene._lattice_quotient.cache_info()
    assert after.hits > before.hits and after.misses > before.misses
    assert single_verified == verify_chunk(specs)
    assert single_classified == classify_chunk(specs)


def test_a_report_is_its_spectrum_partition():
    # a report's first fields are its partition's, in the partition's order
    assert FullereneReport._fields[:4] == SpectrumPartition._fields
    specs = list(enumerate_specs(12))
    for report in [*classify_chunk(specs), *verify_chunk(specs)]:
        part = SpectrumPartition(*report[:4])
        assert report.semiedges == report.semiedge_total == 4 - report.f3
        assert report.full_spectrum() == report.full() == part.full()
        for record in (report, part):
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and type(copy) is type(record)
            assert hash(copy) == hash(record)
            with pytest.raises(AttributeError):
                record.paired = ()
        assert pickle.loads(pickle.dumps(report)).semiedges == report.semiedges
        assert list(report.to_json()) == REPORT_KEYS
        flat = report._replace(paired=(0.0,) * len(report.paired))
        assert flat.paired == (0.0,) * len(report.paired)
        assert (flat.spec, flat.semiedges) == (report.spec, report.semiedges)


def test_reports_carry_what_the_public_spectrum_routine_gives():
    # the pipeline reads the partitions of sum_set_spectra, which
    # sum_set_spectrum gives for one sum set, so both must agree on every
    # report, floats included
    specs = [*enumerate_specs(30), *extra_fold_specs()]
    for check in (classify_chunk, verify_chunk):
        for i in range(0, len(specs), 256):
            for report in check(specs[i : i + 256]):
                group = FiniteAbelianGroup(report.moduli)
                part = spectra.sum_set_spectrum(group, SumSet(group, report.sum_set))
                fields = (
                    report.semiedge_total,
                    report.unmatched_raw,
                    report.unmatched_canonical,
                    report.paired,
                )
                assert fields == tuple(part)
                assert type(part) is SpectrumPartition


def test_chunk_of_one_is_the_single_spec_call():
    t = TriangleSpec(6, 2, -2, 6, 1, 0)
    assert classify_chunk([t]) == [classify(t)]
    assert verify_chunk([t]) == [verify_spec(t)]
    assert classify_chunk([]) == verify_chunk([]) == []


# A chunk holding the four translations of two lattices with equal quotients
# Z_2 x Z_4, so one DFT stack of eight distinct sum sets and two fold stacks;
# the target is a middle row of both.
ATTRIBUTION_CHUNK = [
    TriangleSpec(*pqrs, p1, p2) for pqrs in ((2, 0, 0, 4), (4, 0, 2, 2)) for p1, p2 in TRANSLATIONS
]
ATTRIBUTION_TARGET = ATTRIBUTION_CHUNK[5]
ATTRIBUTION_OTHERS = [t for t in ATTRIBUTION_CHUNK if t != ATTRIBUTION_TARGET]


def corrupt_dft_row(monkeypatch, target: TriangleSpec) -> str:
    """Shift the trivial-character value of the target's row of every
    stacked DFT, found by its sum set in any element order; returns the
    failed check."""
    character_dft = spectra._character_dft
    _, s = group_and_sumset(target)

    def corrupted(group, elements):
        chi = character_dft(group, elements)
        for row, row_elements in enumerate(elements):
            if group == s.group and sorted(map(tuple, row_elements.tolist())) == list(s.elements):
                chi[row].flat[0] += 0.5
        return chi

    monkeypatch.setattr(spectra, "_character_dft", corrupted)
    return "DFT values at the real characters"


def corrupt_semiedge_row(monkeypatch, target: TriangleSpec) -> str:
    """Add one semiedge to the target's row of every stacked semiedge count,
    found by its sum set in any element order; returns the failed check."""
    semiedge_counts = spectra.semiedge_counts
    _, s = group_and_sumset(target)

    def corrupted(group, elements):
        totals = semiedge_counts(group, elements)
        for row, row_elements in enumerate(elements):
            if group == s.group and sorted(map(tuple, row_elements.tolist())) == list(s.elements):
                totals[row] += 1
        return totals

    monkeypatch.setattr(spectra, "semiedge_counts", corrupted)
    return "trace identity violated"


def corrupt_fold_member(monkeypatch, target: TriangleSpec) -> str:
    """Move one neighbour of the target's member of every stacked fold;
    returns the failed check."""
    fold_neighbours = fullerene._fold_neighbours

    def corrupted(specs):
        folds = fold_neighbours(specs)
        for member, t in enumerate(specs):
            if t == target:
                folds[member, 0, 0, 0] = (folds[member, 0, 0, 0] + 1) % t.index
        return folds

    monkeypatch.setattr(fullerene, "_fold_neighbours", corrupted)
    return "fold does not match"


def corrupt_face_census(monkeypatch, target: TriangleSpec) -> str:
    """Count one triangle too many and one semiedge too few in the target's
    face census; returns the failed check."""
    census = fullerene.face_census

    def corrupted(t):
        counts = census(t)
        if t == target:
            return counts._replace(f3=counts.f3 + 1, semiedges=counts.semiedges - 1)
        return counts

    monkeypatch.setattr(fullerene, "face_census", corrupted)
    return "s + f3 = 4 check failed"


def corrupt_canonical_row(monkeypatch, target: TriangleSpec) -> str:
    """Append a 0 to the canonical unmatched multiset of the target's row of
    every spectrum stack, found by its name; returns the failed check."""
    spectra_of = fullerene.sum_set_spectra

    def corrupted(group, elements, semiedge_totals=None, names=None):
        parts = spectra_of(group, elements, semiedge_totals, names)
        for i, name in enumerate(names or ()):
            if name == target:
                parts[i] = parts[i]._replace(unmatched_canonical=(*parts[i].unmatched_canonical, 0))
        return parts

    monkeypatch.setattr(fullerene, "sum_set_spectra", corrupted)
    return "canonical unmatched multiset"


@pytest.mark.parametrize(
    "corrupt",
    [
        corrupt_dft_row,
        corrupt_semiedge_row,
        corrupt_fold_member,
        corrupt_face_census,
        corrupt_canonical_row,
    ],
)
def test_a_failed_check_names_its_own_spec(corrupt, monkeypatch, capsys):
    check = corrupt(monkeypatch, ATTRIBUTION_TARGET)
    with pytest.raises(InvariantViolation) as failure:
        verify_chunk(ATTRIBUTION_CHUNK)
    message = str(failure.value)
    assert check in message
    assert str(ATTRIBUTION_TARGET.as_tuple()) in message
    assert not any(str(t.as_tuple()) in message for t in ATTRIBUTION_OTHERS)
    assert verify_chunk(ATTRIBUTION_OTHERS)
    # in the sweep the target shares a chunk with the 47 other specs whose
    # quotient is Z_6, and no other of them has its sum set
    target = TriangleSpec(6, 0, 5, 1, 1, 1)
    corrupt(monkeypatch, target)
    assert main(["verify", "--max-index", "6", "--jobs", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert str(target.as_tuple()) in err
    assert check in err


def test_a_wrong_quotient_names_a_spec_of_its_lattice(monkeypatch):
    # the quotient of (4, 0, 2, 2) is swapped for that of (4, 0, 2, 4), whose
    # order 16 is not the index 8; the other lattice's group is unchanged
    lattice_quotient = fullerene._lattice_quotient
    wrong = ATTRIBUTION_TARGET.as_tuple()[:4]

    def corrupted(p, q, r, s):
        return lattice_quotient(p, q, r, 2 * s if (p, q, r, s) == wrong else s)

    monkeypatch.setattr(fullerene, "_lattice_quotient", corrupted)
    with pytest.raises(InvariantViolation) as failure:
        verify_chunk(ATTRIBUTION_CHUNK)
    message = str(failure.value)
    assert "group order 16 != lattice index 8" in message
    named = [t for t in ATTRIBUTION_CHUNK if str(t.as_tuple()) in message]
    assert len(named) == 1 and named[0].as_tuple()[:4] == wrong
    assert verify_chunk([t for t in ATTRIBUTION_CHUNK if t.as_tuple()[:4] != wrong])


# --- basis normalization -----------------------------------------------------

def test_is_non_obtuse_examples():
    assert is_non_obtuse(TriangleSpec(1, 0, 0, 1, 0, 0))
    assert not is_non_obtuse(TriangleSpec(1, 0, 5, 1, 0, 0))


def test_reduce_triangle_basis_preserves_the_quotient():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(40):
        while True:
            p, q_, r, s_ = (rng.randint(-6, 6) for _ in range(4))
            if p * s_ - q_ * r != 0:
                break
        t = TriangleSpec(p, q_, r, s_, rng.randint(0, 1), rng.randint(0, 1))
        reduced = reduce_triangle_basis(t)
        assert is_non_obtuse(reduced)
        assert reduced.index == t.index
        assert (reduced.p1, reduced.p2) == (t.p1, t.p2)
        a = classify(t)
        b = classify(reduced)
        assert a.moduli == b.moduli
        assert a.unmatched_raw == b.unmatched_raw
        assert (a.semiedges, a.f3, a.f6) == (b.semiedges, b.f3, b.f6)
        assert multiset_close(a.full_spectrum(), b.full_spectrum(), 1e-9)


# --- randomized invariants ---------------------------------------------------

@seed(RNG_SEED)
@settings(deadline=None, max_examples=60)
@given(
    st.tuples(
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=8),
    ),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
)
def test_randomized_basis_invariants(pqrs, p1, p2):
    p, q_, r, s_ = pqrs
    if p * s_ - q_ * r == 0:
        return
    t = TriangleSpec(p, q_, r, s_, p1, p2)
    report = classify(t)
    q, _ = group_and_sumset(t)
    assert fullerene._sum_set_elements(q, t) == three_projections(q, t)
    assert report.semiedges in (0, 2, 3, 4)
    assert report.semiedges + report.f3 == 4
    assert 2 * report.f6 + report.f3 == report.n_vertices
    assert sum(report.unmatched_raw) == report.semiedges
    assert report.unmatched_canonical == CASE_TABLE[report.semiedges][1]
