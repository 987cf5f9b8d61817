from __future__ import annotations

import random

import numpy as np
import pytest

from cagespec.abelian import (
    DegenerateLatticeError,
    FiniteAbelianGroup,
    QuotientMap,
    quotient_group,
)
from cagespec.intlinalg import IntMatrix

RNG_SEED = 0xAB31


def random_group(rng: random.Random, max_order: int = 60) -> FiniteAbelianGroup:
    while True:
        k = rng.randint(1, 3)
        moduli = tuple(rng.randint(1, 12) for _ in range(k))
        g = FiniteAbelianGroup(moduli)
        if g.order <= max_order:
            return g


def test_moduli_validation_and_reduction():
    assert FiniteAbelianGroup((1, 5, 1)).moduli == (5,)
    assert FiniteAbelianGroup((1, 1)).moduli == ()
    assert FiniteAbelianGroup(()).order == 1
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0, 3))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((-2,))


def test_trivial_group():
    g = FiniteAbelianGroup(())
    assert g.order == 1
    assert g.rank == 0
    assert g.element_tuple == ((),)
    assert g.add((), ()) == ()
    assert g.involutive_elements() == [()]
    assert g.conjugate_pair_reps() == []


def test_element_enumeration_is_lexicographic():
    g = FiniteAbelianGroup((2, 3))
    assert g.element_tuple == (
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 0),
        (1, 1),
        (1, 2),
    )
    for i, x in enumerate(g.element_tuple):
        assert g.index_of(x) == i


def test_labels_and_indices_follow_the_scalar_index():
    rng = random.Random(RNG_SEED + 7)
    groups = [FiniteAbelianGroup(())]
    for rank in (1, 2, 3):
        for _ in range(5):
            groups.append(FiniteAbelianGroup(tuple(rng.randint(2, 6) for _ in range(rank))))
    for g in groups:
        assert g.labels.shape == (g.rank, g.order)
        assert g.labels.dtype == np.int64
        assert [tuple(col) for col in g.labels.T.tolist()] == list(g.element_tuple)
        assert g.indices(g.labels).tolist() == list(range(g.order))
        # columns off the fundamental box, negative ones included, reduce first
        coords = [[rng.randint(-3 * n, 3 * n) for n in g.moduli] for _ in range(20)]
        array = np.array(coords, dtype=np.int64).reshape(20, g.rank).T
        assert g.indices(array).tolist() == [g.index_of(g.reduce(x)) for x in coords]
    with pytest.raises(ValueError):
        g.labels[0, 0] = 1  # shared by every caller, so read-only


def test_reduce_and_contains():
    g = FiniteAbelianGroup((2, 20))
    assert g.reduce((3, -1)) == (1, 19)
    assert g.reduce((-2, 40)) == (0, 0)
    assert g.contains((1, 19))
    assert not g.contains((2, 0))
    assert not g.contains((0,))


def test_group_operations_consistent():
    rng = random.Random(RNG_SEED)
    for _ in range(50):
        g = random_group(rng)
        elems = g.element_tuple
        x = rng.choice(elems)
        y = rng.choice(elems)
        assert g.sub(x, y) == g.add(x, g.neg(y))
        assert g.double(x) == g.add(x, x)
        assert g.add(x, g.neg(x)) == g.reduce((0,) * g.rank)
        assert g.add(x, y) == g.add(y, x)


def test_character_values_are_homomorphisms():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(20):
        g = random_group(rng, max_order=40)
        elems = g.element_tuple
        a = rng.choice(elems)
        x = rng.choice(elems)
        y = rng.choice(elems)
        cx = g.character_value(a, x)
        cy = g.character_value(a, y)
        cxy = g.character_value(a, g.add(x, y))
        assert abs(abs(cx) - 1) < 1e-12
        assert abs(cx * cy - cxy) < 1e-12


def test_character_orthogonality():
    g = FiniteAbelianGroup((2, 4))
    elems = g.element_tuple
    for a in elems:
        for b in elems:
            total = sum(
                g.character_value(a, x) * g.character_value(b, x).conjugate()
                for x in elems
            )
            expected = g.order if a == b else 0
            assert abs(total - expected) < 1e-9


def test_involutive_elements_and_real_characters():
    g = FiniteAbelianGroup((2, 20))
    invol = g.involutive_elements()
    assert invol == [(0, 0), (0, 10), (1, 0), (1, 10)]
    for a in invol:
        assert g.is_involutive(a)
        assert g.double(a) == (0, 0)
        for x in g.element_tuple:
            sign = g.character_sign(a, x)
            assert sign in (-1, 1)
            assert abs(g.character_value(a, x) - sign) < 1e-12


def test_conjugate_pair_reps_partition_the_group():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(20):
        g = random_group(rng)
        invol = set(g.involutive_elements())
        reps = g.conjugate_pair_reps()
        seen = set(invol)
        for a in reps:
            na = g.neg(a)
            assert a != na
            assert a not in seen and na not in seen
            seen.add(a)
            seen.add(na)
        assert seen == set(g.element_tuple)
        assert len(invol) + 2 * len(reps) == g.order


def test_quotient_of_diagonal_lattice():
    q = quotient_group(IntMatrix.from_rows([[1, 0], [0, 5]]))
    assert q.group.moduli == (5,)
    q = quotient_group(IntMatrix.identity(3))
    assert q.group.moduli == ()
    assert q.project((7, -2, 3)) == ()


def test_quotient_of_triangle_lattice():
    # columns (6, 2) and (-2, 6): index 40, invariant factors (2, 20)
    q = quotient_group(IntMatrix.from_rows([[6, -2], [2, 6]]))
    assert q.group.moduli == (2, 20)
    assert q.group.order == 40
    # both basis columns lie in the kernel
    assert q.project((6, 2)) == (0, 0)
    assert q.project((-2, 6)) == (0, 0)


def test_projection_is_linear_with_lattice_kernel():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(30):
        d = rng.randint(1, 3)
        while True:
            basis = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
            )
            try:
                q = quotient_group(basis)
                break
            except DegenerateLatticeError:
                continue
        g = q.group
        x = [rng.randint(-20, 20) for _ in range(d)]
        y = [rng.randint(-20, 20) for _ in range(d)]
        xy = [a + b for a, b in zip(x, y)]
        assert q.project(xy) == g.add(q.project(x), q.project(y))
        for j in range(d):
            assert q.project(basis.column(j)) == q.project([0] * d)
        # the projection hits every element: order of image = group order
        prod = 1
        for m in g.moduli:
            prod *= m
        assert g.order == prod


def test_projection_image_is_surjective():
    q = quotient_group(IntMatrix.from_rows([[6, -2], [2, 6]]))
    image = {q.project((i, j)) for i in range(-10, 10) for j in range(-10, 10)}
    assert image == set(q.group.element_tuple)


def test_degenerate_lattice_raises():
    with pytest.raises(DegenerateLatticeError):
        quotient_group(IntMatrix.from_rows([[2, 4], [1, 2]]))
    with pytest.raises(DegenerateLatticeError):
        quotient_group(IntMatrix.from_rows([[0]]))


def test_project_rejects_wrong_length():
    q = quotient_group(IntMatrix.from_rows([[6, -2], [2, 6]]))
    with pytest.raises(ValueError):
        q.project((1, 2, 3))


def test_manual_quotient_map_matches_snf_one():
    # a hand-picked unimodular transform for the same lattice gives an
    # isomorphic labelling: identical moduli and semiedge-label structure
    u = IntMatrix.from_rows([[0, 1], [-1, -7]])
    g = FiniteAbelianGroup((2, 20))
    q = QuotientMap(dim=2, transform=u, diagonal=(2, 20), group=g)
    assert q.project((6, 2)) == (0, 0)
    assert q.project((-2, 6)) == (0, 0)
    assert q.project((1, -1)) == (1, 6)
    assert q.project((0, -1)) == (1, 7)
