from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cagespec.intlinalg import IntMatrix, _snf_general, det, is_unimodular, minor_gcd, snf

RNG_SEED = 0x51AF
N_RANDOM = 200
MAX_DIM = 4
ENTRY_RANGE = 9


def random_matrix(rng: random.Random, d: int, span: int = ENTRY_RANGE) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-span, span) for _ in range(d)] for _ in range(d)]
    )


def cofactor_det(m: IntMatrix) -> int:
    """Exact determinant by first-row cofactor expansion; reference only."""
    d = m.dim
    if d == 1:
        return m.entry(0, 0)
    total = 0
    for j in range(d):
        minor = IntMatrix.from_rows(
            [[m.entry(i, k) for k in range(d) if k != j] for i in range(1, d)]
        )
        total += (-1) ** j * m.entry(0, j) * cofactor_det(minor)
    return total


def check_snf_invariants(m: IntMatrix) -> None:
    dec = snf(m)
    assert (dec.u @ m @ dec.v).rows == dec.d.rows
    assert is_unimodular(dec.u)
    assert is_unimodular(dec.v)
    diag = dec.diagonal
    assert all(x >= 0 for x in diag)
    # divisibility chain, zeros trailing
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # product of the first k diagonal entries is the gcd of the k x k minors
    prod = 1
    for k, x in enumerate(diag, start=1):
        prod *= x
        assert prod == minor_gcd(m, k)


def test_from_rows_rejects_non_square():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])
    with pytest.raises(ValueError, match="non-integer entry"):
        IntMatrix(((1.5, 0), (0, 1)))


@pytest.mark.parametrize("entry", [2.5, 2.0, "7", np.float64(2)])
def test_from_rows_rejects_non_integer_entries(entry):
    with pytest.raises(ValueError, match="cannot be interpreted as an integer"):
        IntMatrix.from_rows([[entry, 0], [0, 1]])


def test_from_rows_stores_python_ints():
    m = IntMatrix.from_rows(np.array([[2, 0], [0, 3]]))
    assert m.rows == ((2, 0), (0, 3))
    assert all(type(x) is int for row in m.rows for x in row)
    assert IntMatrix.from_rows([[True, False], [0, 1]]).rows == ((1, 0), (0, 1))


def test_identity_and_matmul():
    rng = random.Random(RNG_SEED)
    for _ in range(20):
        d = rng.randint(1, MAX_DIM)
        a = random_matrix(rng, d)
        eye = IntMatrix.identity(d)
        assert (eye @ a).rows == a.rows
        assert (a @ eye).rows == a.rows
        b = random_matrix(rng, d)
        c = random_matrix(rng, d)
        assert ((a @ b) @ c).rows == (a @ (b @ c)).rows
    with pytest.raises(ValueError, match="dimension mismatch"):
        IntMatrix.identity(2) @ IntMatrix.identity(3)
    with pytest.raises(TypeError):
        IntMatrix.identity(2) @ 3


def test_apply_matches_matmul():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(50):
        d = rng.randint(1, MAX_DIM)
        a = random_matrix(rng, d)
        x = [rng.randint(-9, 9) for _ in range(d)]
        expected = tuple(
            sum(a.entry(i, j) * x[j] for j in range(d)) for i in range(d)
        )
        assert a.apply(x) == expected
    with pytest.raises(ValueError, match="does not match dimension"):
        IntMatrix.identity(2).apply((1, 2, 3))


def test_det_known_values():
    assert det(IntMatrix.identity(3)) == 1
    assert det(IntMatrix.from_rows([[6, -2], [2, 6]])) == 40
    assert det(IntMatrix.from_rows([[2, 4], [1, 2]])) == 0
    assert det(IntMatrix.from_rows([[5]])) == 5


def test_det_matches_cofactor_expansion():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(N_RANDOM):
        d = rng.randint(1, MAX_DIM)
        a = random_matrix(rng, d)
        assert det(a) == cofactor_det(a)


def test_det_multiplicative():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(100):
        d = rng.randint(1, MAX_DIM)
        a = random_matrix(rng, d)
        b = random_matrix(rng, d)
        assert det(a @ b) == det(a) * det(b)


def test_is_unimodular():
    assert is_unimodular(IntMatrix.identity(4))
    assert is_unimodular(IntMatrix.from_rows([[0, 1], [-1, -7]]))
    assert not is_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))
    assert not is_unimodular(IntMatrix.from_rows([[1, 1], [1, 1]]))


def test_snf_golden_two_by_two():
    # the index-40 triangle lattice: diagonal (2, 20) with these exact
    # transforms under the deterministic pivoting rule
    a = IntMatrix.from_rows([[6, -2], [2, 6]])
    dec = snf(a)
    assert dec.diagonal == (2, 20)
    assert dec.u.to_lists() == [[-1, 0], [3, 1]]
    assert dec.v.to_lists() == [[0, 1], [1, 3]]
    assert (dec.u @ a @ dec.v).rows == dec.d.rows


def test_snf_two_by_two_path_equals_the_general_elimination():
    # snf picks the unrolled path for a 2x2 input; u, v and d must be the
    # general loop's exactly, not only another valid Smith form
    small = itertools.product(range(-4, 5), repeat=4)
    rng = random.Random(RNG_SEED + 6)
    huge = (
        [rng.randint(-(10**20), 10**20) for _ in range(4)] for _ in range(2000)
    )
    bools = itertools.product((False, True, 0, 1, -1), repeat=4)
    count = 0
    for p, q, r, s in itertools.chain(small, huge, bools):
        m = IntMatrix(((p, q), (r, s)))
        dec = snf(m)
        assert dec == _snf_general(m)
        assert all(type(x) is int for x in itertools.chain(*dec.u.rows, *dec.v.rows, *dec.d.rows))
        count += 1
    assert count == 9**4 + 2000 + 5**4


def test_snf_singular_matrix():
    a = IntMatrix.from_rows([[2, 4], [4, 8]])
    dec = snf(a)
    assert dec.diagonal == (2, 0)
    check_snf_invariants(a)


def test_snf_zero_matrix():
    a = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    dec = snf(a)
    assert dec.diagonal == (0, 0, 0)
    check_snf_invariants(a)


def test_snf_diagonal_needs_divisibility_fixup():
    # diag(4, 6) is not a Smith form; the chain forces (2, 12)
    a = IntMatrix.from_rows([[4, 0], [0, 6]])
    dec = snf(a)
    assert dec.diagonal == (2, 12)
    check_snf_invariants(a)


def test_snf_random_properties():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(N_RANDOM):
        d = rng.randint(1, MAX_DIM)
        check_snf_invariants(random_matrix(rng, d))


def test_snf_determinant_consistency():
    # |det| equals the product of the invariant factors
    rng = random.Random(RNG_SEED + 5)
    for _ in range(100):
        d = rng.randint(1, MAX_DIM)
        a = random_matrix(rng, d)
        prod = 1
        for x in snf(a).diagonal:
            prod *= x
        assert prod == abs(det(a))


def test_minor_gcd_known_values():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert minor_gcd(a, 1) == 2
    assert minor_gcd(a, 2) == 8  # |det| = |16 - 24|
    for order in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            minor_gcd(a, order)


@seed(RNG_SEED)
@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_snf_invariants_hypothesis(rows):
    check_snf_invariants(IntMatrix.from_rows(rows))
