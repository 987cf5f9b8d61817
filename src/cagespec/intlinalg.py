"""Exact linear algebra on small square integer matrices.

Everything here runs on Python integers, which are unbounded, so all results
are exact regardless of entry size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

__all__ = [
    "IntMatrix",
    "SnfDecomposition",
    "snf",
    "det",
    "is_unimodular",
    "minor_gcd",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square integer matrix stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.rows)
        if d == 0:
            raise ValueError("matrix must have at least one row")
        for row in self.rows:
            if len(row) != d:
                raise ValueError(f"matrix is not square: {d} rows but a row of length {len(row)}")
            for x in row:
                if not isinstance(x, int):
                    raise ValueError(f"non-integer entry {x!r}")

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        return cls(tuple(tuple(map(int, row)) for row in rows))

    @classmethod
    def identity(cls, d: int) -> IntMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(self.dim))

    def apply(self, vector) -> tuple[int, ...]:
        """Matrix-vector product with an integer vector of matching length."""
        if len(vector) != self.dim:
            raise ValueError(f"vector of length {len(vector)} does not match dimension {self.dim}")
        return tuple(sum(row[j] * vector[j] for j in range(self.dim)) for row in self.rows)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        d = self.dim
        return IntMatrix(
            tuple(
                tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(d)) for j in range(d))
                for i in range(d)
            )
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def det(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    d = m.dim
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if a[k][k] == 0:
            for i in range(k + 1, d):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[d - 1][d - 1]


def is_unimodular(m: IntMatrix) -> bool:
    """True iff det(m) is +1 or -1 (m is invertible over the integers)."""
    return abs(det(m)) == 1


def minor_gcd(m: IntMatrix, order: int) -> int:
    """gcd of the absolute values of all order-by-order minors; 0 if all vanish.

    This is the classical invariant-factor characterization: the product of the
    first k diagonal entries of the Smith form equals minor_gcd(m, k).  It is
    computed here by direct enumeration of submatrices, independently of any
    elimination, so it doubles as an oracle for snf().
    """
    d = m.dim
    if not 1 <= order <= d:
        raise ValueError(f"minor order {order} out of range 1..{d}")
    g = 0
    for rows in itertools.combinations(range(d), order):
        for cols in itertools.combinations(range(d), order):
            sub = IntMatrix(tuple(tuple(m.rows[i][j] for j in cols) for i in rows))
            g = math.gcd(g, abs(det(sub)))
            if g == 1:
                return 1
    return g


@dataclass(frozen=True)
class SnfDecomposition:
    """Factorization u @ m @ v == d with u, v unimodular and d diagonal."""

    u: IntMatrix
    v: IntMatrix
    d: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()


def _swap_rows(a: list[list[int]], i: int, k: int) -> None:
    a[i], a[k] = a[k], a[i]


def _swap_cols(a: list[list[int]], j: int, k: int) -> None:
    for row in a:
        row[j], row[k] = row[k], row[j]


def _add_row(a: list[list[int]], dst: int, src: int, factor: int) -> None:
    arow, srow = a[dst], a[src]
    for j in range(len(arow)):
        arow[j] += factor * srow[j]


def _add_col(a: list[list[int]], dst: int, src: int, factor: int) -> None:
    for row in a:
        row[dst] += factor * row[src]


def snf(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form by elementary row/column reduction.

    Deterministic pivoting: at each stage the pivot is the nonzero entry of
    smallest absolute value in the trailing submatrix, the first such entry in
    row-major scan order.  Diagonal entries come out nonnegative and each
    divides the next; singular input simply yields trailing zeros.
    """
    dim = m.dim
    a = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    v = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]

    for k in range(dim):
        while True:
            # Locate the pivot: minimum absolute value, row-major on ties.
            best = 0
            pi = pj = -1
            for i in range(k, dim):
                for j in range(k, dim):
                    x = a[i][j]
                    if x != 0 and (best == 0 or abs(x) < best):
                        best = abs(x)
                        pi, pj = i, j
            if pi < 0:
                break  # trailing block is identically zero
            if pi != k:
                _swap_rows(a, pi, k)
                _swap_rows(u, pi, k)
            if pj != k:
                _swap_cols(a, pj, k)
                _swap_cols(v, pj, k)
            pivot = a[k][k]

            dirty = False
            for i in range(k + 1, dim):
                if a[i][k] != 0:
                    quo = a[i][k] // pivot
                    if quo:
                        _add_row(a, i, k, -quo)
                        _add_row(u, i, k, -quo)
                    if a[i][k] != 0:
                        dirty = True
            for j in range(k + 1, dim):
                if a[k][j] != 0:
                    quo = a[k][j] // pivot
                    if quo:
                        _add_col(a, j, k, -quo)
                        _add_col(v, j, k, -quo)
                    if a[k][j] != 0:
                        dirty = True
            if dirty:
                continue  # remainders smaller than the pivot exist; re-pivot

            # Row and column k are clear.  Enforce the divisibility chain.
            fixup = None
            for i in range(k + 1, dim):
                for j in range(k + 1, dim):
                    if a[i][j] % pivot != 0:
                        fixup = i
                        break
                if fixup is not None:
                    break
            if fixup is None:
                break
            _add_row(a, k, fixup, 1)
            _add_row(u, k, fixup, 1)
        if pi < 0:
            break  # nothing left to reduce; remaining diagonal stays zero

    for k in range(dim):
        if a[k][k] < 0:
            for j in range(dim):
                a[k][j] = -a[k][j]
                u[k][j] = -u[k][j]

    return SnfDecomposition(
        u=IntMatrix.from_rows(u),
        v=IntMatrix.from_rows(v),
        d=IntMatrix.from_rows(a),
    )
