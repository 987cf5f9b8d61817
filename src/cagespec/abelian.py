"""Finite abelian groups, their characters, and integer-lattice quotients."""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .intlinalg import IntMatrix, _int_tuple, snf

__all__ = [
    "Element",
    "FiniteAbelianGroup",
    "QuotientMap",
    "quotient_group",
    "DegenerateLatticeError",
]

Element = tuple[int, ...]  # group elements are tuples of residues, one per modulus


class DegenerateLatticeError(ValueError):
    """Raised when a sublattice basis is singular, so the quotient is infinite."""


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product Z_n1 x ... x Z_nu of cyclic groups.

    Moduli equal to 1 are dropped at construction.  The trivial group has an
    empty modulus tuple and a single element, the empty tuple.

    This class owns the package's element-index convention, row-major
    (lexicographic) rank: index_of and element_tuple apply it to one element,
    labels and indices to whole arrays, _moduli_tables reads the character
    tables off it once per moduli tuple, and no other module re-derives it.
    """

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        moduli = _int_tuple(self.moduli, "moduli")
        for n in moduli:
            if n < 1:
                raise ValueError(f"modulus must be a positive integer, got {n}")
        if moduli is not self.moduli or 1 in moduli:
            object.__setattr__(self, "moduli", tuple(n for n in moduli if n != 1))

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @cached_property
    def element_tuple(self) -> tuple[Element, ...]:
        """All elements in ascending lexicographic order."""
        return tuple(itertools.product(*(range(n) for n in self.moduli)))

    def elements(self) -> tuple[Element, ...]:
        return self.element_tuple

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == len(self.moduli)
            and all(isinstance(c, int) and 0 <= c < n for c, n in zip(x, self.moduli))
        )

    def _check(self, x) -> None:
        if not self.contains(x):
            raise ValueError(f"{x!r} is not an element of the group with moduli {self.moduli}")

    def index_of(self, x: Element) -> int:
        """Lexicographic rank of an element (the row/column index convention)."""
        self._check(x)
        idx = 0
        for c, n in zip(x, self.moduli):
            idx = idx * n + c
        return idx

    @cached_property
    def labels(self) -> np.ndarray:
        """All elements, in index_of order, as columns of a read-only (rank, order) int64 array."""
        labels = np.indices(self.moduli, dtype=np.int64).reshape(self.rank, self.order)
        labels.flags.writeable = False
        return labels

    def indices(self, coords: np.ndarray) -> np.ndarray:
        """index_of of every column of a (rank, N) integer array, reduced mod the moduli first."""
        if not self.moduli:  # ravel_multi_index would return a scalar
            return np.zeros(coords.shape[1], dtype=np.int64)
        return np.ravel_multi_index(tuple(coords), self.moduli, mode="wrap")

    def reduce(self, vector) -> Element:
        """Reduce an integer vector componentwise into the group; a float raises ValueError."""
        if len(vector) != len(self.moduli):
            raise ValueError(f"vector {vector!r} has wrong length for moduli {self.moduli}")
        return tuple(v % n for v, n in zip(_int_tuple(vector, "vector coordinates"), self.moduli))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.moduli))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((a - b) % n for a, b, n in zip(x, y, self.moduli))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % n for a, n in zip(x, self.moduli))

    def double(self, x: Element) -> Element:
        return tuple((2 * a) % n for a, n in zip(x, self.moduli))

    @cached_property
    def _lcm(self) -> int:
        return math.lcm(*self.moduli) if self.moduli else 1

    def character_value(self, a: Element, x: Element) -> complex:
        """chi_a(x) = exp(2 pi i * sum_j a_j x_j / n_j).

        The phase is accumulated as an exact fraction over lcm(moduli) and
        reduced mod 1 before the single trigonometric evaluation.
        """
        self._check(a)
        self._check(x)
        den = self._lcm
        num = sum(aj * xj * (den // n) for aj, xj, n in zip(a, x, self.moduli)) % den
        return cmath.exp(2j * math.pi * num / den)

    def is_involutive(self, a: Element) -> bool:
        """True iff a + a = 0, i.e. the character chi_a takes only values +-1."""
        return all(2 * c % n == 0 for c, n in zip(a, self.moduli))

    def character_sign(self, a: Element, x: Element) -> int:
        """Exact +-1 value of chi_a(x) for an involutive label a (integer arithmetic only)."""
        self._check(a)
        self._check(x)
        if not self.is_involutive(a):
            raise ValueError(f"label {a} is not involutive; chi takes non-real values")
        parity = sum(xj for aj, xj in zip(a, x) if aj != 0)
        return -1 if parity % 2 else 1

    def involutive_elements(self) -> list[Element]:
        """Elements with a + a = 0, in lexicographic order; count is prod(2 if n even else 1)."""
        choices = [(0,) if n % 2 else (0, n // 2) for n in self.moduli]
        return [tuple(c) for c in itertools.product(*choices)]

    def conjugate_pair_reps(self) -> list[Element]:
        """One representative per pair {a, -a} with a != -a, the lexicographic minimum."""
        reps = []
        for a in self.element_tuple:
            na = self.neg(a)
            if a < na:
                reps.append(a)
        return reps


@lru_cache(maxsize=1024)
def _moduli_tables(moduli: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only character tables of one moduli tuple's group, computed once
    per tuple: the (rank, |G[2]|) 0/1 activity matrix, entry (j, c) set iff
    coordinate j of the c-th involutive label is nonzero, and the ascending
    (so lexicographic) indices of the involutive labels a = -a and of the
    pair representatives a < -a.  Each is O(order) to build; the semiedge
    counts, which read only the moduli, do not use them."""
    group = FiniteAbelianGroup(moduli)
    index = np.arange(group.order)
    negated = group.indices(-group.labels)
    invol = np.flatnonzero(negated == index)
    reps = np.flatnonzero(index < negated)
    activity = (group.labels[:, invol] != 0).astype(np.int64)
    for table in (activity, invol, reps):
        table.flags.writeable = False
    return activity, invol, reps


@dataclass(frozen=True)
class QuotientMap:
    """The projection Z^d -> Z^d / L for a full-rank integer column lattice L.

    transform is a unimodular row transform carrying L onto a diagonal lattice;
    an integer vector projects to (transform @ x) mod diagonal, with coordinates
    of modulus 1 dropped.  The kernel is exactly the column lattice of L.
    """

    dim: int
    transform: IntMatrix
    diagonal: tuple[int, ...]
    group: FiniteAbelianGroup

    def __post_init__(self) -> None:
        # kept (modulus != 1) transform rows, each reduced mod its modulus n:
        # (row . v) mod n reads only row mod n, and reduced rows fit in int64;
        # set once here, as a cached_property takes a lock per object
        rows = zip(self.transform.rows, self.diagonal)
        active = tuple((tuple(x % n for x in row), n) for row, n in rows if n != 1)
        object.__setattr__(self, "_active_rows", active)

    @property
    def matrix(self) -> np.ndarray:
        """The kept transform rows, each reduced mod its modulus, as a (rank,
        dim) int64 array: project(v) is matrix @ v reduced mod the group's moduli."""
        rows = [row for row, _ in self._active_rows]
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.dim)

    def project(self, vector) -> Element:
        if len(vector) != self.dim:
            raise ValueError(f"vector {vector!r} has wrong length for dimension {self.dim}")
        out = []
        for row, n in self._active_rows:
            acc = 0
            for rv, xv in zip(row, vector):
                acc += rv * xv
            out.append(acc % n)
        return tuple(out)


def quotient_group(basis: IntMatrix) -> QuotientMap:
    """Quotient of Z^d by the lattice spanned by the columns of basis."""
    decomposition = snf(basis)
    diag = decomposition.d.diagonal()
    if 0 in diag:
        raise DegenerateLatticeError(f"sublattice basis is singular: {basis.to_lists()}")
    return QuotientMap(
        dim=basis.dim,
        transform=decomposition.u,
        diagonal=diag,
        group=FiniteAbelianGroup(diag),
    )
