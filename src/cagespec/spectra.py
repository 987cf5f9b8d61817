"""Spectra of Cayley sum graphs.

Two independent routes are provided: an exact character-based computation
(eigenvalues come from chi(S) for real characters and +-|chi(S)| for conjugate
pairs, with eigenvectors assembled from the characters), and a from-scratch
eigensolver, Householder tridiagonalization plus Sturm multisection, that
knows nothing about the group structure.

The character sums chi_a(S) over Z_n1 x ... x Z_nk are the multidimensional
DFT of S's multiplicity array, so all paired magnitudes come from one
np.fft.fftn; the real characters keep exact integer parity sums, and the two
routes are compared at the involutive labels.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .abelian import FiniteAbelianGroup
from .caysum import CaySumGraph, InvariantViolation, SumSet, total_semiedge_count

__all__ = [
    "EIGENSOLVER_TOL",
    "MATCH_TOL",
    "SpectrumPartition",
    "EigenPair",
    "ConvergenceError",
    "InvariantViolation",
    "character_spectrum",
    "sum_set_spectrum",
    "canonical_unmatched",
    "spectrum_is_paired",
    "eigenvectors",
    "numeric_spectrum",
    "multiset_close",
]

EIGENSOLVER_TOL = 1e-12
MATCH_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """Raised when the multisection pass budget is exhausted before convergence."""


@dataclass(frozen=True)
class SpectrumPartition:
    """Spectrum split into the unmatched multiset and the paired (+-) part.

    unmatched_raw holds the exact integer eigenvalues coming from real
    characters; unmatched_canonical is the same multiset after cancelling
    complete {lambda, -lambda} pairs into the paired part.  paired holds one
    nonnegative magnitude per conjugate character pair; each contributes the
    eigenvalue pair +-magnitude.
    """

    semiedge_total: int
    unmatched_raw: tuple[int, ...]
    unmatched_canonical: tuple[int, ...]
    paired: tuple[float, ...]

    def full(self) -> list[float]:
        """The complete eigenvalue multiset, descending."""
        values = [float(v) for v in self.unmatched_raw]
        for p in self.paired:
            values.append(p)
            values.append(-p)
        values.sort(reverse=True)
        return values

    def to_json(self) -> dict:
        return {
            "s": self.semiedge_total,
            "M_raw": list(self.unmatched_raw),
            "M_canonical": list(self.unmatched_canonical),
            "paired": list(self.paired),
            "full": self.full(),
        }


@lru_cache(maxsize=128)
def _dft_layout(moduli: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the conjugate-pair representatives and of the involutive
    labels in the DFT array of a group with these (nonempty) moduli.

    The DFT array's flat order is the group's index order, so the
    representative of {a, -a} is the flat index k with k < neg[k], and
    a = -a iff k == neg[k].
    """
    group = FiniteAbelianGroup(moduli)
    neg = group.indices(-group.labels)
    k = np.arange(neg.size)
    return (k < neg).nonzero()[0], (k == neg).nonzero()[0]


def _character_dft(group: FiniteAbelianGroup, s: SumSet) -> np.ndarray:
    """All character sums at once: the DFT of S's multiplicity array, flat.

    np.fft.fftn computes sum_x m[x] exp(-2 pi i a.x / n), which is the complex
    conjugate of chi_a(S); magnitudes and real values are unaffected.
    """
    mult = np.zeros(group.moduli, dtype=np.int64)
    for x in s.elements:
        mult[x] += 1
    return np.fft.fftn(mult).ravel()


def _real_character_values(group: FiniteAbelianGroup, s: SumSet) -> list[int]:
    """Exact chi_a(S) for every involutive label a, in lexicographic order."""
    values = []
    for a in group.involutive_elements():
        active = tuple(j for j, aj in enumerate(a) if aj != 0)
        total = 0
        for x in s.elements:
            total += -1 if sum(x[j] for j in active) % 2 else 1
        values.append(total)
    return values


def sum_set_spectrum(
    group: FiniteAbelianGroup,
    s: SumSet,
    semiedge_total: int | None = None,
) -> SpectrumPartition:
    """Exact spectrum partition of CayS(group, s) straight from the sum set.

    Real (involutive) characters contribute chi(S) as exact integers from
    parity sums; each conjugate character pair contributes the magnitude
    |chi(S)| once, read from one DFT of S's multiplicity array.  Two checks
    compare independent routes: the DFT values at the involutive labels must
    match the exact integers, and the semiedge total (the adjacency trace,
    recomputed arithmetically unless supplied) must equal their sum.
    """
    if s.group != group:
        raise ValueError("sum set belongs to a different group")
    raw = _real_character_values(group, s)
    paired: list[float] = []
    if group.moduli:
        reps, invol = _dft_layout(group.moduli)
        chi = _character_dft(group, s)
        if np.max(np.abs(chi[invol] - raw)) > MATCH_TOL:
            raise InvariantViolation(
                f"DFT values at the real characters {chi[invol].real.tolist()} "
                f"!= exact parity sums {raw} for moduli {group.moduli}"
            )
        paired = np.sort(np.abs(chi[reps]))[::-1].tolist()

    if semiedge_total is None:
        semiedge_total = total_semiedge_count(group, s)
    if sum(raw) != semiedge_total:
        raise InvariantViolation(
            f"trace identity violated: sum of real character values {sum(raw)} "
            f"!= semiedge total {semiedge_total}"
        )
    raw_sorted = tuple(sorted(raw, reverse=True))
    return SpectrumPartition(
        semiedge_total=semiedge_total,
        unmatched_raw=raw_sorted,
        unmatched_canonical=canonical_unmatched(raw_sorted),
        paired=tuple(paired),
    )


def character_spectrum(graph: CaySumGraph) -> SpectrumPartition:
    """Exact spectrum partition of a Cayley sum graph from its characters."""
    return sum_set_spectrum(graph.group, graph.sum_set, graph.total_semiedges)


def canonical_unmatched(values: Iterable[int]) -> tuple[int, ...]:
    """Cancel complete {lambda, -lambda} pairs out of an integer multiset.

    For each magnitude the min(count(+), count(-)) pairs migrate to the paired
    part of the spectrum; zeros cancel two at a time.  What remains is the
    canonical unmatched multiset, returned descending.
    """
    counts = Counter(int(v) for v in values)
    result: list[int] = []
    for mag in sorted({abs(v) for v in counts}, reverse=True):
        if mag == 0:
            if counts.get(0, 0) % 2:
                result.append(0)
            continue
        pos, neg = counts.get(mag, 0), counts.get(-mag, 0)
        if pos > neg:
            result.extend([mag] * (pos - neg))
        elif neg > pos:
            result.extend([-mag] * (neg - pos))
    return tuple(sorted(result, reverse=True))


def spectrum_is_paired(full: Sequence[float], unmatched: Iterable[float], tol: float = MATCH_TOL) -> bool:
    """True iff (full - unmatched) is negation-symmetric.

    Each unmatched value is removed once (nearest match within tol); the
    remainder is then paired greedily, largest against most negative.
    """
    remaining = sorted(float(v) for v in full)
    for value in unmatched:
        target = float(value)
        best = None
        for idx, candidate in enumerate(remaining):
            err = abs(candidate - target)
            if best is None or err < best[0]:
                best = (err, idx)
        if best is None or best[0] > tol:
            return False
        remaining.pop(best[1])
    lo, hi = 0, len(remaining) - 1
    while lo < hi:
        if abs(remaining[lo] + remaining[hi]) > tol:
            return False
        lo += 1
        hi -= 1
    return lo > hi


def multiset_close(xs: Sequence[float], ys: Sequence[float], tol: float = MATCH_TOL) -> bool:
    """Compare two real multisets by sorting and elementwise tolerance."""
    if len(xs) != len(ys):
        return False
    return all(abs(a - b) <= tol for a, b in zip(sorted(xs), sorted(ys)))


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float


def eigenvectors(graph: CaySumGraph) -> list[EigenPair]:
    """A complete orthonormal eigensystem assembled from characters.

    Real characters give +-1 eigenvectors for the exact integer eigenvalues.
    For a conjugate pair with value lambda = |chi(S)| > 0, a unimodular alpha
    with alpha^2 chi(S) = |chi(S)| is chosen; Re(alpha chi) and Im(alpha chi)
    are eigenvectors for +lambda and -lambda.  When chi(S) = 0, alpha = 1 and
    both parts belong to the doubly degenerate eigenvalue 0.
    """
    group = graph.group
    moduli = group.moduli
    labels = group.labels
    adjacency = graph.adjacency_matrix().astype(float)
    pairs: list[EigenPair] = []

    def finish(value: float, vec: np.ndarray) -> None:
        vec = vec / np.linalg.norm(vec)
        residual = float(np.max(np.abs(adjacency @ vec - value * vec)))
        pairs.append(EigenPair(value=value, vector=vec, residual=residual))

    raw = _real_character_values(group, graph.sum_set)
    for a, value in zip(group.involutive_elements(), raw):
        active = [j for j, aj in enumerate(a) if aj != 0]
        finish(float(value), 1.0 - 2.0 * (labels[active].sum(axis=0) % 2))

    if not moduli:
        return pairs
    reps, _ = _dft_layout(moduli)
    chi_s = np.conj(_character_dft(group, graph.sum_set)[reps])
    den = group._lcm
    # exact integer phases of every pair representative at every element
    phases = ((labels[:, reps].T * (den // np.array(moduli))) @ labels) % den
    for z, chi in zip(chi_s.tolist(), np.exp(2j * np.pi * phases / den)):
        value = abs(z)
        if value < 1e-12:
            alpha = 1.0 + 0j
            value = 0.0
        else:
            alpha = cmath.exp(-1j * cmath.phase(z) / 2)
        rotated = alpha * chi
        finish(value, rotated.real.copy())
        finish(-value, rotated.imag.copy())

    return pairs


# points tested per interval and pass: 7 and 15 run equally fast at orders
# 12-32, and 7 is faster at order 400 and needs half the memory
_MULTISECTION_POINTS = 7


def numeric_spectrum(
    a: np.ndarray,
    tol: float = EIGENSOLVER_TOL,
    max_sweeps: int = 100,
) -> list[float]:
    """Eigenvalues of a real symmetric matrix, descending, by Householder
    tridiagonalization (Golub & Van Loan 8.3.1) and Sturm multisection
    (Barth, Martin & Wilkinson 1967; Lo, Philippe & Sameh 1987).

    Each of at most max_sweeps passes tests _MULTISECTION_POINTS points in
    the interval of every eigenvalue with one Sturm count vectorized over all
    points, until every interval is at most max(tol, 4 eps |endpoint|) wide.
    This solver is the group-blind oracle for character_spectrum and
    deliberately uses nothing from the rest of the package.
    """
    work = np.array(a, dtype=float)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {work.shape}")
    if not np.array_equal(work, work.T):
        raise ValueError("matrix is not symmetric")
    n = work.shape[0]
    if n == 1:
        return [float(work[0, 0])]
    # summed directly over the off-diagonal entries; subtracting the
    # diagonal from the full Frobenius norm cancels catastrophically
    off_mask = ~np.eye(n, dtype=bool)
    if math.sqrt(float(np.sum(work[off_mask] ** 2))) <= tol:
        return sorted((float(x) for x in np.diag(work)), reverse=True)

    e = np.zeros(n - 1)  # subdiagonal of the tridiagonal form
    for k in range(n - 2):
        x = work[k + 1 :, k]
        norm = math.sqrt(float(x @ x))
        if norm == 0.0:  # zero reflector vector: nothing to reduce
            continue
        e[k] = -math.copysign(norm, x[0])
        v = x.copy()
        v[0] -= e[k]
        beta = 1.0 / (norm * (norm + abs(x[0])))  # 2 / (v . v)
        sub = work[k + 1 :, k + 1 :]
        p = beta * (sub @ v)
        vw = np.stack((v, p - (0.5 * beta * float(p @ v)) * v))
        sub -= vw.T @ vw[::-1]  # v w^T + w v^T
    e[-1] = work[-1, -2]
    d = work.diagonal()

    points = _MULTISECTION_POINTS
    radius = np.abs(np.concatenate(([0.0], e, [0.0])))
    radius = radius[:-1] + radius[1:]
    # row j: lo_j, the points tested for eigenvalue j, hi_j
    grid = np.empty((n, points + 2))
    grid[:, 0], grid[:, -1] = np.min(d - radius), np.max(d + radius)
    lo, inner, hi = grid[:, 0], grid[:, 1:-1], grid[:, -1]
    frac = np.arange(1, points + 1) / (points + 1)
    j = np.arange(n)
    # clamped so that a zero subdiagonal entry never computes 0 / 0
    e2 = np.maximum(e * e, np.finfo(float).tiny).tolist()
    q = np.empty((n, n * points))
    rows = list(q)
    # a zero or subnormal pivot makes e2 / q infinite: the limit the count needs
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(max_sweeps):
            np.multiply((hi - lo)[:, None], frac, out=inner)
            inner += lo[:, None]
            # Sturm: q_i = (d_i - x) - e_{i-1}^2 / q_{i-1}; the number of
            # negative q_i is the number of eigenvalues below x.  signbit
            # counts a pivot of -0.0 as 0-, whose successor is then +inf
            np.subtract(d[:, None], inner.ravel(), out=q)
            for prev, row, b in zip(rows, rows[1:], e2):
                row -= b / prev
            below = np.signbit(q).sum(axis=0).reshape(n, points)
            # lo_j becomes the last point with at most j eigenvalues below it
            m = (below <= j[:, None]).sum(axis=1)
            lo[:], hi[:] = grid[j, m], grid[j, m + 1]
            scale = np.maximum(np.abs(lo), np.abs(hi))
            if np.all(hi - lo <= np.maximum(tol, 4.0 * np.finfo(float).eps * scale)):
                return np.sort(0.5 * (lo + hi))[::-1].tolist()
    raise ConvergenceError(f"Sturm multisection missed width {tol} in {max_sweeps} passes")
