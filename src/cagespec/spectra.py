"""Spectra of Cayley sum graphs.

Two independent routes are provided: an exact character-based computation
(eigenvalues come from chi(S) for real characters and +-|chi(S)| for conjugate
pairs, with eigenvectors assembled from the characters), and a from-scratch
eigensolver, Householder tridiagonalization plus Sturm multisection, that
knows nothing about the group structure.

The character sums chi_a(S) over Z_n1 x ... x Z_nk are the multidimensional
DFT of S's multiplicity array, so all paired magnitudes come from one DFT,
shared by a whole stack of sum sets over one group; the real characters keep
exact integer parity sums, and the two routes are compared at the involutive
labels.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .abelian import Element, FiniteAbelianGroup
from .caysum import CaySumGraph, InvariantViolation, SumSet, semiedge_count

__all__ = [
    "EIGENSOLVER_TOL",
    "MATCH_TOL",
    "SpectrumPartition",
    "EigenPair",
    "ConvergenceError",
    "InvariantViolation",
    "character_spectrum",
    "sum_set_spectrum",
    "sum_set_spectra",
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


def _dft_slices(moduli: tuple[int, ...]) -> tuple[list[tuple[slice, ...]], tuple[slice, ...]]:
    """Index tuples into a moduli-shaped array (nonempty moduli): per axis j, the
    conjugate-pair representatives a < -a whose first non-involutive coordinate
    is a_j, which holds iff a_j lies in [1, (n_j + 1) // 2); and the involutive
    labels, every a_j 0 or n_j / 2, in lexicographic order."""
    invol, reps = (), []
    for n in moduli:
        reps.append(invol + (slice(1, (n + 1) // 2),))
        invol += (slice(0, None, n // 2 if n % 2 == 0 else n),)
    return reps, invol


def _character_dft(group: FiniteAbelianGroup, sum_sets) -> np.ndarray:
    """All character sums of a list of sum sets (sequences of reduced
    elements) at once: the DFT of each set's multiplicity array, shape
    (len(sum_sets), *moduli).

    np.fft.fft along each group axis, last first, is what np.fft.fftn does,
    so row i equals np.fft.fftn of S_i's multiplicity array bit for bit: it
    is sum_x m[x] exp(-2 pi i a.x / n), the complex conjugate of chi_a(S);
    magnitudes and real values are unaffected.
    """
    chi = np.zeros((len(sum_sets), *group.moduli), dtype=np.int64)
    for i, s in enumerate(sum_sets):
        for x in s:
            chi[(i, *x)] += 1
    for axis in range(group.rank, 0, -1):
        chi = np.fft.fft(chi, axis=axis)
    return chi


def _parity_sums(group: FiniteAbelianGroup, sum_sets) -> list[list[int]]:
    """Exact chi_a(S) at every involutive label a, in lexicographic order, for
    each sum set S (a sequence of reduced elements) in sum_sets."""
    actives = [[j for j, aj in enumerate(a) if aj] for a in group.involutive_elements()]
    return [
        [sum(-1 if sum(x[j] for j in active) % 2 else 1 for x in s) for active in actives]
        for s in sum_sets
    ]


def sum_set_spectrum(
    group: FiniteAbelianGroup,
    s: SumSet,
    semiedge_total: int | None = None,
) -> SpectrumPartition:
    """Exact spectrum partition of CayS(group, s) straight from the sum set:
    sum_set_spectra on the one row s."""
    if s.group != group:
        raise ValueError("sum set belongs to a different group")
    totals = None if semiedge_total is None else [semiedge_total]
    return sum_set_spectra(group, [s.elements], totals)[0]


def sum_set_spectra(
    group: FiniteAbelianGroup,
    sum_sets: Sequence[Sequence[Element]],
    semiedge_totals: Sequence[int] | None = None,
    names: Sequence | None = None,
) -> list[SpectrumPartition]:
    """Exact spectrum partitions of CayS(group, S_i) for sum sets S_i of
    reduced elements, unchecked, from one stacked DFT.

    Real (involutive) characters contribute chi(S) as exact integers from
    parity sums; each conjugate character pair contributes the magnitude
    |chi(S)| once, read from the DFT of S's multiplicity array.  Two checks
    compare independent routes on each row: the DFT values at the involutive
    labels must match the exact integers, and the semiedge total (the
    adjacency trace, recomputed arithmetically unless supplied) must equal
    their sum.  A failed check names row i by names[i] when given, else by
    the moduli.
    """
    raw = _parity_sums(group, sum_sets)
    k = len(raw)
    paired = [[]] * k
    if group.moduli and k:
        reps, invol = _dft_slices(group.moduli)
        chi = _character_dft(group, sum_sets)
        real = chi[(slice(None), *invol)].reshape(k, -1)
        err = np.abs(real - raw)
        if err.max() > MATCH_TOL:
            i = int(err.max(axis=1).argmax())
            raise InvariantViolation(
                f"DFT values at the real characters {real[i].real.tolist()} != exact "
                f"parity sums {raw[i]} for {_row_name(group, names, i)}"
            )
        pairs = [chi[(slice(None), *r)].reshape(k, -1) for r in reps]
        pairs = np.abs(pairs[0] if len(pairs) == 1 else np.concatenate(pairs, axis=1))
        paired = np.sort(pairs, axis=1)[:, ::-1].tolist()

    if semiedge_totals is None:
        semiedge_totals = [semiedge_count(group, s) for s in sum_sets]
    canonical: dict[tuple[int, ...], tuple[int, ...]] = {}
    parts = []
    for i, (values, total, pair) in enumerate(zip(raw, semiedge_totals, paired)):
        if sum(values) != total:
            raise InvariantViolation(
                f"trace identity violated: sum of real character values {sum(values)} "
                f"!= semiedge total {total} for {_row_name(group, names, i)}"
            )
        values = tuple(sorted(values, reverse=True))
        if values not in canonical:
            canonical[values] = canonical_unmatched(values)
        parts.append(SpectrumPartition(total, values, canonical[values], tuple(pair)))
    return parts


def _row_name(group: FiniteAbelianGroup, names: Sequence | None, i: int) -> str:
    return f"moduli {group.moduli}" if names is None else str(names[i])


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

    raw = _parity_sums(group, [graph.sum_set.elements])[0]
    for a, value in zip(group.involutive_elements(), raw):
        active = [j for j, aj in enumerate(a) if aj != 0]
        finish(float(value), 1.0 - 2.0 * (labels[active].sum(axis=0) % 2))

    if not moduli:
        return pairs
    index = np.arange(group.order).reshape(moduli)
    reps = np.sort(np.concatenate([index[r] for r in _dft_slices(moduli)[0]], axis=None))
    chi_s = np.conj(_character_dft(group, [graph.sum_set.elements]).ravel()[reps])
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
