"""Spectra of Cayley sum graphs.

Two independent routes are provided: an exact character-based computation
(eigenvalues come from chi(S) for real characters and +-|chi(S)| for conjugate
pairs, with eigenvectors assembled from the characters), and a from-scratch
eigensolver, Householder tridiagonalization plus Sturm multisection, that
knows nothing about the group structure.  The tridiagonal form splits into
independent blocks wherever a subdiagonal entry is negligible, and one Sturm
recurrence counts all blocks side by side, so a multisection pass takes as
many row steps as the longest block (0.07 s in all at order 400).

The character sums chi_a(S) over Z_n1 x ... x Z_nk are the multidimensional
DFT of S's multiplicity array, so all paired magnitudes come from one DFT,
shared by a whole stack of sum sets over one group and read at the flat
indices of the group's tables (abelian._moduli_tables): a = -a marks the
involutive labels, whose exact parity sums the DFT values must match, and
a < -a the conjugate-pair representatives.  That one routine,
sum_set_spectra, gives each row's SpectrumPartition, a NamedTuple, and the
fullerene sweep reads those partitions straight into its reports.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .abelian import Element, FiniteAbelianGroup, _moduli_tables
from .caysum import CaySumGraph, InvariantViolation, SumSet, _element_stack, semiedge_counts

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


class SpectrumPartition(NamedTuple):
    """Spectrum split into the unmatched multiset and the paired (+-) part.

    unmatched_raw holds the exact integer eigenvalues coming from real
    characters; unmatched_canonical is the same multiset after cancelling
    complete {lambda, -lambda} pairs into the paired part.  paired holds one
    nonnegative magnitude per conjugate character pair; each contributes the
    eigenvalue pair +-magnitude.  A NamedTuple, so sum_set_spectra builds
    each row as the public record; _replace gives a modified copy.
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


def _parity_sums(elements: np.ndarray, activity: np.ndarray) -> np.ndarray:
    """Exact chi_a(S) at every involutive label a, in lexicographic order, for
    each row S of a (K, m, rank) element array, as a (K, |G[2]|) array:
    chi_a(x) is -1 to the sum of x's coordinates where a is nonzero."""
    odd = (elements @ activity) & 1
    return elements.shape[1] - 2 * odd.sum(axis=1)


def _character_dft(group: FiniteAbelianGroup, elements: np.ndarray) -> np.ndarray:
    """All character sums of the K sum sets of a (K, m, rank) element array
    at once: the DFT of each set's multiplicity array, shape (K, *moduli).
    The multiplicities are one bincount of the elements' flat indices into
    that (K, *moduli) stack.

    np.fft.fft along each group axis, last first, is what np.fft.fftn does,
    so row i equals np.fft.fftn of S_i's multiplicity array bit for bit: it
    is sum_x m[x] exp(-2 pi i a.x / n), the complex conjugate of chi_a(S);
    magnitudes and real values are unaffected.
    """
    k, m, rank = elements.shape
    shape = (k, *group.moduli)
    rows = np.arange(k).repeat(m)
    index = np.ravel_multi_index((rows, *elements.reshape(k * m, rank).T), shape)
    chi = np.bincount(index, minlength=k * group.order).reshape(shape)
    for axis in range(rank, 0, -1):
        chi = np.fft.fft(chi, axis=axis)
    return chi


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
    sum_sets: np.ndarray | Sequence[Sequence[Element]],
    semiedge_totals: Sequence[int] | None = None,
    names: Sequence | None = None,
) -> list[SpectrumPartition]:
    """Exact spectrum partitions of CayS(group, S_i) for K sum sets S_i of m
    reduced elements each, unchecked: a (K, m, rank) integer array, or K
    sequences of m elements.  Sum sets of unequal sizes and non-integer
    coordinates raise ValueError.  A row's elements may come in any order,
    which parity sums, multiplicities and semiedge counts ignore: the
    fullerene sweep passes its int64 stack in edge order.

    Real (involutive) characters contribute chi(S) as exact integers from
    parity sums; each conjugate character pair contributes the magnitude
    |chi(S)| once, read from one stacked DFT of the multiplicity arrays.  Two
    checks compare independent routes on each row: the DFT values at the
    involutive labels must match the exact integers, and the semiedge total
    (the adjacency trace, counted from the parities of the even-modulus
    coordinates unless supplied) must equal their sum.  A failed check names
    row i by names[i] when given, else by the moduli.
    """
    elements = _element_stack(sum_sets, group.rank)
    k = len(elements)
    activity, invol, reps = _moduli_tables(group.moduli)
    raw = _parity_sums(elements, activity)
    chi = _character_dft(group, elements).reshape(k, group.order)
    real = chi[:, invol]
    err = np.abs(real - raw)
    if err.max(initial=0.0) > MATCH_TOL:
        i = int(err.max(axis=1).argmax())
        raise InvariantViolation(
            f"DFT values at the real characters {real[i].real.tolist()} != exact "
            f"parity sums {raw[i].tolist()} for {_row_name(group, names, i)}"
        )
    paired = np.sort(np.abs(chi[:, reps]), axis=1)[:, ::-1].tolist()

    if semiedge_totals is None:
        semiedge_totals = semiedge_counts(group, elements).tolist()
    parts = []
    for i, (values, total, pair) in enumerate(zip(raw.tolist(), semiedge_totals, paired)):
        if sum(values) != total:
            raise InvariantViolation(
                f"trace identity violated: sum of real character values {sum(values)} "
                f"!= semiedge total {total} for {_row_name(group, names, i)}"
            )
        parts.append(SpectrumPartition(total, *_sorted_and_canonical(tuple(values)), tuple(pair)))
    return parts


@lru_cache(maxsize=1024)
def _sorted_and_canonical(values: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The multiset values, descending, and its canonical_unmatched form."""
    values = tuple(sorted(values, reverse=True))
    return values, canonical_unmatched(values)


def _row_name(group: FiniteAbelianGroup, names: Sequence | None, i: int) -> str:
    return f"moduli {group.moduli}" if names is None else str(names[i])


def character_spectrum(graph: CaySumGraph) -> SpectrumPartition:
    """Exact spectrum partition of a Cayley sum graph from its characters."""
    return sum_set_spectrum(graph.group, graph.sum_set, graph.total_semiedges)


def canonical_unmatched(values: Iterable[int]) -> tuple[int, ...]:
    """Cancel complete {lambda, -lambda} pairs out of an integer multiset.

    The cancelled pairs migrate to the paired part of the spectrum, zeros two
    at a time: of each value v there remain max(count(v) - count(-v), 0)
    copies, and count(0) mod 2 copies of 0.  What remains is the canonical
    unmatched multiset, returned descending.
    """
    counts = Counter(int(v) for v in values)
    result: list[int] = []
    for v, count in counts.items():
        result += [v] * (count % 2 if v == 0 else max(count - counts.get(-v, 0), 0))
    return tuple(sorted(result, reverse=True))


def spectrum_is_paired(full: Sequence[float], unmatched: Iterable[float], tol: float = MATCH_TOL) -> bool:
    """True iff (full - unmatched) is negation-symmetric.

    Each unmatched value is removed once (nearest match within tol, the
    first on a tie; a NaN on either side matches nothing); the remainder,
    of even length, must then be close to its own negation as a multiset.
    """
    remaining = sorted(float(v) for v in full)
    for target in map(float, unmatched):
        idx = min(range(len(remaining)), key=lambda i: abs(remaining[i] - target), default=None)
        if idx is None or not abs(remaining[idx] - target) <= tol:
            return False
        remaining.pop(idx)
    return len(remaining) % 2 == 0 and multiset_close(remaining, [-v for v in remaining], tol)


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
    A Cayley sum graph maps chi to chi(S) conj(chi), so for a conjugate pair
    with value lambda = |chi(S)| the unimodular alpha = exp(-i arg chi(S)/2),
    which has alpha^2 chi(S) = lambda, makes Re(alpha chi) and Im(alpha chi)
    eigenvectors for +lambda and -lambda.
    The values equal character_spectrum's exactly: both take np.abs of one DFT.
    """
    group = graph.group
    labels = group.labels
    elements = graph.sum_set.array[None]
    activity, _, reps = _moduli_tables(group.moduli)
    chi_s = np.conj(_character_dft(group, elements).ravel()[reps])
    mag = np.abs(chi_s)
    alpha = np.exp(-0.5j * np.angle(chi_s))
    den = group._lcm
    # exact integer phases of every pair representative at every element
    phases = ((labels[:, reps].T * (den // np.array(group.moduli))) @ labels) % den
    rotated = alpha[:, None] * np.exp(2j * np.pi * phases / den)
    # rows: chi_a at every element for each involutive label a, then
    # Re(alpha chi) and Im(alpha chi) of each pair, for +|chi(S)| and -|chi(S)|
    values = np.concatenate((_parity_sums(elements, activity)[0], np.outer(mag, (1, -1)).ravel()))
    pair_rows = np.stack((rotated.real, rotated.imag), axis=1).reshape(-1, group.order)
    vectors = np.concatenate((1.0 - 2.0 * ((activity.T @ labels) & 1), pair_rows))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    residuals = np.abs(vectors @ graph.adjacency_matrix() - values[:, None] * vectors).max(axis=1)
    return [EigenPair(*pair) for pair in zip(values.tolist(), vectors, residuals.tolist())]


# Test points per multisection pass, over all intervals: each interval gets
# 2^k - 1 points, with 2^k the power of two nearest 512 / n and at least 2, so
# 31 points at orders 12-22, 15 at 23-45, 7 at 46-90, 3 at 91-181 and one
# (bisection) from order 182 on.  Small orders pay numpy's per-call cost, so
# more points and fewer passes win there; large orders pay per element, so
# fewer points win.  Best of 5-20 interleaved runs on one core of a 2-vCPU VM:
# 210 oracle graphs of orders 12-32 took 0.80-0.81 ms each with this constant
# at 256 or 512 and 0.89 ms at 1024; the Z_120 fold took 6.8 ms with 3 points,
# 8.2 with 1 and 7.5 with 7; the Z_400 fold 75 ms with 1 point, 78 with 3 and
# 82 with 7.
_MULTISECTION_POINTS = 512
_EPS = float(np.finfo(float).eps)


def _householder(work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal and subdiagonal of a tridiagonal matrix similar to the
    symmetric matrix work, which is overwritten (Golub & Van Loan 8.3.1):
    n - 2 reflections, each one matrix-vector product p = beta A22 v, its
    correction w = p - (beta p.v / 2) v and one rank-2 update
    A22 -= v w^T + w v^T; a step whose column below the diagonal is zero is
    skipped."""
    n = work.shape[0]
    e = np.zeros(n - 1)
    vw = np.empty((2, n))  # rows v and w of the current step
    for k in range(n - 2):
        x = work[k + 1 :, k]
        norm = math.sqrt(float(x @ x))
        if norm == 0.0:  # zero reflector vector: nothing to reduce
            continue
        e[k] = -math.copysign(norm, x[0])
        pair = vw[:, : n - k - 1]
        v, w = pair
        v[:] = x
        v[0] -= e[k]
        beta = 1.0 / (norm * (norm + abs(x[0])))  # 2 / (v . v)
        sub = work[k + 1 :, k + 1 :]
        np.matmul(sub, v, out=w)
        w *= beta
        w -= (0.5 * beta * float(w @ v)) * v
        sub -= pair.T @ pair[::-1]  # v w^T + w v^T
    e[-1] = work[-1, -2]
    return work.diagonal(), e


def numeric_spectrum(
    a: np.ndarray,
    tol: float = EIGENSOLVER_TOL,
    max_sweeps: int = 100,
) -> list[float]:
    """Eigenvalues of a real symmetric matrix, descending, by Householder
    tridiagonalization (Golub & Van Loan 8.3.1) and Sturm multisection
    (Barth, Martin & Wilkinson 1967; Lo, Philippe & Sameh 1987).

    The tridiagonal splits into independent blocks wherever a subdiagonal
    entry is at most eps times its Gershgorin bound (the splitting rule of
    LAPACK's dstebz).  Each of at most max_sweeps passes tests a grid of
    points in the interval of every eigenvalue (see _MULTISECTION_POINTS)
    with one Sturm recurrence over all blocks side by side, so a pass takes
    as many row steps as the longest block, until every interval is at most
    max(tol, 4 eps |endpoint|) wide.  Order 120 takes 0.005-0.007 s, order
    200 0.017-0.018 s, order 400 0.07 s and order 512 0.14-0.15 s (medians
    of 8 runs on the Z_n and Z_2 x Z_n/2 folds, one core of a 2-vCPU VM).
    This solver is the group-blind oracle for character_spectrum and
    deliberately uses nothing from the rest of the package.
    """
    work = np.array(a, dtype=float)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {work.shape}")
    if not np.isfinite(work).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(work, work.T):
        raise ValueError("matrix is not symmetric")
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be a nonnegative number, got {tol}")
    n = work.shape[0]
    # summed directly over the off-diagonal entries; subtracting the
    # diagonal from the full Frobenius norm cancels catastrophically
    off_mask = ~np.eye(n, dtype=bool)
    if math.sqrt(float(np.sum(work[off_mask] ** 2))) <= tol:
        return sorted((float(x) for x in np.diag(work)), reverse=True)
    d, e = _householder(work)

    radius = np.abs(np.concatenate(([0.0], e, [0.0])))
    radius = radius[:-1] + radius[1:]
    low, high = float(np.min(d - radius)), float(np.max(d + radius))
    bound = max(-low, high)
    # e2[i] couples rows i - 1 and i; index n, with d = +inf and e2 = 0, is
    # the pad row of the layout below.  A block starts at each cut row, and
    # every other entry exceeds (eps bound)^2 >= 0, so no coupling e2 / q
    # inside a block is 0 / 0
    e2 = np.concatenate(([0.0], e * e, [0.0]))
    cut = e2 <= (_EPS * bound) ** 2
    d = np.concatenate((d, [np.inf]))
    starts = np.flatnonzero(cut).tolist()
    blocks = [(t - s, s) for s, t in zip(starts, starts[1:])]
    size = max(z for z, _ in blocks)
    points = 2 ** max(1, round(math.log2(_MULTISECTION_POINTS / n))) - 1

    # The blocks sit side by side, in any order (the result is sorted), each
    # ending on the last of `size` rows.  The rows above a shorter block have
    # diagonal +inf and coupling 0, so their pivots stay +inf, and the
    # block's first coupling, divided by +inf, vanishes.  src holds the source
    # row of every row in each block (n: a pad row).  Columns
    # j * points ... j * points + points - 1 test eigenvalue j, the j_local-th
    # of its block.
    src = [[s + r - size + z if r >= size - z else n for z, s in blocks] for r in range(size)]
    src = np.array(src, dtype=np.intp).repeat([z * points for z, _ in blocks], axis=1)
    diag, couplings = d[src], e2[src]
    j_local = np.array([i for z, _ in blocks for i in range(z)])[:, None]
    q = np.empty((size, n * points))
    steps = list(zip(q, q[1:], couplings[1:]))  # row 0 has no predecessor

    # row j: lo_j, the points tested for eigenvalue j, hi_j
    grid = np.empty((n, points + 2))
    grid[:, 0], grid[:, -1] = low, high
    inner = grid[:, 1:-1]
    frac = np.arange(1, points + 1) / (points + 1)
    # flat indices of grid[j, 0] and grid[j, 1]; adding m_j picks the new lo_j, hi_j
    ends = np.arange(0, grid.size, points + 2)[:, None] + (0, 1)
    width = np.full(n, high - low)
    cap = max(tol, 4.0 * _EPS * bound)  # no interval is done while wider
    # a zero or subnormal pivot makes e2 / q infinite: the limit the count needs
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(max_sweeps):
            np.multiply(width[:, None], frac, out=inner)
            inner += grid[:, :1]
            x = inner.reshape(-1)
            # Sturm: q_i = (d_i - x) - e_{i-1}^2 / q_{i-1}; the number of
            # negative q_i is the number of eigenvalues below x.  signbit
            # counts a pivot of -0.0 as 0-, whose successor is then +inf
            np.subtract(diag, x, out=q)
            for prev, row, b in steps:
                row -= b / prev
            # uint16 sums twice as fast as the default int64, and a count
            # never exceeds `size`, far below 2^16 for any dense matrix
            below = np.signbit(q).sum(axis=0, dtype=np.uint16).reshape(n, points)
            # lo_j becomes the last point with at most j_local eigenvalues
            # of its block below it
            m = (below <= j_local).sum(axis=1)
            lo, hi = grid.take(ends + m[:, None]).T
            grid[:, 0], grid[:, -1] = lo, hi
            width = hi - lo
            if width.max() > cap:
                continue
            if np.all(width <= np.maximum(tol, 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))):
                return np.sort(0.5 * (lo + hi))[::-1].tolist()
    raise ConvergenceError(f"Sturm multisection missed width {tol} in {max_sweeps} passes")
