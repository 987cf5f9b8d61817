"""Command-line shell: constructions, spectra, censuses and verification sweeps.

Each subcommand declares only the options it reads, so argparse rejects any
other: `--format` with the formats the subcommand renders (JSON by default, CSV
for `census`), `--tolerance` on `spectrum`, `--jobs` on `census` and `verify`.
The sweeps hand chunks of specs to fullerene.classify_chunk or verify_chunk,
a bounded window of chunks at a time under --jobs (at most one worker per
CPU), and take back FullereneReports: they count and key them, and print the
ones census emits.
Exit code 0 means success, 2 a usage or parse problem (a group order above
MAX_ORDER, or SPECTRUM_MAX_ORDER for `spectrum`, and an `snf` matrix above
SNF_MAX_DIMENSION included), 3 a computation or invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .abelian import DegenerateLatticeError
from .caysum import cayley_sum_graph, graph_from_json, graph_to_json
from .crystal import crystal_cayley, diamond_family, grid_family, path_family
from .fullerene import (
    FullereneReport,
    InvariantViolation,
    TriangleSpec,
    classify_chunk,
    enumerate_specs,
    fold_construction,
    group_and_sumset,
    verify_chunk,
    verify_isomorphism,
    verify_spec,
)

# classify is not called here; it stays importable from this module because
# perfbench's trace table looks the layer up by module and name, and its
# self-tests require every hook target to resolve.
from .fullerene import classify  # noqa: F401
from .intlinalg import IntMatrix, snf
from .spectra import (
    MATCH_TOL,
    ConvergenceError,
    character_spectrum,
    multiset_close,
    numeric_spectrum,
)

__all__ = ["MAX_ORDER", "SNF_MAX_DIMENSION", "SPECTRUM_MAX_ORDER", "main"]

_CENSUS_HEADER = [
    "p",
    "q",
    "r",
    "s",
    "p1",
    "p2",
    "n_vertices",
    "semiedges",
    "f3",
    "f6",
    "moduli",
    "m_canonical",
    "spectral_radius",
]

_CHUNK = 256

# Largest group order `spectrum` accepts.  Its numeric check finds every
# eigenvalue of the dense n x n adjacency matrix by Householder + Sturm
# multisection on the split tridiagonal: 0.005-0.007 s at order 120,
# 0.017-0.018 s at 200, 0.07 s at 400 and 0.14-0.15 s at 512 (Z_n and
# Z_2 x Z_n/2 folds, one core of a 2-vCPU VM, Python 3.11, numpy 2.4).
SPECTRUM_MAX_ORDER = 400

# Largest group order every other subcommand accepts.  At this order `fold`
# takes 5-7 s and 680 MB, `construct` 3-5 s and 590 MB (2-vCPU VM, Python 3.11,
# numpy 2.4), and both grow linearly.
MAX_ORDER = 10**6

# Largest matrix dimension `snf` accepts.  On random entries in -9..9 the
# largest U entry has 626 digits at 32 (0.06 s) and 2,380 at 48 (0.37 s); at 64
# it passes CPython's 4,300-digit int printing limit (2-vCPU VM, Python 3.11).
SNF_MAX_DIMENSION = 32


# --- argument parsing --------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from exc


def _spec_arg(text: str) -> tuple[int, ...]:
    values = _int_list(text)
    if len(values) != 6:
        raise argparse.ArgumentTypeError(f"expected 6 integers p,q,r,s,p1,p2, got {len(values)}")
    return values


# Options whose value is a list of integers that may start with a minus sign.
_INT_LIST_OPTIONS = ("--spec", "--sublattice")
_SIGNED_INT_LIST = re.compile(r"-\d+(?:[,\s]+-?\d+)*")


def _glue_signed_lists(argv: Sequence[str]) -> list[str]:
    """Join `--spec -2,3,...` into `--spec=-2,3,...`.

    argparse takes a separate value that starts with '-' (other than a single
    number) for an option and fails with "expected one argument"; attached
    with '=' it is always a value.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        # argparse also accepts unique prefixes such as --sub
        is_list_flag = len(flag) > 2 and any(o.startswith(flag) for o in _INT_LIST_OPTIONS)
        if is_list_flag and _SIGNED_INT_LIST.fullmatch(token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def _build_parser() -> argparse.ArgumentParser:
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,  # a sweep reads CAGESPEC_JOBS, so an error can name it
        help="worker processes for the sweep, at most one per CPU (default: $CAGESPEC_JOBS or 1)",
    )

    parser = argparse.ArgumentParser(
        prog="cagespec",
        description="Cayley sum graphs of folded lattice triangulations: "
        "construction, exact spectra, and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=("json", "human"), parents=()):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.add_argument(
            "--format", choices=formats, default=formats[0], help="output format (default %(default)s)"
        )
        p.set_defaults(func=func)
        return p

    p = command("snf", _cmd_snf, "Smith normal form of an integer matrix")
    p.add_argument("matrix", help="JSON array of matrix rows, or - to read stdin")

    p = command("construct", _cmd_construct, "build the Cayley sum graph of a spec")
    p.add_argument("--spec", type=_spec_arg, required=True, metavar="p,q,r,s,p1,p2")

    p = command("fold", _cmd_fold, "fold the triangulation geometrically")
    p.add_argument("--spec", type=_spec_arg, required=True, metavar="p,q,r,s,p1,p2")

    p = command(
        "spectrum",
        _cmd_spectrum,
        "spectrum of a spec or of a graph JSON on stdin",
        formats=("json", "csv", "human"),
    )
    p.add_argument("--spec", type=_spec_arg, default=None, metavar="p,q,r,s,p1,p2")
    p.add_argument(
        "--tolerance",
        type=_positive_float,
        default=MATCH_TOL,
        help=f"numeric spectrum match tolerance (default {MATCH_TOL:g})",
    )

    p = command(
        "census",
        _cmd_census,
        "classify every spec up to an index bound",
        formats=("csv", "json", "human"),
        parents=[jobs],
    )
    p.add_argument("--max-index", type=_positive_int, required=True)
    p.add_argument(
        "--dedup",
        action="store_true",
        help="emit one row per (order, semiedges, moduli, spectrum) class",
    )

    p = command(
        "verify",
        _cmd_verify,
        "verify the spectral invariants and the fold isomorphism",
        parents=[jobs],
    )
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--max-index", type=_positive_int, default=None)
    target.add_argument("--spec", type=_spec_arg, default=None, metavar="p,q,r,s,p1,p2")

    p = command("crystal", _cmd_crystal, "path, grid or diamond crystal families")
    p.add_argument("--family", choices=("path", "grid", "diamond"), required=True)
    p.add_argument("--d", type=_positive_int, default=None, help="ambient dimension")
    p.add_argument(
        "--sublattice",
        type=_int_list,
        required=True,
        metavar="a,b,...",
        help="row-major sublattice entries in the ambient basis (path: the single integer n)",
    )
    centres = "inversion centre: grid edge (default) or center, diamond corner (default) or offset"
    p.add_argument("--a-choice", choices=("edge", "center", "corner", "offset"), help=centres)

    return parser


def _jobs_from_env() -> int:
    """The --jobs default: $CAGESPEC_JOBS, 1 when unset or empty."""
    text = os.environ.get("CAGESPEC_JOBS") or "1"
    try:
        return _positive_int(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"CAGESPEC_JOBS (the --jobs default): {exc}") from None


def _check_order(order: int, limit: int = MAX_ORDER) -> None:
    if order > limit:
        raise ValueError(f"group order {order} exceeds the limit {limit}")


# --- shared plumbing ---------------------------------------------------------

def _load_json(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ValueError(f"invalid JSON: {exc}") from exc


def _matrix_from_lists(rows) -> IntMatrix:
    # the form only: IntMatrix rejects an empty or non-square matrix
    if isinstance(rows, list) and len(rows) > SNF_MAX_DIMENSION:
        raise ValueError(f"matrix dimension {len(rows)} exceeds the limit {SNF_MAX_DIMENSION}")
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(type(x) is int for x in r) for r in rows
    ):
        raise ValueError("expected a JSON array of rows of JSON integers")
    return IntMatrix.from_rows(rows)


def _emit_json(payload: dict, fmt: str) -> None:
    print(json.dumps(payload, indent=2 if fmt == "human" else None))


def _compact(values) -> str:
    return json.dumps(values, separators=(",", ":"))


def _sweep(chunk_fn: Callable, max_index: int, jobs: int) -> Iterator:
    """chunk_fn's results, in order, over enumerate_specs(max_index) cut into
    lists of _CHUNK specs.  jobs is capped at os.cpu_count(); when that
    leaves more than 1 the chunks run in jobs worker processes, at most
    2 * jobs of them submitted ahead of the result yielded, so the sweep
    draws its specs as it goes."""
    specs = enumerate_specs(max_index)
    chunks = iter(lambda: list(islice(specs, _CHUNK)), [])
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1:
        yield from map(chunk_fn, chunks)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        window = deque(pool.submit(chunk_fn, chunk) for chunk in islice(chunks, 2 * jobs))
        while window:
            head = window.popleft()
            window.extend(pool.submit(chunk_fn, chunk) for chunk in islice(chunks, 1))
            yield head.result()


def _verify_chunk(specs: list[TriangleSpec]) -> Counter:
    """The cases of verify_chunk's reports."""
    return Counter(report.case for report in verify_chunk(specs))


def _census_chunk(specs: list[TriangleSpec], dedup: bool) -> tuple[Counter, list, list | None]:
    """The cases of classify_chunk's reports, and the reports census may
    print, with their --dedup keys when dedup (else None).  Under dedup these
    are only the first report of each class in the chunk, as later ones can
    never print.  Module-level, so that worker processes run it and send back
    only those reports and keys."""
    reports = classify_chunk(specs)
    cases = Counter(report.case for report in reports)
    if not dedup:
        return cases, reports, None
    firsts: dict = {}
    for report, key in zip(reports, _dedup_keys(reports)):
        firsts.setdefault(key, report)
    return cases, list(firsts.values()), list(firsts)


# --- subcommands -------------------------------------------------------------

def _cmd_snf(args) -> int:
    text = args.matrix
    if text == "-":
        text = sys.stdin.read()
    dec = snf(_matrix_from_lists(_load_json(text)))
    payload = {
        "U": dec.u.to_lists(),
        "D": dec.d.to_lists(),
        "V": dec.v.to_lists(),
        "diagonal": list(dec.diagonal),
        "singular": any(x == 0 for x in dec.diagonal),
    }
    _emit_json(payload, args.format)
    return 0


def _cmd_construct(args) -> int:
    t = TriangleSpec(*args.spec)
    _check_order(t.index)
    q, s = group_and_sumset(t)
    graph = cayley_sum_graph(q.group, s)
    payload = graph_to_json(graph)
    payload["spec"] = list(t.as_tuple())
    _emit_json(payload, args.format)
    return 0


def _cmd_fold(args) -> int:
    t = TriangleSpec(*args.spec)
    _check_order(t.index)
    folded = fold_construction(t)
    q, s = group_and_sumset(t)
    ok = verify_isomorphism(folded, q, s)
    payload = {
        "spec": list(t.as_tuple()),
        "n_vertices": folded.n_vertices,
        "reps": [list(r) for r in folded.reps],
        "edges": [[i, j, m] for (i, j), m in folded.edges.items()],
        "semiedges": {str(i): m for i, m in folded.semiedges.items()},
        "matches_cayley": ok,
    }
    _emit_json(payload, args.format)
    return 0 if ok else 3


def _cmd_spectrum(args) -> int:
    if args.spec is not None:
        q, s = group_and_sumset(TriangleSpec(*args.spec))
        _check_order(q.group.order, SPECTRUM_MAX_ORDER)
        graph = cayley_sum_graph(q.group, s)
    else:
        graph = graph_from_json(_load_json(sys.stdin.read()), max_order=SPECTRUM_MAX_ORDER)
    part = character_spectrum(graph)
    numeric = numeric_spectrum(graph.adjacency_matrix().astype(float))
    ok = multiset_close(part.full(), numeric, args.tolerance)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["eigenvalue"])
        for value in part.full():
            writer.writerow([f"{value:.12g}"])
    elif args.format == "human":
        print(f"semiedges (trace): {part.semiedge_total}")
        print("M_raw:       ", " ".join(str(v) for v in part.unmatched_raw))
        print("M_canonical: ", " ".join(str(v) for v in part.unmatched_canonical))
        print("paired:      ", " ".join(f"{v:.6g}" for v in part.paired))
        print("full:        ", " ".join(f"{v:.6g}" for v in part.full()))
        print(f"oracle match: {'yes' if ok else 'NO'}")
    else:
        payload = part.to_json()
        payload["oracle_match"] = ok
        print(json.dumps(payload))
    return 0 if ok else 3


def _dedup_keys(reports: Sequence[FullereneReport]) -> list[tuple]:
    """The --dedup class of each of classify_chunk's reports, the only key
    entry (a chunk at a time): moduli, semiedge total s, and the bytes of the
    int64 integers 10^9 round(p, 9) for the paired magnitudes p, descending
    as given (rounding keeps the order), one array per row length.  This is
    the class of the spectrum rounded to 9 decimals: the sum set is x0 +
    {0, e1, e2} with e1, e2 generating the group, so only the trivial
    character reaches |chi(S)| = 3, and the real values are one 3 and else
    +-1, one per involutive label (fixed by the moduli), summing to s (the
    trace identity).  So the moduli and s fix the unmatched part.

    round(p, 9) is the double nearest m / 10^9 for the integer m nearest
    p 10^9.  p * 1e9 is off by under 1e-6 for |p| < 9 (a cubic graph has
    |p| <= 3), so rounding it (half to even, as round does) gives m unless it
    lies that close to a half-integer; there m is read off round(p, 9) itself.
    """
    by_length: dict[int, list[int]] = {}
    for i, report in enumerate(reports):
        by_length.setdefault(len(report.paired), []).append(i)
    keys: list = [None] * len(reports)
    for rows in by_length.values():
        paired = np.array([reports[i].paired for i in rows], dtype=float)
        x = paired * 1e9
        m = np.rint(x)
        for r, c in zip(*np.nonzero(np.abs(x - m) > 0.5 - 1e-6)):
            # float() so that round is Python's correctly rounded one
            m[r, c] = round(round(float(paired[r, c]), 9) * 1e9)
        for i, row in zip(rows, m.astype(np.int64)):
            report = reports[i]
            keys[i] = (report.moduli, report.semiedge_total, row.tobytes())
    return keys


def _census_csv_cells(report: FullereneReport) -> list:
    return [
        *report.spec.as_tuple(),
        report.n_vertices,
        report.semiedges,
        report.f3,
        report.f6,
        _compact(report.moduli),
        _compact(report.unmatched_canonical),
        f"{report.spectral_radius:.12g}",
    ]


def _census_human_line(report: FullereneReport) -> str:
    p, q, r, s, p1, p2 = report.spec.as_tuple()
    return (
        f"[{p},{q},{r},{s};{p1},{p2}] n={report.n_vertices} s={report.semiedges} "
        f"f3={report.f3} f6={report.f6} case={report.case} "
        f"moduli={_compact(report.moduli)} M={_compact(report.unmatched_canonical)} "
        f"radius={report.spectral_radius:.6g}"
    )


def _cmd_census(args) -> int:
    jobs = args.jobs or _jobs_from_env()
    writer = csv.writer(sys.stdout) if args.format == "csv" else None
    if writer is not None:
        writer.writerow(_CENSUS_HEADER)
    cases: Counter = Counter()
    seen: set = set()
    emitted = 0
    chunk_fn = partial(_census_chunk, dedup=args.dedup)
    for chunk_cases, reports, keys in _sweep(chunk_fn, args.max_index, jobs):
        cases.update(chunk_cases)
        if keys is not None:
            unseen = []
            for report, key in zip(reports, keys):
                if key not in seen:
                    seen.add(key)
                    unseen.append(report)
            reports = unseen
        emitted += len(reports)
        for report in reports:
            if writer is not None:
                writer.writerow(_census_csv_cells(report))
            elif args.format == "json":
                sys.stdout.write(json.dumps(report.to_json()) + "\n")
            else:
                sys.stdout.write(_census_human_line(report) + "\n")
    case_text = " ".join(f"{k}={cases[k]}" for k in sorted(cases))
    print(
        f"census: {sum(cases.values())} specs, {emitted} rows, cases {case_text}, violations: 0",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    if args.spec is not None:
        t = TriangleSpec(*args.spec)
        _check_order(t.index)
        _emit_json(verify_spec(t).to_json(), args.format)
        return 0
    jobs = args.jobs or _jobs_from_env()
    cases = sum(_sweep(_verify_chunk, args.max_index, jobs), Counter())
    total = sum(cases.values())
    if args.format == "human":
        case_text = " ".join(f"{k}={cases[k]}" for k in sorted(cases))
        print(
            f"verified {total} specs (max index {args.max_index}); cases {case_text}; violations: 0"
        )
    else:
        cases = dict(sorted(cases.items()))
        summary = {"specs": total, "max_index": args.max_index, "cases": cases, "violations": 0}
        print(json.dumps(summary))
    return 0


def _cmd_crystal(args) -> int:
    family, d, entries, a_choice = args.family, args.d, args.sublattice, args.a_choice
    if family == "path":  # path_family(n) takes neither a dimension nor a centre
        if d not in (None, 1):
            raise ValueError("the path family is 1-dimensional")
        if a_choice is not None:
            raise ValueError("--a-choice does not apply to the path family")
        d = 1
    if d is None:
        raise ValueError(f"--d is required for the {family} family")
    if len(entries) != d * d:
        raise ValueError(
            f"--sublattice expects {d * d} integer{'s' if d > 1 else ''} "
            f"(row-major {d}x{d}), got {len(entries)}"
        )
    if family == "path":
        spec = path_family(entries[0])
    else:
        sub = IntMatrix.from_rows([list(entries[i * d : (i + 1) * d]) for i in range(d)])
        a_choice = a_choice or ("edge" if family == "grid" else "corner")
        spec = (grid_family if family == "grid" else diamond_family)(d, sub, a_choice)
    q, s, graph = crystal_cayley(spec)
    _check_order(graph.n_vertices)  # before the neighbour array is built
    part = character_spectrum(graph)
    payload = {
        "family": family,
        "d": spec.dim,
        "sublattice": spec.sublattice.to_lists(),
        "lifted_sum_set": [list(v) for v in spec.lifted_sum_set],
        "a_choice": a_choice,
        "graph": graph_to_json(graph),
        "spectrum": part.to_json(),
    }
    _emit_json(payload, args.format)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_glue_signed_lists(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (DegenerateLatticeError, InvariantViolation, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # an input check
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
