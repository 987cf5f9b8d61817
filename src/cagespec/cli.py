"""Command-line shell: constructions, spectra, censuses and verification sweeps.

Output is machine-readable by default (JSON, or CSV for tabular commands);
exit code 0 means success, 2 a usage or parse problem, 3 a computation or
invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterator, Sequence

from .abelian import DegenerateLatticeError
from .caysum import cayley_sum_graph, graph_from_json, graph_to_json
from .crystal import crystal_cayley, diamond_family, grid_family, path_family
from .fullerene import (
    FullereneReport,
    InvariantViolation,
    TriangleSpec,
    classify,
    enumerate_specs,
    fold_construction,
    group_and_sumset,
    verify_isomorphism,
    verify_spec,
)
from .intlinalg import IntMatrix, snf
from .spectra import (
    MATCH_TOL,
    ConvergenceError,
    character_spectrum,
    multiset_close,
    numeric_spectrum,
)

__all__ = ["RunConfig", "SPECTRUM_MAX_ORDER", "main"]

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
# multisection: 0.04 s at order 200, 0.10-0.13 s at 400 and 0.22 s at 512
# (Z_n and Z_2 x Z_n/2 folds, one core of a 2-vCPU VM, Python 3.11, numpy 2.4).
SPECTRUM_MAX_ORDER = 400


class _UsageError(ValueError):
    """Bad input that argparse could not catch; mapped to exit code 2 like
    every other ValueError except DegenerateLatticeError."""


@dataclass(frozen=True)
class RunConfig:
    """Run-wide knobs: the spectrum match tolerance and sweep parallelism."""

    match_tol: float = MATCH_TOL
    jobs: int = 1


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
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
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
        raise argparse.ArgumentTypeError(
            f"expected 6 integers p,q,r,s,p1,p2, got {len(values)}"
        )
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv", "human"),
        default=None,
        help="output format (default depends on the subcommand)",
    )
    common.add_argument(
        "--tolerance",
        type=_positive_float,
        default=MATCH_TOL,
        help=f"numeric spectrum match tolerance (default {MATCH_TOL:g})",
    )
    common.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for sweeps (default: $CAGESPEC_JOBS or 1)",
    )

    parser = argparse.ArgumentParser(
        prog="cagespec",
        description="Cayley sum graphs of folded lattice triangulations: "
        "construction, exact spectra, and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", parents=[common], help="Smith normal form of an integer matrix")
    p.add_argument("matrix", help="JSON array of matrix rows, or - to read stdin")
    p.set_defaults(func=_cmd_snf, default_format="json", formats=("json", "human"))

    p = sub.add_parser("construct", parents=[common], help="build the Cayley sum graph of a spec")
    p.add_argument("--spec", type=_spec_arg, required=True, metavar="p,q,r,s,p1,p2")
    p.set_defaults(func=_cmd_construct, default_format="json", formats=("json", "human"))

    p = sub.add_parser("fold", parents=[common], help="fold the triangulation geometrically")
    p.add_argument("--spec", type=_spec_arg, required=True, metavar="p,q,r,s,p1,p2")
    p.set_defaults(func=_cmd_fold, default_format="json", formats=("json", "human"))

    p = sub.add_parser(
        "spectrum", parents=[common], help="spectrum of a spec or of a graph JSON on stdin"
    )
    p.add_argument("--spec", type=_spec_arg, default=None, metavar="p,q,r,s,p1,p2")
    p.set_defaults(func=_cmd_spectrum, default_format="json", formats=("json", "csv", "human"))

    p = sub.add_parser("census", parents=[common], help="classify every spec up to an index bound")
    p.add_argument("--max-index", type=_positive_int, required=True)
    p.add_argument(
        "--dedup",
        action="store_true",
        help="emit one row per (order, semiedges, moduli, spectrum) class",
    )
    p.set_defaults(func=_cmd_census, default_format="csv", formats=("json", "csv", "human"))

    p = sub.add_parser(
        "verify", parents=[common], help="verify the spectral invariants and the fold isomorphism"
    )
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--max-index", type=_positive_int, default=None)
    target.add_argument("--spec", type=_spec_arg, default=None, metavar="p,q,r,s,p1,p2")
    p.set_defaults(func=_cmd_verify, default_format="json", formats=("json", "human"))

    p = sub.add_parser("crystal", parents=[common], help="path, grid or diamond crystal families")
    p.add_argument("--family", choices=("path", "grid", "diamond"), required=True)
    p.add_argument("--d", type=_positive_int, default=None, help="ambient dimension")
    p.add_argument(
        "--sublattice",
        type=_int_list,
        required=True,
        metavar="a,b,...",
        help="row-major sublattice entries in the ambient basis (path: the single integer n)",
    )
    p.add_argument("--a-choice", choices=("corner", "offset"), default=None)
    p.set_defaults(func=_cmd_crystal, default_format="json", formats=("json", "human"))

    return parser


def _resolve_jobs(cli_value: int | None) -> int:
    if cli_value is not None:
        return cli_value
    env = os.environ.get("CAGESPEC_JOBS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise _UsageError(f"CAGESPEC_JOBS is not an integer: {env!r}") from exc
        if value < 1:
            raise _UsageError(f"CAGESPEC_JOBS must be >= 1, got {value}")
        return value
    return 1


# --- shared plumbing ---------------------------------------------------------

def _load_json(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise _UsageError(f"invalid JSON: {exc}") from exc


def _matrix_from_lists(rows) -> IntMatrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise _UsageError("expected a JSON array of matrix rows")
    d = len(rows)
    for r in rows:
        if len(r) != d or not all(type(x) is int for x in r):
            raise _UsageError(f"expected a square integer matrix, got row {r!r}")
    return IntMatrix.from_rows(rows)


def _emit_json(payload: dict, fmt: str) -> None:
    if fmt == "human":
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))


def _compact(values) -> str:
    return json.dumps(values, separators=(",", ":"))


def _report_payload(report: FullereneReport) -> dict:
    return {
        "spec": list(report.spec.as_tuple()),
        "moduli": list(report.moduli),
        "sum_set": [list(x) for x in report.sum_set],
        "n_vertices": report.n_vertices,
        "semiedges": report.semiedges,
        "f3": report.f3,
        "f6": report.f6,
        "M_raw": list(report.unmatched_raw),
        "M_canonical": list(report.unmatched_canonical),
        "paired": list(report.paired),
        "case": report.case,
        "spectral_radius": report.spectral_radius,
    }


def _sweep(chunk_fn: Callable, max_index: int, jobs: int) -> Iterator:
    """chunk_fn's results, in order, over enumerate_specs(max_index) cut into
    lists of _CHUNK specs; the chunks run in jobs worker processes when
    jobs > 1."""
    specs = enumerate_specs(max_index)
    chunks = iter(lambda: list(islice(specs, _CHUNK)), [])
    if jobs == 1:
        yield from map(chunk_fn, chunks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(chunk_fn, chunks)


def _classify_chunk(specs: list[TriangleSpec]) -> list[FullereneReport]:
    return [classify(t) for t in specs]


def _verify_chunk(specs: list[TriangleSpec]) -> Counter:
    return Counter(verify_spec(t).case for t in specs)


# --- subcommands -------------------------------------------------------------

def _cmd_snf(args, config: RunConfig) -> int:
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
    _emit_json(payload, args.fmt)
    return 0


def _cmd_construct(args, config: RunConfig) -> int:
    t = TriangleSpec(*args.spec)
    q, s = group_and_sumset(t)
    graph = cayley_sum_graph(q.group, s)
    payload = graph_to_json(graph)
    payload["spec"] = list(t.as_tuple())
    _emit_json(payload, args.fmt)
    return 0


def _cmd_fold(args, config: RunConfig) -> int:
    t = TriangleSpec(*args.spec)
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
    _emit_json(payload, args.fmt)
    return 0 if ok else 3


def _cmd_spectrum(args, config: RunConfig) -> int:
    if args.spec is not None:
        q, s = group_and_sumset(TriangleSpec(*args.spec))
        if q.group.order > SPECTRUM_MAX_ORDER:
            raise _UsageError(f"group order {q.group.order} exceeds the limit {SPECTRUM_MAX_ORDER}")
        graph = cayley_sum_graph(q.group, s)
    else:
        graph = graph_from_json(_load_json(sys.stdin.read()), max_order=SPECTRUM_MAX_ORDER)
    part = character_spectrum(graph)
    numeric = numeric_spectrum(graph.adjacency_matrix().astype(float))
    ok = multiset_close(part.full(), numeric, config.match_tol)
    if args.fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["eigenvalue"])
        for value in part.full():
            writer.writerow([f"{value:.12g}"])
    elif args.fmt == "human":
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


def _dedup_key(report: FullereneReport) -> tuple:
    return (
        report.n_vertices,
        report.semiedges,
        report.moduli,
        tuple(round(v, 9) for v in report.full_spectrum()),
    )


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


def _cmd_census(args, config: RunConfig) -> int:
    writer = csv.writer(sys.stdout) if args.fmt == "csv" else None
    if writer is not None:
        writer.writerow(_CENSUS_HEADER)
    cases: Counter = Counter()
    seen: set = set()
    total = 0
    emitted = 0
    for report in chain.from_iterable(_sweep(_classify_chunk, args.max_index, config.jobs)):
        total += 1
        cases[report.case] += 1
        if args.dedup:
            key = _dedup_key(report)
            if key in seen:
                continue
            seen.add(key)
        emitted += 1
        if writer is not None:
            writer.writerow(_census_csv_cells(report))
        elif args.fmt == "json":
            sys.stdout.write(json.dumps(_report_payload(report)) + "\n")
        else:
            sys.stdout.write(_census_human_line(report) + "\n")
    case_text = " ".join(f"{k}={cases[k]}" for k in sorted(cases))
    print(
        f"census: {total} specs, {emitted} rows, cases {case_text}, violations: 0",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args, config: RunConfig) -> int:
    if args.spec is not None:
        report = verify_spec(TriangleSpec(*args.spec))
        _emit_json(_report_payload(report), args.fmt)
        return 0
    cases = sum(_sweep(_verify_chunk, args.max_index, config.jobs), Counter())
    total = sum(cases.values())
    case_text = " ".join(f"{k}={cases[k]}" for k in sorted(cases))
    print(f"verified {total} specs (max index {args.max_index}); cases {case_text}; violations: 0")
    return 0


def _cmd_crystal(args, config: RunConfig) -> int:
    family = args.family
    if family == "path":
        if args.d not in (None, 1):
            raise _UsageError("the path family is 1-dimensional")
        if len(args.sublattice) != 1:
            raise _UsageError("path: --sublattice expects the single integer n")
        if args.a_choice is not None:
            raise _UsageError("--a-choice does not apply to the path family")
        spec = path_family(args.sublattice[0])
        a_choice = None
    else:
        d = args.d
        if d is None:
            raise _UsageError(f"--d is required for the {family} family")
        entries = args.sublattice
        if len(entries) != d * d:
            raise _UsageError(
                f"--sublattice expects {d * d} integers (row-major {d}x{d}), got {len(entries)}"
            )
        sub = IntMatrix.from_rows([list(entries[i * d : (i + 1) * d]) for i in range(d)])
        if family == "grid":
            if args.a_choice is not None:
                raise _UsageError("--a-choice applies to the diamond family only")
            spec = grid_family(d, sub)
            a_choice = "edge"
        else:
            a_choice = args.a_choice or "corner"
            spec = diamond_family(d, sub, a_choice)
    q, s, graph = crystal_cayley(spec)
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
    _emit_json(payload, args.fmt)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_glue_signed_lists(sys.argv[1:] if argv is None else argv))
    fmt = args.format if args.format is not None else args.default_format
    if fmt not in args.formats:
        print(
            f"error: format {fmt!r} is not supported by {args.command}",
            file=sys.stderr,
        )
        return 2
    args.fmt = fmt
    try:
        config = RunConfig(match_tol=args.tolerance, jobs=_resolve_jobs(args.jobs))
        return args.func(args, config)
    except (DegenerateLatticeError, InvariantViolation, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # an input check, _UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
