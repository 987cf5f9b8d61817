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
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    EIGENSOLVER_TOL,
    MATCH_TOL,
    ConvergenceError,
    character_spectrum,
    multiset_close,
    numeric_spectrum,
)

__all__ = ["RunConfig", "main"]

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


class _UsageError(Exception):
    """Bad input that argparse could not catch; mapped to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Run-wide knobs: tolerances, parallelism, and the reproducibility seed
    (reserved; no current subcommand draws randomness)."""

    match_tol: float = MATCH_TOL
    eigen_tol: float = EIGENSOLVER_TOL
    jobs: int = 1
    seed: int = 0


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
    common.add_argument(
        "--seed",
        type=int,
        default=0,
        help="PRNG seed, reserved for sampled operations (default 0)",
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
    p.add_argument("--max-index", type=_positive_int, default=None)
    p.add_argument("--spec", type=_spec_arg, default=None, metavar="p,q,r,s,p1,p2")
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
    except json.JSONDecodeError as exc:
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


def _chunks(items: Iterable, size: int) -> Iterator[list]:
    buf: list = []
    for item in items:
        buf.append(item)
        if len(buf) >= size:
            yield buf
            buf = []
    if buf:
        yield buf


def _classify_chunk(spec_tuples: list[tuple[int, ...]]) -> list[dict]:
    return [_report_payload(classify(TriangleSpec(*tup))) for tup in spec_tuples]


def _verify_chunk(spec_tuples: list[tuple[int, ...]]) -> tuple[dict, int]:
    cases: Counter = Counter()
    for tup in spec_tuples:
        cases[verify_spec(TriangleSpec(*tup)).case] += 1
    return dict(cases), len(spec_tuples)


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
        "edges": sorted([i, j, m] for (i, j), m in folded.edges.items()),
        "semiedges": {str(i): m for i, m in sorted(folded.semiedges.items())},
        "matches_cayley": ok,
    }
    _emit_json(payload, args.fmt)
    return 0 if ok else 3


def _cmd_spectrum(args, config: RunConfig) -> int:
    if args.spec is not None:
        t = TriangleSpec(*args.spec)
        q, s = group_and_sumset(t)
        graph = cayley_sum_graph(q.group, s)
    else:
        try:
            graph = graph_from_json(_load_json(sys.stdin.read()))
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    part = character_spectrum(graph)
    numeric = numeric_spectrum(graph.adjacency_matrix().astype(float), tol=config.eigen_tol)
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


def _census_payloads(max_index: int, config: RunConfig) -> Iterator[dict]:
    if config.jobs <= 1:
        for t in enumerate_specs(max_index):
            yield _report_payload(classify(t))
        return
    tuples = (t.as_tuple() for t in enumerate_specs(max_index))
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        for chunk in pool.map(_classify_chunk, _chunks(tuples, _CHUNK)):
            yield from chunk


def _dedup_key(payload: dict) -> tuple:
    full = [float(v) for v in payload["M_raw"]]
    for p in payload["paired"]:
        full.append(p)
        full.append(-p)
    full.sort(reverse=True)
    return (
        payload["n_vertices"],
        payload["semiedges"],
        tuple(payload["moduli"]),
        tuple(round(v, 9) for v in full),
    )


def _census_csv_cells(payload: dict) -> list:
    return [
        *payload["spec"],
        payload["n_vertices"],
        payload["semiedges"],
        payload["f3"],
        payload["f6"],
        _compact(payload["moduli"]),
        _compact(payload["M_canonical"]),
        f"{payload['spectral_radius']:.12g}",
    ]


def _census_human_line(payload: dict) -> str:
    p, q, r, s, p1, p2 = payload["spec"]
    return (
        f"[{p},{q},{r},{s};{p1},{p2}] n={payload['n_vertices']} s={payload['semiedges']} "
        f"f3={payload['f3']} f6={payload['f6']} case={payload['case']} "
        f"moduli={_compact(payload['moduli'])} M={_compact(payload['M_canonical'])} "
        f"radius={payload['spectral_radius']:.6g}"
    )


def _cmd_census(args, config: RunConfig) -> int:
    writer = csv.writer(sys.stdout) if args.fmt == "csv" else None
    if writer is not None:
        writer.writerow(_CENSUS_HEADER)
    cases: Counter = Counter()
    seen: set = set()
    total = 0
    emitted = 0
    for payload in _census_payloads(args.max_index, config):
        total += 1
        cases[payload["case"]] += 1
        if args.dedup:
            key = _dedup_key(payload)
            if key in seen:
                continue
            seen.add(key)
        emitted += 1
        if writer is not None:
            writer.writerow(_census_csv_cells(payload))
        elif args.fmt == "json":
            sys.stdout.write(json.dumps(payload) + "\n")
        else:
            sys.stdout.write(_census_human_line(payload) + "\n")
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
    if args.max_index is None:
        raise _UsageError("verify needs --max-index or --spec")
    cases: Counter = Counter()
    total = 0
    if config.jobs <= 1:
        for t in enumerate_specs(args.max_index):
            cases[verify_spec(t).case] += 1
            total += 1
    else:
        tuples = (t.as_tuple() for t in enumerate_specs(args.max_index))
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            for chunk_cases, chunk_n in pool.map(_verify_chunk, _chunks(tuples, _CHUNK)):
                cases.update(chunk_cases)
                total += chunk_n
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
    args = parser.parse_args(argv)
    fmt = args.format if args.format is not None else args.default_format
    if fmt not in args.formats:
        print(
            f"error: format {fmt!r} is not supported by {args.command}",
            file=sys.stderr,
        )
        return 2
    args.fmt = fmt
    try:
        config = RunConfig(
            match_tol=args.tolerance,
            eigen_tol=EIGENSOLVER_TOL,
            jobs=_resolve_jobs(args.jobs),
            seed=args.seed,
        )
        return args.func(args, config)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateLatticeError, InvariantViolation, ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0
