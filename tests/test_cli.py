from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from cagespec import cli, spectra
from cagespec.cli import MAX_ORDER, SPECTRUM_MAX_ORDER, main
from cagespec.fullerene import (
    FoldedGraph,
    TriangleSpec,
    classify,
    classify_chunk,
    enumerate_specs,
)

GOLDEN_LATTICE = "[[6, -2], [2, 6]]"


def run_cli(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors exit directly
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# --- snf ---------------------------------------------------------------------

def test_snf_json_golden(capsys):
    code, out, _ = run_cli(["snf", GOLDEN_LATTICE], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["diagonal"] == [2, 20]
    assert payload["singular"] is False
    assert payload["U"] == [[-1, 0], [3, 1]]
    assert payload["V"] == [[0, 1], [1, 3]]
    assert payload["D"] == [[2, 0], [0, 20]]


def test_snf_reads_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(["snf", "-"], capsys, monkeypatch, GOLDEN_LATTICE)
    assert code == 0
    assert json.loads(out)["diagonal"] == [2, 20]


def test_snf_flags_singular_input(capsys):
    code, out, _ = run_cli(["snf", "[[2, 4], [4, 8]]"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["diagonal"] == [2, 0]
    assert payload["singular"] is True


def test_snf_bad_input(capsys):
    code, _, err = run_cli(["snf", "not json"], capsys)
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(["snf", "[[1, 2], [3]]"], capsys)
    assert code == 2
    code, _, _ = run_cli(["snf", '{"rows": 3}'], capsys)
    assert code == 2


def test_snf_rejects_csv_format(capsys):
    code, _, err = run_cli(["snf", GOLDEN_LATTICE, "--format", "csv"], capsys)
    assert code == 2
    assert "invalid choice" in err


# --- construct / spectrum / fold ---------------------------------------------

def test_construct_tetrahedron(capsys):
    code, out, _ = run_cli(["construct", "--spec", "2,0,0,2,0,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["moduli"] == [2, 2]
    assert payload["semiedges"] == {}
    assert len(payload["edges"]) == 6
    assert payload["spec"] == [2, 0, 0, 2, 0, 0]


def test_spectrum_from_spec(capsys):
    code, out, _ = run_cli(["spectrum", "--spec", "6,2,-2,6,1,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == 4
    assert payload["M_raw"] == [3, 1, 1, -1]
    assert payload["M_canonical"] == [3, 1]
    assert payload["oracle_match"] is True
    assert len(payload["full"]) == 40


def test_spectrum_round_trip_through_graph_json(capsys, monkeypatch):
    code, graph_json, _ = run_cli(["construct", "--spec", "6,2,-2,6,1,0"], capsys)
    assert code == 0
    code, direct, _ = run_cli(["spectrum", "--spec", "6,2,-2,6,1,0"], capsys)
    assert code == 0
    code, via_json, _ = run_cli(["spectrum"], capsys, monkeypatch, graph_json)
    assert code == 0
    assert json.loads(via_json) == json.loads(direct)


def test_spectrum_human_format(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--spec", "6,2,-2,6,1,0", "--format", "human"], capsys
    )
    assert code == 0
    assert "M_raw:        3 1 1 -1" in out
    assert "M_canonical:  3 1" in out
    assert "oracle match: yes" in out


def test_spectrum_csv_format(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--spec", "1,0,0,2,0,0", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["eigenvalue"]
    assert [r[0] for r in rows[1:]] == ["3", "-1"]


@pytest.mark.parametrize(
    "argv, stdin_text",
    [
        (["spectrum"], '{"moduli": [3], "sum_set": [[0], [1], [2]], "edges": 5}'),
        (["spectrum"], '{"moduli": [3], "sum_set": [[5]]}'),
        (["spectrum"], '{"moduli": [0], "sum_set": [[0]]}'),
        (["snf", "[[true]]"], None),
        # non-integer moduli and coordinates, which int() used to coerce
        (["spectrum"], '{"moduli": [2.5], "sum_set": [[0], [1], [1]]}'),
        (["spectrum"], '{"moduli": [true, 3], "sum_set": [[0], [1], [2]]}'),
        (["spectrum"], '{"moduli": ["4"], "sum_set": [["1"], [2.9], [3]]}'),
        # groups too large for the dense eigensolver check
        (["spectrum"], '{"moduli": [1000000], "sum_set": [[0], [1], [2]]}'),
        (["spectrum", "--spec", f"{SPECTRUM_MAX_ORDER + 1},0,0,1,0,0"], None),
        # JSON nested too deep for the parser
        (["snf", "[" * 100000], None),
        (["spectrum"], "[" * 100000),
        # non-integer edge values, which int() used to coerce
        (["spectrum"], '{"moduli": [2], "sum_set": [[1]], "edges": [[0, 1, 1.9]]}'),
        (["spectrum"], '{"moduli": [2], "sum_set": [[1]], "edges": [["0", "1", "1"]]}'),
        (["spectrum"], '{"moduli": [2], "sum_set": [[1]], "edges": [[false, true, true]]}'),
        # groups too large to index, which no machine can allocate
        (["construct", "--spec", "99999999999999999999,0,0,1,0,0"], None),
        (["crystal", "--family", "path", "--sublattice", "99999999999999999999"], None),
        (["crystal", "--family", "grid", "--d", "2", "--sublattice", f"{10**20 - 1},0,0,1"], None),
        (["crystal", "--family", "diamond", "--d", "2", "--sublattice", f"{10**20 - 1},0,0,2"], None),
        (["construct", "--spec", "4294967296,0,0,4294967296,0,0"], None),
        (["crystal", "--family", "path", "--sublattice", "9223372036854775807"], None),
        # group orders above MAX_ORDER, rejected before any array is built
        (["fold", "--spec", "1001,0,0,1000,0,0"], None),
        (["verify", "--spec", "1001,0,0,1000,0,0"], None),
        (["construct", "--spec", "1001,0,0,1000,0,0"], None),
        (["crystal", "--family", "path", "--sublattice", str(MAX_ORDER + 1)], None),
    ],
)
def test_malformed_input_exits_2(argv, stdin_text, capsys, monkeypatch):
    code, out, err = run_cli(argv, capsys, monkeypatch, stdin_text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


_small = st.integers(min_value=-5, max_value=5)
_json_scalar = st.one_of(st.integers(-3, 12), st.floats(-3, 3), st.booleans(), st.text(max_size=2))


def _square(n: int):
    return st.lists(st.lists(_small, min_size=n, max_size=n), min_size=n, max_size=n)


def _graph_json(moduli: list[int]):
    # each coordinate is in range for its modulus but for the two ends
    element = st.tuples(*(st.integers(-1, max(n, 0)) for n in moduli)).map(list)
    return st.fixed_dictionaries(
        {"moduli": st.just(moduli), "sum_set": st.lists(element, max_size=4)},
        optional={
            "edges": st.lists(st.lists(_json_scalar, max_size=4), max_size=3),
            "semiedges": st.dictionaries(st.text("0123", max_size=2), _json_scalar, max_size=3),
        },
    )


_twenty_digits = st.integers(10**19, 10**20 - 1) | st.integers(1 - 10**20, -(10**19))
_entry = _small | _twenty_digits


def _bounded_diagonal(values: list[int]) -> list[int]:
    """Replace by 1 each entry that would take |product| above 60."""
    out, prod = [], 1
    for v in values:
        v = v if prod * abs(v) <= 60 else 1
        prod *= abs(v)
        out.append(v)
    return out


def _upper_triangular(d: int):
    # the group order is the diagonal product; entries above it may have 20 digits
    return st.tuples(
        st.lists(st.integers(-6, 6), min_size=d, max_size=d).map(_bounded_diagonal),
        st.lists(_entry, min_size=d * d, max_size=d * d),
    ).map(lambda t: [
        t[0][i] if i == j else t[1][i * d + j] if j > i else 0
        for i in range(d) for j in range(d)
    ])


def _crystal_argv(family: str, d: int | None, a_choice: str | None, entries: list[int]):
    argv = ["crystal", "--family", family, "--sublattice", ",".join(map(str, entries))]
    if d is not None:
        argv += ["--d", str(d)]
    if a_choice is not None:
        argv += ["--a-choice", a_choice]
    return argv, None


def _crystal_call(family: str, d: int | None, a_choice: str | None):
    # a list of any other length than d * d is rejected before a group is built
    n = (d or 1) ** 2
    wrong_length = st.lists(_entry, max_size=10).filter(lambda e: len(e) != n)
    return st.one_of(_upper_triangular(d or 1), wrong_length).map(
        lambda entries: _crystal_argv(family, d, a_choice, entries)
    )


def _sheared_spec(p, q, r, s, p1, p2, k):
    """The spec's lattice on the sheared basis (p, q), (r + k p, s + k q): the
    same lattice and index, with entries beyond int64 when 10^19 <= |k|."""
    return [p, q, r + k * p, s + k * q, p1, p2]


# group orders stay at most 60: spec entries in [-5, 5] give |det| <= 50, also
# on a sheared basis, graph JSON moduli are filtered on their product, and
# square crystal sublattices are upper-triangular with a diagonal product of at most 60
_cli_calls = st.one_of(
    st.one_of(
        st.integers(1, 3).flatmap(_square),
        st.lists(st.lists(_small, max_size=3), max_size=3),
    ).map(lambda rows: (["snf", json.dumps(rows)], None)),
    st.tuples(
        st.sampled_from(["construct", "fold", "spectrum", "verify"]),
        st.one_of(
            st.lists(_small, min_size=6, max_size=6),
            st.lists(_small, max_size=8),
            st.tuples(*[_small] * 6, st.sampled_from([-1, 1]), st.integers(10**19, 10**20)).map(
                lambda t: _sheared_spec(*t[:6], t[6] * t[7])
            ),
        ),
    ).map(lambda c: ([c[0], "--spec", ",".join(map(str, c[1]))], None)),
    st.lists(st.integers(-1, 7), max_size=3)
    .filter(lambda m: math.prod(m) <= 60)
    .flatmap(_graph_json)
    .map(lambda obj: (["spectrum"], json.dumps(obj))),
    st.one_of(_json_scalar.map(json.dumps), st.text(max_size=6)).map(lambda t: (["spectrum"], t)),
    st.tuples(
        st.sampled_from(["path", "grid", "diamond"]),
        st.integers(0, 9).map(lambda d: d or None),  # 0: no --d
        st.sampled_from([None, "corner", "offset"]),
    ).flatmap(lambda c: _crystal_call(*c)),
)


@seed(0xC11)
@settings(
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(call=_cli_calls)
def test_any_input_exits_with_a_documented_code(call, capsys, monkeypatch):
    argv, stdin_text = call
    code, _, err = run_cli(argv, capsys, monkeypatch, stdin_text)
    assert code in (0, 2, 3)
    assert "Traceback" not in err


def test_spectrum_degenerate_spec_exits_3(capsys):
    code, _, err = run_cli(["spectrum", "--spec", "1,2,2,4,0,0"], capsys)
    assert code == 3
    assert "degenerate" in err


def test_fold_reports_isomorphism(capsys):
    code, out, _ = run_cli(["fold", "--spec", "2,0,0,2,0,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_cayley"] is True
    assert payload["n_vertices"] == 4
    assert payload["semiedges"] == {}
    # a fold with semiedges, against its exact payload
    code, out, _ = run_cli(["fold", "--spec", "1,0,0,2,0,1"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "spec": [1, 0, 0, 2, 0, 1],
        "n_vertices": 2,
        "reps": [[0, 0], [0, 1]],
        "edges": [[0, 1, 1]],
        "semiedges": {"0": 2, "1": 2},
        "matches_cayley": True,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--spec", "-2,3,3,2,0,0"],
        ["fold", "--spec", "-2,3,3,2,0,0"],
        ["spectrum", "--spec", "-2,3,3,2,0,0"],
        ["verify", "--spec", "-2,3,3,2,0,0"],
        ["crystal", "--family", "diamond", "--d", "2", "--sublattice", "-2,1,0,3"],
        ["crystal", "--family", "diamond", "--d", "2", "--sub", "-2,1,0,3"],
    ],
)
def test_list_value_may_start_with_a_minus_sign(argv, capsys):
    # argparse alone reads "-2,3,..." after the flag as an unknown option
    code, spaced, _ = run_cli(argv, capsys)
    assert code == 0
    code, attached, _ = run_cli(argv[:-2] + [f"{argv[-2]}={argv[-1]}"], capsys)
    assert code == 0
    assert spaced == attached


# --- census ------------------------------------------------------------------

def test_census_unit_index(capsys):
    code, out, err = run_cli(["census", "--max-index", "1"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "p", "q", "r", "s", "p1", "p2",
        "n_vertices", "semiedges", "f3", "f6",
        "moduli", "m_canonical", "spectral_radius",
    ]
    assert len(rows) == 5
    # every translate of the unit lattice folds to the one-vertex graph
    # with three semiedges
    for row in rows[1:]:
        assert row[6] == "1"
        assert row[7] == "3"
        assert row[11] == "[3]"
        assert row[12] == "3"
    assert "census: 4 specs, 4 rows" in err
    assert "violations: 0" in err


def test_census_dedup_collapses_isospectral_rows(capsys):
    code, full_out, _ = run_cli(["census", "--max-index", "4"], capsys)
    assert code == 0
    code, dedup_out, err = run_cli(["census", "--max-index", "4", "--dedup"], capsys)
    assert code == 0
    n_full = len(full_out.splitlines())
    n_dedup = len(dedup_out.splitlines())
    assert n_full == 61  # header + 60 specs
    assert n_dedup == 12  # header + one row per distinct class
    assert "60 specs, 11 rows" in err


def test_census_json_lines(capsys):
    code, out, _ = run_cli(["census", "--max-index", "2", "--format", "json"], capsys)
    assert code == 0
    payloads = [json.loads(line) for line in out.splitlines()]
    assert len(payloads) == 16
    for payload in payloads:
        assert payload["semiedges"] + payload["f3"] == 4
        assert payload["case"] in "abcd"


def test_census_human_lines(capsys):
    code, out, _ = run_cli(["census", "--max-index", "1", "--format", "human"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "[1,0,0,1;0,0] n=1 s=3 f3=1 f6=0 case=c moduli=[] M=[3] radius=3"


def test_census_contains_the_index_forty_row(capsys):
    code, out, _ = run_cli(["census", "--max-index", "40"], capsys)
    assert code == 0
    target = None
    for row in csv.reader(io.StringIO(out)):
        if row[:6] == ["20", "0", "14", "2", "0", "0"]:
            target = row
    # the Hermite form of the index-40 lattice spanned by (6,2) and (-2,6)
    assert target is not None
    assert target[6] == "40"
    assert target[10] == "[2,20]"


def test_census_parallel_matches_serial(capsys):
    code, serial, _ = run_cli(["census", "--max-index", "3"], capsys)
    assert code == 0
    code, parallel, _ = run_cli(["census", "--max-index", "3", "--jobs", "2"], capsys)
    assert code == 0
    assert parallel == serial
    code, serial, serial_err = run_cli(["census", "--max-index", "12", "--dedup"], capsys)
    assert code == 0
    code, parallel, parallel_err = run_cli(
        ["census", "--max-index", "12", "--dedup", "--jobs", "2"], capsys
    )
    assert code == 0
    assert parallel == serial
    assert parallel_err == serial_err


def test_a_parallel_sweep_draws_a_bounded_window_of_chunks(monkeypatch):
    drawn = 0

    def counting_specs(max_index):
        nonlocal drawn
        for t in enumerate_specs(max_index):
            drawn += 1
            yield t

    monkeypatch.setattr(cli, "enumerate_specs", counting_specs)
    sweep = cli._sweep(len, 60, 2)  # 12,056 specs, 48 chunks
    assert next(sweep) == cli._CHUNK
    # the window of 2 * jobs chunks, plus the one drawn to refill it
    assert drawn <= 5 * cli._CHUNK
    assert cli._CHUNK + sum(sweep) == drawn == 12056


@pytest.mark.parametrize("command", [["verify"], ["census", "--dedup"]])
def test_sweep_over_more_chunks_than_the_window_matches_serial(command, capsys):
    argv = [command[0], "--max-index", "30", *command[1:]]  # 3,048 specs, 12 chunks
    code, serial, serial_err = run_cli([*argv, "--jobs", "1"], capsys)
    assert code == 0
    code, parallel, parallel_err = run_cli([*argv, "--jobs", "2"], capsys)
    assert code == 0
    assert (parallel, parallel_err) == (serial, serial_err)


def test_census_jobs_env_fallback(capsys, monkeypatch):
    code, serial, _ = run_cli(["census", "--max-index", "2"], capsys)
    assert code == 0
    monkeypatch.setenv("CAGESPEC_JOBS", "2")
    code, via_env, _ = run_cli(["census", "--max-index", "2"], capsys)
    assert code == 0
    assert via_env == serial


def test_sweep_workers_are_capped_at_the_cpu_count(capsys, monkeypatch):
    workers = []

    class InlinePool:
        """Records max_workers and runs each job at submit; starts no process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    code, serial, _ = run_cli(["census", "--max-index", "1", "--jobs", "1"], capsys)
    assert code == 0
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, capped, _ = run_cli(["census", "--max-index", "1", "--jobs", "100000"], capsys)
    assert (code, capped, workers) == (0, serial, [2])
    monkeypatch.setenv("CAGESPEC_JOBS", "100000")
    code, capped, _ = run_cli(["census", "--max-index", "1"], capsys)
    assert (code, capped, workers) == (0, serial, [2, 2])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: one worker, no pool
    code, capped, _ = run_cli(["census", "--max-index", "1"], capsys)
    assert (code, capped, workers) == (0, serial, [2, 2])


def test_census_dedup_bytes_to_index_sixty(capsys):
    code, out, err = run_cli(["census", "--max-index", "60", "--dedup", "--jobs", "1"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "149abcc7dda96b78440d1a0d39628578769be09ff22453ae74d1584d163133db"
    )
    assert "12056 specs, 1033 rows" in err


def test_census_json_bytes_to_index_thirty(capsys):
    # JSON rows print every paired magnitude, which the CSV pins do not
    code, out, err = run_cli(["census", "--max-index", "30", "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a352d5ecc98af8f46723efae5cdde53f73e2b63e1a662f62863bb5a332e0607c"
    )
    assert "3048 specs, 3048 rows" in err


# --- the --dedup class ---------------------------------------------------------
#
# The class was first keyed by the full spectrum rounded with round(v, 9);
# the integer key must give exactly the same partition.

def rounded_key(report) -> tuple:
    full = report.full_spectrum()
    return (report.n_vertices, report.semiedges, report.moduli, tuple(round(v, 9) for v in full))


def assert_same_classes(reports) -> None:
    rounded = [rounded_key(report) for report in reports]
    exact = [cli._dedup_keys([report])[0] for report in reports]
    # one call rounds every shape of spectrum in the list as its own array
    assert cli._dedup_keys(reports) == exact
    assert len(set(rounded)) == len(set(exact)) == len(set(zip(rounded, exact)))
    for old, new in zip(rounded, exact):
        assert new[:3] == old[:3]
        spectrum = np.frombuffer(new[3], np.int64).tolist()
        assert all(type(v) is int for v in spectrum)
        # 10^9 times each rounded value, exactly
        assert spectrum == sorted(round(v * 1e9) for v in old[3])


def test_dedup_key_keeps_the_rounded_classes():
    # (93, 0, 7, 1, 0, 1) has the paired magnitude closest to a 9-digit
    # rounding boundary at index <= 120: 3.24e-14 away
    specs = [*enumerate_specs(60), TriangleSpec(93, 0, 7, 1, 0, 1)]
    reports = [r for i in range(0, len(specs), 256) for r in classify_chunk(specs[i : i + 256])]
    assert_same_classes(reports)


def test_dedup_key_at_nine_digit_half_way_points():
    base = classify(TriangleSpec(6, 2, -2, 6, 1, 0))
    rng = random.Random(0xDED0)
    magnitudes = []
    for _ in range(200):
        half = (rng.randrange(3 * 10**9) + 0.5) / 1e9
        magnitudes += [
            half,
            math.nextafter(half, 0.0),
            math.nextafter(half, 4.0),
            half - 5e-13,
            half + 5e-13,
        ]
    scaled = [p * 1e9 for p in magnitudes]
    # the fallback runs for the half-way doubles and their neighbours, and
    # rounding p * 1e9 alone would misplace some of them
    fallback = [abs(x - round(x)) > 0.5 - 1e-6 for x in scaled]
    assert fallback.count(True) == 600
    assert any(round(x) != round(round(p, 9) * 1e9) for p, x in zip(magnitudes, scaled))
    reports = [
        base._replace(paired=tuple(sorted((p, *base.paired[1:]), reverse=True)))
        for p in magnitudes
    ]
    assert_same_classes(reports)


# --- verify ------------------------------------------------------------------

def test_verify_single_spec(capsys):
    code, out, _ = run_cli(["verify", "--spec", "6,2,-2,6,1,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "d"
    assert payload["M_canonical"] == [3, 1]
    assert payload["moduli"] == [2, 20]
    assert payload["semiedges"] == 4
    # the whole report, every key and float, in both formats
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d56f08c9c2fc2ca9978c25a11af6e73c99ac5ad6ba14d03b6d1fd5d4fe859e1a"
    )
    code, out, _ = run_cli(["verify", "--spec", "6,2,-2,6,1,0", "--format", "human"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a0a4b83c12e931a5b35cdda904ef9fa3918f34123b2f427273aa22562682513e"
    )


def test_verify_sweep_summary(capsys):
    code, out, _ = run_cli(["verify", "--max-index", "6"], capsys)
    assert code == 0
    summary = json.loads(out)
    assert (summary["specs"], summary["max_index"]) == (132, 6)
    assert summary["violations"] == 0
    code, parallel, _ = run_cli(["verify", "--max-index", "6", "--jobs", "2"], capsys)
    assert code == 0
    assert parallel == out


def test_verify_sweep_json_shape_and_human_line(capsys):
    code, out, err = run_cli(["verify", "--max-index", "6", "--jobs", "1"], capsys)
    assert code == 0
    assert err == ""
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "specs": 132,
        "max_index": 6,
        "cases": {"a": 1, "b": 42, "c": 44, "d": 45},
        "violations": 0,
    }
    code, out, _ = run_cli(["verify", "--max-index", "6", "--format", "human"], capsys)
    assert code == 0
    assert out == "verified 132 specs (max index 6); cases a=1 b=42 c=44 d=45; violations: 0\n"


def test_verify_reports_a_spectrum_check_failure_as_exit_3(capsys, monkeypatch):
    # corrupt the DFT route only: the trivial character no longer matches |S|
    fft = spectra.np.fft.fft

    def shifted(a, axis=-1):
        out = fft(a, axis=axis)
        out.flat[0] += 0.5
        return out

    monkeypatch.setattr(spectra.np.fft, "fft", shifted)
    code, out, err = run_cli(["verify", "--spec", "6,2,-2,6,1,0"], capsys)
    assert code == 3
    assert out == ""
    assert "real characters" in err


def test_fold_reports_asymmetric_incidence_as_exit_3(capsys, monkeypatch):
    # orbit 0 meets orbit 1 along all three edges, orbit 1 meets orbit 0 once
    def lopsided(t):
        return FoldedGraph(t, np.array([[[1, 0]], [[1, 1]], [[1, 1]]]))

    monkeypatch.setattr(cli, "fold_construction", lopsided)
    code, out, err = run_cli(["fold", "--spec", "1,0,0,2,0,1"], capsys)
    assert code == 3
    assert out == ""
    assert "asymmetric incidence" in err


def test_verify_needs_a_target(capsys):
    code, _, err = run_cli(["verify"], capsys)
    assert code == 2
    assert "error" in err


def test_verify_takes_either_spec_or_max_index(capsys):
    code, out, err = run_cli(["verify", "--spec", "6,2,-2,6,1,0", "--max-index", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "not allowed with" in err


# --- crystal -----------------------------------------------------------------

def test_crystal_path(capsys):
    code, out, _ = run_cli(["crystal", "--family", "path", "--sublattice", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 1
    assert payload["graph"]["moduli"] == [4]
    assert payload["spectrum"]["s"] == 2
    assert payload["spectrum"]["M_canonical"] == [2, 0]


def test_crystal_grid(capsys):
    code, out, _ = run_cli(
        ["crystal", "--family", "grid", "--d", "2", "--sublattice", "4,0,0,7"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"]["s"] == 4
    assert payload["spectrum"]["M_canonical"] == [4, 0]
    assert payload["a_choice"] == "edge"


def test_crystal_diamond(capsys):
    code, out, _ = run_cli(
        [
            "crystal", "--family", "diamond", "--d", "3",
            "--sublattice", "2,0,0,0,2,0,0,0,2", "--a-choice", "offset",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"]["s"] == 0
    assert payload["spectrum"]["M_canonical"] == [4, 0, -2, -2]
    assert payload["graph"]["moduli"] == [2, 2, 2]


def test_crystal_usage_errors(capsys):
    code, _, _ = run_cli(
        ["crystal", "--family", "path", "--sublattice", "4", "--a-choice", "corner"],
        capsys,
    )
    assert code == 2
    code, _, err = run_cli(
        ["crystal", "--family", "grid", "--d", "2", "--sublattice", "1,2,3"], capsys
    )
    assert code == 2
    assert "expects 4 integers" in err
    code, _, _ = run_cli(
        ["crystal", "--family", "grid", "--d", "2", "--sublattice", "1,1,1,1"], capsys
    )
    assert code == 3  # singular sublattice
    # arguments the family builders reject
    identity_9 = ",".join("1" if i % 10 == 0 else "0" for i in range(81))
    for argv, message in (
        (["--family", "grid", "--d", "9", "--sublattice", identity_9], "dimension must be in 1..8"),
        (["--family", "path", "--sublattice", "1"], "at least 2 vertices"),
        (["--family", "diamond", "--d", "1", "--sublattice", "2"], "dimension >= 2"),
    ):
        code, out, err = run_cli(["crystal", *argv], capsys)
        assert code == 2
        assert out == ""
        assert message in err


# --- global behaviour --------------------------------------------------------

def test_top_level_usage_errors(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 2
    code, _, _ = run_cli(["census"], capsys)  # missing --max-index
    assert code == 2
    code, _, _ = run_cli(["census", "--max-index", "0"], capsys)
    assert code == 2
    code, _, _ = run_cli(["spectrum", "--spec", "1,2,3"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "spec",
    [
        "200000000000000000000,3,7,0,1,1",
        "1,200000000000000000000,1,200000000000000000002,0,0",
        "6,200000000000000000000,0,6,0,0",
    ],
)
def test_small_index_spec_with_entries_beyond_int64(spec, capsys):
    # the lattice has a small index, but its entries overflow int64
    code, out, _ = run_cli(["fold", "--spec", spec], capsys)
    assert code == 0
    assert json.loads(out)["matches_cayley"] is True
    code, out, _ = run_cli(["verify", "--spec", spec], capsys)
    assert code == 0
    report = json.loads(out)
    code, out, _ = run_cli(["construct", "--spec", spec], capsys)
    assert code == 0
    graph = json.loads(out)
    assert (report["moduli"], report["sum_set"]) == (graph["moduli"], graph["sum_set"])


@pytest.mark.parametrize(
    "argv, order",
    [
        (["fold", "--spec", "1001,0,0,1000,0,0"], 1001000),
        (["verify", "--spec", "1001,0,0,1000,0,0"], 1001000),
        (["construct", "--spec", "99999999999999999999,0,0,1,0,0"], 10**20 - 1),
        (["crystal", "--family", "path", "--sublattice", "9223372036854775807"], 2**63 - 1),
        (["crystal", "--family", "grid", "--d", "2", "--sublattice", "1001,0,0,1000"], 1001000),
    ],
)
def test_group_order_cap_names_the_order(argv, order, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: group order {order} exceeds the limit {MAX_ORDER}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--max-index", "2", "--tolerance", "1e-6"],
        ["snf", "[[1]]", "--jobs", "2"],
        ["fold", "--spec", "1,0,0,1,0,0", "--jobs", "2"],
        ["crystal", "--family", "path", "--sublattice", "4", "--tolerance", "1e-6"],
    ],
)
def test_option_of_another_subcommand_exits_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("value", ["inf", "1e400", "0", "-1", "nan", "abc"])
def test_tolerance_must_be_a_finite_positive_number(value, capsys):
    # an infinite tolerance would pass any numeric spectrum
    code, out, err = run_cli(["spectrum", "--spec", "1,0,0,1,0,0", "--tolerance", value], capsys)
    assert code == 2
    assert out == ""
    assert "--tolerance" in err


@pytest.mark.parametrize("value", ["0", "abc"])
def test_bad_jobs_env_fails_only_the_sweeps(value, capsys, monkeypatch):
    monkeypatch.setenv("CAGESPEC_JOBS", value)
    code, out, err = run_cli(["census", "--max-index", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "--jobs" in err
    assert "CAGESPEC_JOBS" in err
    code, _, _ = run_cli(["census", "--max-index", "1", "--jobs", "1"], capsys)
    assert code == 0
    code, out, _ = run_cli(["snf", GOLDEN_LATTICE], capsys)
    assert code == 0
    assert json.loads(out)["diagonal"] == [2, 20]
    # one spec is no sweep, so it never reads the variable
    code, out, _ = run_cli(["verify", "--spec", "6,2,-2,6,1,0"], capsys)
    assert code == 0
    assert json.loads(out)["case"] == "d"
    code, out, err = run_cli(["verify", "--max-index", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "CAGESPEC_JOBS" in err


@pytest.mark.parametrize(
    "command, formats",
    [
        ("snf", {"json", "human"}),
        ("construct", {"json", "human"}),
        ("fold", {"json", "human"}),
        ("spectrum", {"json", "csv", "human"}),
        ("census", {"json", "csv", "human"}),
        ("verify", {"json", "human"}),
        ("crystal", {"json", "human"}),
    ],
)
def test_each_subcommand_declares_only_the_options_it_reads(command, formats, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    assert ("--tolerance" in out) == (command == "spectrum")
    assert ("--jobs" in out) == (command in ("census", "verify"))
    choices = re.search(r"--format \{([a-z,]+)\}", out).group(1)
    assert set(choices.split(",")) == formats


def test_installed_entry_points():
    result = subprocess.run(
        [sys.executable, "-m", "cagespec", "census", "--max-index", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "census: 4 specs" in result.stderr
    # Run the [project.scripts] entry the way pip's generated wrapper does,
    # so the check needs no installed console script.
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["cagespec"]
    module, attr = entry.split(":")
    wrapper = f"import sys; from {module} import {attr} as f; sys.exit(f())"
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "snf" in result.stdout


def test_star_import_in_fresh_interpreter():
    # any import-time warning is an error, as in the test run itself
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", "from cagespec import *; import cagespec"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.skipif(
    shutil.which("cagespec") is None,
    reason="cagespec console script is not installed (pip install -e .)",
)
def test_cagespec_console_script_on_path():
    result = subprocess.run(
        ["cagespec", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "snf" in result.stdout
