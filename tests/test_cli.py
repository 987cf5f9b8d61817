from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cagespec import spectra
from cagespec.cli import main

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
    assert "not supported" in err


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
    ],
)
def test_malformed_input_exits_2(argv, stdin_text, capsys, monkeypatch):
    code, out, err = run_cli(argv, capsys, monkeypatch, stdin_text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
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


def test_census_jobs_env_fallback(capsys, monkeypatch):
    code, serial, _ = run_cli(["census", "--max-index", "2"], capsys)
    assert code == 0
    monkeypatch.setenv("CAGESPEC_JOBS", "2")
    code, via_env, _ = run_cli(["census", "--max-index", "2"], capsys)
    assert code == 0
    assert via_env == serial


# --- verify ------------------------------------------------------------------

def test_verify_single_spec(capsys):
    code, out, _ = run_cli(["verify", "--spec", "6,2,-2,6,1,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "d"
    assert payload["M_canonical"] == [3, 1]
    assert payload["moduli"] == [2, 20]
    assert payload["semiedges"] == 4


def test_verify_sweep_summary(capsys):
    code, out, _ = run_cli(["verify", "--max-index", "6"], capsys)
    assert code == 0
    assert "verified 132 specs (max index 6)" in out
    assert "violations: 0" in out


def test_verify_reports_a_spectrum_check_failure_as_exit_3(capsys, monkeypatch):
    # corrupt the DFT route only: the trivial character no longer matches |S|
    fftn = spectra.np.fft.fftn

    def shifted(a):
        out = fftn(a)
        out.flat[0] += 0.5
        return out

    monkeypatch.setattr(spectra.np.fft, "fftn", shifted)
    code, out, err = run_cli(["verify", "--spec", "6,2,-2,6,1,0"], capsys)
    assert code == 3
    assert out == ""
    assert "real characters" in err


def test_verify_needs_a_target(capsys):
    code, _, err = run_cli(["verify"], capsys)
    assert code == 2
    assert "error" in err


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
