"""End-to-end tests of the command-line interface.

Runs the ``main`` entry point in-process against temporary directories
and checks file layout, cell formatting, determinism, configuration
precedence, and exit codes.  One test drives the ``spectra`` console
script through a real subprocess: the installed executable when it is on
PATH, otherwise the entry point declared in pyproject.toml, called the way
its generated wrapper calls it, against the package under test.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import diracbound
from diracbound import cli
from diracbound.cli import (RunConfig, apply_preset, default_table_states,
                            format_cell, main, parse_states, write_csv,
                            write_json, _csv_quote, _format_block, _grid)
from diracbound.errors import (DiracboundError, DomainError,
                               InvalidBranchError, NoEigenvalueError,
                               NotConvergedError, PoleError,
                               SingularCouplingError)
from diracbound.spectra import QuantumNumbers

from reference_data import PSEUDO_H0_EXEMPT, PSEUDO_TABLE, SPIN_TABLE

PRESET = "paper-benchmark"


def read_csv(path):
    raw = path.read_bytes()
    assert raw.endswith(b"\r\n")
    assert b"\n" not in raw.replace(b"\r\n", b"")
    lines = raw.decode().split("\r\n")[:-1]
    return [line.split(",") for line in lines]


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------

def test_format_cell():
    assert format_cell(None) == "NA"
    assert format_cell(float("nan")) == "NA"
    assert format_cell("0p3/2") == "0p3/2"
    assert format_cell(3) == "3"
    assert format_cell(np.int64(-2)) == "-2"
    assert format_cell(0.123456789) == "0.12345679"
    assert format_cell(-1e-12) == "0.00000000"
    assert format_cell(-0.0) == "0.00000000"


# |x| where x * 1e8 reaches 2^51, from which the block kernel renders no
# cell from its integer, and 2^53, from which doubles are even integers.
_EXACT_EDGES = (2.0 ** 51 / 1e8, 2.0 ** 53 / 1e8)

# Cells where the rendering rules bite: NaN of either sign, infinities,
# signed zeros, values that round to a signed zero or just away from it,
# the kernel's exactness edges and values whose product with 1e8 overflows.
_EDGE_CELLS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
               5e-9, -5e-9, 4.999999999e-9, -4.999999999e-9,
               5.000000001e-9, -5.000000001e-9, -1e-12, 1e-300, -1e-300,
               1e300, -1e300, *_EXACT_EDGES, -_EXACT_EDGES[1],
               math.nextafter(_EXACT_EDGES[1], 0.0), 1.8e300, -1.8e300]


def _nudge(value, ulps):
    """value moved by ulps (-1, 0 or 1) units in the last place."""
    return value if ulps == 0 else math.nextafter(value, ulps * math.inf)


_signs = st.sampled_from([1.0, -1.0])
_ulps = st.sampled_from([-1, 0, 1])

_cells = st.one_of(
    st.sampled_from(_EDGE_CELLS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa
              * 10.0 ** exponent, _signs,
              st.floats(1.0, 9.999), st.integers(-300, 299)),
    # x * 1e8 a half-integer, or one ulp from one: (k + 0.5) / 1e8.
    st.builds(lambda k, ulps: _nudge((k + 0.5) / 1e8, ulps),
              st.integers(-10 ** 16, 10 ** 16), _ulps),
    # Exact binary ties: k / 512 * 1e8 is a half-integer for odd k.
    st.integers(-2 ** 40, 2 ** 40).map(lambda k: k / 512),
    # Both sides of the kernel's exactness edges.
    st.builds(lambda sign, edge, scale, ulps: sign * _nudge(edge * scale,
                                                            ulps),
              _signs, st.sampled_from(_EXACT_EDGES), st.floats(0.999, 1.001),
              _ulps),
    # x * 1e8 overflows.
    st.builds(lambda sign, size: sign * size, _signs,
              st.floats(1.8e300, sys.float_info.max)))


@st.composite
def _float_blocks(draw):
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(1, 9))
    cells = draw(st.lists(_cells, min_size=nrows * ncols,
                          max_size=nrows * ncols))
    return np.array(cells, dtype=float).reshape(nrows, ncols)


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=_float_blocks())
@example(block=np.array([[-0.0, -1e-12, math.nan],
                         [-3e-9, -0.0, -math.nan]]))
# NaN, infinities and near-ties in one row.
@example(block=np.array([[math.nan, 3.5e-8, -math.inf,
                          math.nextafter(2.5e-8, 0.0), math.inf,
                          -_nudge(123.456789125, 1), 1.0]]))
@example(block=np.array([[1.1, -2.5e-9, math.nan],
                         [3.4e38, -0.0, 1e-45],
                         [-123456.78, math.inf, 0.1]], dtype=np.float32))
# A wavefunction-sized block: r, F and G at 2000 points.
@example(block=np.random.default_rng(2000).normal(size=(2000, 3))
         * [30.0, 0.3, 0.3])
def test_block_writer_follows_the_cell_rule(tmp_path, block):
    header = [f"x{j}" for j in range(block.shape[1])]
    lines = [header] + [[format_cell(c) for c in row] for row in block]
    expected = "".join(",".join(_csv_quote(c) for c in line) + "\r\n"
                       for line in lines)
    write_csv(tmp_path / "block.csv", header, block)
    assert (tmp_path / "block.csv").read_bytes() == expected.encode()
    write_json(tmp_path / "array.json", header, block, {})
    write_json(tmp_path / "lists.json", header, block.tolist(), {})
    assert ((tmp_path / "array.json").read_bytes()
            == (tmp_path / "lists.json").read_bytes())


def _percent_block(block):
    """_format_block as it ran before its integer kernel: one %-format
    call, then the two rules of format_cell that %.8f does not follow as
    string fix-ups.  The reference for
    test_block_kernel_matches_the_percent_format."""
    nrows, ncols = block.shape
    line = ",".join(["%.8f"] * ncols) + "\r\n"
    body = "\n" + (line * nrows) % tuple(block.ravel().tolist())
    body = (body.replace(",-0.00000000", ",0.00000000")
            .replace("\n-0.00000000", "\n0.00000000")
            .replace("nan", "NA"))
    return body[1:]


@pytest.mark.parametrize("kind", ["spin", "pseudospin"])
def test_block_kernel_matches_the_percent_format(kind, tmp_path, monkeypatch):
    # Every float block the preset's sweep, scan and wavefunction write,
    # the spinors of all 32 table states included.
    blocks = []

    def recording(block):
        blocks.append(block.copy())
        return _format_block(block)

    monkeypatch.setattr(cli, "_format_block", recording)
    table_states = ";".join(f"{qn.n},{qn.kappa}"
                            for qn in default_table_states(kind))
    for argv in (["sweep"], ["scan"], ["wavefunction"],
                 ["wavefunction", "--states", table_states]):
        assert main(argv + ["--preset", PRESET, "--symmetry", kind,
                            "--out", str(tmp_path)]) == 0
    assert len(blocks) == 1 + 2 + 3 + 32
    for block in blocks:
        assert _format_block(block) == _percent_block(block)


def test_grid_endpoints():
    g = _grid(0.0, 0.30, 0.01)
    assert len(g) == 31
    assert g[0] == 0.0
    assert g[-1] == 0.30
    assert g[7] == 0.07
    assert _grid(0.0, 20.0, 0.5) == [0.5 * i for i in range(41)]
    # The last point never passes stop.
    assert _grid(0.0, 1.0, 0.6) == [0.0, 0.6]
    assert _grid(0.0, 1.0, 0.3) == [0.0, 0.3, 0.6, 0.9]
    assert _grid(0.1, 0.3, 0.1) == [0.1, 0.2, 0.3]
    assert _grid(2.0, 2.0, 0.5) == [2.0]
    assert _grid(2.0, 2.4, 0.5) == [2.0]
    cfg = apply_preset(RunConfig(), PRESET)
    assert len(_grid(cfg.delta_start, cfg.delta_stop, cfg.delta_step)) == 31
    assert _grid(cfg.v0_start, cfg.v0_stop, cfg.v0_step) \
        == [0.5 * i for i in range(41)]
    assert _grid(cfg.c_start, cfg.c_stop, cfg.c_step) \
        == [-20.0 + 0.5 * i for i in range(81)]


def test_parse_states_defaults():
    assert len(parse_states("default", "spin", "table")) == 32
    assert len(parse_states("default", "pseudospin", "table")) == 32
    assert len(parse_states("default", "spin", "sweep")) == 8
    assert len(parse_states("default", "spin", "scan")) == 2
    assert len(parse_states("default", "pseudospin", "wavefunction")) == 3
    assert parse_states("default", "spin", "verify") == []
    table = parse_states("default", "spin", "table")
    assert table[0] == QuantumNumbers(0, -2)
    assert table[1] == QuantumNumbers(0, 1)


def test_parse_states_explicit():
    states = parse_states(" 0,-2 ; 1,3 ", "spin", "table")
    assert states == [QuantumNumbers(0, -2), QuantumNumbers(1, 3)]
    assert parse_states("none", "spin", "table") == []
    assert parse_states("", "spin", "table") == []
    for bad in ("1", "a,b", "1,2,3"):
        with pytest.raises(DomainError):
            parse_states(bad, "spin", "table")


# ---------------------------------------------------------------------------
# Configuration round-trip and precedence
# ---------------------------------------------------------------------------

def test_config_ini_round_trip():
    cfg = RunConfig(V0=3.25, delta=0.0625, symmetry="pseudospin", C=-7.5,
                    states="0,-1;2,2", out="results", format="json")
    assert RunConfig.from_ini(cfg.to_ini()) == cfg
    assert RunConfig.from_ini(RunConfig().to_ini()) == RunConfig()


def test_config_rejects_bad_keys_and_values():
    with pytest.raises(DomainError):
        RunConfig.from_ini("[potential]\nbogus = 1\n")
    with pytest.raises(DomainError):
        RunConfig.from_ini("[potential]\nV0 = tall\n")
    with pytest.raises(DomainError):
        RunConfig.from_ini("not ini at all")
    with pytest.raises(DomainError):
        RunConfig(delta=-0.1).validate()
    with pytest.raises(DomainError):
        RunConfig(symmetry="both").validate()
    # Sweep and scan grids: every bound finite, the stop not below the start.
    for bad in ({"delta_step": float("nan")}, {"v0_stop": float("inf")},
                {"c_start": float("-inf")}, {"delta_stop": float("nan")},
                {"delta_start": 0.3, "delta_stop": 0.0},
                {"v0_start": 5.0, "v0_stop": 4.5},
                {"c_start": 1.0, "c_stop": -1.0},
                # Grids over 10**6 points, per axis or V0 x C, counted
                # before anything is built.
                {"delta_step": 1e-12}, {"delta_stop": 1e6, "delta_step": 1.0},
                {"v0_step": 1e-3, "c_step": 1e-3},
                {"c_start": -1e308, "c_stop": 1e308}):
        with pytest.raises(DomainError):
            RunConfig(**bad).validate()
    RunConfig(delta_stop=999999.0, delta_step=1.0).validate()
    RunConfig(v0_stop=999.0, v0_step=1.0, c_start=0.0, c_stop=999.0,
              c_step=1.0).validate()
    with pytest.raises(DomainError):
        RunConfig.from_ini("[sweep]\ndelta_step = nan\n").validate()


def test_preset_values():
    cfg = apply_preset(RunConfig(), PRESET)
    assert (cfg.V0, cfg.A, cfg.B) == (2.0, 1.0, 1.0)
    assert (cfg.delta, cfg.M, cfg.H) == (0.05, 4.76, 5.0)
    assert cfg.C == 5.0
    pseudo = apply_preset(RunConfig(symmetry="pseudospin"), PRESET)
    assert pseudo.C == -5.0
    with pytest.raises(DomainError):
        apply_preset(RunConfig(), "no-such-preset")


def test_flag_precedence(tmp_path):
    cfg_file = tmp_path / "base.ini"
    cfg_file.write_text("[potential]\nV0 = 9.0\nH = 1.0\n")

    def effective(extra):
        saved = tmp_path / "saved.ini"
        argv = ["table", "--config", str(cfg_file), "--states", "none",
                "--out", str(tmp_path), "--save-config", str(saved)]
        assert main(argv + extra) == 0
        return RunConfig.from_ini(saved.read_text())

    base = effective([])
    assert base.V0 == 9.0 and base.H == 1.0

    preset = effective(["--preset", PRESET])
    assert preset.V0 == 2.0 and preset.H == 5.0 and preset.C == 5.0

    flags = effective(["--preset", PRESET, "--H", "2", "--V0", "3.5"])
    assert flags.V0 == 3.5 and flags.H == 2.0 and flags.C == 5.0


def test_one_parser_serves_every_call(tmp_path):
    # main builds its parser once per process; no flag of one call may
    # reach the next.
    assert cli.build_parser() is cli.build_parser()
    first, second = tmp_path / "first.ini", tmp_path / "second.ini"
    assert main(["table", "--preset", PRESET, "--H", "2.5", "--states",
                 "0,-2", "--out", str(tmp_path / "a"),
                 "--save-config", str(first)]) == 0
    assert main(["sweep", "--preset", PRESET, "--format", "json",
                 "--states", "0,1", "--out", str(tmp_path / "b"),
                 "--save-config", str(second)]) == 0
    table, sweep = (RunConfig.from_ini(f.read_text()) for f in (first, second))
    assert (table.H, table.format) == (2.5, "csv")
    assert (sweep.H, sweep.format) == (5.0, "json")
    assert [f.name for f in (tmp_path / "b").iterdir()] == ["sweep_spin.json"]


def test_saved_config_reproduces_run(tmp_path):
    saved = tmp_path / "run.ini"
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    base = ["table", "--states", "0,-2;0,1", "--preset", PRESET]
    assert main(base + ["--out", str(out1),
                        "--save-config", str(saved)]) == 0
    assert main(["table", "--config", str(saved),
                 "--out", str(out2)]) == 0
    assert ((out1 / "table_spin.csv").read_bytes()
            == (out2 / "table_spin.csv").read_bytes())


# ---------------------------------------------------------------------------
# table command
# ---------------------------------------------------------------------------

def test_table_spin_matches_reference(tmp_path):
    assert main(["table", "--preset", PRESET, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "table_spin.csv")
    assert rows[0] == ["l", "n", "kappa", "label", "E_H0", "E_H5"]
    assert len(rows) == 33
    for row in rows[1:]:
        n, kappa = int(row[1]), int(row[2])
        expected = SPIN_TABLE[(n, kappa)]
        assert abs(float(row[4]) - expected[0]) <= 1.1e-6
        assert abs(float(row[5]) - expected[1]) <= 1.1e-6
    assert rows[1][:4] == ["1", "0", "-2", "0p3/2"]
    assert rows[2][:4] == ["1", "0", "1", "0p1/2"]


def test_table_pseudo_matches_reference(tmp_path):
    assert main(["table", "--symmetry", "pseudospin", "--preset", PRESET,
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "table_pseudospin.csv")
    assert rows[0][0] == "l_tilde"
    assert len(rows) == 33
    for row in rows[1:]:
        n, kappa = int(row[1]), int(row[2])
        expected = PSEUDO_TABLE[(n, kappa)]
        if (n, kappa) not in PSEUDO_H0_EXEMPT:
            assert abs(float(row[4]) - expected[0]) <= 1.1e-6
        assert abs(float(row[5]) - expected[1]) <= 1.1e-6


def test_table_json_mirrors_csv(tmp_path):
    runs = [
        ("table", ["--states", "0,-2;0,1"], "table_spin",
         {"E_H0": "fm^-1", "E_H5": "fm^-1"}, False),
        # delta = 0 is out of domain: an NA row.
        ("sweep", ["--states", "0,1", "--delta-start", "0",
                   "--delta-stop", "0.1", "--delta-step", "0.05"],
         "sweep_spin", {"delta": "fm^-1", "0p1/2": "fm^-1"}, True),
        # The V0 = 0 column is NA.
        ("scan", ["--states", "0,-2", "--v0-start", "0", "--v0-stop", "2",
                  "--v0-step", "2", "--c-start", "0", "--c-stop", "7",
                  "--c-step", "7"],
         "scan_spin_0p3-2",
         {"C": "fm^-1", "cells": "fm^-1 (columns are V0 in fm^-1)"}, True),
        ("wavefunction", ["--states", "0,1"], "wavefunction_spin_0p1-2",
         {"r": "fm", "F": "fm^-1/2", "G": "fm^-1/2"}, False),
    ]
    for command, args, stem, units, has_na in runs:
        for fmt in ("csv", "json"):
            assert main([command, "--preset", PRESET, "--out", str(tmp_path),
                         "--format", fmt] + args) == 0
        csv_rows = read_csv(tmp_path / f"{stem}.csv")
        text = (tmp_path / f"{stem}.json").read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert set(payload) == {"header", "units", "rows"}
        assert payload["header"] == csv_rows[0]
        assert payload["units"] == units
        assert len(payload["rows"]) == len(csv_rows) - 1
        assert any("NA" in row for row in csv_rows[1:]) == has_na
        for jrow, crow in zip(payload["rows"], csv_rows[1:]):
            assert len(jrow) == len(crow)
            for jcell, ccell in zip(jrow, crow):
                if ccell == "NA":
                    assert jcell is None
                elif "." in ccell:
                    assert type(jcell) is float and jcell == float(ccell)
                elif re.fullmatch(r"-?\d+", ccell):
                    assert type(jcell) is int and jcell == int(ccell)
                else:
                    assert jcell == ccell


def test_table_output_is_deterministic(tmp_path):
    args = ["table", "--states", "0,-2;1,1", "--preset", PRESET]
    for fmt in ("csv", "json"):
        out1 = tmp_path / f"run1_{fmt}"
        out2 = tmp_path / f"run2_{fmt}"
        assert main(args + ["--format", fmt, "--out", str(out1)]) == 0
        assert main(args + ["--format", fmt, "--out", str(out2)]) == 0
        name = f"table_spin.{fmt}"
        assert ((out1 / name).read_bytes()
                == (out2 / name).read_bytes())


# ---------------------------------------------------------------------------
# sweep, scan, wavefunction commands
# ---------------------------------------------------------------------------

def test_sweep_rows_and_na(tmp_path):
    assert main(["sweep", "--preset", PRESET, "--states", "0,1",
                 "--delta-start", "0", "--delta-stop", "0.1",
                 "--delta-step", "0.05", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_spin.csv")
    assert rows[0] == ["delta", "0p1/2"]
    assert len(rows) == 4
    assert rows[1] == ["0.00000000", "NA"]
    assert abs(float(rows[2][0]) - 0.05) < 1e-12
    assert abs(float(rows[2][1]) - 0.26229015) <= 1e-6
    assert float(rows[3][1]) > float(rows[2][1])


def test_sweep_stops_at_delta_stop(tmp_path):
    # A step that does not divide the range ends below stop, not past it.
    assert main(["sweep", "--preset", PRESET, "--states", "0,1",
                 "--delta-start", "0", "--delta-stop", "1",
                 "--delta-step", "0.6", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_spin.csv")
    assert [row[0] for row in rows] == ["delta", "0.00000000", "0.60000000"]


def test_scan_grid_and_na_column(tmp_path):
    assert main(["scan", "--preset", PRESET, "--states", "0,-2",
                 "--v0-start", "0", "--v0-stop", "2", "--v0-step", "2",
                 "--c-start", "0", "--c-stop", "7", "--c-step", "7",
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "scan_spin_0p3-2.csv")
    assert rows[0] == ["C", "0.00000000", "2.00000000"]
    assert rows[1] == ["0.00000000", "NA", "NA"]
    assert rows[2][0] == "7.00000000"
    assert rows[2][1] == "NA"
    assert abs(float(rows[2][2]) - 2.25136420) <= 1e-6


def test_wavefunction_output(tmp_path, capsys):
    assert main(["wavefunction", "--preset", PRESET, "--states", "0,1",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    match = re.search(r"E = (-?\d+\.\d+)", out)
    assert match is not None
    assert abs(float(match.group(1)) - 0.26229015) <= 1e-6
    rows = read_csv(tmp_path / "wavefunction_spin_0p1-2.csv")
    assert rows[0] == ["r", "F", "G"]
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    assert data.shape[0] > 100
    r, F = data[:, 0], data[:, 1]
    assert abs(F[0]) <= 1e-6 * np.max(np.abs(F))
    assert abs(F[-1]) <= 1e-6 * np.max(np.abs(F))
    assert abs(np.trapezoid(F ** 2, r) - 1.0) <= 1e-4


# ---------------------------------------------------------------------------
# verify command and exit codes
# ---------------------------------------------------------------------------

def test_verify_passes_without_oracle(tmp_path, capsys):
    assert main(["verify", "--oracle", "off", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for suite in ("quantization-equivalence", "degeneracy", "dual-path",
                  "normalization"):
        assert re.search(rf"^{suite}: PASS", out, re.M), suite
    assert re.search(r"^oracle-health: SKIPPED", out, re.M)
    assert out.rstrip().endswith("verify: PASS")


def test_verify_output_is_pinned(tmp_path, capsys):
    # The full report with the oracle on: every figure, the oracle's spot
    # gap included, is pinned character for character.
    assert main(["verify", "--preset", "paper-benchmark",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "quantization-equivalence: PASS (max relative gap 4.59e-15 over 50 "
        "draws)\n"
        "degeneracy: PASS (H=0 max gap 0.00e+00, H=5 min split 1.50e-02)\n"
        "dual-path: PASS (hulthen roots, coulomb reduction, hydrogen all "
        "agree)\n"
        "oracle-health: PASS (hydrogen, screened s-wave, dirac spot state "
        "all within 1e-4 (spot gap 2.4e-11))\n"
        "normalization: PASS (max |norm - 1| = 1.38e-05 (trapezoid "
        "quadrature))\n"
        "verify: PASS\n")


def test_exit_codes(tmp_path, capsys):
    assert main(["table", "--delta", "-1", "--states", "none",
                 "--out", str(tmp_path)]) == 1
    assert "delta must be positive" in capsys.readouterr().err
    assert main(["table", "--states", "garbage",
                 "--out", str(tmp_path)]) == 1
    assert main(["table", "--config", str(tmp_path / "missing.ini"),
                 "--states", "none", "--out", str(tmp_path)]) == 1
    assert main(["table", "--states", "0,0",
                 "--out", str(tmp_path)]) == 1
    assert main(["table", "--C", "0", "--states", "0,-2",
                 "--out", str(tmp_path)]) == 2
    assert "no bound state" in capsys.readouterr().err
    assert main(["wavefunction", "--C", "0", "--states", "0,-2",
                 "--out", str(tmp_path)]) == 2
    assert "no bound state" in capsys.readouterr().err
    for argv in (["sweep", "--delta-step", "nan"],
                 ["scan", "--v0-stop", "inf"],
                 ["sweep", "--delta-start", "0.3", "--delta-stop", "0"]):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "spectra: error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    with pytest.raises(SystemExit) as info:
        main(["table", "--no-such-flag"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


@pytest.mark.parametrize("error, builtin", [
    (DomainError, ValueError),
    (PoleError, ValueError),
    (InvalidBranchError, ValueError),
    (SingularCouplingError, ZeroDivisionError),
    (NoEigenvalueError, RuntimeError),
    (NotConvergedError, RuntimeError),
], ids=lambda v: v.__name__)
def test_every_error_type_is_a_solver_error(error, builtin, tmp_path, capsys,
                                            monkeypatch):
    # Each type keeps its builtin base under the shared one; a command
    # that raises any of them exits 2 with one line, and a verify suite
    # that raises one reports FAIL while the others still run.
    assert issubclass(error, DiracboundError)
    assert issubclass(error, builtin)

    def fail(cfg):
        raise error("planted")

    monkeypatch.setattr(cli, "cmd_table", fail)
    assert main(["table", "--states", "none", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "spectra: solver error: planted\n"
    for suite in ("_verify_equivalence", "_verify_dual_path",
                  "_verify_normalization"):
        monkeypatch.setattr(cli, suite, lambda cfg: ("PASS", "stub"))
    monkeypatch.setattr(cli, "_verify_degeneracy", fail)
    assert main(["verify", "--oracle", "off", "--out", str(tmp_path)]) == 3
    out = capsys.readouterr().out
    assert re.search(rf"^degeneracy: FAIL \({error.__name__}: planted\)$",
                     out, re.M)
    assert re.search(r"^normalization: PASS", out, re.M)
    assert out.rstrip().endswith("verify: FAIL")


def spectra_command():
    """argv prefix and environment that run the ``spectra`` console script.

    The installed executable when it is on PATH.  Otherwise the call its
    generated wrapper makes, built from the ``[project.scripts]`` entry in
    pyproject.toml and run against the package this process imported.
    """
    exe = shutil.which("spectra")
    if exe is not None:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["spectra"]
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(diracbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-c", code], env


def test_console_script(tmp_path):
    cmd, env = spectra_command()
    run = subprocess.run(
        cmd + ["table", "--preset", PRESET, "--states", "0,-2",
               "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert "table_spin.csv" in run.stdout
    assert (tmp_path / "table_spin.csv").exists()
    bad = subprocess.run(cmd + ["table", "--preset", "bogus"],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 1
    assert "invalid choice" in bad.stderr
