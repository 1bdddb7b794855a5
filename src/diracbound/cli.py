"""Command-line interface: tables, sweeps, scans, wavefunctions, verify.

The ``spectra`` entry point reproduces every numeric artifact of the solver
as CSV or JSON files and exposes a self-verification suite.  Exit codes:
0 success, 1 usage or configuration error, 2 solver failure (missing root
or non-convergence), 3 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DiracboundError, DomainError
from .limits import (NonRelParams, coulomb_energy, hulthen_roots,
                     kratzer_fues_residual, nonrel_energy_coulomb,
                     nonrel_energy_hulthen)
from .oracle import OracleConfig, dirac_eigenvalue, schrodinger_eigenvalue
from .potentials import (BENCHMARK_C_PSEUDO, BENCHMARK_C_SPIN,
                         PotentialParams, SymmetryLimit, benchmark_params)
from .spectra import (QuantumNumbers, doublet_partner, nu_residual,
                      scan_v0_c, solve_levels, sweep_delta, table_energies)
from .susyqm import susy_residual
from .wavefunctions import solve_wavefunction

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

PRESET_NAME = "paper-benchmark"

_TABLE_H_PAIR_DEFAULT = 5.0

# sweep and scan grids: <axis>_start, <axis>_stop, <axis>_step
_GRID_AXES = ("delta", "v0", "c")

# Most points one grid axis, or the V0 x C plane of a scan, may hold.
_MAX_GRID_POINTS = 10 ** 6


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Every knob of a CLI run; serializes to flat INI-style text."""

    V0: float = 2.0
    A: float = 1.0
    B: float = 1.0
    delta: float = 0.05
    M: float = 4.76
    H: float = 0.0
    symmetry: str = "spin"
    C: float = 0.0
    states: str = "default"
    delta_start: float = 0.0
    delta_stop: float = 0.30
    delta_step: float = 0.01
    v0_start: float = 0.0
    v0_stop: float = 20.0
    v0_step: float = 0.5
    c_start: float = -20.0
    c_stop: float = 20.0
    c_step: float = 0.5
    out: str = "."
    format: str = "csv"
    oracle: str = "on"

    _SECTIONS = (
        ("potential", ("V0", "A", "B", "delta", "M", "H")),
        ("symmetry", ("symmetry", "C")),
        ("states", ("states",)),
        ("sweep", ("delta_start", "delta_stop", "delta_step")),
        ("scan", ("v0_start", "v0_stop", "v0_step",
                  "c_start", "c_stop", "c_step")),
        ("output", ("out", "format", "oracle")),
    )

    def to_ini(self) -> str:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        for section, keys in self._SECTIONS:
            parser[section] = {}
            for key in keys:
                value = getattr(self, key)
                parser[section][key] = (repr(value)
                                        if isinstance(value, float)
                                        else str(value))
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    @classmethod
    def from_ini(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise DomainError(f"bad config file: {exc}") from exc
        float_fields = {f.name for f in fields(cls)
                        if f.type in ("float", float)}
        known = {key: section for section, keys in cls._SECTIONS
                 for key in keys}
        values: dict = {}
        for section in parser.sections():
            for key, raw in parser[section].items():
                if key not in known:
                    raise DomainError(f"unknown config key {key!r}")
                if key in float_fields:
                    try:
                        values[key] = float(raw)
                    except ValueError as exc:
                        raise DomainError(
                            f"config key {key!r}: not a number: {raw!r}"
                        ) from exc
                else:
                    values[key] = raw
        return cls(**values)

    def validate(self) -> None:
        # The potential and the limit check their own fields.
        self.symmetry_limit()
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be csv or json, got {self.format!r}")
        if self.oracle not in ("on", "off"):
            raise DomainError(f"oracle must be on or off, got {self.oracle!r}")
        self.potential()
        for name in (f"{axis}_{end}" for axis in _GRID_AXES
                     for end in ("start", "stop", "step")):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        counts = {}
        for axis in _GRID_AXES:
            start, stop, step = (getattr(self, f"{axis}_{end}")
                                 for end in ("start", "stop", "step"))
            if step <= 0:
                raise DomainError(f"{axis}_step must be positive")
            if stop < start:
                raise DomainError(
                    f"{axis}_stop must not be below {axis}_start")
            counts[axis] = _grid_count(start, stop, step)
            if counts[axis] > _MAX_GRID_POINTS:
                raise DomainError(
                    f"{axis} grid has {counts[axis]} points, more than "
                    f"{_MAX_GRID_POINTS}")
        if counts["v0"] * counts["c"] > _MAX_GRID_POINTS:
            raise DomainError(
                f"scan grid has {counts['v0'] * counts['c']} V0 x C "
                f"points, more than {_MAX_GRID_POINTS}")

    def potential(self, H: float | None = None) -> PotentialParams:
        return PotentialParams(V0=self.V0, A=self.A, B=self.B,
                               delta=self.delta,
                               H=self.H if H is None else H, M=self.M)

    def symmetry_limit(self) -> SymmetryLimit:
        return SymmetryLimit(self.symmetry, self.C)


def apply_preset(cfg: RunConfig, name: str) -> RunConfig:
    """The named benchmark parameter set; C is signed by the symmetry kind."""
    if name != PRESET_NAME:
        raise DomainError(f"unknown preset {name!r}")
    return replace(
        cfg, **vars(benchmark_params(H=5.0)),
        C=BENCHMARK_C_SPIN if cfg.symmetry == "spin" else BENCHMARK_C_PSEUDO,
        delta_start=0.0, delta_stop=0.30, delta_step=0.01,
        v0_start=0.0, v0_stop=20.0, v0_step=0.5,
        c_start=-20.0, c_stop=20.0, c_step=0.5,
    )


# ---------------------------------------------------------------------------
# Default state sets per command
# ---------------------------------------------------------------------------

def default_table_states(kind: str) -> list[QuantumNumbers]:
    """The 32 tabulated states: four orbital blocks, four radial levels."""
    states = []
    if kind == "spin":
        for l in (1, 2, 3, 4):
            for n in range(4):
                states.append(QuantumNumbers(n, -(l + 1)))
                states.append(QuantumNumbers(n, l))
    else:
        for lt in (1, 2, 3, 4):
            for i in range(4):
                states.append(QuantumNumbers(i + 1, -lt))
                states.append(QuantumNumbers(i, lt + 1))
    return states


def default_sweep_states(kind: str) -> list[QuantumNumbers]:
    kappas = (1, 2, 3, 4) if kind == "spin" else (2, 3, 4, 5)
    return [QuantumNumbers(n, k) for n in (0, 1) for k in kappas]


def default_scan_states(kind: str) -> list[QuantumNumbers]:
    if kind == "spin":
        return [QuantumNumbers(0, -2), QuantumNumbers(0, 1)]
    return [QuantumNumbers(0, -1), QuantumNumbers(0, 2)]


def default_wavefunction_states(kind: str) -> list[QuantumNumbers]:
    kappa = 1 if kind == "spin" else 2
    return [QuantumNumbers(n, kappa) for n in (0, 1, 2)]


def parse_states(spec: str, kind: str, command: str) -> list[QuantumNumbers]:
    """Parse the states config value: 'default', 'none', or 'n,kappa;...'."""
    spec = spec.strip()
    if spec == "default":
        chooser = {
            "table": default_table_states,
            "sweep": default_sweep_states,
            "scan": default_scan_states,
            "wavefunction": default_wavefunction_states,
        }.get(command)
        return chooser(kind) if chooser else []
    if spec in ("", "none"):
        return []
    states = []
    for item in spec.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = item.split(",")
        if len(parts) != 2:
            raise DomainError(
                f"bad state {item!r}: expected 'n,kappa' pairs separated "
                f"by ';'")
        try:
            n, kappa = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DomainError(f"bad state {item!r}: {exc}") from exc
        states.append(QuantumNumbers(n, kappa))
    return states


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def format_cell(cell) -> str:
    if cell is None:
        return "NA"
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    value = float(cell)
    if math.isnan(value):
        return "NA"
    text = f"{value:.8f}"
    if text == "-0.00000000":
        return "0.00000000"
    return text


def _csv_quote(text: str) -> str:
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0..9999 as 4-byte words, read as uint32.

    The first table holds all four digits; the second writes leading
    zeros as NUL, keeping the last digit of 0.  Built on first use from
    the 100 two-digit pairs, read-only since every caller shares them.
    """
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)),
                          np.uint8).reshape(100, 2)
    full = np.empty((100, 100, 4), np.uint8)
    full[:, :, :2] = pairs[:, None]
    full[:, :, 2:] = pairs[None, :]
    full = full.reshape(10000, 4)
    bare = full.copy()
    for width in (1, 2, 3):
        bare[:10 ** (4 - width), :width] = 0
    words = full.view(np.uint32)[:, 0], bare.view(np.uint32)[:, 0]
    for table in words:
        table.flags.writeable = False
    return words


def _format_block(block: np.ndarray) -> str:
    """CRLF lines of a 2-D float array, each cell as ``format_cell`` gives it.

    Cells are rendered from exact integers.  With x cast to float64,
    y = x * 1e8 is the exact product x * 10^8 rounded once (1e8 is exact),
    so the product lies within spacing(|y|) / 2 of y.  A cell is clean
    when y lies more than spacing(|y|) from every half-integer (that
    distance, | |y - rint(y)| - 1/2 |, is computed exactly).  The exact
    product then rounds to the same integer as y and is no tie, so
    rint(y) is the integer that %.8f prints, whatever its rule for ties.
    Only |y| < 2^51 can be clean (spacing reaches 1/2 there; infinities
    and NaN compare false), so the integer is exact in int64.

    |rint(y)| is split into 4-digit groups, each looked up in a table of
    ASCII words, and every cell is laid out in one fixed-width byte row:
    a sign, written only when the integer is nonzero (so no negative
    zero); the integer digits, as wide as the block's largest value
    needs; '.' and the 8 decimals; then ',' or CRLF after a line's last
    cell.  Unused bytes are NUL, and one translate drops them all.  NaN
    becomes NA here.  The other cells (+-inf, |x| >= 2^51 / 1e8 and
    near-ties) are rendered by ``format_cell`` and spliced in at their
    offsets.  No rendered float needs CSV quoting.
    """
    nrows, ncols = block.shape
    if ncols == 0:
        return "\r\n" * nrows
    full, bare = _digit_words()
    x = np.asarray(block, dtype=np.float64).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 1e8
        rounded = np.rint(y)
        clean = np.abs(np.abs(y - rounded) - 0.5) > np.spacing(np.abs(y))
    n = np.abs(np.where(clean, rounded, 0.0)).astype(np.int64)
    whole = n // 10 ** 8
    frac = (n - whole * 10 ** 8).astype(np.uint32)
    whole = whole.astype(np.uint32)
    digits = 4 if whole.max(initial=0) < 10 ** 4 else 8
    width = digits + 12
    row = np.empty((x.size, width), np.uint8)

    def put(col, words):
        row[:, col:col + 4].view(np.uint32)[:, 0] = words

    row[:, 0] = np.where((x < 0) & (n != 0), ord("-"), 0)
    if digits == 4:
        put(1, bare[whole])
    else:
        high, low = np.divmod(whole, 10 ** 4)
        put(1, np.where(high > 0, bare[high], 0))
        put(5, np.where(high > 0, full[low], bare[low]))
    row[:, digits + 1] = ord(".")
    put(digits + 2, full[frac // 10 ** 4])
    put(digits + 6, full[frac % 10 ** 4])
    cells = row.reshape(nrows, ncols, width)
    cells[:, :-1, -2:] = (ord(","), 0)
    cells[:, -1, -2:] = (ord("\r"), ord("\n"))
    nan = np.isnan(x)
    row[~clean, :-2] = 0
    row[nan, 1:3] = (ord("N"), ord("A"))
    text = row.tobytes()
    spliced, start = [], 0
    for k in np.flatnonzero(~clean & ~nan).tolist():
        spliced += [text[start:k * width], format_cell(x[k]).encode()]
        start = k * width
    if spliced:
        text = b"".join(spliced) + text[start:]
    return text.translate(None, b"\0").decode("ascii")


def _is_float_block(rows) -> bool:
    return isinstance(rows, np.ndarray) and rows.dtype.kind == "f"


def write_csv(path: str, header: list[str],
              rows: np.ndarray | list[list]) -> None:
    """rows: a 2-D float array (NaN writes NA) or a list of mixed rows."""
    text = ",".join(_csv_quote(h) for h in header) + "\r\n"
    if _is_float_block(rows):
        text += _format_block(rows)
    else:
        text += "".join(",".join(_csv_quote(format_cell(c)) for c in row)
                        + "\r\n" for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json_cell(cell):
    if cell is None:
        return None
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (int, np.integer)):
        return int(cell)
    value = float(cell)
    if math.isnan(value):
        return None
    return float(format_cell(value))


def write_json(path: str, header: list[str], rows: np.ndarray | list[list],
               units: dict) -> None:
    """rows as ``write_csv`` takes them; a float array reads its cells back
    from the CSV text, so both formats hold the same numbers."""
    if _is_float_block(rows) and rows.size:
        cells = [[None if token == "NA" else float(token)
                  for token in line.split(",")]
                 for line in _format_block(rows).split("\r\n")[:-1]]
    else:
        cells = [[_json_cell(c) for c in row] for row in rows]
    payload = {"header": header, "units": units, "rows": cells}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_rows(cfg: RunConfig, stem: str, header: list[str],
               rows: np.ndarray | list[list], units: dict) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, f"{stem}.{cfg.format}")
    if cfg.format == "csv":
        write_csv(path, header, rows)
    else:
        write_json(path, header, rows, units)
    return path


def _safe_label(qn: QuantumNumbers) -> str:
    return qn.label.replace("/", "-")


def _grid_count(start: float, stop: float, step: float) -> float:
    """Number of points ``_grid`` returns; inf when the span overflows."""
    span = (stop - start) / step + 1e-9
    return math.floor(span) + 1 if math.isfinite(span) else math.inf


def _grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop, rounded to 10 decimals.

    No point lies past stop by more than 1e-9 steps; that slack keeps a
    stop reached up to float error, as in (0.0, 0.30, 0.01).
    """
    return [round(start + i * step, 10)
            for i in range(_grid_count(start, stop, step))]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_table(cfg: RunConfig) -> int:
    """Benchmark-layout energy table: E without and with the tensor term."""
    states = parse_states(cfg.states, cfg.symmetry, "table")
    sym = cfg.symmetry_limit()
    h_pair = (0.0, cfg.H if cfg.H != 0.0 else _TABLE_H_PAIR_DEFAULT)
    l_col = "l" if sym.is_spin else "l_tilde"
    header = [l_col, "n", "kappa", "label",
              f"E_H{h_pair[0]:g}", f"E_H{h_pair[1]:g}"]
    params = [cfg.potential(H=h) for h in h_pair]
    found = iter(table_energies([(qn, sym, p) for qn in states
                                 for p in params]).tolist())
    rows = []
    for qn in states:
        l_value = qn.l if sym.is_spin else qn.l_tilde
        row = [l_value, qn.n, qn.kappa, qn.label]
        for h in h_pair:
            E = next(found)
            if math.isnan(E):
                print(f"error: no bound state for {qn.label} in the "
                      f"{sym.kind} limit at H={h:g}", file=sys.stderr)
                return EXIT_SOLVER
            row.append(E)
        rows.append(row)
    path = write_rows(cfg, f"table_{cfg.symmetry}", header, rows,
                      units={f"E_H{h_pair[0]:g}": "fm^-1",
                             f"E_H{h_pair[1]:g}": "fm^-1"})
    print(f"wrote {path} ({len(rows)} states)")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    """Energy of each state as the screening parameter delta varies."""
    states = parse_states(cfg.states, cfg.symmetry, "sweep")
    sym = cfg.symmetry_limit()
    deltas = _grid(cfg.delta_start, cfg.delta_stop, cfg.delta_step)
    rows = np.column_stack(
        [deltas, sweep_delta(states, sym, cfg.potential(), deltas)])
    header = ["delta"] + [qn.label for qn in states]
    units = {"delta": "fm^-1"}
    units.update({qn.label: "fm^-1" for qn in states})
    path = write_rows(cfg, f"sweep_{cfg.symmetry}", header, rows, units)
    print(f"wrote {path} ({len(rows)} delta values x {len(states)} states)")
    return EXIT_OK


def cmd_scan(cfg: RunConfig) -> int:
    """Bound-or-not energy matrix over the (V0, C) plane, V0 = A = B tied."""
    states = parse_states(cfg.states, cfg.symmetry, "scan")
    v0_values = _grid(cfg.v0_start, cfg.v0_stop, cfg.v0_step)
    c_values = _grid(cfg.c_start, cfg.c_stop, cfg.c_step)
    header = ["C"] + [f"{v0:.8f}" for v0 in v0_values]
    # The V0 = 0 column is written as NA (NaN) without solving.
    solved = [v0 for v0 in v0_values if v0 != 0.0]
    solved_cols = [1 + i for i, v0 in enumerate(v0_values) if v0 != 0.0]
    rows = np.full((len(c_values), 1 + len(v0_values)), np.nan)
    rows[:, 0] = c_values
    units = {"C": "fm^-1", "cells": "fm^-1 (columns are V0 in fm^-1)"}
    for qn in states:
        rows[:, solved_cols] = scan_v0_c(qn, cfg.symmetry, cfg.potential(),
                                         solved, c_values)
        path = write_rows(cfg, f"scan_{cfg.symmetry}_{_safe_label(qn)}",
                          header, rows, units)
        print(f"wrote {path} ({len(c_values)} x {len(v0_values)} grid)")
    return EXIT_OK


def cmd_wavefunction(cfg: RunConfig) -> int:
    """Normalized spinor components (r, F, G) sampled per state."""
    states = parse_states(cfg.states, cfg.symmetry, "wavefunction")
    sym = cfg.symmetry_limit()
    p = cfg.potential()
    header = ["r", "F", "G"]
    units = {"r": "fm", "F": "fm^-1/2", "G": "fm^-1/2"}
    found = table_energies([(qn, sym, p) for qn in states]).tolist()
    for qn, E in zip(states, found):
        if math.isnan(E):
            print(f"error: no bound state for {qn.label} in the "
                  f"{sym.kind} limit", file=sys.stderr)
            return EXIT_SOLVER
        solution = solve_wavefunction(qn, sym, p, E)
        path = write_rows(cfg, f"wavefunction_{cfg.symmetry}"
                          f"_{_safe_label(qn)}", header, solution.samples,
                          units)
        print(f"wrote {path} (E = {solution.E:.8f}, "
              f"{len(solution.samples)} grid points)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def _verify_equivalence(cfg: RunConfig) -> tuple[str, str]:
    """Quantization residual from the two derivation routes must agree."""
    rng = np.random.default_rng(20260817)
    worst = 0.0
    checked = 0
    while checked < 50:
        p = PotentialParams(V0=rng.uniform(0.5, 4.0),
                            A=rng.uniform(0.0, 2.0),
                            B=rng.uniform(0.0, 2.0),
                            delta=rng.uniform(0.01, 0.2),
                            H=rng.uniform(0.0, 6.0),
                            M=rng.uniform(1.0, 8.0))
        C = rng.uniform(-8.0, 8.0)
        qn = QuantumNumbers(int(rng.integers(0, 5)),
                            int(rng.choice([-4, -3, -2, -1, 1, 2, 3])))
        E = rng.uniform(-0.95, 0.95) * p.M
        try:
            pairs = [(nu_residual(E, p, sym, qn), susy_residual(E, p, sym, qn))
                     for sym in (SymmetryLimit.spin(C),
                                 SymmetryLimit.pseudospin(C))]
        except DomainError:
            continue
        worst = max(worst, *(abs(nu - susy) / (1.0 + abs(nu))
                             for nu, susy in pairs))
        checked += 1
    status = "PASS" if worst <= 1e-9 else "FAIL"
    return status, f"max relative gap {worst:.2e} over {checked} draws"


def _verify_degeneracy(cfg: RunConfig) -> tuple[str, str]:
    """H=0 doublet partners coincide; the tensor term must split them."""
    worst_h0 = 0.0
    min_split = math.inf
    spin = SymmetryLimit.spin(BENCHMARK_C_SPIN)
    pseudo = SymmetryLimit.pseudospin(BENCHMARK_C_PSEUDO)
    pairs = ((spin, QuantumNumbers(0, -2)), (spin, QuantumNumbers(1, -3)),
             (pseudo, QuantumNumbers(1, -1)), (pseudo, QuantumNumbers(2, -2)))
    cases, queries = [], []
    for sym, qn in pairs:
        partner = doublet_partner(qn, sym)
        for h in (0.0, 5.0):
            p = cfg.potential(H=h)
            cases.append((qn, h))
            queries += [(qn, sym, p), (partner, sym, p)]
    found = iter(table_energies(queries).tolist())
    for qn, h in cases:
        e1, e2 = next(found), next(found)
        if math.isnan(e1) or math.isnan(e2):
            return "FAIL", f"missing root for {qn.label} pair at H={h:g}"
        gap = abs(e1 - e2)
        if h == 0.0:
            worst_h0 = max(worst_h0, gap)
        else:
            min_split = min(min_split, gap)
    ok = worst_h0 <= 1e-10 and min_split > 1e-3
    return ("PASS" if ok else "FAIL",
            f"H=0 max gap {worst_h0:.2e}, H=5 min split {min_split:.2e}")


def _verify_dual_path(cfg: RunConfig) -> tuple[str, str]:
    """Specialized closed forms against the general solver."""
    problems = []
    # Pure Hulthen, spin limit, branch eta + 1/2 > 0.
    p = PotentialParams(V0=2.0, A=0.0, B=0.0, delta=0.05, H=0.0, M=4.76)
    sym = SymmetryLimit.spin(5.0)
    qn = QuantumNumbers(0, 1)
    general = sorted(r.E for r in solve_levels(qn, sym, p))
    special = [e for e in hulthen_roots(p, sym, qn)
               if -p.M - 6.0 <= e <= p.M + 6.0]
    if (len(general) != len(special)
            or any(abs(a - b) > 1e-10 for a, b in zip(general, special))):
        problems.append("hulthen root mismatch")
    # Coulomb closed form vs Kratzer-Fues at B=0.
    coul = SymmetryLimit.spin(4.0)
    e_coul = coulomb_energy(coul, qn, 1.3, 4.76, 0.0)
    if abs(kratzer_fues_residual(e_coul, coul, qn, 1.3, 0.0, 4.76,
                                 0.0)) > 1e-10:
        problems.append("coulomb/kratzer-fues mismatch")
    # Nonrelativistic hydrogen ground state.
    nrp = NonRelParams(m=1.0, l=0, Ze2=1.0, A=0.0, B=0.0, delta=1e-6)
    if abs(nonrel_energy_coulomb(nrp, 0) + 0.5) > 1e-12:
        problems.append("hydrogen closed form mismatch")
    if problems:
        return "FAIL", "; ".join(problems)
    return "PASS", "hulthen roots, coulomb reduction, hydrogen all agree"


def _verify_oracle(cfg: RunConfig) -> tuple[str, str]:
    """Independent shooting solver health on known eigenvalues."""
    if cfg.oracle == "off":
        return "SKIPPED", "oracle disabled (--oracle off)"
    # Hydrogen 1s in the inner solver.
    ocfg = OracleConfig(r_max=60.0)

    def hydrogen(r):
        return -2.0 / r

    eps, nodes = schrodinger_eigenvalue(hydrogen, 0, ocfg)
    if abs(eps + 1.0) > 1e-4 or nodes != 0:
        return "FAIL", f"hydrogen 1s: eps={eps:.6f}, nodes={nodes}"
    # Nonrelativistic screened potential against the closed form.
    m_mass, v0, delta = 1.0, 0.1, 0.05

    def hulthen_u(r):
        s = np.exp(-2.0 * delta * r)
        return -2.0 * m_mass * v0 * s / -np.expm1(-2.0 * delta * r)

    target = 2.0 * m_mass * nonrel_energy_hulthen(
        NonRelParams(m=m_mass, l=0, Ze2=v0 / (2.0 * delta), A=0.0, B=0.0,
                     delta=delta), 0)
    eps, nodes = schrodinger_eigenvalue(hulthen_u, 0, ocfg)
    if abs(eps - target) > 1e-4:
        return "FAIL", (f"screened s-wave: eps={eps:.8f} vs closed "
                        f"{target:.8f}")
    # One relativistic spin-limit state against the analytic root.
    p = benchmark_params(H=0.0)
    sym = SymmetryLimit.spin(BENCHMARK_C_SPIN)
    qn = QuantumNumbers(0, -2)
    roots = [r for r in solve_levels(qn, sym, p)
             if r.nu_branch > 0 and r.sqrt_domain_ok and r.C_bound_ok
             and abs(r.E) < p.M]
    if not roots:
        return "FAIL", "no analytic bound root for the spot state"
    analytic = roots[0].E
    result = dirac_eigenvalue(qn, sym, p)
    if abs(result.E - analytic) > 1e-4:
        return "FAIL", (f"dirac spot check: oracle {result.E:.8f} vs "
                        f"analytic {analytic:.8f}")
    return "PASS", (f"hydrogen, screened s-wave, dirac spot state all "
                    f"within 1e-4 (spot gap "
                    f"{abs(result.E - analytic):.1e})")


def _verify_normalization(cfg: RunConfig) -> tuple[str, str]:
    """Solved components integrate to unit norm on the sampling grid."""
    p = benchmark_params(H=5.0)
    queries = [(QuantumNumbers(0, 1), SymmetryLimit.spin(BENCHMARK_C_SPIN), p),
               (QuantumNumbers(0, 2),
                SymmetryLimit.pseudospin(BENCHMARK_C_PSEUDO), p)]
    worst = 0.0
    for (qn, sym, _), E in zip(queries, table_energies(queries).tolist()):
        if math.isnan(E):
            return "FAIL", (f"no bound state for {qn.label} in the "
                            f"{sym.kind} limit")
        solution = solve_wavefunction(qn, sym, p, E)
        r = solution.samples[:, 0]
        solved = solution.samples[:, 1 if sym.is_spin else 2]
        norm = np.trapezoid(solved ** 2, r)
        worst = max(worst, abs(norm - 1.0))
    status = "PASS" if worst <= 1e-4 else "FAIL"
    return status, f"max |norm - 1| = {worst:.2e} (trapezoid quadrature)"


def cmd_verify(cfg: RunConfig) -> int:
    """Run the self-check suites; exit 0 only when none fails."""
    suites = (
        ("quantization-equivalence", _verify_equivalence),
        ("degeneracy", _verify_degeneracy),
        ("dual-path", _verify_dual_path),
        ("oracle-health", _verify_oracle),
        ("normalization", _verify_normalization),
    )
    failed = False
    for name, runner in suites:
        try:
            status, detail = runner(cfg)
        except DiracboundError as exc:
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
        print(f"{name}: {status} ({detail})")
        failed = failed or status == "FAIL"
    print(f"verify: {'FAIL' if failed else 'PASS'}")
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_EPILOG = """\
configuration precedence (lowest to highest):
  built-in defaults < --config FILE < --preset < explicit flags

config file format: INI sections [potential] V0 A B delta M H,
[symmetry] symmetry C, [states] states, [sweep] delta_start delta_stop
delta_step, [scan] v0_start v0_stop v0_step c_start c_stop c_step,
[output] out format oracle.  --save-config writes the effective
configuration of the run in that format.

states syntax: 'default' (per-command set), 'none', or 'n,kappa;n,kappa;...'
"""


@functools.cache
def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", choices=[PRESET_NAME],
                        help="named benchmark parameter set")
    common.add_argument("--config", metavar="FILE",
                        help="INI config file to load")
    common.add_argument("--save-config", metavar="FILE",
                        help="write the effective run configuration")
    common.add_argument("--out", help="output directory (default: .)")
    common.add_argument("--format", choices=["csv", "json"],
                        help="output file format (default: csv)")
    common.add_argument("--oracle", choices=["on", "off"],
                        help="enable the shooting-method cross-check")
    common.add_argument("--symmetry", choices=["spin", "pseudospin"],
                        help="which symmetry limit (default: spin)")
    common.add_argument("--C", type=float,
                        help="symmetry constant C (fm^-1)")
    common.add_argument("--H", type=float, help="tensor strength")
    common.add_argument("--V0", type=float, help="Hulthen strength (fm^-1)")
    common.add_argument("--A", type=float, help="Yukawa strength (fm^-1)")
    common.add_argument("--B", type=float,
                        help="inversely quadratic strength")
    common.add_argument("--delta", type=float,
                        help="screening parameter (fm^-1)")
    common.add_argument("--M", type=float, help="mass (fm^-1)")
    common.add_argument("--states",
                        help="state list: 'default', 'none' or "
                             "'n,kappa;n,kappa;...'")

    parser = _Parser(
        prog="spectra",
        description="Relativistic bound-state spectra and wavefunctions "
                    "for a screened Coulomb potential family with tensor "
                    "coupling.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    sub.add_parser("table", parents=[common],
                   help="energy table without and with the tensor term")
    sweep = sub.add_parser("sweep", parents=[common],
                           help="energies versus the screening parameter")
    sweep.add_argument("--delta-start", type=float, dest="delta_start")
    sweep.add_argument("--delta-stop", type=float, dest="delta_stop")
    sweep.add_argument("--delta-step", type=float, dest="delta_step")
    scan = sub.add_parser("scan", parents=[common],
                          help="bound-state map over the (V0, C) plane")
    scan.add_argument("--v0-start", type=float, dest="v0_start")
    scan.add_argument("--v0-stop", type=float, dest="v0_stop")
    scan.add_argument("--v0-step", type=float, dest="v0_step")
    scan.add_argument("--c-start", type=float, dest="c_start")
    scan.add_argument("--c-stop", type=float, dest="c_stop")
    scan.add_argument("--c-step", type=float, dest="c_step")
    sub.add_parser("wavefunction", parents=[common],
                   help="normalized spinor components per state")
    sub.add_parser("verify", parents=[common],
                   help="run the self-verification suites")
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    """Assemble the effective RunConfig from defaults, file, preset, flags."""
    cfg = RunConfig()
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read config file: {exc}") from exc
        cfg = RunConfig.from_ini(text)
    if getattr(args, "symmetry", None) is not None:
        cfg.symmetry = args.symmetry
    if args.preset is not None:
        cfg = apply_preset(cfg, args.preset)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    parse_states(cfg.states, cfg.symmetry, args.command)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except DomainError as exc:
        print(f"spectra: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.save_config:
        with open(args.save_config, "w") as fh:
            fh.write(cfg.to_ini())
        print(f"wrote {args.save_config}")
    dispatch = {
        "table": cmd_table,
        "sweep": cmd_sweep,
        "scan": cmd_scan,
        "wavefunction": cmd_wavefunction,
        "verify": cmd_verify,
    }
    try:
        return dispatch[args.command](cfg)
    except DiracboundError as exc:
        print(f"spectra: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
