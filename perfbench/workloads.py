"""The benchmark's three workloads: inputs, one pass of requests, checks.

Every workload has a paper part, identical for every seed, and a seeded
part of fixed size.  A pass is a list of requests that one client sends in
order, each waiting for the previous one (a closed loop).  The checks read
what a pass produced and compare every output with a reference; they run
outside the timed region.  See README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random

import numpy as np

import refsolve

WORKLOADS = ("scan_map", "tables_spinors", "oracle_check")

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

PRESET = ("--preset", "paper-benchmark")
M = 4.76
PAPER_C = {"spin": 5.0, "pseudospin": -5.0}
PAPER = {"V0": 2.0, "A": 1.0, "B": 1.0, "delta": 0.05, "H": 5.0}

TOL_E = 1e-6        # energy tolerance of AC-1, AC-2 and AC-10
TOL_NORM = 1e-4     # |norm - 1| on the sampled spinor, as `verify` uses
# The oracle agrees with the closed form to about 1e-10 on most states, but
# its default 20000-point grid leaves errors up to a few 1e-5 on some
# states of the seeded range (n=1, kappa=-2, H=1.974, C=5.145: 2.3e-5, and
# 1.5e-5 at 40000 points), so the check uses the cross-check tolerance of
# AC-5 and `verify`; the measured gap is reported as oracle.max_abs_err.
TOL_ORACLE = 1e-4

GRID_MISS = "grid-scan miss: root within one 1e-3 step of another root " \
            "or of the domain edge (ROADMAP item 1)"
SILENT_NOT_CONVERGED = "oracle returns converged=False instead of raising " \
                       "NotConvergedError (ROADMAP item 5)"

SCAN_STATES = {"spin": [(0, -2), (0, 1)], "pseudospin": [(0, -1), (0, 2)]}
TINY_SCAN_GRID = ("--v0-start", "16.5", "--v0-stop", "20",
                  "--c-start", "9", "--c-stop", "10")
# The seeded panel covers the preset's (V0, C) range at twice the step
# (21 x 41 cells), a quarter of a paper panel's cost.
SEEDED_SCAN_GRID = ("--v0-step", "1", "--c-step", "1")


def table_states(kind):
    """The 32 tabulated states of the paper, in table order."""
    if kind == "spin":
        return [(n, k) for l in (1, 2, 3, 4) for n in range(4)
                for k in (-(l + 1), l)]
    return [(n, k) for lt in (1, 2, 3, 4) for i in range(4)
            for n, k in ((i + 1, -lt), (i, lt + 1))]


def sweep_states(kind):
    kappas = (1, 2, 3, 4) if kind == "spin" else (2, 3, 4, 5)
    return [(n, k) for n in (0, 1) for k in kappas]


def states_arg(states):
    return ";".join(f"{n},{k}" for n, k in states)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> dict:
    """The seeded part's parameters; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan_map":
        kind, (n, kappa) = rng.choice([(kind, s) for kind in SCAN_STATES
                                       for s in SCAN_STATES[kind]])
        return {"kind": kind, "n": n, "kappa": kappa,
                "H": round(rng.uniform(0.0, 6.0), 4),
                "delta": round(rng.uniform(0.02, 0.2), 4)}
    if workload == "tables_spinors":
        # AC-10's potential (V0 = A = B = 2) and scan states.  The bound
        # region is not the whole box, so draw until the independent
        # reference finds every table query bound.
        while True:
            H = round(rng.uniform(0.0, 6.0), 4)
            c = round(rng.uniform(5.0, 8.0), 4)
            if all(refsolve.table_root(kind, 2.0, 2.0, 2.0, 0.05, h, M,
                                       c if kind == "spin" else -c,
                                       n, k)[0] is not None
                   for kind in SCAN_STATES for n, k in SCAN_STATES[kind]
                   for h in _h_pair(H)):
                return {"H": H, "C": c}
    if workload == "oracle_check":
        # The spin check compares with a positive-branch closed-form root,
        # so draw until one exists.
        while True:
            n = rng.choice([0, 1])
            kappa = rng.choice([-3, -2, -1, 1, 2])
            H = round(rng.uniform(0.0, 5.0), 4)
            C = round(rng.uniform(5.0, 8.0), 4)
            if refsolve.positive_branch_roots("spin", 2.0, 1.0, 1.0, 0.05, H,
                                              M, C, n, kappa):
                break
        pn, pk = rng.choice([(1, -1), (2, -1)])
        return {"spin": {"n": n, "kappa": kappa, "H": H, "C": C},
                "pseudo": {"n": pn, "kappa": pk,
                           "H": rng.choice([0.0, 5.0]), "C": -5.0}}
    raise ValueError(f"unknown workload {workload!r}")


def _h_pair(H):
    """The two tensor strengths `spectra table` tabulates for a given H."""
    return (0.0, H if H != 0.0 else 5.0)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

def requests(workload: str, inputs: dict, outdir: str, tiny: bool) -> list:
    """One pass: (name, kind, payload) with kind 'cli' or 'oracle'."""
    paper = os.path.join(outdir, "paper")
    seeded = os.path.join(outdir, "seeded")
    if workload == "scan_map":
        grid = TINY_SCAN_GRID if tiny else ()
        out = [(f"scan_{kind}", "cli",
                ["scan", *PRESET, "--symmetry", kind, "--out", paper, *grid])
               for kind in SCAN_STATES]
        out.append(("scan_seeded", "cli",
                    ["scan", *PRESET, "--symmetry", inputs["kind"],
                     "--states", f"{inputs['n']},{inputs['kappa']}",
                     "--H", repr(inputs["H"]),
                     "--delta", repr(inputs["delta"]),
                     "--out", seeded,
                     *(grid if tiny else SEEDED_SCAN_GRID)]))
        return out
    if workload == "tables_spinors":
        out = []
        for kind in SCAN_STATES:
            table = table_states(kind)[:2] if tiny else table_states(kind)
            sweep = sweep_states(kind)[:2] if tiny else sweep_states(kind)
            base = [*PRESET, "--symmetry", kind, "--out", paper]
            out += [(f"table_{kind}", "cli",
                     ["table", *base, "--states", states_arg(table)]),
                    (f"sweep_{kind}", "cli",
                     ["sweep", *base, "--states", states_arg(sweep)]),
                    (f"wavefunction_{kind}", "cli",
                     ["wavefunction", *base, "--states", states_arg(table)])]
        for kind in SCAN_STATES:
            c = inputs["C"] if kind == "spin" else -inputs["C"]
            base = [*PRESET, "--symmetry", kind, "--V0", "2", "--A", "2",
                    "--B", "2", "--H", repr(inputs["H"]), "--C", repr(c),
                    "--states", states_arg(SCAN_STATES[kind]),
                    "--out", seeded]
            out += [(f"{cmd}_{kind}_seeded", "cli", [cmd, *base])
                    for cmd in ("table", "sweep", "wavefunction")]
        return out
    if workload == "oracle_check":
        verify = ["verify", *PRESET] + (["--oracle", "off"] if tiny else [])
        return [("verify", "cli", verify),
                ("dirac_spin", "oracle", ("spin", inputs["spin"])),
                ("dirac_pseudospin", "oracle",
                 ("pseudospin", inputs["pseudo"]))]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up_request(workload: str, outdir: str):
    """One small untimed request through the workload's main entry point."""
    if workload == "scan_map":
        return ("warm_up", "cli",
                ["scan", *PRESET, "--states", "0,-2", "--v0-start", "1",
                 "--v0-stop", "1", "--c-start", "5", "--c-stop", "5",
                 "--out", outdir])
    if workload == "tables_spinors":
        return ("warm_up", "cli",
                ["wavefunction", *PRESET, "--states", "0,1", "--out", outdir])
    return ("warm_up", "cli", ["verify", *PRESET, "--oracle", "off"])


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

class Tally:
    """Checked operations and the failures among them.

    A failure carries `known` when it belongs to a documented defect class
    of the program; every other failure makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.max_norm_err = 0.0

    def check(self, ok: bool, part: str, what: str, known=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append({"part": part, "what": what,
                                  "known": known})

    def absorb_pass(self, other: "Tally") -> None:
        """Fold in the tally of one more pass of the same requests.

        Every pass sends the same requests, so `attempted` stays the
        operations of one pass and a failure counts once however many
        passes show it: the counts depend on the inputs, not on how many
        passes fitted into the measured time.
        """
        self.attempted = max(self.attempted, other.attempted)
        self.failures += [f for f in other.failures
                          if f not in self.failures]
        self.max_norm_err = max(self.max_norm_err, other.max_norm_err)

    @property
    def correct(self) -> bool:
        return all(f["known"] for f in self.failures)


def digests(outdir: str) -> dict:
    """SHA-256 of every file under outdir, keyed by relative path."""
    out = {}
    for root, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, outdir)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def load_reference(name: str):
    with open(os.path.join(REFERENCE_DIR, name)) as fh:
        return json.load(fh)


def _cell(text: str):
    return None if text == "NA" else float(text)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _label(n, kappa):
    l = int(abs(kappa + 0.5) - 0.5)
    return f"{n}{'spdfghik'[l]}{2 * abs(kappa) - 1}/2"


def _file_label(n, kappa):
    return _label(n, kappa).replace("/", "-")


def check_energy(tally, part, what, got, ref, hard):
    """A solved energy (None = unbound) against the reference energy."""
    ok = (got is None) == (ref is None) and \
        (got is None or abs(got - ref) <= TOL_E)
    # the known defect loses roots; it never invents one
    known = GRID_MISS if hard and ref is not None else None
    tally.check(ok, part, f"{what}: got {got}, reference {ref}", known)


def count_nodes(values):
    """Sign changes, ignoring samples rounded to within 1e-6 of zero."""
    values = np.asarray(values)
    keep = values[np.abs(values) > 1e-6 * np.max(np.abs(values))]
    return int(np.count_nonzero(np.signbit(keep[1:])
                                != np.signbit(keep[:-1])))


class Checker:
    """Checks one workload's passes; file verdicts are cached by digest."""

    def __init__(self, workload: str, inputs: dict, tiny: bool):
        self.workload = workload
        self.inputs = inputs
        self.tiny = tiny
        self._cache: dict = {}
        self._scan_ref = None
        self._tables_ref = None

    # -- pass level ---------------------------------------------------------

    def check_pass(self, tally: Tally, outdir: str, results: list,
                   files: dict) -> None:
        for name, outcome in results:
            if outcome["kind"] == "cli":
                tally.check(outcome["rc"] == 0, "requests",
                            f"{name}: exit code {outcome['rc']}, "
                            f"error {outcome['error']}",
                            self._missed_root(name, outcome["rc"]))
        for rel, digest in files.items():
            key = (rel, digest)
            if key not in self._cache:
                sub = Tally()
                self._check_file(sub, os.path.join(outdir, rel), rel)
                self._cache[key] = sub
            sub = self._cache[key]
            tally.attempted += sub.attempted
            tally.failures += sub.failures
            tally.max_norm_err = max(tally.max_norm_err, sub.max_norm_err)
        if self.workload == "tables_spinors":
            self._check_pseudo_flagged(tally, outdir)
        if self.workload == "oracle_check":
            outcomes = dict(results)
            self.check_verify(tally, outcomes["verify"])
            self.check_oracle_spin(tally, outcomes["dirac_spin"])
            self.check_oracle_pseudo(tally, outcomes["dirac_pseudospin"])

    def _missed_root(self, name, rc):
        """GRID_MISS when a seeded table or wavefunction request exited
        with "no bound state" (2) for a state whose reference root a grid
        scan cannot resolve; None otherwise."""
        cmd, _, rest = name.partition("_")
        kind = rest.removesuffix("_seeded")
        if rc != 2 or self.workload != "tables_spinors" \
                or not rest.endswith("_seeded") \
                or cmd not in ("table", "wavefunction"):
            return None
        V0, A, B, H, C = self._params("seeded", kind)
        hs = _h_pair(H) if cmd == "table" else (H,)
        hard = any(refsolve.table_root(kind, V0, A, B, PAPER["delta"], h, M,
                                       C, n, kappa)[1]
                   for n, kappa in SCAN_STATES[kind] for h in hs)
        return GRID_MISS if hard else None

    def _check_file(self, tally, path, rel):
        part, name = rel.split(os.sep, 1)
        stem = os.path.splitext(name)[0]
        if stem.startswith("scan_"):
            self.check_scan(tally, path, part, stem)
        elif stem.startswith("table_"):
            self.check_table(tally, path, part, stem.split("_")[1])
        elif stem.startswith("sweep_"):
            self.check_sweep(tally, path, part, stem.split("_")[1])
        elif stem.startswith("wavefunction_"):
            self.check_wavefunction(tally, path, part, stem)
        else:
            tally.check(False, part, f"unexpected output file {rel}")

    # -- scan_map -------------------------------------------------------------

    def check_scan(self, tally, path, part, stem):
        header, rows = _read_csv(path)
        if part == "paper":
            if self._scan_ref is None:
                self._scan_ref = load_reference("scan_paper.json")
            ref = self._scan_ref[stem]
            kind, n, kappa = ref["kind"], ref["n"], ref["kappa"]
            H, delta = PAPER["H"], PAPER["delta"]
            col = {v: i for i, v in enumerate(ref["v0"])}
            row_of = {c: i for i, c in enumerate(ref["c"])}
        else:
            kind, n, kappa = (self.inputs[k] for k in ("kind", "n", "kappa"))
            H, delta = self.inputs["H"], self.inputs["delta"]
        for row in rows:
            c = float(row[0])
            for v0_text, text in zip(header[1:], row[1:]):
                v0 = float(v0_text)
                if v0 == 0.0:
                    # the CLI leaves the V0 = 0 column unbound by convention
                    tally.check(text == "NA", part, f"{stem} V0=0 C={c:g}")
                    continue
                if part == "paper":
                    expected = ref["E"][row_of[row[0]]][col[v0_text]]
                    hard = False
                    if expected is not None and (
                            text == "NA" or abs(float(text) - expected)
                            > TOL_E):
                        hard = refsolve.table_root(
                            kind, v0, v0, v0, delta, H, M, c, n, kappa)[1]
                else:
                    expected, hard = refsolve.table_root(
                        kind, v0, v0, v0, delta, H, M, c, n, kappa)
                check_energy(tally, part, f"{stem} C={c:g} V0={v0:g}",
                             _cell(text), expected, hard)

    # -- tables_spinors -------------------------------------------------------

    def _params(self, part, kind):
        """(V0, A, B, H, C) of a tables_spinors part and limit."""
        if part == "paper":
            return (PAPER["V0"], PAPER["A"], PAPER["B"], PAPER["H"],
                    PAPER_C[kind])
        c = self.inputs["C"]
        return 2.0, 2.0, 2.0, self.inputs["H"], c if kind == "spin" else -c

    def _tables(self):
        if self._tables_ref is None:
            self._tables_ref = load_reference("tables.json")
        return self._tables_ref

    def check_table(self, tally, path, part, kind):
        header, rows = _read_csv(path)
        V0, A, B, H, C = self._params(part, kind)
        h_pair = _h_pair(H)
        exempt = {tuple(x) for x in self._tables()["pseudo_h0_exempt"]}
        frozen = {tuple(x[:2]): x[2:] for x in self._tables()[kind]}
        for row in rows:
            n, kappa = int(row[1]), int(row[2])
            for h, text, i in zip(h_pair, row[4:6], (0, 1)):
                what = f"table {kind} {row[3]} H={h:g}"
                if part == "paper":
                    if kind == "pseudospin" and h == 0.0 \
                            and (n, kappa) in exempt:
                        continue    # checked by _check_pseudo_flagged
                    check_energy(tally, part, what, _cell(text),
                                 frozen[(n, kappa)][i], False)
                else:
                    ref, hard = refsolve.table_root(
                        kind, V0, A, B, PAPER["delta"], h, M, C, n, kappa)
                    check_energy(tally, part, what, _cell(text), ref, hard)

    def _check_pseudo_flagged(self, tally, outdir):
        """AC-2's suspected-typo cells: computed H=0 energies monotone in n.

        The reference table repeats the previous radial level in these
        cells, so they are not compared with it; each family of four
        radial levels must instead be strictly monotone, as in AC-2.
        """
        path = os.path.join(outdir, "paper", "table_pseudospin.csv")
        if not os.path.exists(path):
            return
        _, rows = _read_csv(path)
        e0 = {(int(r[1]), int(r[2])): _cell(r[4]) for r in rows}
        for lt in (1, 2, 3, 4):
            for family in ([(i + 1, -lt) for i in range(4)],
                           [(i, lt + 1) for i in range(4)]):
                if not all(key in e0 for key in family):
                    continue
                seq = [e0[key] for key in family]
                ok = None not in seq and (
                    all(b < a for a, b in zip(seq, seq[1:]))
                    or all(b > a for a, b in zip(seq, seq[1:])))
                tally.check(ok, "paper",
                            f"pseudospin H=0 family {family} monotone")

    def check_sweep(self, tally, path, part, kind):
        header, rows = _read_csv(path)
        V0, A, B, H, C = self._params(part, kind)
        if part == "paper":
            states = sweep_states(kind)[:len(header) - 1]
        else:
            states = SCAN_STATES[kind]
        for row in rows:
            delta = float(row[0])
            for (n, kappa), text in zip(states, row[1:]):
                if delta <= 0.0:
                    ref, hard = None, False
                else:
                    ref, hard = refsolve.table_root(kind, V0, A, B, delta,
                                                    H, M, C, n, kappa)
                check_energy(tally, part,
                             f"sweep {kind} {_label(n, kappa)} "
                             f"delta={delta:g}", _cell(text), ref, hard)

    def check_wavefunction(self, tally, path, part, stem):
        _, kind, label = stem.split("_", 2)
        states = table_states(kind) if part == "paper" else SCAN_STATES[kind]
        n, kappa = next(s for s in states if _file_label(*s) == label)
        _, rows = _read_csv(path)
        data = np.array(rows, dtype=float)
        solved = data[:, 1 if kind == "spin" else 2]
        norm = float(np.trapezoid(solved ** 2, data[:, 0]))
        tally.max_norm_err = max(tally.max_norm_err, abs(norm - 1.0))
        tally.check(abs(norm - 1.0) <= TOL_NORM, part,
                    f"{stem}: |norm - 1| = {abs(norm - 1.0):.2e}")
        nodes = count_nodes(solved)
        degree = refsolve.poly_degree(n, kappa, kind)
        tally.check(nodes == degree, part,
                    f"{stem}: {nodes} nodes, polynomial degree {degree}")

    # -- oracle_check ---------------------------------------------------------

    def check_verify(self, tally, outcome):
        suites = {}
        for line in outcome["stdout"].splitlines():
            name, _, rest = line.partition(": ")
            suites[name] = rest.split(" ", 1)[0]
        expected = ("quantization-equivalence", "degeneracy", "dual-path",
                    "oracle-health", "normalization", "verify")
        for name in expected:
            status = suites.get(name)
            ok = status == "PASS" or (
                self.tiny and name == "oracle-health" and status == "SKIPPED")
            tally.check(ok, "paper", f"verify suite {name}: {status}")

    def check_oracle_spin(self, tally, outcome):
        s = self.inputs["spin"]
        what = (f"dirac_eigenvalue spin n={s['n']} kappa={s['kappa']} "
                f"H={s['H']} C={s['C']}")
        result = outcome.get("result")
        if result is None:
            tally.check(False, "seeded", f"{what}: {outcome.get('error')}")
            return
        roots = refsolve.positive_branch_roots(
            "spin", 2.0, 1.0, 1.0, 0.05, s["H"], M, s["C"], s["n"],
            s["kappa"])
        ref = min(roots, key=abs)
        gap = abs(result["E"] - ref)
        tally.check(result["converged"], "seeded", f"{what}: not converged",
                    SILENT_NOT_CONVERGED)
        tally.check(gap <= TOL_ORACLE, "seeded",
                    f"{what}: E={result['E']!r} vs closed form {ref!r}")
        tally.check(result["node_count"] == s["n"], "seeded",
                    f"{what}: {result['node_count']} nodes, expected "
                    f"{s['n']}")

    def check_oracle_pseudo(self, tally, outcome):
        s = self.inputs["pseudo"]
        tally.check(outcome.get("error") == "NoEigenvalueError", "seeded",
                    f"dirac_eigenvalue pseudospin n={s['n']} "
                    f"kappa={s['kappa']} H={s['H']}: expected "
                    f"NoEigenvalueError, got "
                    f"{outcome.get('error') or outcome.get('result')}")


def files_changed(workload: str, files: dict, tiny: bool) -> int:
    """Paper-part output files whose bytes differ from the recorded ones."""
    recorded = load_reference("digests.json")[
        f"{workload}{'_tiny' if tiny else ''}"]
    paper = {k: v for k, v in files.items()
             if k.startswith("paper" + os.sep)}
    keys = set(recorded) | set(paper)
    return sum(recorded.get(k) != paper.get(k) for k in keys)


def positive_branch_gap(qn, sym, p, E):
    """|E - smallest-|E| positive-branch closed-form root|, or NaN."""
    roots = refsolve.positive_branch_roots(
        sym.kind, p.V0, p.A, p.B, p.delta, p.H, p.M, sym.constant, qn.n,
        qn.kappa)
    return abs(E - min(roots, key=abs)) if roots else math.nan
