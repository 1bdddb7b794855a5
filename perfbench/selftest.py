"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It

1. runs every workload in --tiny mode, untraced and traced, and asserts
   that the result line has the contract's keys, that every end-to-end or
   per-layer metric of BENCHMARK.json is emitted, that `attempted` and
   `failed` do not depend on the number of passes, and that the tiny scan
   flags exactly the two known missed cells of the paper panel;
2. perturbs each kind of output on purpose (scan, table and sweep energies,
   spinor norm and nodes, verify verdicts and exit codes, oracle energy,
   convergence and node count, the expected NoEigenvalueError) and asserts
   that the matching check flags it;
3. asserts that cli.files_changed sees a changed output file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Checker, Tally  # noqa: E402

KNOWN_CELLS = {"scan_spin_0p3-2 C=9.5 V0=17", "scan_spin_0p3-2 C=9.5 V0=19.5"}


def run_tiny(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_contract(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        counts = set()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(workload, trace)
            # the traced run checks one pass more; the counts must not move
            counts.add((result["attempted"], result["failed"]))
            assert len(counts) == 1, (workload, counts)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["attempted"] >= 1 and result["correct"], result
            names = [m["name"] for m in spec[key]]
            assert list(result["metrics"]) == names, \
                set(names) ^ set(result["metrics"])
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            with open(os.path.join(
                    ROOT, ".perfbench", "runs",
                    f"{workload}-seed1-trace{trace}-tiny.json")) as fh:
                failures = json.load(fh)["failures"]
            paper = {f["what"].split(":")[0] for f in failures
                     if f["part"] == "paper"}
            if workload == "scan_map":
                assert paper == KNOWN_CELLS, paper
                assert all(f["known"] for f in failures)
            else:
                assert not paper, paper
            print(f"ok  {workload} trace={trace}: "
                  f"{len(result['metrics'])} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")


def tiny_outputs(workload: str, outdir: str):
    inputs = workloads.make_inputs(workload, 1)
    shutil.rmtree(outdir, ignore_errors=True)
    results = [(r[0], worker.execute(r)) for r in
               workloads.requests(workload, inputs, outdir, True)]
    return inputs, results


def new_failures(checker, path, rel, mutate) -> int:
    """Failures a file check adds after `mutate` edits the file's text."""
    with open(path, newline="") as fh:
        original = fh.read()
    base = Tally()
    checker._check_file(base, path, rel)
    with open(path, "w", newline="") as fh:
        fh.write(mutate(original))
    try:
        bad = Tally()
        checker._check_file(bad, path, rel)
    finally:
        with open(path, "w", newline="") as fh:
            fh.write(original)
    return len(bad.failures) - len(base.failures)


def edit_last_energy(text: str, edit):
    """Apply edit to the last energy cell of the first row that has one;
    None when the file holds no energy (an all-unbound panel)."""
    lines = text.split("\r\n")
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[-1] not in ("NA", ""):
            cells[-1] = edit(cells[-1])
            lines[i] = ",".join(cells)
            return "\r\n".join(lines)
    return None


def edit_column(text: str, col: int, edit) -> str:
    """Replace column col of every data row by edit(values)."""
    lines = text.split("\r\n")
    body = [i for i in range(1, len(lines)) if lines[i]]
    values = edit([float(lines[i].split(",")[col]) for i in body])
    for i, v in zip(body, values):
        cells = lines[i].split(",")
        cells[col] = f"{v:.8f}"
        lines[i] = ",".join(cells)
    return "\r\n".join(lines)


def flip_after_peak(values):
    """Negate every sample beyond the largest one: adds one node."""
    peak = max(range(len(values)), key=lambda i: abs(values[i]))
    return values[:peak + 1] + [-v for v in values[peak + 1:]]


def check_perturbations() -> None:
    scratch = os.path.join(ROOT, ".perfbench", "selftest")
    try:
        cases = []
        for workload in ("scan_map", "tables_spinors"):
            outdir = os.path.join(scratch, workload)
            inputs, results = tiny_outputs(workload, outdir)
            checker = Checker(workload, inputs, True)
            clean = Tally()
            checker.check_pass(clean, outdir, results,
                               workloads.digests(outdir))
            assert clean.correct, clean.failures
            for rel in workloads.digests(outdir):
                path = os.path.join(outdir, rel)
                stem = os.path.basename(rel)
                with open(path, newline="") as fh:
                    has_energy = edit_last_energy(fh.read(), str) is not None
                if stem.startswith(("scan_", "table_", "sweep_")) \
                        and has_energy:
                    cases += [(rel, "energy +1e-5", checker, path,
                               lambda t: edit_last_energy(
                                   t, lambda c: f"{float(c) + 1e-5:.8f}")),
                              (rel, "energy -> NA", checker, path,
                               lambda t: edit_last_energy(t, lambda c: "NA"))]
                elif stem.startswith("wavefunction_spin"):
                    cases += [(rel, "norm x1.01", checker, path,
                               lambda t: edit_column(
                                   t, 1, lambda v: [1.01 * x for x in v])),
                              (rel, "extra node", checker, path,
                               lambda t: edit_column(t, 1, flip_after_peak))]
        kinds = {os.path.basename(c[0]).split("_")[0] for c in cases}
        assert kinds == {"scan", "table", "sweep", "wavefunction"}, kinds
        for rel, what, checker, path, mutate in cases:
            added = new_failures(checker, path, rel, mutate)
            assert added >= 1, f"{rel}: {what} not flagged"
            print(f"ok  {rel}: {what} flagged")
        for workload in ("scan_map", "tables_spinors"):
            outdir = os.path.join(scratch, workload)
            found = workloads.digests(outdir)
            assert workloads.files_changed(workload, found, True) == 0
            paper = next(r for r in found if r.startswith("paper"))
            with open(os.path.join(outdir, paper), "a") as fh:
                fh.write("\r\n")
            assert workloads.files_changed(
                workload, workloads.digests(outdir), True) == 1
            print(f"ok  {workload}: files_changed sees an edited output")
        check_oracle_perturbations()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_oracle_perturbations() -> None:
    inputs = workloads.make_inputs("oracle_check", 1)
    checker = Checker("oracle_check", inputs, False)
    s = inputs["spin"]
    E = min(workloads.refsolve.positive_branch_roots(
        "spin", 2.0, 1.0, 1.0, 0.05, s["H"], workloads.M, s["C"], s["n"],
        s["kappa"]), key=abs)
    good = {
        "verify": {"kind": "cli", "rc": 0, "error": None, "stdout": "\n".join(
            f"{name}: PASS (detail)" for name in (
                "quantization-equivalence", "degeneracy", "dual-path",
                "oracle-health", "normalization", "verify"))},
        "dirac_spin": {"kind": "oracle", "error": None, "result": {
            "E": E, "converged": True, "node_count": s["n"],
            "outer_iters": 28}},
        "dirac_pseudospin": {"kind": "oracle", "result": None,
                             "error": "NoEigenvalueError"},
    }

    def failures(name=None, **change):
        outcomes = json.loads(json.dumps(good))
        if name == "dirac_pseudospin":
            outcomes[name] = {"kind": "oracle", "error": None,
                              "result": {"E": -0.25}}
        elif name:
            target = outcomes[name].get("result") or outcomes[name]
            target.update(change)
        tally = Tally()
        checker.check_pass(tally, "", list(outcomes.items()), {})
        return len(tally.failures)

    assert failures() == 0
    verify_fail = good["verify"]["stdout"].replace("degeneracy: PASS",
                                                   "degeneracy: FAIL")
    perturbed = {
        "verify suite FAIL": failures("verify", stdout=verify_fail),
        "verify exit code 3": failures("verify", rc=3),
        "oracle energy +1e-3": failures("dirac_spin", E=E + 1e-3),
        "oracle not converged": failures("dirac_spin", converged=False),
        "oracle node count": failures("dirac_spin", node_count=s["n"] + 1),
        "pseudospin bound state": failures("dirac_pseudospin"),
    }
    for what, count in perturbed.items():
        assert count >= 1, f"{what} not flagged"
        print(f"ok  oracle_check: {what} flagged")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_perturbations()
    check_contract(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
