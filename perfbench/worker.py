"""One workload process: set up, measure passes, check, optionally trace.

run.py starts this in a fresh interpreter with the BLAS and OpenMP thread
counts set to 1 and times its set-up from outside: the process prints
`ready` once diracbound is imported, the inputs are generated and one
untimed warm-up request has run.  With --setup-only it stops there.
Otherwise it runs passes of the workload until --seconds of measured time
would be exceeded (at least one pass), checks every pass's outputs, and
with --trace 1 runs one more pass with spans recorded.  `attempted` counts
the checked operations of one pass and `failures` the distinct ones that
failed in any pass, so neither depends on how many passes fitted.  The last line of
its output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import diracbound  # noqa: E402
from diracbound import cli, oracle, potentials, spectra  # noqa: E402

import workloads  # noqa: E402
from tracing import DETAIL, END, NAME, START, Tracer  # noqa: E402


def execute(request, tracer=None) -> dict:
    """Run one request; the package is looked up at call time so that the
    tracer's wrappers, when installed, are the functions called."""
    name, kind, payload = request
    if tracer:
        tracer.begin_request(name)
    try:
        if kind == "cli":
            out = io.StringIO()
            rc, error = None, None
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(list(payload))
            except SystemExit as exc:
                rc, error = exc.code, "SystemExit"
            except Exception as exc:  # a crashed request is a failed one
                error = f"{type(exc).__name__}: {exc}"
            return {"kind": "cli", "rc": rc, "stdout": out.getvalue(),
                    "error": error}
        sym_kind, s = payload
        try:
            r = oracle.dirac_eigenvalue(
                spectra.QuantumNumbers(s["n"], s["kappa"]),
                potentials.SymmetryLimit(sym_kind, s["C"]),
                potentials.PotentialParams(V0=2.0, A=1.0, B=1.0, delta=0.05,
                                           H=s["H"], M=workloads.M))
        except Exception as exc:  # NoEigenvalueError is expected for one
            return {"kind": "oracle", "result": None,
                    "error": type(exc).__name__}
        return {"kind": "oracle", "error": None,
                "result": {"E": r.E, "converged": r.converged,
                           "node_count": r.node_count,
                           "outer_iters": r.outer_iters}}
    finally:
        if tracer:
            tracer.end_request()


def run_pass(workload, inputs, outdir, tiny, tracer=None):
    reqs = workloads.requests(workload, inputs, outdir, tiny)
    started = time.perf_counter()
    results = [(r[0], execute(r, tracer)) for r in reqs]
    return time.perf_counter() - started, results


def _quantile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, tally, files_changed: int,
                  bytes_out: int) -> dict:
    """Per-layer metrics of one traced pass, from its spans."""
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def total(ids):
        return sum(tracer.spans[i][END] - tracer.spans[i][START] for i in ids)

    def self_s(ids):
        return sum(own[i] for i in ids)

    def durations(ids, scale):
        return [scale * (tracer.spans[i][END] - tracer.spans[i][START])
                for i in ids]

    def residuals(layer):
        return [n for n in by_name
                if n.startswith(layer + ".") and "residual" in n]

    m = {}
    for cmd in ("table", "sweep", "scan", "wavefunction", "verify"):
        m[f"cli.{cmd}.s"] = total(idx(f"cli.cmd_{cmd}"))
    writes = idx("cli.write_rows")
    m["cli.write_rows.calls"] = len(writes)
    m["cli.write_rows.s"] = total(writes)
    m["cli.bytes_out"] = bytes_out
    m["cli.files_changed"] = files_changed

    levels = idx("spectra.solve_levels")
    details = [tracer.spans[i][DETAIL] for i in levels]
    returned = [d for d in details if d[3] is None]
    # a call repeats an earlier one when its bound arguments, defaults
    # filled in, are equal
    signature = inspect.signature(spectra.solve_levels)
    seen, repeats = set(), 0
    for args, kwargs, _, _ in details:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = repr(tuple(bound.arguments.values()))
        repeats += key in seen
        seen.add(key)
    m["spectra.solve_levels.calls"] = len(levels)
    m["spectra.solve_levels.ms_p50"] = _quantile(durations(levels, 1e3), 50)
    m["spectra.solve_levels.ms_p99"] = _quantile(durations(levels, 1e3), 99)
    m["spectra.solve_levels.self_s"] = self_s(levels)
    m["spectra.roots_per_call"] = (
        sum(len(d[2]) for d in returned) / len(returned) if returned else 0.0)
    m["spectra.unbound_frac"] = (
        sum(not any(r.sign_ok for r in d[2]) for d in returned)
        / len(returned) if returned else 0.0)
    m["spectra.repeat_frac"] = repeats / len(levels) if levels else 0.0

    waves = idx("wavefunctions.solve_wavefunction")
    m["wavefunctions.solve_wavefunction.calls"] = len(waves)
    m["wavefunctions.solve_wavefunction.ms_p50"] = _quantile(
        durations(waves, 1e3), 50)
    m["wavefunctions.solve_wavefunction.self_s"] = self_s(waves)
    m["wavefunctions.samples"] = sum(
        len(tracer.spans[i][DETAIL][2].samples) for i in waves
        if tracer.spans[i][DETAIL][3] is None)
    m["wavefunctions.max_norm_err"] = tally.max_norm_err

    dirac = idx("oracle.dirac_eigenvalue")
    results = []
    for i in dirac:
        args, kwargs, result, exc = tracer.spans[i][DETAIL]
        if exc is None:
            results.append((args, result))
    gaps = [workloads.positive_branch_gap(a[0], a[1], a[2], r.E)
            for a, r in results]
    gaps = [g for g in gaps if np.isfinite(g)]
    m["oracle.dirac_eigenvalue.calls"] = len(dirac)
    m["oracle.dirac_eigenvalue.s_p50"] = _quantile(durations(dirac, 1.0), 50)
    m["oracle.dirac_eigenvalue.self_s"] = self_s(dirac)
    schrod = idx("oracle.schrodinger_eigenvalue")
    m["oracle.schrodinger_eigenvalue.calls"] = len(schrod)
    m["oracle.schrodinger_eigenvalue.self_s"] = self_s(schrod)
    m["oracle.outer_iters"] = sum(r.outer_iters for _, r in results)
    m["oracle.no_eigenvalue"] = sum(
        type(tracer.spans[i][DETAIL][3]).__name__ == "NoEigenvalueError"
        for i in dirac)
    m["oracle.converged_frac"] = (
        sum(r.converged for _, r in results) / len(results)
        if results else 0.0)
    m["oracle.max_abs_err"] = max(gaps, default=0.0)

    effective = idx("potentials.effective_potential")
    m["potentials.effective_potential.calls"] = len(effective)
    m["potentials.effective_potential.self_s"] = self_s(effective)
    for layer in ("susyqm", "limits"):
        ids = idx(*residuals(layer))
        m[f"{layer}.residual.calls"] = len(ids)
        m[f"{layer}.residual.self_s"] = self_s(ids)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the traced pass's spans here")
    args = parser.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    warm = os.path.join(args.workdir, "warm_up")
    execute(workloads.warm_up_request(args.workload, warm))
    shutil.rmtree(warm, ignore_errors=True)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    walls, passes = [], []
    while not walls or sum(walls) + statistics.median(walls) <= args.seconds:
        outdir = os.path.join(args.workdir, f"pass{len(walls)}")
        wall, results = run_pass(args.workload, inputs, outdir, args.tiny)
        walls.append(wall)
        passes.append((outdir, results))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally = workloads.Tally()
    checker = workloads.Checker(args.workload, inputs, args.tiny)
    files = None
    deterministic = True

    def check(outdir, results):
        nonlocal files, deterministic
        found = workloads.digests(outdir)
        one = workloads.Tally()
        checker.check_pass(one, outdir, results, found)
        tally.absorb_pass(one)
        if files is None:
            files = found
        deterministic = deterministic and found == files
        size = sum(os.path.getsize(os.path.join(outdir, rel))
                   for rel in found)
        shutil.rmtree(outdir, ignore_errors=True)
        return found, size

    for outdir, results in passes:
        check(outdir, results)
    changed = workloads.files_changed(args.workload, files, args.tiny)

    layers = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            outdir = os.path.join(args.workdir, "traced")
            traced_wall, results = run_pass(args.workload, inputs, outdir,
                                            args.tiny, tracer)
        finally:
            tracer.uninstall()
        traced_files, bytes_out = check(outdir, results)
        layers = layer_metrics(
            tracer, tally,
            workloads.files_changed(args.workload, traced_files, args.tiny),
            bytes_out)
        layers["trace_overhead_frac"] = \
            traced_wall / statistics.median(walls) - 1.0
        if args.spans:
            tracer.write(args.spans)

    print(json.dumps({
        "walls": walls,
        "peak_rss_mb": rss_mb,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "correct": tally.correct,
        "inputs": inputs,
        "requests": len(workloads.requests(args.workload, inputs, "",
                                           args.tiny)),
        "digests": files,
        "deterministic": deterministic,
        "files_changed": changed,
        "numpy": np.__version__,
        "diracbound": getattr(diracbound, "__version__", None),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
