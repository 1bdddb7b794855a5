"""Regenerate the benchmark's frozen references in perfbench/reference/.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  It writes:

scan_paper.json  The selected energy of every cell of the four paper scan
                 panels (both limits, preset grid), from refsolve's exact
                 root enumeration.  Every stored root is confirmed by a
                 sign change of the residual across E +- 1e-9 evaluated
                 with mpmath at 40 digits.
tables.json      The benchmark tables (AC-1, AC-2) and AC-2's suspected
                 transcription cells, copied from tests/reference_data.py.
digests.json     SHA-256 of every paper-part output file of each workload,
                 full and --tiny, as the current program writes them.
                 cli.files_changed counts differences from these, so
                 regenerate them only at a commit whose outputs are meant
                 to be the baseline.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import sys

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refsolve  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

OUT = workloads.REFERENCE_DIR


def grid(start, stop, step):
    count = int(round((stop - start) / step))
    return [round(start + i * step, 10) for i in range(count + 1)]


def confirmed(E, args) -> bool:
    """Sign change of the residual across E +- 1e-9 at 40 digits."""
    mpmath.mp.dps = 40
    lhs, alpha2, D, lam, m = refsolve._pieces(*args)
    delta = mpmath.mpf(args[4])
    const = lam + 0.5 + m * (m + 1.0)

    def g(x):
        t = mpmath.sqrt(D[0] + D[1] * x)
        q = (alpha2[0] + alpha2[1] * x - const - (2 * m + 1) * t) \
            / (m + mpmath.mpf(0.5) + t)
        return lhs[0] + lhs[1] * x + lhs[2] * x * x - delta ** 2 * q * q

    E = mpmath.mpf(E)
    return g(E - mpmath.mpf("1e-9")) * g(E + mpmath.mpf("1e-9")) < 0


def scan_reference() -> dict:
    p = workloads.PAPER
    v0s, cs = grid(0.0, 20.0, 0.5), grid(-20.0, 20.0, 0.5)
    out = {}
    for kind, states in workloads.SCAN_STATES.items():
        for n, kappa in states:
            rows = []
            for c in cs:
                row = []
                for v0 in v0s:
                    E = None
                    if v0 != 0.0:
                        args = (kind, v0, v0, v0, p["delta"], p["H"],
                                workloads.M, c, n, kappa)
                        E = refsolve.table_root(*args)[0]
                        if E is not None and not confirmed(E, args):
                            raise SystemExit(f"unconfirmed root {E} {args}")
                    row.append(None if E is None else round(E, 12))
                rows.append(row)
            stem = f"scan_{kind}_{workloads._file_label(n, kappa)}"
            out[stem] = {"kind": kind, "n": n, "kappa": kappa,
                         "v0": [f"{v:.8f}" for v in v0s],
                         "c": [f"{c:.8f}" for c in cs], "E": rows}
    return out


def tables_reference() -> dict:
    spec = importlib.util.spec_from_file_location(
        "reference_data", os.path.join(ROOT, "tests", "reference_data.py"))
    data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(data)
    return {"spin": [[n, k, *e] for (n, k), e in data.SPIN_TABLE.items()],
            "pseudospin": [[n, k, *e]
                           for (n, k), e in data.PSEUDO_TABLE.items()],
            "pseudo_h0_exempt": sorted(list(x)
                                       for x in data.PSEUDO_H0_EXEMPT)}


def paper_digests() -> dict:
    out = {}
    scratch = os.path.join(ROOT, ".perfbench", "make_reference")
    for workload in workloads.WORKLOADS:
        inputs = workloads.make_inputs(workload, 0)
        for tiny in (False, True):
            shutil.rmtree(scratch, ignore_errors=True)
            paper = os.path.join(scratch, "paper")
            for request in workloads.requests(workload, inputs, scratch,
                                              tiny):
                if paper in request[2]:
                    worker.execute(request)
            found = workloads.digests(scratch) \
                if os.path.isdir(scratch) else {}
            out[f"{workload}{'_tiny' if tiny else ''}"] = found
    shutil.rmtree(scratch, ignore_errors=True)
    return out


def write(name, payload, indent=None):
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(payload, fh, indent=indent, separators=(",", ":")
                  if indent is None else None)
        fh.write("\n")


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    write("tables.json", tables_reference(), indent=1)
    write("scan_paper.json", scan_reference())
    write("digests.json", paper_digests(), indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
