"""diracbound benchmark: one run of one workload.

  python3 perfbench/run.py --workload scan_map --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run starts fresh worker processes (worker.py) with the BLAS
and OpenMP thread counts set to 1: SETUP_PROBES that only set up, for the
set-up time, then the workload process itself.  It prints a readable
summary, writes a run record under .perfbench/runs/, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  --tiny shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def start_worker(argv: list, deadline: float):
    """Start a worker and wait for its `ready` line.

    Returns (process, seconds from start to ready).
    """
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready" or time.perf_counter() > deadline:
        finish(proc, deadline)
        raise RuntimeError(f"worker failed during set-up: {line!r}")
    return proc, ready


def finish(proc, deadline: float) -> str:
    """Collect a worker's remaining output; kill it past the deadline."""
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the diracbound benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "diracbound")):
        print(f"run.py: no diracbound sources under {ROOT}/src; run from "
              f"the root of a source checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    deadline = time.perf_counter() + TIME_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" \
          f"{'-tiny' if args.tiny else ''}"
    state = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(state, f"work-{os.getpid()}")
    records = os.path.join(state, "runs")
    os.makedirs(records, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir] + (["--tiny"] if args.tiny else [])
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            proc, ready = start_worker(common + ["--setup-only"], deadline)
            finish(proc, deadline)
            setup.append(ready)
        proc, ready = start_worker(
            common + ["--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--spans", os.path.join(records, f"{tag}-spans.jsonl")],
            deadline)
        setup.append(ready)
        out = finish(proc, deadline)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])

    walls = result["walls"]
    w_q = quartiles(walls)
    s_q = quartiles(setup)
    failed = len(result["failures"])
    end_to_end = {"wall_s": w_q[1], "setup_s": s_q[1],
                  "peak_rss_mb": result["peak_rss_mb"]}
    if args.trace:
        values = result["layers"]
        names = spec["per_layer"]
    else:
        values = end_to_end
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}

    print(f"workload {args.workload}, seed {args.seed}, "
          f"inputs {json.dumps(result['inputs'])}")
    print(f"wall_s      median {w_q[1]:.4f} s, quartiles "
          f"{w_q[0]:.4f}-{w_q[2]:.4f} s over {len(walls)} passes")
    print(f"setup_s     median {s_q[1]:.4f} s, quartiles "
          f"{s_q[0]:.4f}-{s_q[2]:.4f} s over {len(setup)} set-ups")
    print(f"peak_rss_mb {result['peak_rss_mb']:.1f} MB")
    print(f"failed_frac {failed / result['attempted']:.6f} ratio "
          f"({failed} of {result['attempted']} checked operations per pass)")
    for f in result["failures"]:
        print(f"  FAILED [{f['part']}] {f['what']}"
              + (f" -- known: {f['known']}" if f["known"] else ""))
    print(f"cli.files_changed {result['files_changed']} "
          f"(paper outputs differing from the recorded digests)")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:42s} {m['value']:.6g} {m['unit']}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "machine": machine(),
              "numpy": result["numpy"], "diracbound": result["diracbound"],
              "inputs": result["inputs"],
              "sizes": {"requests_per_pass": result["requests"],
                        "passes": len(walls),
                        "checked_operations": result["attempted"]},
              "walls_s": walls, "setup_s": setup,
              "failures": result["failures"],
              "digests": result["digests"],
              "deterministic_outputs": result["deterministic"],
              "files_changed": result["files_changed"],
              "metrics": metrics}
    with open(os.path.join(records, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
