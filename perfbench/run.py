"""Benchmark entry point: one seeded workload run, end-to-end or traced.

    python3 perfbench/run.py --workload paper_scale --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it carries provenance and per-op details.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see README.md in this directory).

The measured work runs in a fresh interpreter (``worker.py``) with BLAS and
OpenMP pinned to one thread.  Set-up time is measured in that process and in
``SETUP_PROBES`` more fresh interpreters that stop after set-up, half of them
before the measured run and half after it; ``setup_s`` is the median.  The exit code is nonzero, and no result is printed, when
any process fails or the program cannot be imported from ``src/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_PROBES = 8
DEADLINE_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(args, extra, env, timeout):
    """Run worker.py to completion and return its stdout lines."""
    worker = Path(__file__).resolve().parent / "worker.py"
    cmd = [sys.executable, str(worker), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(Path.cwd()), "--t0", repr(_monotonic()), *extra]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return proc.stdout.splitlines()


def _setup_probe(args, env) -> float:
    return json.loads(_worker(args, ["--setup-only"], env, 60)[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fracdim benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("paper_scale", "long_series", "graph_geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = _monotonic()
    env = dict(os.environ, **{name: "1" for name in PINNED_THREADS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [_setup_probe(args, env) for _ in range(probes // 2)]
        lines = _worker(args, [], env, DEADLINE_S - (_monotonic() - started))
        setups += [_setup_probe(args, env) for _ in range(probes - probes // 2)]
        result = json.loads(lines[-1])
        details = json.loads(lines[-2].removeprefix("details: "))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if not args.trace:
        setups.append(details["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        details["setup_runs_s"] = setups
    results = Path(__file__).resolve().parent / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    print("provenance: " + json.dumps(details["provenance"]))
    print("op_tail_ms: " + details["op_tail"])
    for problem in details["problems"]:
        print("failed op: " + json.dumps(problem), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
