"""Layer bench of the (k, m) kernel: `hfd`, `geometric_hfd` and a bump trace.

Times, best of several runs, `hfd` and `geometric_hfd` on Gaussian noise at
N = 260, 420, 1000 and 4000 with k_max = ceil(N/2), and a five-value
`divergence_trace` at N = 150 (the bump size of perfbench's `paper_scale`)
and at N = 4000, and records the times under a label in a
JSON file (by default `BENCH_kernel.json` at the root of the checkout),
keeping the other labels there.  To compare two commits, run it once per
checkout, each with its own `--src`:

    python bench/kernel.py --label parent --src ../parent/src
    python bench/kernel.py --label change

`--quick` runs the smallest sizes once, to check that the script still runs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (260, 420, 1000, 4000)
TRACE_SIZES = (150, 4000)
TRACE_GRID = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
REPEAT = 7
MIN_SAMPLE_S = 0.05


def best_ms(fn, repeat: int) -> float:
    """Best per-call time over ``repeat`` samples, each of enough calls to
    take at least ``MIN_SAMPLE_S`` (one call when ``repeat`` is 1)."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    number = 1 if repeat == 1 else max(1, int(MIN_SAMPLE_S / max(first, 1e-9)))
    best = first
    for _ in range(repeat - 1):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1e3


def commit_of(src: str) -> str:
    try:
        out = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run(sizes, trace_sizes, repeat: int):
    import numpy as np

    from fracdim import Alternating, TimeSeries, divergence_trace, geometric_hfd, hfd, sample
    from fracdim.higuchi import ceil_half

    rows = []
    for n in sizes:
        ts = TimeSeries(np.random.default_rng(n).normal(size=n))
        k_max = ceil_half(n)
        for name, fn in (("hfd", hfd), ("geometric_hfd", geometric_hfd)):
            rows.append({"op": name, "n": n, "k_max": k_max,
                         "best_ms": round(best_ms(lambda: fn(ts, k_max), repeat), 4)})
    for n in trace_sizes:
        # an alternating series has exactly-zero strides, which the bumps resurrect
        ts = sample(Alternating(0.4, 0.6), n)
        k_max = ceil_half(n)
        rows.append({"op": "divergence_trace", "n": n, "k_max": k_max, "j": 1, "eps": list(TRACE_GRID),
                     "best_ms": round(best_ms(lambda: divergence_trace(ts, k_max, 1, TRACE_GRID), repeat), 4)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change", help="key of this run in the output file")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds the fracdim package")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_kernel.json"))
    parser.add_argument("--quick", action="store_true", help="the smallest size only, one run each")
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import numpy as np

    import fracdim

    if os.path.dirname(os.path.dirname(os.path.abspath(fracdim.__file__))) != src:
        print(f"fracdim was imported from {fracdim.__file__}, not from {src}", file=sys.stderr)
        return 1
    sizes, trace_sizes = (SIZES[:1], TRACE_SIZES[:1]) if args.quick else (SIZES, TRACE_SIZES)
    repeat = 1 if args.quick else REPEAT
    rows = run(sizes, trace_sizes, repeat)
    record = {
        "commit": commit_of(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "repeat": repeat,
        "results": rows,
    }
    for row in rows:
        print(f"{row['op']:>16} N={row['n']:<5} k_max={row['k_max']:<5} {row['best_ms']:10.3f} ms")
    try:
        with open(args.out) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"bench": "bench/kernel.py", "runs": {}}
    data["runs"][args.label] = record
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
