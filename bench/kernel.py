"""Layer bench of the (k, m) kernel, `hfd`, `geometric_hfd` and the bump experiments, and of signal sampling.

Times `hfd` and `geometric_hfd` on Gaussian noise at N = 260, 420, 1000 and
4000 with k_max = ceil(N/2), `hfd` at N = 1e5 with k_max = 256 (the largest
`hfd --input` op of perfbench's `long_series`) and with k_max = 2000,
where strides from k = 330 on share full-row counts but the size cap on a
stacked table keeps each stride alone, and on an alternating series a
five-value `divergence_trace` and a one-bump `stability_report`
(j = 1, eps = 1e-10) at N = 150 (the bump size of perfbench's
`paper_scale`) and at N = 4000: the layout of a bump experiment is built
once per call, so the report shows that cost and the trace its per-eps
part.  The signal-sampling layer is timed as `sample(Weierstrass(5, 1.7), N)`
at N = 1e5, and one extra call outside the timed samples records its
tracemalloc peak, the memory of its one points x terms table.  Each time
is recorded as the best, the median and the quartiles of
its samples, under a label in a JSON file (by default
`BENCH_kernel.json` at the root of the checkout), keeping the other labels
there.  To record two commits, run it once per checkout, each with its own
`--src`:

    python bench/kernel.py --label parent --src ../parent/src
    python bench/kernel.py --label change

Separate runs cannot rank the two on a noisy host: on a 2-CPU VM whole runs
of one commit moved 30-56% between phases of the host, while each run's
quartiles spanned a few percent, so a change lands outside the parent's
interquartile range about as often for unchanged code as for a real
difference.  To rank two commits, load both into one process (each
package under its own module name) and alternate calls of the same op
between them round by round; the per-round ratios share the host's phase.

`--quick` runs the smallest sizes once, to check that the script still runs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (260, 420, 1000, 4000)
LONGS = ((100_000, 256), (100_000, 2000))
TRACE_SIZES = (150, 4000)
SAMPLE_SIZES = (100_000,)
TRACE_GRID = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
REPORT_EPS = 1e-10
REPEAT = 11
MIN_SAMPLE_S = 0.05


def timing(fn, repeat: int) -> dict:
    """Per-call times in ms: the best of ``repeat`` samples and the median
    and quartiles of all but the first, each sample of enough calls to take
    at least ``MIN_SAMPLE_S`` (one call, not repeated, when ``repeat`` is 1)."""
    start = time.perf_counter()
    fn()
    samples = [time.perf_counter() - start]
    number = 1 if repeat == 1 else max(1, int(MIN_SAMPLE_S / max(samples[0], 1e-9)))
    for _ in range(repeat - 1):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    timed = samples[1:] or samples  # the first call also warms up
    q1, median, q3 = statistics.quantiles(timed, n=4, method="inclusive") if len(timed) > 1 else timed * 3
    return {name: round(x * 1e3, 4) for name, x in
            (("best_ms", min(samples)), ("median_ms", median), ("q1_ms", q1), ("q3_ms", q3))}


def commit_of(src: str) -> str:
    try:
        out = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run(sizes, longs, trace_sizes, sample_sizes, repeat: int):
    import numpy as np

    from fracdim import (
        Alternating,
        TimeSeries,
        Weierstrass,
        divergence_trace,
        geometric_hfd,
        hfd,
        sample,
        stability_report,
    )
    from fracdim.higuchi import ceil_half

    def noise(n):
        return TimeSeries(np.random.default_rng(n).normal(size=n))

    rows = []
    for n in sizes:
        ts = noise(n)
        k_max = ceil_half(n)
        for name, fn in (("hfd", hfd), ("geometric_hfd", geometric_hfd)):
            rows.append({"op": name, "n": n, "k_max": k_max, **timing(lambda: fn(ts, k_max), repeat)})
    for n, k_max in longs:
        ts = noise(n)
        rows.append({"op": "hfd", "n": n, "k_max": k_max, **timing(lambda: hfd(ts, k_max), repeat)})
    for n in trace_sizes:
        # an alternating series has exactly-zero strides, which the bumps resurrect
        ts = sample(Alternating(0.4, 0.6), n)
        k_max = ceil_half(n)
        rows.append({"op": "divergence_trace", "n": n, "k_max": k_max, "j": 1, "eps": list(TRACE_GRID),
                     **timing(lambda: divergence_trace(ts, k_max, 1, TRACE_GRID), repeat)})
        rows.append({"op": "stability_report", "n": n, "k_max": k_max, "j": 1, "eps": [REPORT_EPS],
                     **timing(lambda: stability_report(ts, k_max, 1, REPORT_EPS), repeat)})
    spec = Weierstrass(5.0, 1.7)
    for n in sample_sizes:
        row = {"op": "sample", "signal": "weierstrass(5, 1.7)", "n": n, **timing(lambda: sample(spec, n), repeat)}
        tracemalloc.start()
        sample(spec, n)
        row["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
        tracemalloc.stop()
        rows.append(row)
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
    if args.quick:
        sizes, longs, trace_sizes, sample_sizes = SIZES[:1], (), TRACE_SIZES[:1], SIZES[:1]
    else:
        sizes, longs, trace_sizes, sample_sizes = SIZES, LONGS, TRACE_SIZES, SAMPLE_SIZES
    repeat = 1 if args.quick else REPEAT
    rows = run(sizes, longs, trace_sizes, sample_sizes, repeat)
    record = {
        "commit": commit_of(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "repeat": repeat,
        "results": rows,
    }
    for row in rows:
        peak = f"  peak {row['peak_mb']:.1f} MB" if "peak_mb" in row else ""
        print(f"{row['op']:>16} N={row['n']:<6} k_max={row.get('k_max', '-'):<5} best {row['best_ms']:10.3f} ms"
              f"  median {row['median_ms']:10.3f} [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}] ms{peak}")
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
