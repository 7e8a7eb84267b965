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
difference.  To rank two commits, load both into one process:

    python bench/kernel.py --label against-parent --against ../parent/src

imports the `--src` package, drops every `fracdim` module from
`sys.modules` and imports the `--against` package; each keeps its own
functions and classes, and each row's inputs are built from its own
package.  Every row then alternates the two calls round by round,
switching which goes first, so that the per-round ratios share the host's
phase.  The label records the median change/parent time ratio (`--src`
over `--against`), its quartiles, the rounds the change won and both
commits.  The ratios still carry a load-order bias (the package imported
second, or called second, can run a few percent apart from the first:
up to 2-4% on a 2-CPU VM); size it with an A/A run, `--against` the same
tree, and read a ratio only against that spread.

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


def cases(pkg, sizes, longs, trace_sizes, sample_sizes):
    """(row, call) for every timed op, its inputs built from the package ``pkg``."""
    import numpy as np

    def noise(n):
        return pkg.TimeSeries(np.random.default_rng(n).normal(size=n))

    out = []
    for n in sizes:
        ts = noise(n)
        k_max = pkg.higuchi.ceil_half(n)
        for name in ("hfd", "geometric_hfd"):
            fn = getattr(pkg, name)
            out.append(({"op": name, "n": n, "k_max": k_max}, lambda fn=fn, ts=ts, k_max=k_max: fn(ts, k_max)))
    for n, k_max in longs:
        ts = noise(n)
        out.append(({"op": "hfd", "n": n, "k_max": k_max}, lambda ts=ts, k_max=k_max: pkg.hfd(ts, k_max)))
    for n in trace_sizes:
        # an alternating series has exactly-zero strides, which the bumps resurrect
        ts = pkg.sample(pkg.Alternating(0.4, 0.6), n)
        k_max = pkg.higuchi.ceil_half(n)
        out.append(({"op": "divergence_trace", "n": n, "k_max": k_max, "j": 1, "eps": list(TRACE_GRID)},
                    lambda ts=ts, k_max=k_max: pkg.divergence_trace(ts, k_max, 1, TRACE_GRID)))
        out.append(({"op": "stability_report", "n": n, "k_max": k_max, "j": 1, "eps": [REPORT_EPS]},
                    lambda ts=ts, k_max=k_max: pkg.stability_report(ts, k_max, 1, REPORT_EPS)))
    spec = pkg.Weierstrass(5.0, 1.7)
    for n in sample_sizes:
        out.append(({"op": "sample", "signal": "weierstrass(5, 1.7)", "n": n}, lambda n=n: pkg.sample(spec, n)))
    return out


def peak_mb(fn) -> float:
    """The tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(peak / 1e6, 3)


def run(pkg, sizes, longs, trace_sizes, sample_sizes, repeat: int):
    rows = []
    for row, fn in cases(pkg, sizes, longs, trace_sizes, sample_sizes):
        row.update(timing(fn, repeat))
        if row["op"] == "sample":
            row["peak_mb"] = peak_mb(fn)
        rows.append(row)
    return rows


def paired(change, parent, rounds: int) -> dict:
    """Alternate ``change`` and ``parent`` round by round, switching which
    goes first; each round times enough calls of each to take at least
    ``MIN_SAMPLE_S`` (one call when ``rounds`` is 1).  Returns the median
    and quartiles of the per-round change/parent ratios, the rounds the
    change won and each side's median time in ms."""
    first = []
    for fn in (change, parent):  # warm-up, and the size of a sample
        start = time.perf_counter()
        fn()
        first.append(time.perf_counter() - start)
    number = 1 if rounds == 1 else max(1, int(MIN_SAMPLE_S / max(max(first), 1e-9)))
    times = {change: [], parent: []}
    for r in range(rounds):
        for fn in ((change, parent) if r % 2 == 0 else (parent, change)):
            start = time.perf_counter()
            for _ in range(number):
                fn()
            times[fn].append((time.perf_counter() - start) / number)
    ratios = [a / b for a, b in zip(times[change], times[parent])]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if rounds > 1 else ratios * 3
    return {"ratio_median": round(median, 4), "ratio_q1": round(q1, 4), "ratio_q3": round(q3, 4),
            "won": sum(a < b for a, b in zip(times[change], times[parent])), "rounds": rounds,
            "median_ms": round(statistics.median(times[change]) * 1e3, 4),
            "against_median_ms": round(statistics.median(times[parent]) * 1e3, 4)}


def run_against(pkg, other, sizes, longs, trace_sizes, sample_sizes, rounds: int):
    rows = []
    pairs = zip(cases(pkg, sizes, longs, trace_sizes, sample_sizes),
                cases(other, sizes, longs, trace_sizes, sample_sizes))
    for (row, change), (_, parent) in pairs:
        row.update(paired(change, parent, rounds))
        if row["op"] == "sample":
            row["peak_mb"], row["against_peak_mb"] = peak_mb(change), peak_mb(parent)
        rows.append(row)
    return rows


def load(src: str):
    """The fracdim package under ``src``, imported afresh: every ``fracdim``
    module already loaded is dropped from ``sys.modules`` first, while the
    functions of an earlier import keep their own module globals."""
    for name in [m for m in sys.modules if m == "fracdim" or m.startswith("fracdim.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        import fracdim
    finally:
        sys.path.remove(src)
    if os.path.dirname(os.path.dirname(os.path.abspath(fracdim.__file__))) != src:
        raise SystemExit(f"fracdim was imported from {fracdim.__file__}, not from {src}")
    return fracdim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change", help="key of this run in the output file")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds the fracdim package")
    parser.add_argument("--against", help="directory of a second fracdim package to rank --src against, in one process")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_kernel.json"))
    parser.add_argument("--quick", action="store_true", help="the smallest size only, one run each")
    args = parser.parse_args(argv)

    import numpy as np

    src = os.path.abspath(args.src)
    pkg = load(src)
    if args.quick:
        sizes = (SIZES[:1], (), TRACE_SIZES[:1], SIZES[:1])
    else:
        sizes = (SIZES, LONGS, TRACE_SIZES, SAMPLE_SIZES)
    repeat = 1 if args.quick else REPEAT
    record = {
        "commit": commit_of(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "repeat": repeat,
    }
    if args.against is None:
        rows = run(pkg, *sizes, repeat)
    else:
        against = os.path.abspath(args.against)
        record["against_commit"] = commit_of(against)
        rows = run_against(pkg, load(against), *sizes, repeat)
    record["results"] = rows
    for row in rows:
        head = f"{row['op']:>16} N={row['n']:<6} k_max={row.get('k_max', '-'):<5}"
        if args.against is None:
            peak = f"  peak {row['peak_mb']:.1f} MB" if "peak_mb" in row else ""
            print(f"{head} best {row['best_ms']:10.3f} ms"
                  f"  median {row['median_ms']:10.3f} [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}] ms{peak}")
        else:
            print(f"{head} change/against {row['ratio_median']:.4f} [{row['ratio_q1']:.4f}, {row['ratio_q3']:.4f}]"
                  f"  won {row['won']}/{row['rounds']}  {row['median_ms']:.3f} vs {row['against_median_ms']:.3f} ms")
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
