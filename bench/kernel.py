"""Layer bench of the (k, m) kernel, `hfd`, `geometric_hfd` and the bump experiments, and of signal sampling, box counting and variation traces.

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
at N = 1e5, the box-count layer as `box_dim_estimate(Oscillation(20),
delta_min)` at delta_min = 1e-3 and 5e-5 (a finest mesh of 20 001 columns x
33 samples) and as `box_dim_estimate(Alternating(0.4, 0.6), n_samples=n)`
at n = 1e4 and 1e6 (a grid-defined signal, whose spline knots are sampled),
the variation layer as `total_variation_estimate(Weierstrass(5, 1.7),
levels)` at 6 and 12 levels (65 536 midpoints at the last) and as
`higuchi._partition_sum` of Gaussian noise at 131 073 and 2**20 + 1 points,
the CSV I/O layer as `write_csv` and `read_csv` of a
`Weierstrass(5, 1.7)` series at N = 1e5, each tree writing its own files
into a temporary directory, and the large JSON output as `hfd --detail`
through each tree's `cli.main` on Weierstrass at N = 200 and 1000 with
k_max = N/2 (5050 and 125 250 (k, m) rows) into a file.  For these seven ops
one extra call of each tree outside the timed rounds records its
tracemalloc peak: the memory of a sample's terms chunks, of the mesh blocks
of a box count or a trace, of a spline's knots, of a partition sum's steps,
of a CSV file's text or parse, and of a detail table and its JSON text.

    python bench/kernel.py --against ../parent/src

imports the `--src` package (by default this checkout's), drops every
`fracdim` module from `sys.modules` and imports the `--against` package;
each keeps its own functions and classes, and each row's inputs are built
from its own package.  Every row then alternates the two calls round by
round, switching which goes first, so that the per-round ratios share the
host's phase: on a 2-CPU VM whole runs of one commit moved 30-56% between
phases of the host, so separate runs cannot rank two commits.  Each row
records the median change/parent time ratio (`--src` over `--against`), its
quartiles, the rounds the change won and both median times in ms.  The run
is stored in a JSON file (by default `BENCH_kernel.json` at the root of the
checkout) under the key "<commit> vs <against commit>", each from
`git describe`, keeping the other runs there.  The ratios still carry a load-order bias (the
package imported second, or called second, can run a few percent apart from
the first: up to 2-4% on a 2-CPU VM); size it with an A/A run,
`--against src`, and read a ratio only against that spread.

`--quick` runs the smallest sizes once, to check that the script still runs;
the one CSV size, the smaller detail size, the smaller spline box count and
the smaller partition sum are part of it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (260, 420, 1000, 4000)
LONGS = ((100_000, 256), (100_000, 2000))
TRACE_SIZES = (150, 4000)
SAMPLE_SIZES = (100_000,)
BOX_DELTA_MINS = (1e-3, 5e-5)
SPLINE_BOX_SAMPLES = (10**4, 10**6)
TV_LEVELS = (6, 12)
PARTITION_SIZES = (131_073, 2**20 + 1)
CSV_SIZES = (100_000,)
DETAIL_SIZES = ((200, 100), (1000, 500))
PEAK_OPS = ("sample", "box_dim_estimate", "total_variation_estimate", "_partition_sum", "write_csv", "read_csv",
            "hfd --detail")
INPUT_KEYS = ("n", "k_max", "signal", "delta_min", "n_samples", "levels")
TRACE_GRID = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
REPORT_EPS = 1e-10
REPEAT = 11
MIN_SAMPLE_S = 0.05


def commit_of(src: str) -> str:
    try:
        out = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def cases(pkg, workdir, sizes, longs, trace_sizes, sample_sizes, box_delta_mins, spline_box_samples, tv_levels,
          partition_sizes, csv_sizes, detail_sizes):
    """(row, call) for every timed op, its inputs built from the package ``pkg``;
    its CSV files go under ``workdir``."""
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
    oscillation = pkg.Oscillation(20.0)
    for delta_min in box_delta_mins:
        out.append(({"op": "box_dim_estimate", "signal": "oscillation(20)", "delta_min": delta_min},
                    lambda d=delta_min: pkg.box_dim_estimate(oscillation, delta_min=d)))
    alternating = pkg.Alternating(0.4, 0.6)
    for n_samples in spline_box_samples:
        out.append(({"op": "box_dim_estimate", "signal": "alternating(0.4, 0.6)", "n_samples": n_samples},
                    lambda n=n_samples: pkg.box_dim_estimate(alternating, n_samples=n)))
    for levels in tv_levels:
        out.append(({"op": "total_variation_estimate", "signal": "weierstrass(5, 1.7)", "levels": levels},
                    lambda levels=levels: pkg.total_variation_estimate(spec, levels)))
    for n in partition_sizes:
        values = np.random.default_rng(n).normal(size=n)
        out.append(({"op": "_partition_sum", "signal": "noise", "n": n},
                    lambda values=values: pkg.higuchi._partition_sum(values)))
    for n in csv_sizes:
        path = tempfile.mkstemp(suffix=".csv", dir=workdir)[1]
        ts = pkg.sample(spec, n)
        out.append(({"op": "write_csv", "signal": "weierstrass(5, 1.7)", "n": n},
                    lambda ts=ts, path=path: pkg.write_csv(ts, path)))
        pkg.write_csv(ts, path)
        out.append(({"op": "read_csv", "signal": "weierstrass(5, 1.7)", "n": n}, lambda path=path: pkg.read_csv(path)))
    for n, k_max in detail_sizes:
        argv = ["hfd", "--signal", "weierstrass", "--n", str(n), "--kmax", str(k_max), "--detail",
                "--out", tempfile.mkstemp(suffix=".json", dir=workdir)[1]]
        out.append(({"op": "hfd --detail", "signal": "weierstrass(5, 1.7)", "n": n, "k_max": k_max},
                    lambda argv=argv: pkg.cli.main(argv)))
    return out


def peak_mb(fn) -> float:
    """The tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(peak / 1e6, 3)


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


def run_against(pkg, other, sizes, rounds: int):
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for (row, change), (_, parent) in zip(cases(pkg, workdir, *sizes), cases(other, workdir, *sizes)):
            row.update(paired(change, parent, rounds))
            if row["op"] in PEAK_OPS:
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
        import fracdim.cli  # the hfd --detail rows run the command line
    finally:
        sys.path.remove(src)
    if os.path.dirname(os.path.dirname(os.path.abspath(fracdim.__file__))) != src:
        raise SystemExit(f"fracdim was imported from {fracdim.__file__}, not from {src}")
    return fracdim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds the fracdim package")
    parser.add_argument("--against", required=True,
                        help="directory of a second fracdim package to rank --src against, in one process")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_kernel.json"))
    parser.add_argument("--quick", action="store_true", help="the smallest size only, one round each")
    args = parser.parse_args(argv)

    import numpy as np

    src, against = os.path.abspath(args.src), os.path.abspath(args.against)
    pkg = load(src)
    if args.quick:
        sizes = (SIZES[:1], (), TRACE_SIZES[:1], SIZES[:1], BOX_DELTA_MINS[:1], SPLINE_BOX_SAMPLES[:1],
                 TV_LEVELS[:1], PARTITION_SIZES[:1], CSV_SIZES, DETAIL_SIZES[:1])
    else:
        sizes = (SIZES, LONGS, TRACE_SIZES, SAMPLE_SIZES, BOX_DELTA_MINS, SPLINE_BOX_SAMPLES, TV_LEVELS,
                 PARTITION_SIZES, CSV_SIZES, DETAIL_SIZES)
    repeat = 1 if args.quick else REPEAT
    record = {
        "commit": commit_of(src),
        "against_commit": commit_of(against),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "repeat": repeat,
        "results": run_against(pkg, load(against), sizes, repeat),
    }
    for row in record["results"]:
        label = " ".join(f"{key}={row[key]}" for key in INPUT_KEYS if key in row)
        print(f"{row['op']:>24} {label:<40}"
              f" change/against {row['ratio_median']:.4f} [{row['ratio_q1']:.4f}, {row['ratio_q3']:.4f}]"
              f"  won {row['won']}/{row['rounds']}  {row['median_ms']:.3f} vs {row['against_median_ms']:.3f} ms")
    try:
        with open(args.out) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"bench": "bench/kernel.py", "runs": {}}
    data["runs"][f"{record['commit']} vs {record['against_commit']}"] = record
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
