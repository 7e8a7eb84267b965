"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``; prints its result as the last line of stdout.  The
load is a closed loop: one client in one thread sends the ops of the seeded
op list back to back, each op only after the previous one returned.  Whole
passes over the list repeat until ``--seconds`` of op time have been
measured.  Outputs are fingerprinted between ops and checked against the
reference after the timed passes.

With ``--trace 1`` untraced passes alternate with passes that run under
span-recording wrappers, so both see the same machine conditions; the
per-layer metrics come from the traced passes and ``trace.overhead_s`` is
the difference between the two.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout holding src/fracdim")
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print only the set-up time")
    return parser.parse_args(argv)


def import_program(root: Path):
    """Import fracdim from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fracdim

    if not Path(fracdim.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fracdim was imported from {fracdim.__file__}, not {src}")
    from fracdim import acceptance, cli, geometry, higuchi, series, signals, stability, variation

    return {
        "fracdim": fracdim, "acceptance": acceptance, "cli": cli, "geometry": geometry,
        "higuchi": higuchi, "series": series, "signals": signals, "stability": stability,
        "variation": variation,
    }


def tail_percentile(count: int, beyond: int = 10) -> int:
    """Highest whole percentile p of ``count`` values, linearly interpolated,
    with at least ``beyond`` values strictly above its position.  With
    ``beyond`` values or fewer no percentile qualifies; the tail is then the
    largest value, p100."""
    if count <= beyond:
        return 100
    best = 0
    for p in range(0, 100):
        position = p / 100 * (count - 1)
        if count - 1 - int(position) >= beyond:
            best = p
    return best


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    position = p / 100 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Passes:
    """Timings, fingerprints and first outputs of repeated passes over ops."""

    def __init__(self, ops):
        self.ops = ops
        self.times = [[] for _ in ops]
        self.prints = [[] for _ in ops]
        self.first = [None] * len(ops)
        self.count = 0
        self.elapsed = 0.0

    def run_pass(self, tracer=None) -> None:
        """Run every op once, in order; ``tracer`` is told which op is running."""
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                out = None
                fingerprint = "raised: " + traceback.format_exc(limit=1)
            else:
                fingerprint = None
            took = time.perf_counter() - start
            self.elapsed += took
            self.times[i].append(took)
            if fingerprint is None:
                try:
                    fingerprint = op.fingerprint(out)
                except Exception:
                    fingerprint = "raised: " + traceback.format_exc(limit=1)
                if self.count == 0:
                    self.first[i] = out
            self.prints[i].append(fingerprint)
        self.count += 1

    def op_times(self):
        """Each op's mean time over the passes."""
        return [sum(t) / len(t) for t in self.times]


def end_to_end(passes: Passes) -> dict:
    times = passes.op_times()
    p = tail_percentile(len(times))
    return {
        "wall_s": sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_tail_ms": 1000 * percentile(times, p),
        "tail_percentile": p,
        "ops_in_list": len(times),
    }


def provenance(root: Path, args, mods) -> dict:
    import numpy

    try:
        import mpmath

        mp_version = mpmath.__version__
    except ImportError:
        mp_version = None
    commit, dirty = None, None
    if (root / ".git").exists() and shutil.which("git"):
        def git(*cmd):
            return subprocess.run(["git", "-C", str(root), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()

        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mp_version,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "git_dirty": dirty,
        "fracdim": str(Path(mods["fracdim"].__file__).parent),
    }


def layer_metrics(tracer, passes: Passes, ops, counts, deviations, untraced: dict) -> dict:
    """Per-layer metrics for one pass over the op list: times are means over
    the traced passes, counts repeat exactly in every pass, and errors are
    totals over all passes."""
    totals = tracer.layer_totals()

    def busy(name, field="busy_s"):
        return totals.get(f"{name}.{field}", 0.0) / passes.count

    def count(name):
        return int(totals.get(name, 0)) // passes.count

    def errors(layer):
        return int(totals.get(f"{layer}.errors", 0))

    traced = end_to_end(passes)
    strides = counts.get("higuchi.strides", 0)
    recomputed = counts.get("stability.recomputed_cells", 0)
    metrics = {
        "higuchi.hfd_s": (busy("higuchi.hfd"), "s"),
        "higuchi.kernel_s": (busy("higuchi.hfd", "self_s"), "s"),
        "higuchi.fit_s": (busy("higuchi.fit_lengths"), "s"),
        "higuchi.km_pairs": (counts.get("higuchi.km_pairs", 0), "count"),
        "higuchi.increments": (counts.get("higuchi.increments", 0), "count"),
        "higuchi.usable_stride_ratio": (
            counts.get("higuchi.usable", 0) / strides if strides else 0.0, "ratio"),
        "higuchi.errors": (errors("higuchi"), "count"),
        "stability.report_s": (busy("stability.stability_report", "outer_s")
                               + busy("stability.divergence_trace", "outer_s"), "s"),
        "stability.self_s": (busy("stability.stability_report", "self_s")
                             + busy("stability.divergence_trace", "self_s"), "s"),
        "stability.hfd_calls": (counts.get("stability.hfd_calls", 0), "count"),
        "stability.recompute_ratio": (
            counts.get("stability.changeable_cells", 0) / recomputed if recomputed else 0.0,
            "ratio"),
        "stability.errors": (errors("stability"), "count"),
        "signals.sample_s": (busy("signals.sample", "outer_s"), "s"),
        "signals.sample_points": (counts.get("signals.sample_points", 0), "count"),
        "signals.evaluate_s": (busy("signals.evaluate", "outer_s"), "s"),
        "signals.evaluate_points": (count("signals.evaluate.outer_count"), "count"),
        "signals.max_abs_dev": (max(deviations) if deviations else 0.0, "1"),
        "signals.errors": (errors("signals"), "count"),
        "series.csv_write_s": (busy("series.to_csv_text"), "s"),
        "series.csv_read_s": (busy("series.read_csv"), "s"),
        "series.csv_bytes": (count("series.to_csv_text.count"), "B"),
        "series.errors": (errors("series"), "count"),
        "geometry.box_count_s": (busy("geometry.box_count"), "s"),
        "geometry.box_count_self_s": (busy("geometry.box_count", "self_s"), "s"),
        "geometry.cells": (count("geometry.box_count.count"), "count"),
        "geometry.geometric_hfd_s": (busy("geometry.geometric_hfd"), "s"),
        "geometry.errors": (errors("geometry"), "count"),
        "variation.tv_s": (busy("variation.total_variation_estimate"), "s"),
        "variation.tv_self_s": (busy("variation.total_variation_estimate", "self_s"), "s"),
        "variation.convergence_s": (busy("variation.variation_convergence_check"), "s"),
        "variation.errors": (errors("variation"), "count"),
        "cli.main_s": (busy("cli.main"), "s"),
        "cli.self_s": (busy("cli.main", "self_s"), "s"),
        "cli.output_bytes": (counts.get("cli.output_bytes", 0), "B"),
        "cli.errors": (errors("cli") + _cli_nonzero(passes, ops), "count"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _cli_nonzero(passes: Passes, ops) -> int:
    return sum(
        1 for i, op in enumerate(ops) if op.kind.startswith("cli_")
        for fp in passes.prints[i] if not fp.startswith("0:")
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    mods = import_program(root)
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import workloads
    from tracing import Span, Tracer

    build = workloads.WORKLOADS[args.workload]
    workdir = here / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = build(args.seed, str(workdir))
        setup_s = _monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        untraced = Passes(ops)
        runs = [untraced]
        tracer = None
        if args.trace:
            runs.append(Passes(ops))
            tracer = Tracer(mods)
        while untraced.count == 0 or sum(r.elapsed for r in runs) < args.seconds:
            untraced.run_pass()
            if tracer is not None:
                tracer.install()
                try:
                    runs[1].run_pass(tracer)
                finally:
                    tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        store = workloads.OracleStore(str(here / ".cache"), f"{args.workload}-{args.seed}")
        attempted, failed, problems, deviations, counts = workloads.check_outputs(ops, runs, store)
        store.save()
        summary = end_to_end(untraced)
        if args.trace:
            metrics = layer_metrics(tracer, runs[1], ops, counts, deviations, summary)
        else:
            metrics = {
                "wall_s": {"value": summary["wall_s"], "unit": "s"},
                "op_p50_ms": {"value": summary["op_p50_ms"], "unit": "ms"},
                "op_tail_ms": {"value": summary["op_tail_ms"], "unit": "ms"},
                "success_rate": {"value": 1.0 - failed / attempted, "unit": "ratio"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        details = {
            "provenance": provenance(root, args, mods),
            "setup_s": setup_s,
            "passes": [r.count for r in runs],
            "wall_s": [end_to_end(r)["wall_s"] for r in runs],
            "op_tail": f"p{summary['tail_percentile']} of {summary['ops_in_list']} ops "
                       f"(mean of {untraced.count} passes each)",
            "error_rate": failed / attempted,
            "problems": problems,
            "ops": [{"describe": op.describe(), "seconds": untraced.times[i]}
                    for i, op in enumerate(ops)],
        }
        if tracer is not None:
            details["span_fields"] = Span._fields
            details["spans"] = tracer.spans
        print("details: " + json.dumps(details))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
