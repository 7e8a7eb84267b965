"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline/seed.json

For every workload and end-to-end metric it reports the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the bound that BENCHMARK.json fixes.  With
``--trace-seeds`` it also records traced runs and the per-layer medians.
Runs go one at a time, from the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = next(json.loads(line.removeprefix("provenance: "))
                                for line in lines if line.startswith("provenance: "))
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        raise RuntimeError(f"{' '.join(cmd)} reported {sorted(result['metrics'])}")
    return result


def summarise(values, bound=None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    out = {"median": median, "q1": q1, "q3": q3, "values": values}
    if median:
        out["spread"] = (q3 - q1) / median
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seed_list(args.seeds)]
        entry = {"seeds": seed_list(args.seeds),
                 "provenance": runs[0]["provenance"],
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = summarise(values, bound)
            stats = entry["end_to_end"][name]
            flag = ""
            if name != "setup_s" and stats.get("spread", 0.0) > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"{workload:15s} {name:13s} median {stats['median']:.6g} "
                  f"spread {stats.get('spread', 0.0):.4f} bound {bound}{flag}", flush=True)
        if args.trace_seeds:
            traced = [run_once(workload, seed, args.seconds, 1)
                      for seed in seed_list(args.trace_seeds)]
            entry["per_layer"] = {
                name: summarise([r["metrics"][name]["value"] for r in traced])
                for name in traced[0]["metrics"]
            }
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
