"""The committed kernel bench still runs: one quick ranking of the tree against itself."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL_BENCH = os.path.join(ROOT, "bench", "kernel.py")


def run_kernel_bench(*args):
    # a process of its own: the script drops and re-imports the fracdim modules
    return subprocess.run(
        [sys.executable, KERNEL_BENCH, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_quick_run_writes_one_record_keyed_by_its_commits(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    proc = run_kernel_bench("--quick", "--against", "src", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 1
    ((key, record),) = runs.items()
    assert key == f"{record['commit']} vs {record['commit']}" == f"{record['commit']} vs {record['against_commit']}"
    ops = [row["op"] for row in record["results"]]
    assert ops == ["hfd", "geometric_hfd", "divergence_trace", "stability_report", "sample", "box_dim_estimate",
                   "box_dim_estimate", "total_variation_estimate", "_partition_sum", "write_csv", "read_csv",
                   "hfd --detail"]
    assert record["results"][6]["n_samples"] == 10**4
    assert record["results"][8]["n"] == 131_073
    assert record["results"][-3]["n"] == record["results"][-2]["n"] == 100_000
    assert record["results"][-1]["n"] == 200
    for row in record["results"]:
        assert {"ratio_median", "ratio_q1", "ratio_q3", "won", "median_ms", "against_median_ms"} <= row.keys()
    for row in record["results"][-8:]:
        assert {"peak_mb", "against_peak_mb"} <= row.keys()


def test_against_is_required(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    proc = run_kernel_bench("--quick", "--out", str(out))
    assert proc.returncode == 2
    assert "the following arguments are required: --against" in proc.stderr
    assert not out.exists()
