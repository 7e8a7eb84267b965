import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracdim import (
    Alternating,
    Oscillation,
    box_dim_estimate,
    divergence_trace,
    hfd,
    read_csv,
    sample,
    stability_report,
    total_variation_estimate,
    variation_convergence_check,
)
from fracdim.cli import main, parse_signal
from fracdim.signals import Weierstrass, spec_to_dict
from fracdim.stability import DEMO_ALTERNATING


def run_cli(*argv):
    return main(list(argv))


class TestParseSignal:
    def test_named(self):
        assert parse_signal("weierstrass") == Weierstrass(5.0, 1.7)

    def test_inline_json(self):
        assert parse_signal('{"kind": "affine", "a": 2.0, "b": 0.0}').a == 2.0

    def test_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_dict(Oscillation(20.0))))
        assert parse_signal(str(path)) == Oscillation(20.0)

    def test_unknown_name_fails(self, capsys):
        assert run_cli("gen", "--signal", "nope", "--n", "10") == 2
        assert "unknown signal" in capsys.readouterr().err


class TestGen:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run_cli("gen", "--signal", "weierstrass", "--n", "1000", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "j,t,x"
        assert len(lines) == 1001

    def test_alternating_demo_values(self, tmp_path):
        out = tmp_path / "alt.csv"
        run_cli("gen", "--signal", "alternating", "--n", "100", "--out", str(out))
        ts = read_csv(out)
        expected = sample(Alternating(*DEMO_ALTERNATING), 100)
        assert np.array_equal(ts.values, expected.values)

    def test_spec_file_round_trips(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_dict(Alternating(0.4, 0.6))))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen", "--signal", str(spec_path), "--n", "50", "--out", str(a))
        run_cli("gen", "--signal", "alternating", "--n", "50", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        run_cli("gen", "--signal", "constant", "--n", "5", "--format", "json", "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["n"] == 5 and payload["signal"]["kind"] == "constant"
        assert payload["values"] == [1.0] * 5

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen", "--signal", "oscillation", "--n", "333", "--out", str(a))
        run_cli("gen", "--signal", "oscillation", "--n", "333", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestHfd:
    def test_affine_dimension_one(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("hfd", "--signal", "affine", "--n", "100", "--kmax", "50", "--out", str(out))
        payload = json.loads(out.read_text())
        assert abs(payload["D"] - 1.0) < 1e-9

    def test_alternating_dimension_two(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("hfd", "--signal", "alternating", "--n", "100", "--kmax-rule", "half", "--out", str(out))
        payload = json.loads(out.read_text())
        assert abs(payload["D"] - 2.0) < 1e-9
        assert payload["k_max"] == 50

    def test_piped_csv_equals_in_process(self, tmp_path):
        series = tmp_path / "s.csv"
        out = tmp_path / "r.json"
        run_cli("gen", "--signal", "weierstrass", "--n", "200", "--out", str(series))
        run_cli("hfd", "--input", str(series), "--kmax", "100", "--out", str(out))
        payload = json.loads(out.read_text())
        direct = hfd(sample(Weierstrass(5.0, 1.7), 200), 100)
        assert payload["D"] == direct.slope

    def test_csv_points_output(self, tmp_path):
        out = tmp_path / "z.csv"
        run_cli("hfd", "--signal", "alternating", "--n", "20", "--kmax", "10", "--format", "csv", "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "k,log_inv_k,log_L"
        assert len(lines) == 6  # odd strides 1, 3, 5, 7, 9

    def test_detail_table(self, tmp_path):
        out = tmp_path / "d.json"
        run_cli("hfd", "--signal", "alternating", "--n", "20", "--kmax", "4", "--detail", "--out", str(out))
        payload = json.loads(out.read_text())
        assert len(payload["detail"]) == 10  # sum over k of offsets with q >= 1

    def test_detail_has_no_csv_form(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        argv = ["hfd", "--signal", "alternating", "--n", "20", "--kmax", "4", "--detail", "--format", "csv"]
        assert run_cli(*argv, "--out", str(out)) == 2
        assert "only a JSON form" in capsys.readouterr().err
        assert not out.exists()

    def test_signal_and_input_conflict(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        run_cli("gen", "--signal", "constant", "--n", "10", "--out", str(series))
        assert run_cli("hfd", "--signal", "constant", "--n", "10", "--input", str(series), "--kmax", "2") == 2

    def test_missing_kmax(self, capsys):
        assert run_cli("hfd", "--signal", "constant", "--n", "10") == 2


class TestBoxdim:
    def test_csv_matches_in_process(self, tmp_path):
        out = tmp_path / "b.csv"
        run_cli(
            "boxdim", "--signal", "affine", "--delta-min", "0.01", "--delta-max", "0.1",
            "--levels", "4", "--out", str(out),
        )
        lines = out.read_text().splitlines()
        direct = box_dim_estimate(parse_signal("affine"), delta_min=0.01, delta_max=0.1, levels=4)
        assert lines[0] == "delta,M,A"
        assert [int(line.split(",")[1]) for line in lines[1:]] == [int(c) for c in direct.counts]

    def test_json_dimension(self, tmp_path):
        out = tmp_path / "b.json"
        run_cli(
            "boxdim", "--signal", "alternating", "--n", "100", "--delta-min", "1e-4",
            "--delta-max", "1e-3", "--levels", "6", "--format", "json", "--out", str(out),
        )
        payload = json.loads(out.read_text())
        assert abs(payload["dim_estimate"] - 1.0) < 0.05

    def test_grid_defined_signal_needs_n(self, capsys):
        assert run_cli("boxdim", "--signal", "alternating") == 2


class TestTv:
    def test_estimate_trace(self, tmp_path):
        out = tmp_path / "tv.csv"
        run_cli("tv", "--signal", "oscillation", "--levels", "5", "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "level,intervals,V"
        assert len(lines) == 6
        direct = total_variation_estimate(Oscillation(20.0), 5)
        assert float(lines[-1].split(",")[2]) == direct.estimate

    def test_convergence_table(self, tmp_path):
        out = tmp_path / "conv.csv"
        run_cli(
            "tv", "--signal", "oscillation", "--n-grid", "100,1000", "--k", "2", "--m", "1",
            "--out", str(out),
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "N,V_nkm,V_PN,e_N"
        assert len(lines) == 3

    def test_json_estimate(self, tmp_path):
        out = tmp_path / "tv.json"
        run_cli("tv", "--signal", "affine", "--levels", "3", "--format", "json", "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["estimate"] == pytest.approx(2.0, abs=1e-12)


class TestStability:
    def test_report_matches_in_process(self, tmp_path):
        out = tmp_path / "st.json"
        run_cli(
            "stability", "--signal", "alternating", "--n", "100", "--kmax", "50",
            "--eps", "1e-10", "--out", str(out),
        )
        payload = json.loads(out.read_text())
        direct = stability_report(sample(Alternating(*DEMO_ALTERNATING), 100), 50, 1, 1e-10)
        assert payload["perturbed"]["D"] == direct.perturbed.slope
        assert payload["delta_D"] == direct.delta_d

    def test_eps_grid_trace(self, tmp_path):
        out = tmp_path / "tr.csv"
        run_cli(
            "stability", "--signal", "alternating", "--n", "100", "--kmax-rule", "half",
            "--eps-grid", "1e-4,1e-8", "--format", "csv", "--out", str(out),
        )
        lines = out.read_text().splitlines()
        direct = divergence_trace(sample(Alternating(*DEMO_ALTERNATING), 100), 50, 1, (1e-4, 1e-8))
        assert lines[0] == "eps,D_eps,min_log_L"
        assert float(lines[1].split(",")[1]) == direct[0].d_eps

    def test_report_has_no_csv_form(self, tmp_path, capsys):
        out = tmp_path / "st.csv"
        argv = ["stability", "--signal", "alternating", "--n", "100", "--kmax", "50", "--format", "csv"]
        assert run_cli(*argv, "--out", str(out)) == 2
        assert "only a JSON form" in capsys.readouterr().err
        assert not out.exists()

    def test_perturbed_series_from_file(self, tmp_path):
        series = tmp_path / "s.csv"
        out = tmp_path / "st.json"
        run_cli("gen", "--signal", "periodic", "--n", "150", "--out", str(series))
        run_cli("stability", "--input", str(series), "--kmax", "30", "--out", str(out))
        payload = json.loads(out.read_text())
        assert abs(payload["perturbed"]["D"] - 3.5) <= 0.15


class TestSweep:
    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "sw.csv"
        run_cli("sweep", "--signal", "oscillation", "--n-grid", "100", "--kmax", "2", "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "N,D"
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "100"

    def test_range_sweep_ordered(self, tmp_path):
        out = tmp_path / "sw.csv"
        run_cli(
            "sweep", "--signal", "oscillation", "--n-min", "20", "--n-max", "60",
            "--n-step", "10", "--kmax", "2", "--out", str(out),
        )
        lines = out.read_text().splitlines()[1:]
        assert [int(line.split(",")[0]) for line in lines] == [20, 30, 40, 50, 60]

    def test_half_rule_sweep(self, tmp_path):
        out = tmp_path / "sw.json"
        run_cli(
            "sweep", "--signal", "weierstrass", "--n-grid", "40,80", "--kmax-rule", "half",
            "--format", "json", "--out", str(out),
        )
        payload = json.loads(out.read_text())
        expected = hfd(sample(Weierstrass(5.0, 1.7), 80), 40).slope
        assert payload[1] == {"N": 80, "D": expected}


def _gen_rows():
    ts = sample(Oscillation(20.0), 50)
    return list(zip(range(1, ts.n + 1), ts.grid, ts.values))


def _hfd_rows():
    result = hfd(sample(Weierstrass(5.0, 1.7), 200), 20)
    return [(k, x, y) for k, (x, y) in zip(result.index_set, result.points)]


def _boxdim_rows():
    result = box_dim_estimate(Oscillation(20.0), delta_min=0.01, delta_max=0.1, levels=4)
    return list(zip(result.deltas, result.counts, result.areas))


def _tv_rows():
    trace = total_variation_estimate(Weierstrass(5.0, 1.7), 4).trace
    return [(level, 64 * 2**level, v) for level, v in enumerate(trace)]


def _trace_rows(spec):
    rows = divergence_trace(sample(spec, 100), 50, 1, (1e-4, 1e-8))
    return [(r.eps, r.d_eps, None if np.isnan(r.min_log_new) else r.min_log_new) for r in rows]


# command -> (argv, in-process CSV rows, or None for a JSON-only payload)
OUTPUT_CASES = {
    "gen": (["gen", "--signal", "oscillation", "--n", "50"], _gen_rows),
    "hfd": (["hfd", "--signal", "weierstrass", "--n", "200", "--kmax", "20"], _hfd_rows),
    "boxdim": (
        ["boxdim", "--signal", "oscillation", "--delta-min", "0.01", "--delta-max", "0.1", "--levels", "4"],
        _boxdim_rows,
    ),
    "tv": (["tv", "--signal", "weierstrass", "--levels", "4"], _tv_rows),
    "tv_convergence": (
        ["tv", "--signal", "oscillation", "--n-grid", "100,1000", "--k", "3", "--m", "2"],
        lambda: list(variation_convergence_check(Oscillation(20.0), 3, 2, (100, 1000))),
    ),
    "stability": (["stability", "--signal", "alternating", "--n", "100", "--kmax", "50"], None),
    "stability_trace": (
        ["stability", "--signal", "alternating", "--n", "100", "--kmax", "50", "--eps-grid", "1e-4,1e-8"],
        lambda: _trace_rows(Alternating(*DEMO_ALTERNATING)),
    ),
    "stability_trace_missing": (
        # a bump on a rough series resurrects no stride, so min_log_L is missing
        ["stability", "--signal", "weierstrass", "--n", "100", "--kmax", "50", "--eps-grid", "1e-4,1e-8"],
        lambda: _trace_rows(Weierstrass(5.0, 1.7)),
    ),
    "sweep": (
        ["sweep", "--signal", "oscillation", "--n-grid", "40,80", "--kmax-rule", "half"],
        lambda: [(n, hfd(sample(Oscillation(20.0), n), n // 2).slope) for n in (40, 80)],
    ),
}


def _reject_constant(name):
    raise AssertionError(f"invalid JSON number {name}")


class TestOutputRule:
    @pytest.mark.parametrize(
        "case,fmt",
        [(case, fmt) for case in sorted(OUTPUT_CASES) for fmt in ("csv", "json")
         if fmt == "json" or OUTPUT_CASES[case][1] is not None],
    )
    def test_every_number_is_finite_and_exact(self, case, fmt, tmp_path):
        argv, expected_rows = OUTPUT_CASES[case]
        out = tmp_path / f"{case}.{fmt}"
        assert run_cli(*argv, "--format", fmt, "--out", str(out)) == 0
        text = out.read_text()
        if fmt == "json":
            json.loads(text, parse_constant=_reject_constant)
            return
        rows = [line.split(",") for line in text.splitlines()[1:]]
        expected = expected_rows()
        assert len(rows) == len(expected)
        for cells, values in zip(rows, expected):
            assert len(cells) == len(values)
            for cell, value in zip(cells, values):
                if value is None:
                    assert cell == "nan"
                else:
                    assert float(cell) == value

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "signal",
        ['{"kind": "affine", "a": 1.7e308, "b": 1.7e308}', '{"kind": "constant", "c": 1e999}'],
    )
    def test_non_finite_result_writes_nothing(self, signal, fmt, tmp_path, capsys):
        out = tmp_path / f"tv.{fmt}"
        assert run_cli("tv", "--signal", signal, "--levels", "2", "--format", fmt, "--out", str(out)) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "signal", ['{"kind": "constant", "c": [1]}', '{"kind": "periodic", "values": 5}']
    )
    def test_non_number_parameter_exits_2(self, signal, capsys):
        assert run_cli("gen", "--signal", signal, "--n", "10") == 2
        assert "must be" in capsys.readouterr().err


class TestVerifyCommand:
    def test_subset_passes(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run_cli("verify", "--only", "2,4,9", "--out", str(out)) == 0
        text = out.read_text()
        assert "FAIL" not in text and "pass" in text

    def test_corrupted_golden_fails(self, tmp_path, monkeypatch):
        import fracdim

        packaged = Path(fracdim.__file__).parent / "golden" / "expected.json"
        golden_dir = tmp_path / "golden"
        golden_dir.mkdir()
        data = json.loads(packaged.read_text())
        data["alternating"]["perturbed_d"] += 0.5
        (golden_dir / "expected.json").write_text(json.dumps(data))
        monkeypatch.setenv("FRACDIM_GOLDEN_DIR", str(golden_dir))
        out = tmp_path / "report.txt"
        assert run_cli("verify", "--only", "8", "--out", str(out)) == 1
        assert "FAIL" in out.read_text()

    def test_missing_golden_dir_fails_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACDIM_GOLDEN_DIR", str(tmp_path / "nowhere"))
        out = tmp_path / "report.txt"
        assert run_cli("verify", "--only", "8", "--out", str(out)) == 1

    def test_console_script_entry(self):
        """Runs `python -m fracdim.cli verify --only 2`, not the installed `fracdim` script."""
        proc = subprocess.run(
            [sys.executable, "-m", "fracdim.cli", "verify", "--only", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "claim" in proc.stdout


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


class TestMainModuleRunner:
    def test_module_has_script_entry(self):
        """pyproject declares `fracdim = fracdim.cli:main`, and that target runs as the script would."""
        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
        scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
        assert scripts.get("fracdim") == "fracdim.cli:main"

        module_name, _, attr = scripts["fracdim"].partition(":")
        target = getattr(importlib.import_module(module_name), attr)
        assert target is main

        # The console script that pip generates does exactly this.
        wrapper = "import sys; from fracdim.cli import main; sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "verify", "--only", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "claim" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("fracdim") is None, reason="fracdim console script not installed"
    )
    def test_installed_script_runs(self):
        """The `fracdim` script on PATH, present only after an install, runs claim 2."""
        proc = subprocess.run(
            ["fracdim", "verify", "--only", "2"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "claim" in proc.stdout
