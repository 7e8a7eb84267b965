import contextlib
import copy
import importlib
import io
import itertools
import json
import math
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (
    Alternating,
    Oscillation,
    TimeSeries,
    acceptance,
    box_count,
    box_dim_estimate,
    divergence_trace,
    hfd,
    perturb,
    read_csv,
    sample,
    stability_report,
    total_variation_estimate,
    variation_convergence_check,
)
from fracdim.cli import _emit, _json_blocks, _write_output, build_parser, main, parse_signal
from fracdim.errors import DomainError, FracdimError
from fracdim.series import _BLOCK_ROWS
from fracdim.signals import Weierstrass, spec_from_dict, spec_to_dict
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
    def test_blocks_join_to_the_whole_text(self, n, fmt, tmp_path, capsys):
        # oracle: the whole output built as one string
        spec = Weierstrass(5.0, 1.7)
        ts = sample(spec, n)
        if fmt == "csv":
            rows = zip(range(1, n + 1), ts.grid.tolist(), ts.values.tolist())
            expected = "j,t,x\n" + ("%d,%.17g,%.17g\n" * n) % tuple(itertools.chain.from_iterable(rows))
        else:
            payload = {"signal": spec_to_dict(spec), "n": n, "values": [float(v) for v in ts.values]}
            expected = json.dumps(payload, indent=2) + "\n"
        argv = ["gen", "--signal", "weierstrass", "--n", str(n), "--format", fmt]
        out = tmp_path / f"w.{fmt}"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == expected.encode()
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == expected


class TestHfd:
    def test_affine_dimension_one(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("hfd", "--signal", "affine", "--n", "100", "--kmax", "50", "--out", str(out))
        payload = json.loads(out.read_text())
        assert abs(payload["D"] - 1.0) < 1e-9

    def test_alternating_dimension_two(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("hfd", "--signal", "alternating", "--n", "100", "--kmax", "half", "--out", str(out))
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

    @pytest.mark.parametrize("block", [1, 2, 13, 64, 65, _BLOCK_ROWS])
    def test_detail_blocks_join_to_the_whole_text(self, block, monkeypatch, capsys):
        # oracle: the payload with one dict per (k, m) row, dumped as one
        # string; the table has 65 rows
        monkeypatch.setattr("fracdim.series._BLOCK_ROWS", block)
        result = hfd(sample(Weierstrass(5.0, 1.7), 21), 11, detail=True)
        payload = result.to_dict()
        payload["detail"] = [dict(zip(result.detail, row))
                             for row in zip(*(column.tolist() for column in result.detail.values()))]
        assert len(payload["detail"]) == 65
        assert run_cli("hfd", "--signal", "weierstrass", "--n", "21", "--kmax", "11", "--detail") == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

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
        with pytest.raises(SystemExit) as excinfo:
            run_cli("hfd", "--signal", "constant", "--n", "10")
        assert excinfo.value.code == 2
        assert "the following arguments are required: --kmax" in capsys.readouterr().err


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

    def test_empty_grid_means_no_grid(self, tmp_path):
        plain, empty = tmp_path / "plain.csv", tmp_path / "empty.csv"
        assert run_cli("tv", "--signal", "oscillation", "--levels", "3", "--out", str(plain)) == 0
        assert run_cli("tv", "--signal", "oscillation", "--levels", "3", "--n-grid", "", "--out", str(empty)) == 0
        assert empty.read_text() == plain.read_text()

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
            "stability", "--signal", "alternating", "--n", "100", "--kmax", "half",
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

    def test_half_rule_sweep(self, tmp_path):
        out = tmp_path / "sw.json"
        run_cli(
            "sweep", "--signal", "weierstrass", "--n-grid", "40,80", "--kmax", "half",
            "--format", "json", "--out", str(out),
        )
        payload = json.loads(out.read_text())
        expected = hfd(sample(Weierstrass(5.0, 1.7), 80), 40).slope
        assert payload[1] == {"N": 80, "D": expected}

    @pytest.mark.parametrize("grid", [["--n-grid", f"100,{10**18}"]])
    def test_largest_n_refused_before_sampling(self, grid, monkeypatch, capsys):
        # no N is sampled when the largest is beyond the 50M-sample limit
        sampled = []
        monkeypatch.setattr("fracdim.cli.sample", lambda spec, n: sampled.append(n))
        assert run_cli("sweep", "--signal", "oscillation", *grid, "--kmax", "1") == 2
        assert f"error: need at most 50000000 samples, got n={10**18}" in capsys.readouterr().err
        assert sampled == []


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
        # the grid is sorted and its duplicates dropped
        ["sweep", "--signal", "oscillation", "--n-grid", "80,40,80", "--kmax", "half"],
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


BIGGEST = sys.float_info.max
# JSON numbers: every finite float, and integers (one beyond the float range
# is refused by "signal_number_beyond_float" below)
NUMBER = st.one_of(st.floats(min_value=-BIGGEST, max_value=BIGGEST), st.integers(-(2**64), 2**64))
# A scale factor next to 1 may ask for up to 50M points x terms, over a GB of
# temporaries, before the limit refuses it (tests/test_signals.py covers that
# refusal); from 1.1 on a sum has at most 385 terms.  The sampled values are
# refused on construction.
LAMBDA = st.one_of(
    st.floats(min_value=1.1, max_value=BIGGEST), st.floats(1.1, 100.0), st.sampled_from([1.0, 0.5, 0.0, -2.0])
)


@st.composite
def signal_dicts(draw):
    kind = draw(st.sampled_from(["weierstrass", "oscillation", "affine", "constant", "periodic", "alternating"]))
    if kind == "weierstrass":
        return {"kind": kind, "lambda": draw(LAMBDA), "s": draw(st.one_of(st.floats(1.0, 2.0), NUMBER))}
    if kind == "periodic":
        return {"kind": kind, "values": draw(st.lists(NUMBER, min_size=1, max_size=8))}
    fields = {"oscillation": ("c",), "affine": ("a", "b"), "constant": ("c",), "alternating": ("c1", "c2")}
    return {"kind": kind, **{field: draw(NUMBER) for field in fields[kind]}}


def _all_finite(payload) -> bool:
    if isinstance(payload, dict):
        return all(_all_finite(v) for v in payload.values())
    if isinstance(payload, list):
        return all(_all_finite(v) for v in payload)
    return not isinstance(payload, float) or math.isfinite(payload)


@settings(max_examples=80, deadline=None)
@given(
    signal_dicts(),
    st.integers(2, 64),
    st.integers(2, 4),
    st.integers(2, 5),
)
def test_finite_signal_parameters_give_finite_results_or_refusals(data, n, box_levels, tv_levels):
    """gen, boxdim and tv on a spec built from finite JSON numbers: exit 0
    with finite JSON, or exit 2 on a FracdimError; any other exception, or a
    RuntimeWarning, fails the test."""
    try:
        spec_from_dict(data)
        refused = False
    except FracdimError:
        refused = True
    signal = json.dumps(data)
    for argv in (
        ["gen", "--signal", signal, "--n", str(n)],
        ["boxdim", "--signal", signal, "--n", str(n), "--delta-min", "1e-2", "--levels", str(box_levels)],
        ["tv", "--signal", signal, "--levels", str(tv_levels)],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--format", "json"])
        assert code == 2 if refused else code in (0, 2)
        if code == 0:
            assert _all_finite(json.loads(out.getvalue(), parse_constant=_reject_constant))


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter, so that an uncaught exception shows
    as a traceback on stderr."""
    return subprocess.run([sys.executable, "-m", "fracdim.cli", *argv], capture_output=True, text=True)


NOT_TEXT = "<file holding the bytes ff fe>"
UNDERSCORE_CSV = "<series CSV whose first row is 1,0,1_0>"

W_2M = ["--signal", "weierstrass", "--n", "2000000"]

# argv and a part of the message; the first five exited 2 only through a
# catch-all ValueError clause before, the others too
BAD_INPUTS = {
    "n_grid_not_int": (["tv", "--signal", "oscillation", "--n-grid", "10,a"], "comma-separated integers"),
    "eps_grid_not_number": (
        ["stability", "--signal", "alternating", "--n", "100", "--kmax", "50", "--eps-grid", "1e-4,x"],
        "comma-separated numbers",
    ),
    "only_not_int": (["verify", "--only", "x"], "comma-separated integers"),
    "signal_not_json": (["gen", "--signal", "{bad", "--n", "10"], "not valid JSON"),
    "csv_not_text": (["hfd", "--input", NOT_TEXT, "--kmax", "2"], "is not text"),
    "signal_file_not_text": (["gen", "--signal", NOT_TEXT, "--n", "10"], "not valid JSON"),
    "sweep_grid_not_int": (
        ["sweep", "--signal", "oscillation", "--n-grid", "10,b", "--kmax", "3"], "comma-separated integers"
    ),
    "sweep_empty_grid": (["sweep", "--signal", "oscillation", "--n-grid", "", "--kmax", "3"], "--n-grid holds no N"),
    "n_beyond_array_size": (["gen", "--signal", "constant", "--n", str(10**20)], "at most"),
    "n_beyond_eval_limit": (["gen", "--signal", "constant", "--n", str(10**17)], "need at most 50000000 samples"),
    "tv_levels_beyond_eval_limit": (["tv", "--signal", "oscillation", "--levels", "21"], "need at most 20 levels"),
    "boxdim_levels_beyond_eval_limit": (
        ["boxdim", "--signal", "oscillation", "--levels", str(10**18)], "need at most 50000000 levels"
    ),
    "sweep_n_beyond_eval_limit": (
        ["sweep", "--signal", "oscillation", "--n-grid", f"2,{10**18}", "--kmax", "1"],
        "need at most 50000000 samples",
    ),
    "mesh_inverse_overflows": (
        ["boxdim", "--signal", "oscillation", "--delta-min", "5e-324", "--levels", "2"], "1/delta overflows"
    ),
    "signal_number_beyond_float": (
        ["gen", "--signal", '{"kind": "constant", "c": 1' + "0" * 400 + "}", "--n", "3"],
        "field 'c' is beyond the float range",
    ),
    "hfd_without_series": (["hfd", "--kmax", "2"], "pass either --signal or --input"),
    "hfd_signal_without_n": (["hfd", "--signal", "oscillation", "--kmax", "2"], "--signal needs --n"),
    "sweep_without_grid": (
        ["sweep", "--signal", "oscillation", "--kmax", "2"], "the following arguments are required: --n-grid"
    ),
    "hfd_without_kmax": (["hfd", *W_2M], "the following arguments are required: --kmax"),
    "hfd_input_without_kmax": (["hfd", "--input", "series.csv"], "the following arguments are required: --kmax"),
    "stability_without_kmax": (["stability", *W_2M], "the following arguments are required: --kmax"),
    # float() reads 1_0 as 10, a CSV reader would not
    "csv_underscore_digits": (["hfd", "--input", UNDERSCORE_CSV, "--kmax", "1"], "not a plain decimal number"),
}

# built at import, outside any traced window: only the refusal is measured
ZEROS_1M = TimeSeries(np.zeros(10**6))

# refusals that sampled or read the series, or built a grid as large,
# before they checked their arguments; a library call or a CLI argv, and
# the message
REFUSED_BEFORE_READING = {
    "convergence_bad_offset": (
        lambda: variation_convergence_check(Weierstrass(5.0, 1.7), 3, 4, [10**6 + 1]),
        "need 1 <= m <= k, got m=4, k=3",
    ),
    "convergence_no_increments_at_smallest_n": (
        lambda: variation_convergence_check(Oscillation(20.0), 2, 2, [3, 10**6]),
        "no increments for n=3, k=2, m=2",
    ),
    "convergence_largest_n_beyond_eval_limit": (
        lambda: variation_convergence_check(Oscillation(20.0), 2, 1, [10, 10**9]),
        "need at most 50000000 samples, got n=1000000000",
    ),
    "stability_report_as_csv": (
        ["stability", *W_2M, "--kmax", "5", "--format", "csv"], "the stability report has only a JSON form"
    ),
    "stability_input_report_as_csv": (
        ["stability", "--input", "series.csv", "--kmax", "5", "--format", "csv"],
        "the stability report has only a JSON form",
    ),
    "stability_eps_grid_increasing": (
        ["stability", *W_2M, "--kmax", "5", "--eps-grid", "1e-3,1e-2"], "eps grid must be strictly decreasing"
    ),
    "stability_eps_grid_not_positive": (
        ["stability", *W_2M, "--kmax", "5", "--eps-grid", "1e-3,0"], "eps grid must contain positive values only"
    ),
    "stability_eps_grid_nan": (
        ["stability", *W_2M, "--kmax", "5", "--eps-grid", "1e-3,nan"], "eps grid must contain finite values only"
    ),
    "stability_eps_grid_inf": (
        ["stability", *W_2M, "--kmax", "5", "--eps-grid", "inf,1e-3"], "eps grid must contain finite values only"
    ),
    "stability_eps_nan": (
        ["stability", *W_2M, "--kmax", "5", "--eps", "nan"], "the bumped value X(1) + nan is not finite"
    ),
    "stability_eps_inf": (
        ["stability", *W_2M, "--kmax", "5", "--eps", "inf"], "the bumped value X(1) + inf is not finite"
    ),
    "hfd_kmax_beyond_half_n": (
        ["hfd", *W_2M, "--kmax", "1500000"], "need 1 <= k_max <= ceil(n/2) = 1000000, got k_max=1500000"
    ),
    "hfd_kmax_zero": (["hfd", *W_2M, "--kmax", "0"], "need 1 <= k_max <= ceil(n/2) = 1000000, got k_max=0"),
    "stability_kmax_beyond_half_n": (
        ["stability", *W_2M, "--kmax", "1000001"], "need 1 <= k_max <= ceil(n/2) = 1000000, got k_max=1000001"
    ),
    "stability_index_zero": (["stability", *W_2M, "--kmax", "5", "--index", "0"], "index j=0 outside 1..2000000"),
    "stability_index_beyond_n": (
        ["stability", *W_2M, "--kmax", "half", "--index", "2000001"], "index j=2000001 outside 1..2000000"
    ),
    "stability_kmax_before_index": (
        ["stability", *W_2M, "--kmax", "1000001", "--index", "0"],
        "need 1 <= k_max <= ceil(n/2) = 1000000, got k_max=1000001",
    ),
    "stability_kmax_before_eps": (
        ["stability", *W_2M, "--kmax", "1000001", "--eps", "nan"],
        "need 1 <= k_max <= ceil(n/2) = 1000000, got k_max=1000001",
    ),
    "stability_index_before_eps": (
        ["stability", *W_2M, "--kmax", "5", "--eps", "inf", "--index", "0"], "index j=0 outside 1..2000000"
    ),
    "sweep_kmax_beyond_half_n": (
        ["sweep", "--signal", "weierstrass", "--n-grid", "2000000", "--kmax", "1500000"],
        "need 1 <= k_max <= ceil(n/2) = 1000000, got k_max=1500000",
    ),
    "sweep_kmax_beyond_half_a_later_n": (
        ["sweep", "--signal", "weierstrass", "--n-grid", "10,2000000", "--kmax", "6"],
        "need 1 <= k_max <= ceil(n/2) = 5, got k_max=6",
    ),
    "box_dim_one_sample_per_column": (
        lambda: box_dim_estimate(Weierstrass(5.0, 1.7), levels=50_000_000, samples_per_column=1),
        "need at least 2 samples per column, got 1",
    ),
    "box_dim_grid_defined_without_n_samples": (
        lambda: box_dim_estimate(Alternating(*DEMO_ALTERNATING), levels=50_000_000),
        "Alternating is grid-defined; pass n_samples",
    ),
    "box_dim_mesh_too_fine": (
        lambda: box_dim_estimate(Weierstrass(5.0, 1.7), delta_min=1e-12, levels=50_000_000),
        "mesh of 1000000000001 columns x 33 samples is too fine to evaluate",
    ),
    "boxdim_one_sample_per_column": (
        ["boxdim", "--signal", "weierstrass", "--levels", "50000000", "--samples-per-column", "1"],
        "need at least 2 samples per column, got 1",
    ),
    "boxdim_grid_defined_without_n": (
        ["boxdim", "--signal", "alternating", "--levels", "50000000"], "Alternating is grid-defined; pass n_samples"
    ),
    "boxdim_mesh_too_fine": (
        ["boxdim", "--signal", "weierstrass", "--delta-min", "1e-12", "--levels", "50000000"],
        "mesh of 1000000000001 columns x 33 samples is too fine to evaluate",
    ),
    # a grid-defined spec anchors its spline on n_samples knots only after the mesh checks
    "box_count_grid_defined_mesh_too_fine": (
        lambda: box_count(Alternating(*DEMO_ALTERNATING), 1e-9, n_samples=10**7),
        "mesh of 1000000000 columns x 33 samples is too fine to evaluate",
    ),
    "box_dim_grid_defined_mesh_too_fine": (
        lambda: box_dim_estimate(Alternating(*DEMO_ALTERNATING), delta_min=1e-9, n_samples=10**7),
        "mesh of 1000000000 columns x 33 samples is too fine to evaluate",
    ),
    "boxdim_grid_defined_mesh_too_fine": (
        ["boxdim", "--signal", "alternating", "--n", "10000000", "--delta-min", "1e-9"],
        "mesh of 1000000000 columns x 33 samples is too fine to evaluate",
    ),
    "perturb_non_finite_bump": (
        lambda: perturb(ZEROS_1M, 1, math.inf), "the bumped value X(1) + inf is not finite"
    ),
    "stability_report_non_finite_bump": (
        lambda: stability_report(ZEROS_1M, 64, 1, math.inf), "the bumped value X(1) + inf is not finite"
    ),
    "sweep_grid_below_two_samples": (
        ["sweep", "--signal", "oscillation", "--n-grid", "20000,1", "--kmax", "half"],
        "need at least 2 samples, got n=1",
    ),
    "hfd_detail_beyond_row_limit": (
        ["hfd", *W_2M, "--kmax", "1000000", "--detail"],
        "a detail table of 500000500000 (k, m) rows is too large: need at most 10000000",
    ),
}


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(REFUSED_BEFORE_READING))
    def test_refused_before_the_series_is_read(self, case, monkeypatch, capsys):
        read = []
        for target in ("fracdim.cli.sample", "fracdim.cli.read_csv", "fracdim.signals.eval_weierstrass",
                       "fracdim.signals.eval_oscillation"):
            monkeypatch.setattr(target, lambda *args, target=target: read.append(target))
        call, message = REFUSED_BEFORE_READING[case]
        tracemalloc.start()
        try:
            if callable(call):
                with pytest.raises(FracdimError) as excinfo:
                    call()
                assert message in str(excinfo.value)
            else:
                assert run_cli(*call) == 2
                assert f"error: {message}" in capsys.readouterr().err
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == []
        # every case refuses at about 0.1 MB; a sample or mesh-size grid at
        # these sizes takes hundreds
        assert peak < 2**22, peak

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exits_2_with_message(self, case, tmp_path):
        files = {NOT_TEXT: tmp_path / "not_text", UNDERSCORE_CSV: tmp_path / "underscore.csv"}
        files[NOT_TEXT].write_bytes(b"\xff\xfe")
        files[UNDERSCORE_CSV].write_text("j,t,x\n1,0,1_0\n2,1,0\n")
        argv, message = BAD_INPUTS[case]
        proc = run_cli_process(*[str(files.get(a, a)) for a in argv])
        assert proc.returncode == 2
        assert "error: " in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("index", ["0", "101"])
    def test_bump_index_outside_series(self, index):
        argv = ["stability", "--signal", "alternating", "--n", "100", "--kmax", "50", "--index", index]
        proc = run_cli_process(*argv)
        assert proc.returncode == 2
        assert f"error: index j={index} outside 1..100" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "fmt,value,message",
        [("csv", math.inf, "column x holds the non-finite value inf"), ("json", math.nan, "JSON cannot represent")],
    )
    def test_non_finite_output_refused_before_writing(self, fmt, value, message, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(DomainError, match=message):
            _emit(SimpleNamespace(format=fmt, out=str(out)), ("k", "x"), [(1, 2.0), (2, value)])
        assert not out.exists()

    def test_non_finite_block_refused_before_writing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(DomainError, match="JSON cannot represent"):
            _write_output(_json_blocks({"n": 2}, "x", "%r", [np.array([1.0, math.inf])]), str(out))
        assert not out.exists()


SERIES_CSV = "<series CSV of periodic at N = 101>"


class TestKmaxHalf:
    """--kmax takes an integer or ``half``, which stands for ceil(N/2) of
    the series, or of each N of a sweep."""

    @pytest.mark.parametrize("argv,k_max", [
        pytest.param(["hfd", "--signal", "weierstrass", "--n", "101", "--detail"], 51, id="hfd_signal"),
        pytest.param(["hfd", "--input", SERIES_CSV, "--format", "csv"], 51, id="hfd_input"),
        pytest.param(["stability", "--signal", "alternating", "--n", "100"], 50, id="stability_report"),
        pytest.param(["stability", "--input", SERIES_CSV, "--index", "7", "--eps-grid", "1e-4,1e-8"], 51,
                     id="stability_trace"),
        pytest.param(["sweep", "--signal", "weierstrass", "--n-grid", "81"], 41, id="sweep"),
    ])
    def test_half_writes_the_bytes_of_ceil_half_n(self, argv, k_max, tmp_path, capsys):
        series = tmp_path / "s.csv"
        assert run_cli("gen", "--signal", "periodic", "--n", "101", "--out", str(series)) == 0
        argv = [str(series) if a == SERIES_CSV else a for a in argv]
        assert run_cli(*argv, "--kmax", "half") == 0
        half = capsys.readouterr().out
        assert run_cli(*argv, "--kmax", str(k_max)) == 0
        assert half == capsys.readouterr().out
        assert half

    @pytest.mark.parametrize("kmax", [["--kmax", "1.5"], ["--kmax", "HALF"], ["--kmax-rule", "half"]], ids=" ".join)
    @pytest.mark.parametrize("command", ["hfd", "stability", "sweep"])
    def test_anything_else_exits_2_before_sampling(self, command, kmax, monkeypatch, capsys):
        sampled = []
        monkeypatch.setattr("fracdim.cli.sample", lambda spec, n: sampled.append(n))
        source = ["--signal", "weierstrass", "--n-grid", "2000000"] if command == "sweep" else W_2M
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, *source, *kmax)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        if kmax[0] == "--kmax":
            assert f"argument --kmax: expected an integer or 'half', got '{kmax[1]}'" in err
        else:
            assert "the following arguments are required: --kmax" in err
        assert sampled == []


class TestLargeOutputMemory:
    """gen and hfd --detail write their rows a block at a time, so their
    memory does not grow with the text."""

    @staticmethod
    def peak(*argv):
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_gen_series(self, tmp_path):
        # the whole text built at once, from a 3N-item tuple, peaks at 20.1 MB
        peak = self.peak("gen", "--signal", "weierstrass", "--n", "100000", "--out", str(tmp_path / "w.csv"))
        assert peak < 6e6, peak

    def test_hfd_detail(self, tmp_path):
        # 125 250 rows: a tuple and a dict per row and the whole text built at once peak at 183 MB
        out = tmp_path / "d.json"
        peak = self.peak("hfd", "--signal", "weierstrass", "--n", "1000", "--kmax", "500", "--detail", "--out", str(out))
        assert peak < 15e6, peak
        assert out.stat().st_size > 17e6


class TestVerifyCommand:
    def test_subset_passes(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run_cli("verify", "--only", "2,4,9", "--out", str(out)) == 0
        text = out.read_text()
        assert "FAIL" not in text and "pass" in text

    def test_corrupted_golden_fails(self, tmp_path, monkeypatch):
        data = copy.deepcopy(acceptance.golden_values())
        data["alternating"]["perturbed_d"] += 0.5
        monkeypatch.setattr(acceptance, "golden_values", lambda: data)
        out = tmp_path / "report.txt"
        assert run_cli("verify", "--only", "8", "--out", str(out)) == 1
        rows = out.read_text().splitlines()
        row = next(line for line in rows if "  perturbed slope matches frozen calibration" in line)
        assert row.endswith("FAIL")

    def test_unknown_claim_fails(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run_cli("verify", "--only", "99", "--out", str(out)) == 1
        row = next(line for line in out.read_text().splitlines() if line.startswith("99 "))
        assert "unknown claim id" in row and row.endswith("FAIL")

    def test_missing_golden_dir_fails_cleanly(self, tmp_path, monkeypatch):
        """An install without the packaged golden/ directory."""

        def unreadable():
            raise FileNotFoundError("golden/expected.json")

        monkeypatch.setattr(acceptance, "golden_values", unreadable)
        out = tmp_path / "report.txt"
        assert run_cli("verify", "--only", "8", "--out", str(out)) == 1
        row = next(line for line in out.read_text().splitlines() if line.startswith("8 "))
        assert "claim execution" in row and "FileNotFoundError: golden/expected.json" in row
        assert row.endswith("FAIL")

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
README = PYPROJECT.parent / "README.md"


def _readme_commands():
    """The argv of every ``fracdim`` line in README's sh blocks, backslash
    continuations joined and comments dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("fracdim ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    build_parser().parse_args(argv[1:])


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
