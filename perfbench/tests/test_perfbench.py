"""Tests of the benchmark itself: the oracle, the seeded op lists, tracing,
and the counting of failed ops.

    python3 -m pytest perfbench/tests
"""
import json

import numpy as np
import pytest

import oracle
import workloads
import worker
from fracdim import geometry, higuchi, signals, variation
from fracdim.series import TimeSeries, sample
from tracing import TARGETS, Tracer
from workloads import (
    BoxDimOp,
    CliGenOp,
    CliHfdOp,
    CliSeries,
    ConvergenceOp,
    GeometricHfdOp,
    HfdOp,
    OracleStore,
    SeriesInput,
    StabilityOp,
    TraceOp,
    TvOp,
)

CORPUS = [
    ("weierstrass", sample(signals.Weierstrass(5.0, 1.7), 41).values),
    ("noise", np.random.default_rng(7).standard_normal(40)),
    ("alternating", sample(signals.Alternating(0.4, 0.6), 31).values),
    ("periodic", sample(signals.PeriodicInterp((1.0, 1.1, 1.3, 1.4)), 33).values),
    ("two points", np.array([0.0, 1.0])),
]


@pytest.mark.parametrize("label,values", CORPUS)
def test_oracle_equals_program(label, values):
    ts = TimeSeries(values)
    half = higuchi.ceil_half(ts.n)
    for k_max in sorted({1, min(2, half), half}):
        lengths, areas = oracle.length_tables(values, k_max)
        result = higuchi.hfd(ts, k_max)
        assert lengths.tobytes() == result.lengths.tobytes()
        slope, intercept, index_set, points = oracle.fit_lengths(lengths)
        assert (slope, intercept, index_set) == (result.slope, result.intercept, result.index_set)
        assert points.tobytes() == result.points.tobytes()
        assert oracle.geometric_dimension(areas, ts.n) == geometry.geometric_hfd(ts, k_max)


@pytest.mark.parametrize("spec", [signals.Oscillation(15.0), signals.Weierstrass(5.0, 1.7)])
def test_oracle_box_counts_and_traces_equal_program(spec):
    deltas = np.geomspace(2e-3, 0.1, 4)
    counts = oracle.box_counts(spec.evaluate, deltas, geometry.DEFAULT_SAMPLES_PER_COLUMN)
    assert counts == [geometry.box_count(spec, float(d)) for d in deltas]
    trace = oracle.dyadic_variation_trace(spec.evaluate, variation.TRACE_BASE_INTERVALS, 4)
    assert np.array(trace).tobytes() == variation.total_variation_estimate(spec, 4).trace.tobytes()


def test_km_counts_match_definition():
    assert oracle.km_counts(5, 3) == (5, 9)  # k=1: q=4; k=2: q=2,1; k=3: q=1,1,0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_lists_are_deterministic_per_seed(name, tmp_path):
    build = workloads.WORKLOADS[name]

    def describe(seed):
        return [op.describe() for op in build(seed, str(tmp_path))]

    first = describe(3)
    assert first == describe(3)
    assert first != describe(4)
    assert [op["kind"] for op in first] == [op["kind"] for op in describe(4)]


def tiny_ops(workdir):
    rng = np.random.default_rng(0)
    w = SeriesInput("w", sample(signals.Weierstrass(5.0, 1.7), 61), (5.0, 1.7), [1, 30, 61])
    noise = SeriesInput("noise", TimeSeries(rng.standard_normal(50)))
    alt = SeriesInput("alt", sample(signals.Alternating(0.3, 0.8), 41))
    per = SeriesInput("per", sample(signals.PeriodicInterp((1.0, 1.2, 1.1)), 37))
    gen = CliSeries("gen", {"kind": "oscillation", "c": 20.0}, 200,
                    str(workdir / "gen.csv"), [1, 100], 16)
    osc = signals.Oscillation(15.0)
    return [
        HfdOp(w, 31),
        GeometricHfdOp(noise, 25),
        StabilityOp(alt, 20, 1e-9),
        TraceOp(per, 19, [1e-6, 1e-8, 1e-10]),
        CliGenOp(gen),
        CliHfdOp(gen, 16, str(workdir / "hfd.json")),
        BoxDimOp(osc, 1e-2),
        TvOp(osc),
        ConvergenceOp(osc, [50, 100]),
    ]


@pytest.fixture
def modules():
    return worker.import_program(worker.Path(__file__).resolve().parents[2])


def test_traced_and_untraced_runs_agree(tmp_path, modules):
    ops = tiny_ops(tmp_path)
    originals = [getattr(modules[m], a) for m, a, _, _ in TARGETS]
    untraced = worker.Passes(ops)
    untraced.run_pass()
    traced = worker.Passes(ops)
    tracer = Tracer(modules)
    tracer.install()
    try:
        traced.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert traced.prints == untraced.prints
    assert [getattr(modules[m], a) for m, a, _, _ in TARGETS] == originals
    assert modules["stability"].hfd is higuchi.hfd
    attempted, failed, problems, _, counts = workloads.check_outputs(
        ops, [untraced, traced], OracleStore(None))
    assert (attempted, failed, problems) == (2 * len(ops), 0, [])
    totals = tracer.layer_totals()
    assert totals["higuchi.hfd.count"] == 0
    assert totals["stability.stability_report.outer_s"] > 0
    metrics = worker.layer_metrics(tracer, traced, ops, counts, [0.0], worker.end_to_end(untraced))
    assert metrics["stability.hfd_calls"] == {"value": 8, "unit": "count"}
    assert metrics["geometry.cells"]["value"] > 0
    assert counts["stability.hfd_calls"] == 2 + 2 * 3
    assert counts["higuchi.km_pairs"] == sum(oracle.km_counts(n, k)[0] for n, k in
                                             [(61, 31), (41, 20), (41, 20)] + [(37, 19)] * 6
                                             + [(200, 16)])


def test_corrupted_outputs_count_as_failures(tmp_path, monkeypatch):
    ops = tiny_ops(tmp_path)
    real_hfd = higuchi.hfd

    def off_by_one_ulp(ts, k_max, detail=False):
        result = real_hfd(ts, k_max, detail)
        lengths = result.lengths.copy()
        lengths[-1] = np.nextafter(lengths[-1], np.inf)
        return result.__class__(**{**result.__dict__, "lengths": lengths})

    monkeypatch.setattr(higuchi, "hfd", off_by_one_ulp)
    runs = worker.Passes(ops)
    runs.run_pass()
    runs.run_pass()  # a second pass: both executions of a bad op count
    monkeypatch.setattr(higuchi, "hfd", real_hfd)
    attempted, failed, problems, _, _ = workloads.check_outputs(ops, [runs], OracleStore(None))
    assert attempted == 2 * len(ops)
    assert failed == 2
    assert [p["op"] for p in problems] == [0]


def test_wrong_box_counts_and_coarse_traces_count_as_failures(tmp_path, monkeypatch):
    ops = tiny_ops(tmp_path)[6:8]
    real_tv = variation.total_variation_estimate

    def extremes_only(spec, delta, samples_per_column=2, n_samples=None):
        # rows of each column's lowest and highest sample, none between
        values = spec.evaluate(np.linspace(0.0, 1.0, int(1.0 / delta) + 1))
        return 2 * values.size

    def coarse(spec, levels):
        result = real_tv(spec, levels + 1)
        trace = result.trace[1:]
        return result.__class__(float(trace[-1]), trace)

    monkeypatch.setattr(geometry, "box_count", extremes_only)
    monkeypatch.setattr(variation, "total_variation_estimate", coarse)
    runs = worker.Passes(ops)
    runs.run_pass()
    monkeypatch.undo()
    _, failed, problems, _, _ = workloads.check_outputs(ops, [runs], OracleStore(None))
    assert failed == 2
    text = json.dumps(problems)
    assert "cell counts differ" in text and "trace differs" in text


def test_invalid_json_token_counts_as_failure(tmp_path):
    ops = tiny_ops(tmp_path)[4:6]
    runs = worker.Passes(ops)
    runs.run_pass()
    path = ops[1].out_path
    payload = json.loads(open(path).read())
    payload["D"] = float("nan")
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))  # json.dumps writes the token NaN
    _, failed, problems, _, _ = workloads.check_outputs(ops, [runs], OracleStore(None))
    assert failed == 1
    assert "invalid JSON number NaN" in json.dumps(problems)


def test_repeated_runs_with_other_outputs_fail(tmp_path):
    ops = tiny_ops(tmp_path)[:1]
    runs = worker.Passes(ops)
    runs.run_pass()
    runs.prints[0].append("something else")
    _, failed, _, _, _ = workloads.check_outputs(ops, [runs], OracleStore(None))
    assert failed == 1


def test_tail_percentile_leaves_ten_ops_beyond():
    assert worker.tail_percentile(24) == 60
    assert worker.tail_percentile(28) == 66
    assert worker.tail_percentile(8) == 100
    values = list(range(28))
    assert sum(v > worker.percentile(values, 66) for v in values) == 10
