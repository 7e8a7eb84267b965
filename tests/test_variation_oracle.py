"""Bit-equality of the midpoint-refined variation trace and the sample-based
convergence rows against the original implementations.

The oracles below are the per-level trace (every dyadic grid evaluated from
scratch) and the partition-based convergence loop (the signal evaluated on
``higuchi_partition`` plus four scalar calls for e_n), kept verbatim.  Every
comparison is exact: ``np.array_equal`` or ``==``, never a tolerance.
"""
import json

import numpy as np
import pytest

from fracdim import (
    Affine,
    Alternating,
    Constant,
    Oscillation,
    PeriodicInterp,
    Weierstrass,
    as_callable,
    cli,
    higuchi_partition,
    increments_count,
    sample,
    spec_to_dict,
    total_variation_estimate,
    variation_convergence_check,
    variation_over_partition,
    variation_sum,
)
from fracdim.errors import DomainError, EmptySubseriesError
from fracdim.series import _BLOCK_POINTS
from fracdim.variation import TRACE_BASE_INTERVALS, ConvergenceRow


def oracle_trace(spec, levels):
    f = as_callable(spec)
    trace = np.zeros(levels)
    for level in range(levels):
        intervals = TRACE_BASE_INTERVALS * 2**level
        points = np.arange(intervals + 1, dtype=float) / intervals
        values = np.asarray(f(points), dtype=float)
        trace[level] = float(np.cumsum(np.abs(np.diff(values)))[-1])
    return float(trace[-1]), trace


def oracle_convergence(spec, k, m, n_grid):
    f = as_callable(spec)
    rows = []
    for n in n_grid:
        ts = sample(spec, n)
        v_nkm = variation_sum(ts, k, m)
        part = higuchi_partition(n, k, m)
        v_pn = variation_over_partition(spec, part)
        q = increments_count(n, k, m)
        left = (m - 1) / (n - 1)
        right = (m + q * k - 1) / (n - 1)
        e_n = abs(float(f(0.0)) - float(f(left))) + abs(float(f(1.0)) - float(f(right)))
        rows.append(ConvergenceRow(n, v_nkm, v_pn, e_n))
    return rows


def sinusoid(t):
    return 5.0 ** (-0.3) * np.sin(5.0 * np.asarray(t))


TRACE_SPECS = {
    "weierstrass": Weierstrass(5.0, 1.7),
    "oscillation": Oscillation(20.0),
    "affine": Affine(-7.3, 2.1),
    "constant": Constant(3.7),
    "callable": sinusoid,
}


class CountingSpy:
    """Plain callable that records every point it is asked to evaluate."""

    def __init__(self, func):
        self.func = func
        self.calls = []

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        self.calls.append(arr.copy())
        return self.func(arr)


# at 10, 11 and 12 levels the last midpoints fill one, two and four whole blocks
@pytest.mark.parametrize("levels", [2, 5, 10, 11, 12])
@pytest.mark.parametrize("name", sorted(TRACE_SPECS))
def test_trace_bit_equal_to_per_level_oracle(name, levels):
    spec = TRACE_SPECS[name]
    estimate, trace = total_variation_estimate(spec, levels)
    ref_estimate, ref_trace = oracle_trace(spec, levels)
    assert np.array_equal(trace, ref_trace)
    assert estimate == ref_estimate
    assert type(estimate) is float


def test_twelve_level_trace_evaluates_each_point_once():
    spy = CountingSpy(sinusoid)
    total_variation_estimate(spy, 12)
    points = np.concatenate(spy.calls)
    finest = TRACE_BASE_INTERVALS * 2**11
    assert points.size == finest + 1
    assert np.unique(points).size == finest + 1
    assert max(call.size for call in spy.calls) <= TRACE_BASE_INTERVALS * 2**10
    assert np.array_equal(np.sort(points), np.arange(finest + 1, dtype=float) / finest)


def test_trace_midpoints_evaluated_in_ascending_blocks():
    spy = CountingSpy(sinusoid)
    total_variation_estimate(spy, 13)
    expected = [np.arange(TRACE_BASE_INTERVALS + 1, dtype=float) / TRACE_BASE_INTERVALS]
    for level in range(1, 13):
        intervals = TRACE_BASE_INTERVALS * 2**level
        midpoints = np.arange(1, intervals, 2, dtype=float) / intervals
        expected += [midpoints[a : a + _BLOCK_POINTS] for a in range(0, midpoints.size, _BLOCK_POINTS)]
    assert len(spy.calls) == len(expected) == 1 + 9 + 2 + 4 + 8
    for call, points in zip(spy.calls, expected):
        assert np.array_equal(call, points)


def test_spy_trace_equals_direct_trace():
    spy = CountingSpy(sinusoid)
    assert np.array_equal(total_variation_estimate(spy, 6).trace, oracle_trace(sinusoid, 6)[1])


CONVERGENCE_SPECS = {
    "weierstrass": Weierstrass(5.0, 1.7),
    "oscillation": Oscillation(20.0),
    "affine": Affine(4.0, 1.0),
    "constant": Constant(3.7),
}

# (k, m, n_grid, (left endpoint shared, right endpoint shared)): m = 1 shares
# 0, m - 1 + qk = N - 1 shares 1; None leaves the sharing unchecked
CONVERGENCE_CASES = {
    "m1": (2, 1, (100, 1000, 4000), (True, False)),
    "right_end_shared": (3, 2, (101, 1001, 3002), (False, True)),
    "both_shared": (3, 1, (100, 1000, 3001), (True, True)),
    "neither": (3, 2, (100, 1002, 3003), (False, False)),
    "unit_stride": (1, 1, (10, 1000), (True, True)),
    "wide_stride": (7, 5, (50, 707, 2000), None),
}


def cli_convergence_output(spec, k, m, n_grid, fmt, capsys):
    grid = ",".join(str(n) for n in n_grid)
    argv = ["tv", "--signal", json.dumps(spec_to_dict(spec)), "--n-grid", grid,
            "--k", str(k), "--m", str(m), "--format", fmt]
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def _assert_rows_equal(rows, ref):
    assert len(rows) == len(ref)
    for row, expected in zip(rows, ref):
        assert row == expected
        assert type(row.n) is int
        assert all(type(v) is float for v in (row.v_nkm, row.v_pn, row.e_n))


@pytest.mark.parametrize("case", sorted(CONVERGENCE_CASES))
@pytest.mark.parametrize("name", sorted(CONVERGENCE_SPECS))
def test_convergence_rows_bit_equal_to_partition_oracle(name, case, capsys, monkeypatch):
    k, m, n_grid, shared = CONVERGENCE_CASES[case]
    if shared is not None:
        for n in n_grid:
            assert (m == 1, m - 1 + increments_count(n, k, m) * k == n - 1) == shared
    spec = CONVERGENCE_SPECS[name]
    rows = variation_convergence_check(spec, k, m, n_grid)
    ref = oracle_convergence(spec, k, m, n_grid)
    _assert_rows_equal(rows, ref)
    for fmt in ("csv", "json"):
        text = cli_convergence_output(spec, k, m, n_grid, fmt, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "variation_convergence_check", oracle_convergence)
            assert cli_convergence_output(spec, k, m, n_grid, fmt, capsys) == text


def test_convergence_random_strides_bit_equal():
    rng = np.random.default_rng(41)
    spec = Oscillation(13.0)
    for _ in range(40):
        n = int(rng.integers(4, 3000))
        k = int(rng.integers(1, (n + 1) // 2 + 1))
        m = int(rng.integers(1, k + 1))
        if increments_count(n, k, m) == 0:
            continue
        _assert_rows_equal(variation_convergence_check(spec, k, m, (n,)), oracle_convergence(spec, k, m, (n,)))


@pytest.mark.parametrize("spec", [Alternating(0.4, 0.6), PeriodicInterp((0.1, 0.9, 0.5))])
def test_convergence_grid_defined_rejected(spec):
    with pytest.raises(DomainError, match="grid-defined"):
        variation_convergence_check(spec, 2, 1, (100,))


def test_convergence_empty_subseries_raises_as_before():
    with pytest.raises(EmptySubseriesError):
        oracle_convergence(Affine(1.0, 0.0), 6, 6, (11,))
    with pytest.raises(EmptySubseriesError):
        variation_convergence_check(Affine(1.0, 0.0), 6, 6, (11,))
