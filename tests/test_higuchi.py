import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (
    Affine,
    Alternating,
    Constant,
    PeriodicInterp,
    TimeSeries,
    curve_lengths,
    divergence_trace,
    fit_lengths,
    geometric_hfd,
    hfd,
    increments_count,
    normalization_constant,
    regression_slope,
    sample,
    stability_report,
    variation_sum,
)
from fracdim.cli import main
from fracdim.errors import (
    AdmissibilityError,
    DegenerateRegressionError,
    DomainError,
    EmptySubseriesError,
)

ALTERNATING_01 = '{"kind": "alternating", "c1": 0.0, "c2": 1.0}'


class TestAdmissibility:
    def test_boundaries(self):
        for n, k_max in ((2, 1), (11, 6), (100, 50)):
            assert hfd(TimeSeries(np.arange(n, dtype=float)), k_max).lengths.size == k_max

    @pytest.mark.parametrize("n,k_max", [(1, 1), (2, 2), (11, 7), (100, 51), (5, 0)])
    def test_rejections(self, n, k_max):
        with pytest.raises(AdmissibilityError):
            hfd(TimeSeries(np.arange(n, dtype=float)), k_max)

    def test_rejection_messages(self):
        with pytest.raises(AdmissibilityError, match=r"^need 1 <= k_max <= ceil\(n/2\) = 6, got k_max=7$"):
            hfd(TimeSeries(np.zeros(11)), 7)
        with pytest.raises(AdmissibilityError, match=r"^a time series needs at least 2 values$"):
            hfd(TimeSeries(np.zeros(1)), 1)

    @pytest.mark.parametrize("entry", ["hfd", "curve_lengths", "geometric_hfd", "stability_report", "divergence_trace"])
    @pytest.mark.parametrize("k_max", [2.0, 2.5, True, "2", None])
    def test_non_integer_k_max_rejected(self, entry, k_max):
        ts = sample(Alternating(0.4, 0.6), 10)
        call = {
            "hfd": lambda: hfd(ts, k_max),
            "curve_lengths": lambda: curve_lengths(ts, k_max),
            "geometric_hfd": lambda: geometric_hfd(ts, k_max),
            "stability_report": lambda: stability_report(ts, k_max),
            "divergence_trace": lambda: divergence_trace(ts, k_max, 1, [1e-3]),
        }[entry]
        with pytest.raises(AdmissibilityError, match=r"^k_max must be an integer, got "):
            call()

    @pytest.mark.parametrize("k_max", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_k_max_accepted(self, k_max):
        ts = sample(Alternating(0.4, 0.6), 10)
        res = hfd(ts, k_max)
        assert type(res.k_max) is int and res.k_max == 3
        assert np.array_equal(res.lengths, hfd(ts, 3).lengths)
        assert geometric_hfd(ts, k_max) == geometric_hfd(ts, 3)


class TestIncrementsCount:
    def test_floor_division(self):
        assert increments_count(11, 3, 1) == 3

    @pytest.mark.parametrize("n", [2, 5, 11, 100])
    def test_unit_stride(self, n):
        assert increments_count(n, 1, 1) == n - 1

    def test_largest_stride(self):
        assert increments_count(100, 50, 50) == 1

    def test_zero_at_odd_boundary(self):
        assert increments_count(11, 6, 6) == 0

    def test_rejects_bad_offset(self):
        with pytest.raises(DomainError):
            increments_count(11, 3, 4)
        with pytest.raises(AdmissibilityError):
            increments_count(11, 7, 1)
        with pytest.raises(AdmissibilityError, match="need n >= 2"):
            increments_count(1, 1, 1)


    @pytest.mark.parametrize(
        "n, k, m, error",
        [
            (10, 2.5, 1, DomainError),
            (10, 2.0, 1, DomainError),
            (10, True, 1, DomainError),
            (10, 2, 1.0, DomainError),
            (10, 2, None, DomainError),
            (10.0, 2, 1, AdmissibilityError),
            (10.5, 2, 1, AdmissibilityError),
        ],
    )
    def test_non_integer_arguments_rejected(self, n, k, m, error):
        with pytest.raises(error, match=r" must be an integer, got "):
            increments_count(n, k, m)
        with pytest.raises(error, match=r" must be an integer, got "):
            normalization_constant(n, k, m)
        if isinstance(n, int):
            with pytest.raises(error, match=r" must be an integer, got "):
                variation_sum(sample(Affine(1.0, 0.0), n), k, m)

    def test_numpy_integer_arguments_accepted(self):
        q = increments_count(np.int64(10), np.int32(3), np.int64(2))
        assert q == 2 and type(q) is int
        assert normalization_constant(np.int64(10), np.int64(3), 2) == normalization_constant(10, 3, 2)


class TestNormalizationConstant:
    @pytest.mark.parametrize("n", [2, 10, 101])
    def test_unit_stride_is_one(self, n):
        assert normalization_constant(n, 1, 1) == 1.0

    def test_direct_values(self):
        assert normalization_constant(11, 3, 1) == 10.0 / 9.0
        assert normalization_constant(10, 3, 2) == 1.5

    def test_empty_subseries(self):
        with pytest.raises(EmptySubseriesError):
            normalization_constant(11, 6, 6)


class TestVariationSum:
    def test_affine_closed_form(self):
        # |a| * q * k / (n - 1) with q = floor((n - m)/k)
        ts = sample(Affine(2.0, 0.0), 11)
        assert variation_sum(ts, 3, 1) == pytest.approx(2.0 * 3 * 3 / 10.0, rel=1e-14)

    def test_constant_is_zero(self):
        ts = sample(Constant(4.2), 50)
        for k in (1, 2, 5):
            for m in range(1, k + 1):
                assert variation_sum(ts, k, m) == 0.0

    def test_alternating_unit_stride(self):
        ts = sample(Alternating(0.4, 0.6), 100)
        assert variation_sum(ts, 1, 1) == pytest.approx(abs(0.6 - 0.4) * 99, rel=1e-14)

    def test_zero_increments_returns_zero(self):
        ts = TimeSeries(np.arange(5, dtype=float))
        assert variation_sum(ts, 3, 3) == 0.0


class TestCurveLengths:
    def test_affine_inverse_k(self):
        ts = sample(Affine(-3.7, 1.0), 101)
        lengths = curve_lengths(ts, 51)
        ks = np.arange(1, 52, dtype=float)
        assert np.max(np.abs(lengths - 3.7 / ks) / (3.7 / ks)) < 1e-12

    def test_alternating_closed_forms(self):
        n = 100
        ts = sample(Alternating(0.4, 0.6), n)
        lengths = curve_lengths(ts, 50)
        gap = abs(0.4 - 0.6)
        for k in range(1, 51):
            if k % 2 == 1:
                assert lengths[k - 1] == pytest.approx((n - 1) * gap / k**2, rel=1e-12)
            else:
                assert lengths[k - 1] == 0.0

    def test_periodic_multiples_vanish(self):
        ts = sample(PeriodicInterp((1.0, 1.1, 1.3, 1.4, 1.3, 1.4, 1.3, 1.4, 1.3, 1.1)), 150)
        lengths = curve_lengths(ts, 30)
        assert lengths[9] == 0.0 and lengths[19] == 0.0 and lengths[29] == 0.0
        others = [lengths[k - 1] for k in range(1, 31) if k % 10 != 0]
        assert min(others) > 0.0

    def test_inadmissible_pair_rejected(self):
        ts = TimeSeries(np.arange(10, dtype=float))
        with pytest.raises(AdmissibilityError):
            curve_lengths(ts, 6)


class TestRegressionSlope:
    def test_two_points(self):
        slope, intercept = regression_slope([(0.0, 0.0), (1.0, 1.0)])
        assert slope == 1.0 and intercept == 0.0

    def test_collinear(self):
        slope, intercept = regression_slope([(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)])
        assert slope == pytest.approx(2.0, abs=1e-15)
        assert intercept == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed(self):
        # xbar = 1, ybar = 2/3: slope = ((-1)(-2/3) + 0 + (1)(1/3)) / 2 = 0.5
        slope, _ = regression_slope([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
        assert slope == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, 0.0), (1.0, math.nan)],
            [(0.0, 0.0), (math.inf, 1.0)],
            [(0.0, -math.inf), (1.0, 0.0), (2.0, 1.0)],
            [(1.5e308, 0.0), (1.6e308, 1.0)],  # the mean of x overflows
            [(0.0, -1.7e308), (1.0, 1.7e308)],  # the slope overflows
        ],
    )
    def test_non_finite_or_overflowing_points_rejected(self, points):
        with pytest.raises(DomainError):
            regression_slope(points)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateRegressionError):
            regression_slope([(1.0, 2.0)])
        with pytest.raises(DegenerateRegressionError):
            regression_slope([(1.0, 2.0), (1.0, 3.0)])


class TestFitLengths:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1.0, max_value=2.0),
        st.integers(min_value=2, max_value=40),
    )
    def test_power_law_recovered(self, scale, exponent, k_max):
        ks = np.arange(1, k_max + 1, dtype=float)
        slope, _, index_set, _ = fit_lengths(scale * ks ** (-exponent))
        assert len(index_set) == k_max
        assert abs(slope - exponent) < 1e-10

    def test_single_point_falls_back_to_one(self):
        slope, intercept, index_set, points = fit_lengths([0.0, 3.0, 0.0])
        assert slope == 1.0 and intercept is None
        assert index_set == (2,) and points.shape == (1, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_negative_or_non_finite_value_rejected(self, bad):
        with pytest.raises(DomainError, match=r"^the value at stride k=2 is "):
            fit_lengths([1.0, bad, 0.5, bad])
        with pytest.raises(DomainError, match=r"^the value at stride k=3 is "):
            fit_lengths([0.0, 0.0, bad])

    def test_empty_falls_back_to_one(self):
        slope, intercept, index_set, _ = fit_lengths([0.0, 0.0])
        assert slope == 1.0 and intercept is None and index_set == ()


class TestHfd:
    def test_constant_series(self):
        result = hfd(sample(Constant(5.0), 64), 32)
        assert result.slope == 1.0
        assert result.index_set == ()
        assert result.intercept is None

    @pytest.mark.parametrize("n,k_max", [(20, 10), (101, 51), (47, 5)])
    def test_affine_dimension_one(self, n, k_max):
        result = hfd(sample(Affine(2.0, -1.0), n), k_max)
        assert abs(result.slope - 1.0) < 1e-9

    def test_alternating_dimension_two(self):
        result = hfd(sample(Alternating(0.4, 0.6), 100), 50)
        assert abs(result.slope - 2.0) < 1e-9
        assert result.index_set == tuple(range(1, 50, 2))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(42)
        base = TimeSeries(rng.normal(size=120))
        d0 = hfd(base, 60).slope
        for alpha, beta in ((2.5, 0.0), (-1.0, 3.0), (1e-3, -7.0)):
            scaled = TimeSeries(alpha * base.values + beta)
            assert abs(hfd(scaled, 60).slope - d0) < 1e-9

    def test_reflection_invariance_exact(self):
        rng = np.random.default_rng(43)
        ts = TimeSeries(rng.normal(size=80))
        neg = TimeSeries(-ts.values)
        assert np.array_equal(curve_lengths(ts, 40), curve_lengths(neg, 40))
        assert hfd(ts, 40).slope == hfd(neg, 40).slope

    def test_index_set_membership_matches_positive_sums(self):
        ts = sample(PeriodicInterp((0.0, 1.0, 2.0)), 60)
        k_max = 30
        result = hfd(ts, k_max)
        for k in range(1, k_max + 1):
            has_positive = any(variation_sum(ts, k, m) > 0.0 for m in range(1, k + 1))
            assert (k in result.index_set) == has_positive

    def test_unit_stride_length_is_variation_sum(self):
        rng = np.random.default_rng(44)
        ts = TimeSeries(rng.normal(size=90))
        assert curve_lengths(ts, 2)[0] == variation_sum(ts, 1, 1)

    def test_detail_rows_consistent(self):
        ts = sample(Alternating(0.0, 1.0), 20)
        result = hfd(ts, 4, detail=True)
        assert result.detail is not None
        for row in result.detail:
            assert row.length == row.c * row.v / row.k
            assert 1 <= row.m <= row.k <= 4
        assert hfd(ts, 4).detail is None

    def test_json_shape(self, capsys):
        argv = ["hfd", "--signal", ALTERNATING_01, "--n", "10", "--kmax", "5", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"N", "k_max", "D", "intercept", "I", "Z", "L"}
        assert payload["N"] == 10 and payload["k_max"] == 5
        assert len(payload["Z"]) == len(payload["I"])
        assert len(payload["L"]) == 5

    def test_points_csv(self, capsys):
        result = hfd(sample(Alternating(0.0, 1.0), 10), 5)
        assert main(["hfd", "--signal", ALTERNATING_01, "--n", "10", "--kmax", "5", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,log_inv_k,log_L"
        assert len(lines) == 1 + len(result.index_set)
        k, x, y = lines[1].split(",")
        assert int(k) == result.index_set[0]
        assert float(x) == result.points[0, 0] and float(y) == result.points[0, 1]

    def test_points_use_natural_log(self):
        ts = sample(Alternating(0.4, 0.6), 100)
        result = hfd(ts, 50)
        lengths = curve_lengths(ts, 50)
        for (x, y), k in zip(result.points, result.index_set):
            assert x == math.log(1.0 / k)
            assert y == math.log(lengths[k - 1])
