import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (
    Affine,
    Alternating,
    Constant,
    DomainError,
    Oscillation,
    PeriodicInterp,
    TimeSeries,
    Weierstrass,
    as_callable,
    eval_affine,
    eval_constant,
    eval_oscillation,
    eval_spline,
    eval_weierstrass,
    make_alternating_series,
    make_periodic_series,
    spec_from_dict,
    spec_to_dict,
    weierstrass_term_count,
)
from fracdim.errors import AdmissibilityError


class TestWeierstrass:
    def test_zero_at_origin(self):
        assert eval_weierstrass(0.0, 5.0, 1.7, 1e-15) == 0.0

    def test_matches_extended_partial_sum(self):
        # oracle: same series with 50 extra terms
        lam, s, tol = 5.0, 1.7, 1e-15
        count = weierstrass_term_count(lam, s, tol)
        j = np.arange(1, count + 51, dtype=float)
        oracle = float(np.sum(lam ** ((s - 2.0) * j) * np.sin(lam**j * 0.5)))
        assert eval_weierstrass(0.5, lam, s, tol) == pytest.approx(oracle, abs=1e-12)

    def test_term_count_matches_high_precision_bound(self):
        # oracle: the same tail-bound inequality evaluated at 60 digits
        mp.mp.dps = 60
        lam, s, tol = 5.0, 1.7, 1e-15
        ratio = mp.mpf(lam) ** (mp.mpf(s) - 2)
        count = 1
        while ratio ** (count + 1) / (1 - ratio) >= mp.mpf(tol):
            count += 1
        assert weierstrass_term_count(lam, s, tol) == count

    def test_truncation_error_below_tail_tol(self):
        grid = np.arange(1000) / 999.0
        tol = 1e-10
        coarse = eval_weierstrass(grid, 5.0, 1.7, tol)
        fine = eval_weierstrass(grid, 5.0, 1.7, tol / 10.0)
        assert np.max(np.abs(coarse - fine)) < tol

    @pytest.mark.parametrize("lam,s", [(1.0, 1.7), (0.5, 1.7), (5.0, 1.0), (5.0, 2.0), (5.0, 2.5)])
    def test_rejects_bad_parameters(self, lam, s):
        with pytest.raises(DomainError):
            Weierstrass(lam, s)

    def test_rejects_bad_tail_tol(self):
        with pytest.raises(DomainError):
            eval_weierstrass(0.5, 5.0, 1.7, 0.0)


class TestOscillation:
    def test_zero_at_origin(self):
        assert eval_oscillation(0.0, 20.0) == 0.0

    def test_value_at_one(self):
        assert eval_oscillation(1.0, 20.0) == math.sin(20.0)

    def test_peak_value(self):
        # t* solves sin(20/t) = 1: 20/t* = pi/2 + 2*pi*3
        t_star = 20.0 / (math.pi / 2 + 2 * math.pi * 3)
        assert eval_oscillation(t_star, 20.0) == pytest.approx(t_star**2, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_bounded_by_t_squared(self, t):
        assert abs(eval_oscillation(t, 20.0)) <= t * t + 1e-300

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(DomainError):
            Oscillation(0.0)


def test_affine_and_constant_values():
    assert eval_affine(0.0, 2.0, 1.0) == 1.0
    assert eval_affine(1.0, 2.0, 1.0) == 3.0
    assert eval_constant(0.5, 7.0) == 7.0
    assert eval_affine(0.5, 0.0, 7.0) == 7.0


def test_evaluators_reject_points_outside_unit_interval():
    for fn in (lambda t: eval_affine(t, 1.0, 0.0), lambda t: eval_oscillation(t, 2.0)):
        with pytest.raises(DomainError):
            fn(-0.1)
        with pytest.raises(DomainError):
            fn(1.1)


class TestPeriodicSeries:
    def test_demo_coefficients(self):
        coeffs = (1.0, 1.1, 1.3, 1.4, 1.3, 1.4, 1.3, 1.4, 1.3, 1.1)
        ts = make_periodic_series(150, coeffs)
        assert ts.values[0] == 1.0
        assert ts.values[10] == 1.0
        assert ts.values[11] == 1.1

    def test_single_coefficient_gives_constant(self):
        ts = make_periodic_series(6, (7.0,))
        assert np.array_equal(ts.values, np.full(6, 7.0))

    def test_two_coefficients_alternate(self):
        ts = make_periodic_series(7, (0.0, 1.0))
        assert list(ts.values) == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]

    def test_period_longer_than_half_rejected(self):
        with pytest.raises(AdmissibilityError):
            make_periodic_series(5, (1.0, 2.0, 3.0, 4.0))

    def test_empty_coefficients_rejected(self):
        with pytest.raises(DomainError):
            make_periodic_series(5, ())


class TestAlternatingSeries:
    def test_basic_pattern(self):
        ts = make_alternating_series(4, 0.0, 1.0)
        assert list(ts.values) == [0.0, 1.0, 0.0, 1.0]

    def test_demo_input(self):
        ts = make_alternating_series(100, 0.4, 0.6)
        assert ts.n == 100
        assert ts.values[0] == 0.4 and ts.values[1] == 0.6 and ts.values[99] == 0.6

    @pytest.mark.parametrize("n", [3, 4, 7, 100])
    def test_equals_two_coefficient_periodic(self, n):
        alt = make_alternating_series(n, 0.4, 0.6)
        per = make_periodic_series(n, (0.4, 0.6))
        assert np.array_equal(alt.values, per.values)

    def test_equal_values_rejected(self):
        with pytest.raises(DomainError):
            make_alternating_series(10, 0.5, 0.5)
        with pytest.raises(DomainError):
            Alternating(0.5, 0.5)


class TestSpline:
    def test_exact_at_grid_nodes(self):
        ts = TimeSeries(np.array([0.3, -1.2, 4.0, 0.7]))
        out = eval_spline(ts.grid, ts)
        assert np.array_equal(out, ts.values)

    def test_midpoint_of_two_nodes(self):
        ts = TimeSeries(np.array([0.0, 2.0]))
        assert eval_spline(0.5, ts) == 1.0

    def test_hand_interpolated_value(self):
        ts = TimeSeries(np.array([0.0, 1.0, 0.0]))
        assert eval_spline(0.25, ts) == 0.5

    def test_short_series_rejected(self):
        with pytest.raises(AdmissibilityError):
            TimeSeries(np.array([1.0]))


class TestSpecSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            Weierstrass(5.0, 1.7),
            Oscillation(20.0),
            Affine(2.0, 1.0),
            Constant(3.5),
            PeriodicInterp((1.0, 1.1, 1.3)),
            Alternating(0.4, 0.6),
        ],
    )
    def test_round_trip(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            spec_from_dict({"kind": "sawtooth"})

    def test_missing_field_rejected(self):
        with pytest.raises(DomainError):
            spec_from_dict({"kind": "affine", "a": 1.0})

    @pytest.mark.parametrize(
        "data,field",
        [
            ({"kind": "constant", "c": [1]}, "c"),
            ({"kind": "constant", "c": None}, "c"),
            ({"kind": "constant", "c": "1.0"}, "c"),
            ({"kind": "affine", "a": 1.0, "b": True}, "b"),
            ({"kind": "weierstrass", "lambda": {}, "s": 1.7}, "lambda"),
            ({"kind": "periodic", "values": 5}, "values"),
            ({"kind": "periodic", "values": [1.0, None]}, "values"),
        ],
    )
    def test_non_number_field_rejected(self, data, field):
        with pytest.raises(DomainError, match=f"'{field}'"):
            spec_from_dict(data)

    def test_unhashable_kind_rejected(self):
        with pytest.raises(DomainError, match="unknown signal kind"):
            spec_from_dict({"kind": ["constant"], "c": 1.0})

    def test_key_order_and_names(self):
        assert list(spec_to_dict(Weierstrass(5.0, 1.7))) == ["kind", "lambda", "s"]
        assert spec_to_dict(PeriodicInterp((1.0, 2.0))) == {"kind": "periodic", "values": [1.0, 2.0]}
        assert list(spec_to_dict(Alternating(0.4, 0.6))) == ["kind", "c1", "c2"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "spec,field",
    [
        (Weierstrass(5.0, 1.7), "lam"),
        (Oscillation(20.0), "c"),
        (Affine(2.0, 1.0), "a"),
        (Affine(2.0, 1.0), "b"),
        (Constant(1.0), "c"),
        (Alternating(0.4, 0.6), "c1"),
        (Alternating(0.4, 0.6), "c2"),
    ],
)
def test_non_finite_parameter_rejected(spec, field, value):
    with pytest.raises(DomainError, match=f"{type(spec).__name__}.{field} must be finite"):
        dataclasses.replace(spec, **{field: value})


class TestAsCallable:
    def test_closed_form_passthrough(self):
        f = as_callable(Affine(2.0, 1.0))
        assert f(0.5) == 2.0

    def test_plain_callable_passthrough(self):
        f = as_callable(lambda t: np.asarray(t) * 0.0)
        assert f(0.3) == 0.0

    def test_grid_defined_needs_sample_count(self):
        with pytest.raises(DomainError):
            as_callable(Alternating(0.4, 0.6))

    def test_grid_defined_spline_hits_knots(self):
        f = as_callable(Alternating(0.4, 0.6), n_samples=10)
        grid = np.arange(10) / 9.0
        expected = np.where(np.arange(1, 11) % 2 == 1, 0.4, 0.6)
        assert np.array_equal(f(grid), expected)

    @settings(max_examples=25)
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_spline_stays_in_knot_hull(self, t):
        f = as_callable(Alternating(0.4, 0.6), n_samples=10)
        assert 0.4 <= f(t) <= 0.6
