import json
import math

import mpmath as mp
import numpy as np
import pytest

from fracdim import (
    Alternating,
    TimeSeries,
    PeriodicInterp,
    Weierstrass,
    curve_lengths,
    divergence_trace,
    hfd,
    increments_count,
    normalization_constant,
    perturb,
    perturbed_length_closed_form,
    sample,
    stability_report,
    variation_sum,
)
from fracdim import higuchi
from fracdim.acceptance import golden_values
from fracdim.errors import AdmissibilityError, DomainError
from fracdim.higuchi import ceil_half
from fracdim.cli import main
from fracdim.stability import DEMO_ALTERNATING, DEMO_PERIODIC_COEFFS


@pytest.fixture(scope="module")
def periodic_series():
    return sample(PeriodicInterp(DEMO_PERIODIC_COEFFS), 150)


@pytest.fixture(scope="module")
def alternating_series():
    return sample(Alternating(*DEMO_ALTERNATING), 100)


def effective_eps(ts, eps):
    """The bump that survives float rounding of X(1) + eps."""
    return (ts.values[0] + eps) - ts.values[0]


class TestStabilityReport:
    def test_periodic_interpolant_blowup(self, periodic_series):
        report = stability_report(periodic_series, 30, j=1, eps=1e-10)
        assert abs(report.base.slope - 1.9) <= 0.15
        assert abs(report.perturbed.slope - 3.5) <= 0.15
        assert report.perturbed.slope > 2.0
        assert report.delta_d == report.perturbed.slope - report.base.slope

    def test_alternating_blowup(self, alternating_series):
        report = stability_report(alternating_series, 50, j=1, eps=1e-10)
        assert abs(report.base.slope - 2.0) < 1e-9
        assert abs(report.perturbed.slope - 2.7) <= 0.15
        assert report.perturbed.slope > 2.0

    def test_zero_bump_changes_nothing(self, alternating_series):
        report = stability_report(alternating_series, 50, j=1, eps=0.0)
        assert report.delta_d == 0.0
        assert np.array_equal(report.base.lengths, report.perturbed.lengths)
        assert len(report.new_points) == 0

    def test_index_set_only_grows(self, periodic_series, alternating_series):
        for ts, k_max in ((periodic_series, 30), (alternating_series, 50)):
            report = stability_report(ts, k_max, j=1, eps=1e-10)
            assert set(report.base.index_set) <= set(report.perturbed.index_set)
            assert report.vanished == ()

    def test_new_points_are_resurrected_strides(self, alternating_series):
        report = stability_report(alternating_series, 50, j=1, eps=1e-10)
        resurrected = sorted(set(report.perturbed.index_set) - set(report.base.index_set))
        assert resurrected == list(range(2, 51, 2))
        assert len(report.new_points) == len(resurrected)
        expected_x = sorted(math.log(1.0 / k) for k in resurrected)
        assert sorted(report.new_points[:, 0]) == pytest.approx(expected_x, abs=0.0)

    def test_json_shape(self, alternating_series, capsys):
        report = stability_report(alternating_series, 50)
        assert main(["stability", "--signal", "alternating", "--n", "100", "--kmax", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"eps", "index", "delta_D", "new_points", "vanished", "base", "perturbed"}
        assert payload["base"]["D"] == report.base.slope


class TestResurrectedStrideLaw:
    @pytest.mark.parametrize(
        "coeffs,n,kappa,k_max",
        [
            (DEMO_PERIODIC_COEFFS, 150, 10, 30),
            (DEMO_ALTERNATING, 100, 2, 50),
        ],
    )
    def test_only_first_offset_breaks(self, coeffs, n, kappa, k_max):
        spec = PeriodicInterp(tuple(coeffs)) if len(coeffs) > 2 else Alternating(*coeffs)
        ts = sample(spec, n)
        eps = 1e-10
        bumped = perturb(ts, 1, eps)
        eps_eff = effective_eps(ts, eps)
        assert variation_sum(bumped, kappa, 1) == eps_eff
        for m in range(2, kappa + 1):
            assert variation_sum(bumped, kappa, m) == 0.0

    @pytest.mark.parametrize(
        "coeffs,n,kappa,k_max",
        [
            (DEMO_PERIODIC_COEFFS, 150, 10, 30),
            (DEMO_ALTERNATING, 100, 2, 50),
        ],
    )
    def test_closed_form_matches_measured_length(self, coeffs, n, kappa, k_max):
        spec = PeriodicInterp(tuple(coeffs)) if len(coeffs) > 2 else Alternating(*coeffs)
        ts = sample(spec, n)
        eps = 1e-10
        measured = curve_lengths(perturb(ts, 1, eps), k_max)[kappa - 1]
        predicted = perturbed_length_closed_form(n, kappa, effective_eps(ts, eps))
        assert abs(measured - predicted) / predicted <= 1e-15

    def test_hand_computed_value(self):
        # q = floor(99/2) = 49, C = 99/98; prediction is (1/4) * C * eps
        eps = 1e-10
        assert perturbed_length_closed_form(100, 2, eps) == (99.0 / 98.0) * eps / 2.0 / 2.0

    def test_zero_bump_predicts_zero(self):
        assert perturbed_length_closed_form(100, 2, 0.0) == 0.0


# claim 7's series (N = 150, k_max = 30) and claim 8's (N = 100, k_max = 50)
LAW_CASES = {"periodic": 30, "alternating": 50}


class TestInstabilityLawAtEveryBump:
    @staticmethod
    def resurrected(report):
        return sorted(set(report.perturbed.index_set) - set(report.base.index_set))

    @pytest.mark.parametrize("name,cells", [("periodic", 450), ("alternating", 2500)])
    def test_resurrected_length_closed_form_at_every_index(self, name, cells, request):
        # a bump at j breaks only the subseries of offset m = (j-1) mod k + 1
        # that holds X(j), as its sample i = (j-m)/k; an endpoint sample
        # meets one increment and an inner one two
        ts = request.getfixturevalue(f"{name}_series")
        n, eps, checked = ts.n, 1e-10, 0
        for j in range(1, n + 1):
            report = stability_report(ts, LAW_CASES[name], j=j, eps=eps)
            eps_eff = (ts.values[j - 1] + eps) - ts.values[j - 1]
            for kappa in self.resurrected(report):
                m = (j - 1) % kappa + 1
                i = (j - m) // kappa
                w = 1 if i in (0, increments_count(n, kappa, m)) else 2
                predicted = normalization_constant(n, kappa, m) * (w * eps_eff) / kappa / kappa
                assert report.perturbed.lengths[kappa - 1] == predicted, (j, kappa)
                checked += 1
        assert checked == cells

    @pytest.mark.parametrize("name,rate", [("periodic", 0.0588200170), ("alternating", 0.0282243824)])
    def test_trace_steps_follow_the_divergence_rate(self, name, rate, request):
        # oracle: D(eps) = D0 + lam * ln(1/eps_eff) + O(eps), with
        # lam = -cov(x, 1_R) / var(x) over the perturbed index set,
        # x = ln(1/k) and R the resurrected strides, in mpmath
        ts = request.getfixturevalue(f"{name}_series")
        grid = [eps for eps, _ in golden_values()["alternating_divergence"]]
        report = stability_report(ts, LAW_CASES[name], j=1, eps=grid[0])
        ks, resurrected = report.perturbed.index_set, set(self.resurrected(report))
        x = [-mp.log(k) for k in ks]
        ind = [mp.mpf(k in resurrected) for k in ks]
        x_bar, ind_bar = mp.fsum(x) / len(ks), mp.fsum(ind) / len(ks)
        lam = -mp.fsum((a - x_bar) * (b - ind_bar) for a, b in zip(x, ind)) / mp.fsum((a - x_bar) ** 2 for a in x)
        assert abs(lam - rate) < 1e-10
        rows = divergence_trace(ts, LAW_CASES[name], 1, grid)
        for row, nxt in zip(rows, rows[1:]):
            step = mp.log(effective_eps(ts, row.eps)) - mp.log(effective_eps(ts, nxt.eps))
            gap = abs((nxt.d_eps - row.d_eps) - lam * step)
            assert gap <= 1e-2 * max(row.eps, nxt.eps), (row.eps, nxt.eps)


class TestDivergenceTrace:
    def test_slope_grows_as_bump_shrinks(self, alternating_series):
        grid = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
        rows = divergence_trace(alternating_series, 50, 1, grid)
        slopes = [row.d_eps for row in rows]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))
        golden = golden_values()["alternating_divergence"]
        for row, (eps, expected) in zip(rows, golden):
            assert row.eps == eps
            assert row.d_eps == pytest.approx(expected, abs=1e-9)

    def test_resurrected_log_lengths_diverge(self, alternating_series):
        rows = divergence_trace(alternating_series, 50, 1, (1e-4, 1e-8, 1e-12))
        logs = [row.min_log_new for row in rows]
        assert all(b < a for a, b in zip(logs, logs[1:]))

    def test_surviving_lengths_move_by_at_most_eps_scale(self, alternating_series):
        eps = 1e-10
        base = curve_lengths(alternating_series, 50)
        bumped = perturb(alternating_series, 1, eps)
        pert = curve_lengths(bumped, 50)
        eps_eff = effective_eps(alternating_series, eps)
        bound = eps_eff * max(
            (99.0 / (((100 - 1) // k) * k)) / k**2 for k in range(1, 51)
        )
        for k in range(1, 51, 2):
            assert abs(pert[k - 1] - base[k - 1]) <= bound * (1.0 + 1e-9)

    def test_grid_validation(self, alternating_series):
        with pytest.raises(DomainError):
            divergence_trace(alternating_series, 50, 1, (1e-4, 0.0))
        with pytest.raises(DomainError):
            divergence_trace(alternating_series, 50, 1, (1e-6, 1e-4))

    def test_csv_format(self, capsys):
        argv = [
            "stability", "--signal", "alternating", "--n", "100", "--kmax", "50",
            "--eps-grid", "1e-4,1e-6", "--format", "csv",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "eps,D_eps,min_log_L"
        assert len(lines) == 3


def assert_same_result(got, expected):
    assert got.lengths.tobytes() == expected.lengths.tobytes()
    assert got.index_set == expected.index_set
    assert got.points.tobytes() == expected.points.tobytes()
    assert repr(got.slope) == repr(expected.slope)
    assert repr(got.intercept) == repr(expected.intercept)


def oracle_series(kind, n):
    if kind == "alternating":
        return sample(Alternating(*DEMO_ALTERNATING), n)
    if kind == "periodic":
        return sample(PeriodicInterp((1.0, 1.25, 1.5)), n)
    return TimeSeries(np.random.default_rng(n).uniform(1.0, 2.0, n))


# values lie in [0.4, 2): ulp <= 2.2e-16, so 1e-15 survives X(j) + eps and
# 1e-17 is absorbed by it
ORACLE_EPS = (1e-3, -2.5e-7, 1e-15, 1e-17)


class TestIncrementalBump:
    """The report recomputes one column per stride; it must equal running
    the estimator on the bumped series, bit for bit."""

    @pytest.mark.parametrize("kind", ["alternating", "periodic", "uniform"])
    @pytest.mark.parametrize("n", [7, 8, 31, 40])
    def test_every_index_matches_full_estimate(self, n, kind):
        ts = oracle_series(kind, n)
        k_max = ceil_half(n)
        base = hfd(ts, k_max)
        absorbed = 0
        for j in range(1, n + 1):
            for eps in ORACLE_EPS:
                bumped = perturb(ts, j, eps)
                absorbed += bool(np.array_equal(bumped.values, ts.values))
                report = stability_report(ts, k_max, j=j, eps=eps)
                assert_same_result(report.base, base)
                assert_same_result(report.perturbed, hfd(bumped, k_max))
        assert absorbed == n  # only the 1e-17 bump, at every j

    @pytest.mark.parametrize("kind", ["alternating", "periodic", "uniform"])
    @pytest.mark.parametrize("n", [7, 8, 31, 40])
    def test_one_layout_serves_every_eps(self, n, kind):
        # one call lays out the touched columns once for all of ORACLE_EPS
        ts = oracle_series(kind, n)
        k_max = ceil_half(n)
        for j in range(1, n + 1):
            _, perts = higuchi._bumped_results(ts, k_max, j, ORACLE_EPS)
            assert len(perts) == len(ORACLE_EPS)
            for eps, pert in zip(ORACLE_EPS, perts):
                assert_same_result(pert, hfd(perturb(ts, j, eps), k_max))

    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_trace_rows_match_full_estimates(self, alternating_series, j):
        grid = (1e-4, 1e-8, 1e-12, 1e-17)
        base = hfd(alternating_series, 50)
        expected = []
        for eps in grid:
            pert = hfd(perturb(alternating_series, j, eps), 50)
            logs = [float(y) for k, (_, y) in zip(pert.index_set, pert.points) if k not in base.index_set]
            expected.append(repr((eps, pert.slope, min(logs) if logs else math.nan)))
        rows = divergence_trace(alternating_series, 50, j, grid)
        assert [repr(tuple(row)) for row in rows] == expected

    def test_overflowing_bump_raises_like_full_estimate(self):
        # finite base lengths; the bump makes |X(2) - X(1)| overflow
        ts = TimeSeries(np.array([1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        hfd(ts, 4)
        with pytest.raises(DomainError) as full:
            hfd(perturb(ts, 2, -1e308), 4)
        with pytest.raises(DomainError) as incremental:
            stability_report(ts, 4, j=2, eps=-1e308)
        assert str(incremental.value) == str(full.value)
        assert "stride k=1" in str(incremental.value)
        with pytest.raises(DomainError):
            divergence_trace(ts, 4, 2, (1e308,))

    def test_bump_to_non_finite_value_rejected(self):
        ts = TimeSeries(np.array([1.7e308, 0.0, 1.0, 0.0]))
        with pytest.raises(DomainError):
            stability_report(ts, 2, j=1, eps=1e308)

    @pytest.mark.parametrize("j", [1.0, 2.5, True, np.float64(1.0), "1"])
    def test_non_integer_index_rejected(self, alternating_series, j):
        with pytest.raises(DomainError, match=r"^index j must be an integer, got "):
            stability_report(alternating_series, 5, j=j)
        with pytest.raises(DomainError, match=r"^index j must be an integer, got "):
            divergence_trace(alternating_series, 5, j, [1e-3])

    def test_numpy_integer_index_accepted(self, alternating_series):
        report = stability_report(alternating_series, 50, j=np.int64(3))
        expected = stability_report(alternating_series, 50, j=3)
        assert np.array_equal(report.perturbed.lengths, expected.perturbed.lengths)
        assert divergence_trace(alternating_series, 50, np.int32(3), [1e-3]) == divergence_trace(
            alternating_series, 50, 3, [1e-3]
        )

    @pytest.mark.parametrize("grid", [(1e-4,), (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)])
    def test_trace_builds_the_base_table_once(self, alternating_series, grid, monkeypatch):
        # every (k, m) table, lengths or areas, is built by _stride_averages
        calls = []
        real = higuchi._stride_averages
        monkeypatch.setattr(higuchi, "_stride_averages", lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        divergence_trace(alternating_series, 50, 1, grid)
        assert calls == [50]

    @pytest.mark.parametrize("j", [0, 101, 1.5, True])
    def test_refused_index_builds_no_table(self, alternating_series, j, monkeypatch):
        calls = []
        real = higuchi._stride_averages
        monkeypatch.setattr(higuchi, "_stride_averages", lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        with pytest.raises(DomainError, match=r"^index j"):
            stability_report(alternating_series, 50, j=j)
        with pytest.raises(DomainError, match=r"^index j"):
            divergence_trace(alternating_series, 50, j, [1e-3])
        assert calls == []

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_bump_builds_no_table(self, alternating_series, eps, monkeypatch):
        calls = []
        real = higuchi._stride_averages
        monkeypatch.setattr(higuchi, "_stride_averages", lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        with pytest.raises(DomainError, match=rf"^the bumped value X\(1\) \+ {eps!r} is not finite$"):
            stability_report(alternating_series, 50, j=1, eps=eps)
        grid_rule = "positive" if eps < 0 else "finite"
        with pytest.raises(DomainError, match=rf"^eps grid must contain {grid_rule} values only$"):
            divergence_trace(alternating_series, 50, 1, [1e-3, eps, 1e-5])
        assert calls == []

    def test_bad_k_max_is_reported_before_bad_index(self, alternating_series):
        with pytest.raises(AdmissibilityError):
            stability_report(alternating_series, 51, j=0)
        with pytest.raises(AdmissibilityError):
            divergence_trace(alternating_series, 51, 0, [1e-3])


class TestSmoothInputsAreStable:
    def test_rough_series_barely_moves(self):
        # every stride already carries positive length, so nothing resurrects
        ts = sample(Weierstrass(5.0, 1.7), 100)
        base = hfd(ts, 50).slope
        pert = hfd(perturb(ts, 1, 1e-10), 50).slope
        assert abs(pert - base) <= 1e-6

    def test_no_new_points_for_rough_series(self):
        ts = sample(Weierstrass(5.0, 1.7), 100)
        report = stability_report(ts, 50, j=1, eps=1e-10)
        assert len(report.new_points) == 0
        assert report.base.index_set == report.perturbed.index_set
