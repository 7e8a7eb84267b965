import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (
    Affine,
    Constant,
    Oscillation,
    Partition,
    as_callable,
    hfd,
    higuchi_partition,
    normalization_constant,
    sample,
    sample_grid,
    total_variation_estimate,
    variation_convergence_check,
    variation_over_partition,
    variation_sum,
)
from fracdim.errors import AdmissibilityError, DomainError, EmptySubseriesError
from fracdim.cli import main


def single_sinusoid(t):
    """First term of the rough-series family: 5**(-0.3) * sin(5 t)."""
    return 5.0 ** (-0.3) * np.sin(5.0 * np.asarray(t))


def sinusoid_total_variation():
    """Analytic total variation via the derivative's sign changes.

    cos(5 t) changes sign at t = (pi/2 + k*pi)/5; only k = 0, 1 land in [0, 1].
    """
    amp = 5.0 ** (-0.3)
    t1, t2 = math.pi / 10.0, 3.0 * math.pi / 10.0
    stops = [0.0, t1, t2, 1.0]
    f = lambda t: amp * math.sin(5.0 * t)
    return sum(abs(f(b) - f(a)) for a, b in zip(stops, stops[1:]))


class TestPartition:
    def test_validation(self):
        with pytest.raises(DomainError):
            Partition(np.array([0.5]))
        with pytest.raises(DomainError):
            Partition(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(DomainError):
            Partition(np.array([0.0, 0.7, 0.4]))
        with pytest.raises(DomainError, match="must be finite"):
            Partition([0.0, math.nan])

    def test_mesh_is_largest_gap(self):
        part = Partition(np.array([0.0, 0.1, 0.5, 1.0]))
        assert part.mesh == 0.5
        assert part.a == 0.0 and part.b == 1.0

    def test_refine_with(self):
        part = Partition(np.array([0.0, 1.0]))
        refined = part.refine_with(0.25)
        assert list(refined.points) == [0.0, 0.25, 1.0]
        assert refined.refine_with(0.25) is refined

    def test_uniform_partition(self):
        part = Partition(sample_grid(5))
        assert np.array_equal(part.points, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


class TestVariationOverPartition:
    def test_affine_telescopes(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            inner = np.unique(rng.uniform(0.0, 1.0, 20))
            part = Partition(np.unique(np.concatenate(([0.0, 1.0], inner))))
            assert variation_over_partition(Affine(1.0, 0.0), part) == pytest.approx(1.0, abs=1e-12)

    def test_constant_is_zero(self):
        part = Partition(sample_grid(100))
        assert variation_over_partition(Constant(8.0), part) == 0.0

    def test_oscillation_against_finer_partition(self):
        # Tail oscillations below the mesh make this converge like
        # 1/sqrt(points), so a 10x finer oracle agrees only to ~1e-1.
        coarse = variation_over_partition(Oscillation(20.0), Partition(sample_grid(10**5)))
        oracle = variation_over_partition(Oscillation(20.0), Partition(sample_grid(10**6)))
        assert abs(coarse - oracle) < 0.1

    def test_partition_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            variation_over_partition(Constant(0.0), Partition(np.array([-0.5, 0.5])))


class TestHiguchiPartition:
    def test_stride_three_points(self):
        part = higuchi_partition(11, 3, 1)
        assert list(part.points) == [0.0, 0.3, 0.6, 0.9, 1.0]

    def test_unit_stride_is_full_grid(self):
        part = higuchi_partition(31, 1, 1)
        assert np.array_equal(part.points, sample_grid(31))

    def test_mesh_bound(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(5, 300))
            k = int(rng.integers(1, (n + 1) // 2 + 1))
            m = int(rng.integers(1, k + 1))
            if (n - m) // k < 1:
                continue
            assert higuchi_partition(n, k, m).mesh <= (k + 1) / (n - 1) + 1e-15

    def test_empty_subseries(self):
        with pytest.raises(EmptySubseriesError):
            higuchi_partition(11, 6, 6)

    def test_beyond_eval_limit_refused_before_allocating(self):
        # 10**18 points would need 8 EB
        with pytest.raises(DomainError, match=r"^need at most 50000000 partition points, got 1000000000000000000$"):
            higuchi_partition(10**18, 1, 1)

    def test_point_count_not_n_is_limited(self):
        # N = 10**12, but only three points: those of X(1) and X(N/2 + 1), and 1
        points = higuchi_partition(10**12, 5 * 10**11, 1).points
        assert points.tolist() == [0.0, 5 * 10**11 / (10**12 - 1), 1.0]


class TestTotalVariationEstimate:
    def test_affine_flat_trace(self):
        estimate, trace = total_variation_estimate(Affine(-2.0, 5.0), 6)
        assert estimate == pytest.approx(2.0, abs=1e-12)
        assert np.max(np.abs(trace - 2.0)) < 1e-12

    def test_constant_zero_trace(self):
        estimate, trace = total_variation_estimate(Constant(1.0), 4)
        assert estimate == 0.0 and np.array_equal(trace, np.zeros(4))

    def test_sinusoid_converges_to_analytic_value(self):
        estimate, trace = total_variation_estimate(single_sinusoid, 12)
        assert abs(estimate - sinusoid_total_variation()) < 1e-6
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-12)
        assert abs(diffs[-1]) < 1e-6

    @pytest.mark.parametrize("spec", [Constant(2.0), Affine(1.5, 0.0)])
    def test_smooth_traces_settle(self, spec):
        _, trace = total_variation_estimate(spec, 8)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-12)
        assert abs(diffs[-1]) < 1e-6

    def test_oscillation_trace_nondecreasing(self):
        estimate, trace = total_variation_estimate(Oscillation(20.0), 12)
        assert np.all(np.diff(trace) >= -1e-12)
        # frozen from the level-converged run; reruns must reproduce it
        assert estimate == pytest.approx(12.503373981270832, abs=1e-9)

    def test_overflowing_signal_raises_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            total_variation_estimate(Affine(1.7e308, 1.7e308), 2)
        with pytest.raises(DomainError, match="overflows"):
            variation_over_partition(Affine(1.7e308, 1.7e308), Partition(sample_grid(4)))
        with pytest.raises(DomainError, match="overflows"):
            variation_over_partition(Oscillation(1e300), Partition([0.0, 1e-150, 1.0]))

    def test_needs_two_levels(self):
        with pytest.raises(DomainError):
            total_variation_estimate(Constant(0.0), 1)

    @pytest.mark.parametrize("levels", [21, 10**9])
    def test_finest_grid_beyond_eval_limit_refused_before_evaluating(self, levels):
        # level 21 would hold 64 * 2**20 + 1 > 50M points; level 20 holds 33.5M
        calls = []
        with pytest.raises(DomainError, match="need at most 20 levels"):
            total_variation_estimate(lambda t: calls.append(t) or np.zeros_like(t), levels)
        assert calls == []


class TestConvergenceCheck:
    def test_affine_limits(self):
        rows = variation_convergence_check(Affine(4.0, 1.0), 2, 1, (10, 100, 1000))
        assert abs(rows[-1].v_nkm - 4.0) < 1e-2
        assert rows[0].e_n > rows[-1].e_n or rows[-1].e_n == 0.0
        for row in rows:
            assert abs(row.v_pn - (row.v_nkm + row.e_n)) < 1e-12

    def test_decomposition_identity_oscillation(self):
        for k in (1, 2, 3):
            for m in range(1, k + 1):
                rows = variation_convergence_check(Oscillation(20.0), k, m, (100, 1000, 10000))
                for row in rows:
                    assert abs(row.v_pn - (row.v_nkm + row.e_n)) < 1e-12

    def test_subseries_sum_approaches_partition_limit(self):
        # O(1/sqrt(N)) convergence: at N = 1e5 the gap to the refined
        # partition limit is still ~0.1.
        rows = variation_convergence_check(Oscillation(20.0), 2, 1, (100000,))
        estimate, _ = total_variation_estimate(Oscillation(20.0), 14)
        assert abs(rows[0].v_nkm - estimate) < 0.15

    def test_matches_higuchi_variation_sum(self):
        rows = variation_convergence_check(Oscillation(20.0), 3, 2, (50, 500))
        for row in rows:
            ts = sample(Oscillation(20.0), row.n)
            assert row.v_nkm == variation_sum(ts, 3, 2)

    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            variation_convergence_check(Affine(1.0, 0.0), 2, 1, (100, 100))

    def test_csv_format(self, capsys):
        argv = [
            "tv", "--signal", '{"kind": "affine", "a": 1.0, "b": 0.0}',
            "--n-grid", "10,20", "--k", "2", "--m", "1", "--format", "csv",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,V_nkm,V_PN,e_N"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "10"


def rational_partition_sum(values):
    total = Fraction(0)
    for a, b in zip(values, values[1:]):
        total += abs(Fraction(float(b)) - Fraction(float(a)))
    return total


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: total_variation_estimate(single_sinusoid, 2.5), DomainError),
        (lambda: total_variation_estimate(single_sinusoid, 3.0), DomainError),
        (lambda: total_variation_estimate(single_sinusoid, True), DomainError),
        (lambda: variation_convergence_check(Oscillation(20.0), 2, 1, [10.7]), AdmissibilityError),
        (lambda: variation_convergence_check(Oscillation(20.0), 2, 1, [10, 20.0]), AdmissibilityError),
        (lambda: variation_convergence_check(Oscillation(20.0), 2.0, 1, [10]), DomainError),
        (lambda: variation_convergence_check(Oscillation(20.0), 2, 1.5, [10]), DomainError),
    ],
)
def test_non_integer_counts_rejected(call, error):
    with pytest.raises(error, match=r" must be an integer, got "):
        call()


def test_numpy_integer_counts_accepted():
    spec = Oscillation(20.0)
    assert total_variation_estimate(spec, np.int64(3)).estimate == total_variation_estimate(spec, 3).estimate
    rows = variation_convergence_check(spec, np.int64(2), np.int32(1), np.array([10, 20]))
    assert rows == variation_convergence_check(spec, 2, 1, [10, 20])


class TestTwoStrideIdentity:
    def test_slope_is_a_ratio_of_partition_sums(self):
        # claim 10's estimate with k_max = 2 is D = log2(L(1)/L(2)): L(1) is
        # the partition sum on the full grid and L(2) the mean of the two
        # half-grid sums, each rescaled by C and divided by the stride
        errors = []
        for n in (100, 300, 700, 1000, 10**4, 10**5, 10**6):
            ts = sample(Oscillation(20.0), n)
            result = hfd(ts, 2)
            l1 = variation_sum(ts, 1, 1)
            halves = [normalization_constant(n, 2, m) * variation_sum(ts, 2, m) / 2 for m in (1, 2)]
            l2 = (halves[0] + halves[1]) / 2
            assert result.lengths[0] == l1, n
            assert result.lengths[1] == l2, n
            assert abs(result.slope - math.log2(l1 / l2)) <= 1e-15, n
            errors.append(abs(result.slope - 1.0))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[0] > 0.2 and errors[-1] < 2e-3


class TestRefinementMonotonicity:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), min_size=1, max_size=25),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.sampled_from(["oscillation", "affine", "sinusoid"]),
    )
    def test_insertion_never_decreases_sum(self, inner, new_point, kind):
        f = {
            "oscillation": as_callable(Oscillation(20.0)),
            "affine": as_callable(Affine(-3.0, 1.0)),
            "sinusoid": single_sinusoid,
        }[kind]
        points = np.unique(np.concatenate(([0.0, 1.0], inner)))
        part = Partition(points)
        refined = part.refine_with(new_point)
        # exact-rational oracle over the evaluated float values
        before = rational_partition_sum(np.asarray(f(part.points), dtype=float))
        after = rational_partition_sum(np.asarray(f(refined.points), dtype=float))
        assert after >= before
        # the float implementation tracks the exact sum
        impl = variation_over_partition(f, part)
        assert abs(impl - float(before)) < 5e-13


class TestZeroVariationCharacterizesConstants:
    def test_constant_always_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            inner = np.unique(rng.uniform(0.0, 1.0, 10))
            part = Partition(np.unique(np.concatenate(([0.0, 1.0], inner))))
            assert variation_over_partition(Constant(rng.normal()), part) == 0.0

    @pytest.mark.parametrize("spec", [Affine(0.5, 0.0), Oscillation(20.0)])
    def test_nonconstant_positive_on_random_partitions(self, spec):
        rng = np.random.default_rng(24)
        for _ in range(20):
            inner = np.unique(rng.uniform(0.0, 1.0, 10))
            part = Partition(np.unique(np.concatenate(([0.0, 1.0], inner))))
            assert variation_over_partition(spec, part) > 0.0
