import json

import numpy as np
import pytest

from fracdim import (
    Affine,
    Alternating,
    Constant,
    Oscillation,
    TimeSeries,
    Weierstrass,
    area_from_count,
    box_count,
    box_dim_estimate,
    curve_lengths,
    geometric_hfd,
    hfd,
    make_alternating_series,
    sample,
    tilde_lengths,
)
from fracdim.acceptance import golden_values
from fracdim.cli import main
from fracdim.errors import AdmissibilityError, DomainError
from fracdim.higuchi import ceil_half


class TestBoxCount:
    def test_flat_line_at_quarter_mesh(self):
        # five columns (t = 1 gets its own sliver) each hitting one row
        assert box_count(Constant(0.0), 0.25) == 5

    def test_vertical_translation_moves_rows_only(self):
        base = box_count(Constant(0.0), 0.1)
        n_cols = int(np.floor(1.0 / 0.1)) + 1
        for c in (0.031, -0.77, 123.456):
            assert abs(box_count(Constant(c), 0.1) - base) <= n_cols

    def test_rejects_bad_mesh(self):
        with pytest.raises(DomainError):
            box_count(Constant(0.0), 0.0)
        with pytest.raises(DomainError):
            box_count(Constant(0.0), 1.5)
        with pytest.raises(DomainError):
            box_count(Constant(0.0), 0.5, samples_per_column=1)

    def test_rejects_unaffordable_mesh(self):
        with pytest.raises(DomainError):
            box_count(Constant(0.0), 1e-9)

    @pytest.mark.parametrize("spec", [Affine(1.7e308, 1.7e308), Constant(1e308), Affine(1e308, -1e308)])
    def test_overflowing_graph_raises_domain_error(self, spec):
        with pytest.raises(DomainError):
            box_count(spec, 0.5)

    @pytest.mark.parametrize("spec", [Weierstrass(5.0, 1.7), Oscillation(20.0)])
    def test_halving_mesh_never_loses_cells(self, spec):
        for level in range(2, 9):
            delta = 2.0 ** (-level)
            assert box_count(spec, delta / 2.0) >= box_count(spec, delta)


class TestAreaFromCount:
    def test_values(self):
        assert area_from_count(0.25, 5) == 0.3125
        assert area_from_count(0.17, 0) == 0.0
        assert area_from_count(1.0, 42) == 42.0


class TestBoxDimEstimate:
    def test_affine_graph_is_one_dimensional(self):
        result = box_dim_estimate(Affine(2.0, 0.0))
        assert abs(result.dim_estimate - 1.0) <= 0.05
        assert result.dim_in_range

    def test_flat_graph_is_one_dimensional(self):
        result = box_dim_estimate(Constant(0.3))
        assert abs(result.dim_estimate - 1.0) <= 0.05

    def test_rough_graph_near_target_dimension(self):
        result = box_dim_estimate(Weierstrass(5.0, 1.7))
        assert abs(result.dim_estimate - 1.7) <= 0.2
        assert result.dim_estimate == pytest.approx(
            golden_values()["weierstrass_boxdim"], abs=1e-9
        )

    def test_sawtooth_spline_below_knot_spacing(self):
        result = box_dim_estimate(
            Alternating(0.4, 0.6), delta_min=1e-4, delta_max=1e-3, levels=8, n_samples=100
        )
        assert abs(result.dim_estimate - 1.0) <= 0.05

    def test_areas_follow_counts(self):
        result = box_dim_estimate(Affine(1.0, 0.0), delta_min=0.01, delta_max=0.1, levels=4)
        assert np.array_equal(result.areas, result.deltas**2 * result.counts)

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            box_dim_estimate(Constant(0.0), delta_min=0.1, delta_max=0.1)
        with pytest.raises(DomainError):
            box_dim_estimate(Constant(0.0), levels=1)

    def test_serialization_shapes(self, capsys):
        argv = [
            "boxdim", "--signal", '{"kind": "affine", "a": 1.0, "b": 0.0}',
            "--delta-min", "0.01", "--delta-max", "0.1", "--levels", "4",
        ]
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"deltas", "counts", "areas", "dim_estimate", "intercept", "dim_in_range"}
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "delta,M,A"
        assert len(lines) == 5


class TestTildeLengths:
    def test_relation_to_curve_lengths(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(10, 200))
            k_max = int(rng.integers(2, ceil_half(n) + 1))
            ts = TimeSeries(rng.normal(size=n))
            tilde = tilde_lengths(ts, k_max)
            lengths = curve_lengths(ts, k_max)
            ks = np.arange(1, k_max + 1, dtype=float)
            expected = ks**2 / (n - 1) * lengths
            nz = expected != 0.0
            assert np.max(np.abs(tilde[nz] - expected[nz]) / expected[nz]) < 1e-12

    def test_affine_closed_form(self):
        n = 101
        ts = sample(Affine(3.0, -2.0), n)
        tilde = tilde_lengths(ts, 50)
        ks = np.arange(1, 51, dtype=float)
        expected = 3.0 * ks / (n - 1)
        assert np.max(np.abs(tilde - expected) / expected) < 1e-12

    def test_constant_all_zero(self):
        ts = sample(Constant(9.0), 40)
        assert np.array_equal(tilde_lengths(ts, 20), np.zeros(20))

    def test_inadmissible_rejected(self):
        ts = TimeSeries(np.arange(10, dtype=float))
        with pytest.raises(AdmissibilityError):
            tilde_lengths(ts, 6)


class TestGeometricHfd:
    def test_matches_stride_route_on_random_series(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(10, 300))
            k_max = int(rng.integers(2, ceil_half(n) + 1))
            ts = TimeSeries(rng.normal(size=n))
            worst = max(worst, abs(geometric_hfd(ts, k_max) - hfd(ts, k_max).slope))
        assert worst < 1e-10

    def test_affine_gives_one(self):
        ts = sample(Affine(4.0, 0.5), 80)
        assert abs(geometric_hfd(ts, 40) - 1.0) < 1e-9

    def test_alternating_gives_two(self):
        ts = make_alternating_series(100, 0.4, 0.6)
        assert abs(geometric_hfd(ts, 50) - 2.0) < 1e-9

    def test_degenerate_falls_back_to_one(self):
        ts = sample(Constant(1.0), 30)
        assert geometric_hfd(ts, 15) == 1.0

    def test_centered_abscissas_are_negatives(self):
        # with every stride usable, the two regressions see mirrored x values
        ts = TimeSeries(np.random.default_rng(8).normal(size=100))
        n, k_max = 100, 50
        result = hfd(ts, k_max)
        assert result.index_set == tuple(range(1, k_max + 1))
        ks = np.arange(1, k_max + 1, dtype=float)
        x_geo = np.log(ks / (n - 1))
        x_stride = np.log(1.0 / ks)
        centered_sum = (x_geo - x_geo.mean()) + (x_stride - x_stride.mean())
        assert np.max(np.abs(centered_sum)) < 1e-12
