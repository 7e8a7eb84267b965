"""The names the package exports, frozen."""
import numpy as np

import fracdim
from fracdim import signals

PUBLIC_NAMES = [
    "AdmissibilityError",
    "Affine",
    "Alternating",
    "BoxCountResult",
    "Constant",
    "DegenerateRegressionError",
    "DomainError",
    "EmptySubseriesError",
    "FracdimError",
    "HfdResult",
    "Oscillation",
    "Partition",
    "PeriodicInterp",
    "StabilityReport",
    "TimeSeries",
    "Weierstrass",
    "as_callable",
    "box_count",
    "box_dim_estimate",
    "curve_lengths",
    "divergence_trace",
    "fit_lengths",
    "geometric_hfd",
    "hfd",
    "higuchi_partition",
    "increments_count",
    "normalization_constant",
    "perturb",
    "perturbed_length_closed_form",
    "read_csv",
    "regression_slope",
    "sample",
    "sample_grid",
    "spec_from_dict",
    "spec_to_dict",
    "stability_report",
    "tilde_lengths",
    "total_variation_estimate",
    "variation_convergence_check",
    "variation_over_partition",
    "weierstrass_term_count",
    "write_csv",
]

# evaluators that the spec methods look up in fracdim.signals at each call
MODULE_EVALUATORS = ("eval_weierstrass", "eval_oscillation", "eval_spline")


def test_exports_are_frozen():
    assert len(PUBLIC_NAMES) == 42
    assert sorted(fracdim.__all__) == PUBLIC_NAMES


def test_every_export_resolves():
    for name in fracdim.__all__:
        assert getattr(fracdim, name) is not None


def test_evaluators_stay_module_attributes():
    for name in MODULE_EVALUATORS:
        assert callable(getattr(signals, name))
        assert name not in fracdim.__all__ and not hasattr(fracdim, name)


def test_spec_methods_call_the_module_evaluators(monkeypatch):
    calls = []
    for name in MODULE_EVALUATORS:
        real = getattr(signals, name)
        monkeypatch.setattr(signals, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    signals.Weierstrass(5.0, 1.7).evaluate(0.5)
    signals.Oscillation(20.0).sample_values(4)
    signals.as_callable(signals.Alternating(0.0, 1.0), n_samples=4)(np.array([0.5]))
    assert calls == list(MODULE_EVALUATORS)
