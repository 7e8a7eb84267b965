"""Fractal dimension estimation for sampled functions on [0, 1].

The package bundles the stride-based dimension estimator for uniformly
sampled series, an independent mesh box-counting estimator for function
graphs, total-variation diagnostics, and a perturbation harness showing how
a single epsilon-sized sample change can blow the estimated dimension past
the geometric ceiling of 2.
"""
from .errors import (
    AdmissibilityError,
    DegenerateRegressionError,
    DomainError,
    EmptySubseriesError,
    FracdimError,
)
from .geometry import (
    BoxCountResult,
    box_count,
    box_dim_estimate,
    geometric_hfd,
    tilde_lengths,
)
from .higuchi import (
    HfdResult,
    curve_lengths,
    fit_lengths,
    hfd,
    increments_count,
    normalization_constant,
    regression_slope,
    variation_sum,
)
from .series import TimeSeries, perturb, read_csv, sample, sample_grid, write_csv
from .signals import (
    Affine,
    Alternating,
    Constant,
    Oscillation,
    PeriodicInterp,
    Weierstrass,
    as_callable,
    spec_from_dict,
    spec_to_dict,
    weierstrass_term_count,
)
from .stability import (
    StabilityReport,
    divergence_trace,
    perturbed_length_closed_form,
    stability_report,
)
from .variation import (
    Partition,
    higuchi_partition,
    total_variation_estimate,
    variation_convergence_check,
    variation_over_partition,
)

__version__ = "0.1.0"

__all__ = [
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
