"""Perturbation experiments: how one epsilon-sized sample change moves the
estimated dimension.

A stride whose subseries are all collinear has length zero and is excluded
from the regression.  Bumping a single sample breaks exactly one of those
subseries, resurrecting the stride with a tiny positive length whose log
diverges as the bump shrinks - which is what drags the slope far above 2.

A report and a whole eps grid each build the unperturbed (k, m) table once,
through :func:`fracdim.higuchi._bumped_results`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import DomainError
from .higuchi import (
    HfdResult,
    _bumped_results,
    hfd,  # noqa: F401 - kept as fracdim.stability.hfd, which perfbench's tracer rebinds
    normalization_constant,
)
from .series import TimeSeries

DEFAULT_EPS = 1e-10
DEFAULT_INDEX = 1

# Canonical demo inputs for the two instability experiments.
DEMO_PERIODIC_COEFFS = (1.0, 1.1, 1.3, 1.4, 1.3, 1.4, 1.3, 1.4, 1.3, 1.1)
DEMO_ALTERNATING = (0.4, 0.6)


@dataclass(frozen=True)
class StabilityReport:
    """Side-by-side estimator runs before and after a single-sample bump."""

    base: HfdResult
    perturbed: HfdResult
    eps: float
    index: int
    delta_d: float
    new_points: np.ndarray
    vanished: Tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "index": self.index,
            "delta_D": self.delta_d,
            "new_points": [[float(x), float(y)] for x, y in self.new_points],
            "vanished": list(self.vanished),
            "base": self.base.to_dict(),
            "perturbed": self.perturbed.to_dict(),
        }


def _compare(base: HfdResult, pert: HfdResult, j: int, eps: float) -> StabilityReport:
    base_set, pert_set = set(base.index_set), set(pert.index_set)
    new_rows = [i for i, k in enumerate(pert.index_set) if k not in base_set]
    new_points = pert.points[new_rows].reshape(len(new_rows), 2)
    vanished = tuple(k for k in base.index_set if k not in pert_set)
    return StabilityReport(
        base=base,
        perturbed=pert,
        eps=eps,
        index=j,
        delta_d=pert.slope - base.slope,
        new_points=new_points,
        vanished=vanished,
    )


def stability_report(
    ts: TimeSeries, k_max: int, j: int = DEFAULT_INDEX, eps: float = DEFAULT_EPS
) -> StabilityReport:
    """Run the estimator on ``ts`` and on its perturbed copy and compare.

    ``new_points`` are the log-log points at strides that only the perturbed
    series uses; ``vanished`` flags strides that dropped out (a floating-
    point coincidence, normally empty).
    """
    base, (pert,) = _bumped_results(ts, k_max, j, [eps])
    return _compare(base, pert, j, eps)


def perturbed_length_closed_form(n: int, kappa: int, eps: float) -> float:
    """Predicted length (1/kappa**2) * C(n, kappa, 1) * eps of a resurrected
    stride, assuming the unperturbed kappa-subseries were all collinear and
    the first sample was bumped.

    The two divisions mirror the evaluation order of the length computation.
    DomainError unless eps is finite.
    """
    c = normalization_constant(n, kappa, 1)
    if not math.isfinite(eps):
        raise DomainError(f"need a finite eps, got {eps!r}")
    return c * eps / kappa / kappa


class TraceRow(NamedTuple):
    eps: float
    d_eps: float
    min_log_new: float


def _check_eps_grid(eps_grid) -> List[float]:
    """The bump sizes as floats; DomainError unless they are positive, finite
    and strictly decreasing."""
    grid = [float(e) for e in eps_grid]
    if len(grid) < 1 or any(e <= 0.0 for e in grid):
        raise DomainError("eps grid must contain positive values only")
    if not all(map(math.isfinite, grid)):
        raise DomainError("eps grid must contain finite values only")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise DomainError("eps grid must be strictly decreasing")
    return grid


def divergence_trace(ts: TimeSeries, k_max: int, j, eps_grid) -> List[TraceRow]:
    """Estimator runs over a decreasing bump-size grid.

    Each row records the perturbed slope and the smallest log-length among
    the resurrected strides; the latter decreases without bound as eps
    shrinks while the surviving lengths move by O(eps).
    """
    grid = _check_eps_grid(eps_grid)
    base, perts = _bumped_results(ts, k_max, j, grid)
    rows = []
    for eps, pert in zip(grid, perts):
        report = _compare(base, pert, j, eps)
        if len(report.new_points):
            min_log = float(np.min(report.new_points[:, 1]))
        else:
            min_log = math.nan
        rows.append(TraceRow(eps, report.perturbed.slope, min_log))
    return rows
