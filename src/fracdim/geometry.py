"""Mesh-based box counting and the area-sum view of the length estimator.

A delta-mesh is the axis-aligned grid of side-delta squares anchored at the
origin.  Cells are half-open and indexed by floor(./delta), so t = 1 falls
into the right neighbor of the last full column.  Counting fills, per
column, every row between the sampled minimum and maximum: a continuous
graph meets all intermediate rows.

The same increment sums that drive the dimension estimator can be read as
mesh-area approximations at scale k/(N-1); regressing their logs against
log(k/(N-1)) and subtracting the slope from 2 reproduces the estimator
exactly, which :func:`geometric_hfd` implements.  The areas are averaged
from the estimator's own (k, m, q, C, V) table in :mod:`fracdim.higuchi`,
with the same fixed summation order (sequential column sum for V, one
numpy running sum over ascending m for each mean), so lengths and areas
share every V bit for bit and a non-finite area raises
:class:`DomainError` as a length does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .higuchi import _loglog_fit, _stride_averages, regression_slope
from .series import _BLOCK_POINTS, _EVAL_LIMIT, TimeSeries, _integer
from .signals import GRID_DEFINED, as_callable

DEFAULT_DELTA_MIN = 1e-3
DEFAULT_DELTA_MAX = 1e-1
DEFAULT_LEVELS = 12
DEFAULT_SAMPLES_PER_COLUMN = 33


def box_count(
    spec,
    delta: float,
    samples_per_column: int = DEFAULT_SAMPLES_PER_COLUMN,
    n_samples: Optional[int] = None,
) -> int:
    """Number of delta-mesh cells met by the graph of a signal over [0, 1].

    Parameters
    ----------
    spec : SignalSpec or callable
        The function whose graph is counted; grid-defined specs need
        ``n_samples`` to anchor their spline.
    delta : float
        Mesh size, 0 < delta <= 1.
    samples_per_column : int
        Evaluation points per column (endpoints included), >= 2.

    The mesh is evaluated in blocks of whole columns, in ascending order, so
    a callable ``spec`` must be elementwise: its value at a point may not
    depend on the other points of the array it is given.
    """
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"mesh size must lie in (0, 1], got {delta}")
    samples_per_column = _integer(samples_per_column, "samples_per_column", DomainError)
    if samples_per_column < 2:
        raise DomainError(f"need at least 2 samples per column, got {samples_per_column}")
    if math.isinf(1.0 / delta):
        raise DomainError(f"mesh size {delta!r} is too fine: 1/delta overflows")
    n_cols = int(math.floor(1.0 / delta)) + 1
    if n_cols * samples_per_column > _EVAL_LIMIT:
        raise DomainError(
            f"mesh of {n_cols} columns x {samples_per_column} samples is too fine to evaluate"
        )
    # after the mesh checks: a grid-defined spec samples its spline knots here
    f = as_callable(spec, n_samples=n_samples)
    offsets = np.arange(samples_per_column) / (samples_per_column - 1)
    # the columns go to f in ascending blocks of about _BLOCK_POINTS points;
    # only each column's extremes outlive its block
    step = max(1, _BLOCK_POINTS // samples_per_column)
    tops, bottoms = np.empty(n_cols), np.empty(n_cols)
    for a in range(0, n_cols, step):
        b = min(a + step, n_cols)
        lo = np.minimum(np.arange(a, b) * delta, 1.0)
        hi = np.minimum(lo + delta, 1.0)
        # built in place: one block-size array, not two
        points = (hi - lo)[:, None] * offsets[None, :]
        points += lo[:, None]
        values = np.asarray(f(points.ravel()), dtype=float).reshape(b - a, samples_per_column)
        # a samples x columns copy: each reduction runs along the columns
        values = np.ascontiguousarray(values.T)
        np.maximum.reduce(values, axis=0, out=tops[a:b])
        np.minimum.reduce(values, axis=0, out=bottoms[a:b])
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(np.floor(tops / delta) - np.floor(bottoms / delta) + 1.0)
    if not math.isfinite(total):
        raise DomainError(f"graph values overflow the row count of the {delta!r}-mesh")
    if total >= 2**53:
        # the float sum is exact only below 2**53: add the columns' counts as ints
        return sum(math.floor(top / delta) - math.floor(bottom / delta) + 1
                   for top, bottom in zip(tops.tolist(), bottoms.tolist()))
    return int(total)


@dataclass(frozen=True)
class BoxCountResult:
    """Counts and areas over a mesh-size grid plus the regression estimate."""

    deltas: np.ndarray
    counts: np.ndarray
    areas: np.ndarray
    dim_estimate: float
    intercept: float
    dim_in_range: bool

    def to_dict(self) -> dict:
        return {
            "deltas": [float(d) for d in self.deltas],
            "counts": [int(c) for c in self.counts],
            "areas": [float(a) for a in self.areas],
            "dim_estimate": self.dim_estimate,
            "intercept": self.intercept,
            "dim_in_range": self.dim_in_range,
        }


def box_dim_estimate(
    spec,
    delta_min: float = DEFAULT_DELTA_MIN,
    delta_max: float = DEFAULT_DELTA_MAX,
    levels: int = DEFAULT_LEVELS,
    samples_per_column: int = DEFAULT_SAMPLES_PER_COLUMN,
    n_samples: Optional[int] = None,
) -> BoxCountResult:
    """Regress log M_delta on log(1/delta) over a geometric mesh-size grid.

    The estimate for a graph should land in [0, 2]; ``dim_in_range`` flags
    (rather than rejects) excursions caused by an unsuitable grid.
    """
    if not 0.0 < delta_min < delta_max <= 1.0:
        raise DomainError(
            f"need 0 < delta_min < delta_max <= 1, got ({delta_min}, {delta_max})"
        )
    levels = _integer(levels, "levels", DomainError)
    if levels < 2:
        raise DomainError(f"need at least 2 levels, got {levels}")
    if levels > _EVAL_LIMIT:
        raise DomainError(f"need at most {_EVAL_LIMIT} levels, got {levels}")
    # the finest mesh, deltas[0] == delta_min, is counted before the grid is
    # built, so whatever box_count refuses there costs no grid
    finest = box_count(spec, float(delta_min), samples_per_column, n_samples=n_samples)
    deltas = np.geomspace(delta_min, delta_max, levels)
    # a grid-defined spec's spline, built once for the coarser meshes
    f = as_callable(spec, n_samples) if isinstance(spec, GRID_DEFINED) else spec
    counts = np.array([finest] + [box_count(f, float(d), samples_per_column) for d in deltas[1:]])
    # counts beyond 2**64 make an object array, which has no logarithm
    real_counts = counts.astype(float)
    areas = deltas * deltas * real_counts
    points = np.column_stack((np.log(1.0 / deltas), np.log(real_counts)))
    slope, intercept = regression_slope(points)
    return BoxCountResult(
        deltas=deltas,
        counts=counts,
        areas=areas,
        dim_estimate=slope,
        intercept=intercept,
        dim_in_range=0.0 <= slope <= 2.0,
    )


def tilde_lengths(ts: TimeSeries, k_max: int) -> np.ndarray:
    """Mesh-area approximations at scales k/(N-1) for k = 1..k_max.

    Entry k averages (k/(N-1)) * C * V over the offsets with at least one
    increment, mirroring the filtering of the length computation, so that
    entry k equals (k**2/(N-1)) * L(k) identically.
    """
    n = ts.n
    return _stride_averages(ts, k_max, lambda k, c, v: (k / (n - 1)) * c * v, "area")


def geometric_hfd(ts: TimeSeries, k_max: int) -> float:
    """Dimension via the area route: 2 minus the slope of log area against
    log scale.  Falls back to 1 with fewer than two nonzero areas, mirroring
    the estimator's degenerate branch."""
    areas = tilde_lengths(ts, k_max)
    return 2.0 - _loglog_fit(areas, np.arange(1, areas.size + 1) / (ts.n - 1))[0]
