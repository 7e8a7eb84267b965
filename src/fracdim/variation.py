"""Total-variation machinery: partition sums, refinement traces, and the
bridge between subseries increment sums and the variation of the sampled
function.

The signal is evaluated once per point: a trace refines its dyadic grids by
midpoints, and a convergence row evaluates only its partition's points,
which are points of the sample grid.  Both give bit for bit the sums of
evaluating every partition from scratch, because a shared point is the
same float on both grids and evaluation is elementwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from .errors import AdmissibilityError, DomainError
from .higuchi import _nonempty_count, _partition_sum
from .series import _BLOCK_POINTS, _EVAL_LIMIT, _check_sample_count, _integer
from .signals import as_callable

TRACE_BASE_INTERVALS = 64
# Most levels of a trace: the finest grid, 64 * 2**(levels-1) + 1 points,
# holds at most _EVAL_LIMIT of them.
_MAX_TRACE_LEVELS = ((_EVAL_LIMIT - 1) // TRACE_BASE_INTERVALS).bit_length()


@dataclass(frozen=True)
class Partition:
    """Strictly increasing points of an interval; ``mesh`` is the largest gap."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim != 1 or pts.size < 2:
            raise DomainError("a partition needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise DomainError("partition points must be finite")
        if not np.all(np.diff(pts) > 0.0):
            raise DomainError("partition points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.points)))

    def refine_with(self, t: float) -> "Partition":
        """New partition with ``t`` inserted (no-op if already present)."""
        if t in self.points:
            return self
        return Partition(np.sort(np.append(self.points, float(t))))


def variation_over_partition(spec, partition: Partition) -> float:
    """Partition sum of |f(t_i) - f(t_{i-1})|, accumulated left to right."""
    if partition.a < 0.0 or partition.b > 1.0:
        raise DomainError("partition must lie inside [0, 1]")
    f = as_callable(spec)
    return _partition_sum(np.asarray(f(partition.points), dtype=float))


def higuchi_partition(n: int, k: int, m: int) -> Partition:
    """Partition {(m+ik-1)/(n-1) : i = 0..q} plus the endpoints 0 and 1.

    Its inner gaps are k/(n-1) and the boundary gaps are at most (k+1)/(n-1),
    so the mesh shrinks like 1/n for fixed k.
    """
    q = _nonempty_count(n, k, m)
    # the q + 1 inner points, and 0 and 1 unless the subseries starts or ends there
    points = q + 1 + (m > 1) + (m + q * k < n)
    if points > _EVAL_LIMIT:
        raise DomainError(f"need at most {_EVAL_LIMIT} partition points, got {points}")
    i = np.arange(q + 1)
    inner = (m + i * k - 1) / (n - 1)
    return Partition(np.unique(np.concatenate((inner, [0.0, 1.0]))))


class TvEstimate(NamedTuple):
    estimate: float
    trace: np.ndarray


def total_variation_estimate(spec, levels: int) -> TvEstimate:
    """Partition sums on nested dyadic grids of 64 * 2**n intervals,
    n = 0..levels-1.

    Nesting makes the trace nondecreasing; for a continuous function of
    bounded variation it climbs to the total variation.  Returns the final
    value and the whole trace.

    The grids are built by midpoint refinement, so each point is evaluated
    once: level 0 evaluates its 65 points, and level n >= 1 evaluates only
    its new midpoints i / (64 * 2**n) for odd i and interleaves them with
    the values of level n-1.  The divisor is a power of two, so every grid
    point is exact and an even i / (64 * 2**n) equals (i/2) / (64 * 2**(n-1)):
    every level holds the same values as a grid evaluated from scratch.
    Each level is summed left to right.

    The midpoints are evaluated in ascending slices of at most
    ``_BLOCK_POINTS`` points, so a callable ``spec`` must be elementwise:
    its value at a point may not depend on the other points of the array
    it is given.
    """
    levels = _integer(levels, "levels", DomainError)
    if levels < 2:
        raise DomainError(f"need at least 2 levels, got {levels}")
    if levels > _MAX_TRACE_LEVELS:
        raise DomainError(
            f"need at most {_MAX_TRACE_LEVELS} levels, got {levels}: the finest grid would hold "
            f"more than {_EVAL_LIMIT} points"
        )
    f = as_callable(spec)
    trace = np.zeros(levels)
    intervals = TRACE_BASE_INTERVALS
    values = np.asarray(f(np.arange(intervals + 1, dtype=float) / intervals), dtype=float)
    trace[0] = _partition_sum(values)
    for level in range(1, levels):
        intervals *= 2
        refined = np.empty(intervals + 1)
        refined[0::2] = values
        # the odd i in [a, b): at most _BLOCK_POINTS midpoints at a time
        for a in range(1, intervals, 2 * _BLOCK_POINTS):
            b = min(a + 2 * _BLOCK_POINTS, intervals)
            refined[a:b:2] = np.asarray(f(np.arange(a, b, 2, dtype=float) / intervals), dtype=float)
        values = refined
        trace[level] = _partition_sum(values)
    return TvEstimate(float(trace[-1]), trace)


class ConvergenceRow(NamedTuple):
    n: int
    v_nkm: float
    v_pn: float
    e_n: float


def variation_convergence_check(spec, k: int, m: int, n_grid) -> List[ConvergenceRow]:
    """For each n: the subseries increment sum, the partition sum over the
    matching partition, and the endpoint correction
    e_n = |f(0) - f(l_n)| + |f(1) - f(r_n)|.

    The three satisfy the exact decomposition  partition sum = increment sum
    + e_n, which callers can verify row by row.

    The points of :func:`higuchi_partition` are exactly the grid quotients
    j/(n-1) for j = 0, m-1, m-1+k, ..., m-1+qk, n-1 (an endpoint that repeats
    a point is dropped), the divisions of :func:`sample_grid`.  The signal
    is evaluated at those points only, so all three are read from the
    sampled values that :func:`variation_sum` reads, plus f(0) and f(1).
    A plain callable must be elementwise; grid-defined specs raise
    DomainError, as they have no continuous form (see :func:`as_callable`).
    """
    grid = [_integer(n, "n_grid entry", AdmissibilityError) for n in n_grid]
    if len(grid) < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    f = as_callable(spec)  # DomainError for grid-defined specs
    # every N, and (k, m) at every N, is refused before any N is sampled
    counts = [_nonempty_count(_check_sample_count(n), k, m) for n in grid]
    rows = []
    for n, q in zip(grid, counts):
        left, right = m - 1, m - 1 + q * k
        j = [np.arange(left, right + 1, k, dtype=float)]
        if left > 0:
            j.insert(0, [0.0])
        if right < n - 1:
            j.append([n - 1.0])
        x = np.asarray(f(np.concatenate(j) / (n - 1)), dtype=float)
        a = int(left > 0)  # x[a : a + q + 1] are the subseries' values
        v_nkm = _partition_sum(x[a : a + q + 1])
        v_pn = _partition_sum(x)
        e_n = abs(float(x[0]) - float(x[a])) + abs(float(x[-1]) - float(x[a + q]))
        rows.append(ConvergenceRow(n, v_nkm, v_pn, e_n))
    return rows
