"""Uniformly sampled time series on [0, 1] and single-sample perturbations.

A series of length N holds the values X(1), ..., X(N) of a function sampled
at t = (j-1)/(N-1).  Storage is 0-based; every public argument named ``j``
uses the 1-based convention.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AdmissibilityError, DomainError

if TYPE_CHECKING:
    from .signals import SignalSpec

SERIES_CSV_HEADER = ("j", "t", "x")
CSV_GRID_TOL = 1e-9


def sample_grid(n: int) -> np.ndarray:
    """Grid points (j-1)/(n-1) for j = 1..n as an exact integer/integer division."""
    if n < 2:
        raise AdmissibilityError(f"need at least 2 samples, got n={n}")
    return np.arange(n, dtype=float) / (n - 1)


@dataclass(frozen=True)
class TimeSeries:
    """Immutable vector of sampled values X(1..N), N >= 2, all finite."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 2:
            raise AdmissibilityError("a time series needs at least 2 values")
        if not np.all(np.isfinite(arr)):
            raise DomainError("time series values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        return sample_grid(self.n)

    def __len__(self) -> int:
        return self.values.size


def sample(spec: "SignalSpec", n: int) -> TimeSeries:
    """Sample a signal at the n uniform grid points of [0, 1]."""
    if n < 2:
        raise AdmissibilityError(f"need at least 2 samples, got n={n}")
    return TimeSeries(spec.sample_values(n))


def perturb(ts: TimeSeries, j: int, eps: float) -> TimeSeries:
    """Return a copy of ``ts`` with value j (1-based) increased by ``eps``.

    Every other entry is bit-identical to the input.
    """
    if not 1 <= j <= ts.n:
        raise IndexError(f"index j={j} outside 1..{ts.n}")
    values = ts.values.copy()
    values[j - 1] += eps
    return TimeSeries(values)


def to_csv_text(ts: TimeSeries) -> str:
    """Render as CSV with header ``j,t,x``; floats at 17 significant digits."""
    rows = zip(range(1, ts.n + 1), ts.grid.tolist(), ts.values.tolist())
    return ",".join(SERIES_CSV_HEADER) + "\n" + "".join(f"{j},{t:.17g},{x:.17g}\n" for j, t, x in rows)


def write_csv(ts: TimeSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(to_csv_text(ts))


def from_csv_text(text: str) -> TimeSeries:
    """Parse ``j,t,x`` CSV as written by :func:`to_csv_text`; blank lines are
    skipped.

    Every other line after the header must hold three numbers, ``j`` must
    run 1..N in order and ``t`` must equal (j-1)/(N-1) within
    ``CSV_GRID_TOL``; otherwise DomainError names the first offending line.
    """
    lines = text.splitlines()
    if not lines or tuple(h.strip() for h in lines[0].split(",")) != SERIES_CSV_HEADER:
        raise DomainError(f"expected header {','.join(SERIES_CSV_HEADER)}")
    body = [line for line in lines[1:] if line]
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2) if body else np.empty((0, 3))
    except ValueError:
        raise _malformed_row(lines) from None
    if table.shape[1] != 3:
        raise _malformed_row(lines)
    j, t, x = table.T
    ts = TimeSeries(x)
    n = ts.n
    bad_j = np.flatnonzero(j != np.arange(1, n + 1))
    bad_t = np.flatnonzero(~(np.abs(t - ts.grid) <= CSV_GRID_TOL))
    if bad_j.size or bad_t.size:
        i = int(bad_j[0] if bad_j.size else bad_t[0])
        expected = f"j = {i + 1}" if bad_j.size else f"t = {i}/{n - 1} within {CSV_GRID_TOL:g}"
        lineno = [no for no, line in enumerate(lines, start=1) if line][i + 1]
        raise DomainError(f"series row at line {lineno}: {body[i]!r}, expected {expected} (N = {n})")
    return ts


def _malformed_row(lines) -> DomainError:
    """The error naming the first body line that is not three numbers."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        row = line.split(",")
        try:
            if len(row) != 3:
                raise ValueError
            for cell in row:
                float(cell)
        except ValueError:
            return DomainError(f"malformed series row at line {lineno}: {row!r}")
    return DomainError("malformed series CSV: a value is not a plain decimal number")


def read_csv(path) -> TimeSeries:
    with open(path, "r", newline="") as fh:
        return from_csv_text(fh.read())
