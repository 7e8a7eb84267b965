"""Signal families: closed-form evaluators and grid-defined interpolants.

Closed-form variants (Weierstrass, Oscillation, Affine, Constant) evaluate
anywhere on [0, 1].  Grid-defined variants (PeriodicInterp, Alternating) are
defined directly on the N-point sample grid; their continuous version is the
linear spline through the sample points and is only needed for box counting
and plotting (see :func:`as_callable`).  The evaluators ``eval_weierstrass``,
``eval_oscillation`` and ``eval_spline`` are looked up here at each call, so
a profiler can rebind them; the package root exports the specs instead.

The Weierstrass sum is evaluated in double precision, which sets a floor
on its accuracy.  Term j has the phase lam**j * t, and once lam**j passes
2**53 the rounded product no longer carries that phase, so further terms
add noise of the size they were meant to add in signal.  The sum therefore
stops at the precision cap (the largest J with lam**J <= 2**53), and its
tolerance is ``DEFAULT_TAIL_TOL``; :func:`weierstrass_error_bound` gives the
error that can actually be reached (below 6e-5 for lam = 5, s = 1.7).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from .errors import AdmissibilityError, DomainError
from .series import _EVAL_LIMIT, TimeSeries, _check_sample_count, sample_grid

# Requested truncation tail of the Weierstrass sum.  Below the precision
# floor of weierstrass_error_bound it only asks for terms the cap withholds.
DEFAULT_TAIL_TOL = 1e-15

# Largest sine argument lam**j whose float phase is still meaningful, and
# the unit roundoff of a double.
_PHASE_LIMIT = 2.0**53
_UNIT_ROUNDOFF = 2.0**-53


def _as_unit_interval(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    # written so that a NaN point, which compares false, fails the test
    if arr.size and not (np.min(arr) >= 0.0 and np.max(arr) <= 1.0):
        raise DomainError("evaluation points must lie in [0, 1]")
    return arr


def _maybe_scalar(arr: np.ndarray, out: np.ndarray):
    return float(out) if arr.ndim == 0 else out


def _require_finite(spec, *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise DomainError(f"{type(spec).__name__}.{name} must be finite, got {value}")


def _tail_bound(ratio: float, count: int) -> float:
    """Geometric bound ratio**(count+1) / (1 - ratio) on the sum of
    ratio**j over j > count; infinite once ratio rounds to 1."""
    return ratio ** (count + 1) / (1.0 - ratio) if ratio < 1.0 else math.inf


def _precision_cap(lam: float) -> int:
    """Largest J >= 1 with lam**J <= 2**53 (1 when lam itself exceeds it)."""
    cap = math.floor(53.0 / math.log2(lam))
    # the logarithm may round across an integer; settle it on the power itself
    while lam ** (cap + 1) <= _PHASE_LIMIT:
        cap += 1
    while cap > 0 and lam**cap > _PHASE_LIMIT:
        cap -= 1
    return max(1, cap)


def _tail_count(ratio: float, tail_tol: float) -> int:
    """Smallest J >= 1 with ``_tail_bound(ratio, J) < tail_tol``."""
    count = max(1, math.floor((math.log(tail_tol) + math.log1p(-ratio)) / math.log(ratio)))
    # the logarithms may round across an integer; settle it on the bound itself
    while _tail_bound(ratio, count) >= tail_tol:
        count += 1
    while count > 1 and _tail_bound(ratio, count - 1) < tail_tol:
        count -= 1
    return count


def weierstrass_term_count(lam: float, s: float, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Number of terms J of the Weierstrass sum: the smallest J whose
    geometric tail bound, the sum of lam**((s-2)*j) over j > J, drops below
    ``tail_tol``, capped at the precision cap, the largest J with
    lam**J <= 2**53.

    Past the cap a term's float phase is noise, so ``tail_tol`` can only
    lower J below the cap, never push the accuracy past the floor given by
    :func:`weierstrass_error_bound`.
    """
    if not lam > 1.0:
        raise DomainError(f"scale factor must exceed 1, got {lam}")
    if not 1.0 < s < 2.0:
        raise DomainError(f"target dimension must lie in (1, 2), got {s}")
    if not 0.0 < tail_tol < math.inf:
        raise DomainError(f"tail tolerance must be positive and finite, got {tail_tol}")
    cap = _precision_cap(lam)
    ratio = lam ** (s - 2.0)
    if _tail_bound(ratio, cap) >= tail_tol:
        return cap
    return _tail_count(ratio, tail_tol)


def _evaluable_term_count(lam: float, s: float, points: int) -> int:
    """:func:`weierstrass_term_count`; DomainError when its terms at
    ``points`` points exceed ``_EVAL_LIMIT`` array elements (lam next to 1)."""
    count = weierstrass_term_count(lam, s)
    if max(points, 1) * count > _EVAL_LIMIT:
        raise DomainError(
            f"Weierstrass sum of {count} terms at {points} points is too large to evaluate"
        )
    return count


def weierstrass_error_bound(lam: float, s: float) -> float:
    """Bound on |eval_weierstrass(t) - W(t)| for every float t in [0, 1],
    where W is the infinite sum at that same t.

    It is the geometric tail after the J terms summed plus a rounding term.
    Term j carries weight w_j = lam**((s-2)*j); its phase lam**j * t is
    rounded twice (lam**j, then the product), so it is off by at most
    2 * lam**j * 2**-53, and its sine and weight by one rounding each; the
    sum of the J terms adds at most J roundings of the weight total.  So the
    rounding term is 2**-53 * sum of w_j * (2 * lam**j + J + 2) over j <= J,
    which the phase part, 2**-52 * sum of lam**((s-1)*j), dominates.
    """
    count = _evaluable_term_count(lam, s, 1)
    j = np.arange(1, count + 1, dtype=float)
    weights = lam ** ((s - 2.0) * j)
    rounding = _UNIT_ROUNDOFF * float(np.sum(weights * (2.0 * lam**j + count + 2)))
    return _tail_bound(lam ** (s - 2.0), count) + rounding


def eval_weierstrass(t, lam: float, s: float):
    """Partial sum of lam**((s-2)*j) * sin(lam**j * t) over the J terms of
    :func:`weierstrass_term_count`, accurate to :func:`weierstrass_error_bound`
    and built in one points x terms table, the one ``_EVAL_LIMIT`` budgets."""
    arr = _as_unit_interval(t)
    count = _evaluable_term_count(lam, s, arr.size)
    j = np.arange(1, count + 1, dtype=float)
    terms = np.multiply.outer(arr, lam**j)
    np.sin(terms, out=terms)
    terms *= lam ** ((s - 2.0) * j)
    return _maybe_scalar(arr, np.sum(terms, axis=-1))


def eval_oscillation(t, c: float):
    """t**2 * sin(c/t) for t > 0, and 0 at t = 0."""
    if not c > 0.0:
        raise DomainError(f"oscillation rate must be positive, got {c}")
    arr = _as_unit_interval(t)
    t_sq = arr * arr
    # one result array, updated in place: box counting evaluates meshes of
    # up to 50M points, and each full-size temporary costs fresh pages
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.divide(c, arr, out=np.empty_like(arr))
        np.sin(out, out=out)
        out *= t_sq
    # |f| <= t**2: where t**2 underflows to 0 (t = 0 included) the double
    # result is 0, even though c/t may have overflowed and poisoned the sine
    out[t_sq == 0.0] = 0.0
    # elsewhere a huge c can still overflow c/t, and the sine of inf is NaN;
    # every value is at most 1 in size, so only a NaN makes the sum NaN
    if math.isnan(np.sum(out)):
        bad = float(arr[np.isnan(out)][0])
        raise DomainError(
            f"oscillation signal t**2 * sin({c!r}/t) is not finite at t={bad!r}: c/t overflows"
        )
    return _maybe_scalar(arr, out)


def eval_spline(t, knot_values: TimeSeries):
    """Piecewise-linear interpolation of ((j-1)/(N-1), X(j)).

    Exact at the grid nodes.  Used by the box-counting oracle and data
    export only.
    """
    arr = _as_unit_interval(t)
    out = np.interp(arr, knot_values.grid, knot_values.values)
    return _maybe_scalar(arr, out)


class _ClosedForm:
    """A signal that evaluates anywhere on [0, 1]: its samples are its
    values on the sample grid."""

    def sample_values(self, n: int) -> np.ndarray:
        return self.evaluate(sample_grid(n))


@dataclass(frozen=True)
class Weierstrass(_ClosedForm):
    lam: float
    s: float

    def __post_init__(self):
        _require_finite(self, "lam")
        weierstrass_term_count(self.lam, self.s)  # validates lam and s

    def evaluate(self, t):
        return eval_weierstrass(t, self.lam, self.s)


@dataclass(frozen=True)
class Oscillation(_ClosedForm):
    c: float

    def __post_init__(self):
        _require_finite(self, "c")
        if not self.c > 0.0:
            raise DomainError(f"oscillation rate must be positive, got {self.c}")

    def evaluate(self, t):
        return eval_oscillation(t, self.c)


@dataclass(frozen=True)
class Affine(_ClosedForm):
    a: float
    b: float

    def __post_init__(self):
        _require_finite(self, "a", "b")

    def evaluate(self, t):
        """a*t + b; DomainError where it overflows."""
        arr = _as_unit_interval(t)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.a * arr + self.b
        if not np.all(np.isfinite(out)):
            raise DomainError(f"affine signal {self.a!r}*t + {self.b!r} overflows on [0, 1]")
        return _maybe_scalar(arr, out)


@dataclass(frozen=True)
class Constant(_ClosedForm):
    c: float

    def __post_init__(self):
        _require_finite(self, "c")

    def evaluate(self, t):
        arr = _as_unit_interval(t)
        return _maybe_scalar(arr, np.full_like(arr, float(self.c)))


@dataclass(frozen=True)
class PeriodicInterp:
    """Periodic repetition of a coefficient vector over the sample grid."""

    values: tuple

    def __post_init__(self):
        coeffs = tuple(float(v) for v in self.values)
        if len(coeffs) < 1:
            raise DomainError("need a non-empty coefficient vector")
        if not all(math.isfinite(v) for v in coeffs):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "values", coeffs)

    def sample_values(self, n: int) -> np.ndarray:
        """X(j) = c[((j-1) mod kappa) + 1] for j = 1..n, kappa <= ceil(n/2)."""
        n = _check_sample_count(n)
        kappa = len(self.values)
        if kappa > (n + 1) // 2:
            raise AdmissibilityError(
                f"period kappa={kappa} exceeds ceil(n/2)={(n + 1) // 2} for n={n}"
            )
        return np.tile(np.array(self.values), -(-n // kappa))[:n]


@dataclass(frozen=True)
class Alternating:
    c1: float
    c2: float

    def __post_init__(self):
        _require_finite(self, "c1", "c2")
        if self.c1 == self.c2:
            raise DomainError("c1 and c2 must differ (use Constant for c1 == c2)")

    def sample_values(self, n: int) -> np.ndarray:
        """X(j) = c1 for odd j and c2 for even j, j = 1..n."""
        n = _check_sample_count(n)
        j = np.arange(1, n + 1)
        return np.where(j % 2 == 1, float(self.c1), float(self.c2))


SignalSpec = Union[Weierstrass, Oscillation, Affine, Constant, PeriodicInterp, Alternating]

GRID_DEFINED = (PeriodicInterp, Alternating)


def as_callable(spec, n_samples: int | None = None) -> Callable:
    """Turn a signal spec (or a plain callable) into a vectorized function on [0, 1].

    Grid-defined specs need ``n_samples`` to anchor their linear spline.
    """
    if isinstance(spec, GRID_DEFINED):
        if n_samples is None:
            raise DomainError(
                f"{type(spec).__name__} is grid-defined; pass n_samples to "
                "anchor its linear spline"
            )
        knots = TimeSeries(spec.sample_values(n_samples))
        return lambda t: eval_spline(t, knots)
    if hasattr(spec, "evaluate"):
        return spec.evaluate
    if callable(spec):
        return spec
    raise DomainError(f"cannot evaluate object of type {type(spec).__name__}")


# kind -> (spec type, JSON field of each dataclass field in declaration order)
_SPEC_KINDS = {
    "weierstrass": (Weierstrass, ("lambda", "s")),
    "oscillation": (Oscillation, ("c",)),
    "affine": (Affine, ("a", "b")),
    "constant": (Constant, ("c",)),
    "periodic": (PeriodicInterp, ("values",)),
    "alternating": (Alternating, ("c1", "c2")),
}


def spec_to_dict(spec: SignalSpec) -> dict:
    """JSON-ready form {"kind": ..., params...}; field names fixed by the CLI."""
    for kind, (cls, keys) in _SPEC_KINDS.items():
        if isinstance(spec, cls):
            out = {"kind": kind}
            for key, field in zip(keys, fields(cls)):
                value = getattr(spec, field.name)
                out[key] = list(value) if isinstance(value, tuple) else value
            return out
    raise DomainError(f"not a signal spec: {type(spec).__name__}")


def _number(kind: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"signal kind '{kind}' field '{key}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"signal kind '{kind}' field '{key}' is beyond the float range") from None


def spec_from_dict(data: dict) -> SignalSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError("signal object needs a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise DomainError(f"unknown signal kind '{kind}'")
    cls, keys = _SPEC_KINDS[kind]
    params = []
    for key in keys:
        if key not in data:
            raise DomainError(f"signal kind '{kind}' is missing field '{key}'")
        value = data[key]
        if key == "values":
            if not isinstance(value, (list, tuple)):
                raise DomainError(f"signal kind '{kind}' field '{key}' must be a list, got {value!r}")
            params.append(tuple(_number(kind, key, v) for v in value))
        else:
            params.append(_number(kind, key, value))
    return cls(*params)
