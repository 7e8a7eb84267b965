"""Verification claims: every headline property of the package, run at
pinned tolerances and rendered as a fixed-width pass/fail table.

Claims are numbered 1..14 and addressable individually (``--only`` in the
CLI).  Randomized claims use fixed generator seeds so reruns are
byte-identical; timing checks print "within budget" rather than wall times
for the same reason.
"""
from __future__ import annotations

import functools
import json
import math
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .geometry import box_dim_estimate, geometric_hfd
from .higuchi import ceil_half, curve_lengths, fit_lengths, hfd, variation_sum
from .series import TimeSeries, sample
from .signals import Affine, Alternating, Constant, Oscillation, PeriodicInterp, Weierstrass, as_callable
from .stability import DEMO_ALTERNATING, DEMO_PERIODIC_COEFFS, perturbed_length_closed_form, stability_report
from .variation import Partition, total_variation_estimate, variation_convergence_check, variation_over_partition

GOLDEN_ENV_VAR = "FRACDIM_GOLDEN_DIR"
GOLDEN_TOL = 1e-9
DETERMINISM_SUBSET = (2, 4, 9, 13)

# Inside run_claims: golden_values cached for that run, so the file is parsed
# at most once per run; None outside a run.
_run_golden: ContextVar[Optional[Callable[[], dict]]] = ContextVar("fracdim_run_golden", default=None)


@dataclass(frozen=True)
class CheckResult:
    claim: str
    name: str
    expected: str
    got: str
    tolerance: str
    passed: bool


def golden_values() -> dict:
    """Frozen calibration values; ``FRACDIM_GOLDEN_DIR`` overrides the
    packaged file."""
    override = os.environ.get(GOLDEN_ENV_VAR)
    if override:
        path = Path(override) / "expected.json"
        with open(path, "r") as fh:
            return json.load(fh)
    from importlib.resources import files

    return json.loads(files("fracdim").joinpath("golden/expected.json").read_text())


def _row(claim: int, name: str, expected: str, got: str, tol: str, passed: bool) -> CheckResult:
    return CheckResult(str(claim), name, expected, got, tol, bool(passed))


def _dev_row(claim: int, name: str, dev: float, tol: float) -> CheckResult:
    return _row(claim, name, "0", f"{dev:.3e}", f"<= {tol:g}", dev <= tol)


def _golden_row(claim: int, name: str, key_path: Sequence, got: float) -> CheckResult:
    value = (_run_golden.get() or golden_values)()
    for key in key_path:
        value = value[key]
    dev = abs(got - float(value))
    return _row(
        claim,
        name,
        f"{float(value)!r}",
        f"{got!r}",
        f"+- {GOLDEN_TOL:g}",
        dev <= GOLDEN_TOL,
    )


def _budget_row(claim: int, name: str, elapsed: float, budget: float) -> CheckResult:
    got = "within budget" if elapsed <= budget else f"{elapsed:.2f} s"
    return _row(claim, name, f"<= {budget:g} s", got, f"{budget:g} s", elapsed <= budget)


def claim_1() -> List[CheckResult]:
    rng = np.random.default_rng(101)
    worst_length = 0.0
    worst_slope = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 401))
        k_max = int(rng.integers(1, ceil_half(n) + 1))
        a = 0.0
        while abs(a) < 1e-6:
            a = float(rng.uniform(-10.0, 10.0))
        b = float(rng.uniform(-10.0, 10.0))
        ts = sample(Affine(a, b), n)
        lengths = curve_lengths(ts, k_max)
        ks = np.arange(1, k_max + 1, dtype=float)
        worst_length = max(worst_length, float(np.max(np.abs(lengths - abs(a) / ks) / (abs(a) / ks))))
        worst_slope = max(worst_slope, abs(hfd(ts, k_max).slope - 1.0))
    return [
        _dev_row(1, "affine series: worst relative length deviation from |a|/k", worst_length, 1e-12),
        _dev_row(1, "affine series: worst |slope - 1|", worst_slope, 1e-9),
    ]


def claim_2() -> List[CheckResult]:
    pairs = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (10, 5), (11, 6), (47, 24), (100, 50), (101, 51), (250, 125)]
    bad = []
    for n, k_max in pairs:
        res = hfd(sample(Constant(3.7), n), k_max)
        if res.slope != 1.0 or res.index_set != ():
            bad.append((n, k_max))
    return [
        _row(
            2,
            f"constant series: slope 1 and no usable strides over {len(pairs)} size pairs",
            "slope = 1, empty stride set",
            "all as expected" if not bad else f"violations at {bad}",
            "exact",
            not bad,
        )
    ]


def claim_3() -> List[CheckResult]:
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        k_max = int(rng.integers(3, 61))
        scale = 10.0 ** float(rng.uniform(-3.0, 3.0))
        exponent = float(rng.uniform(1.0, 2.0))
        mask = rng.random(k_max) < 0.7
        while int(mask.sum()) < 2:
            mask = rng.random(k_max) < 0.7
        ks = np.arange(1, k_max + 1, dtype=float)
        lengths = np.where(mask, scale * ks ** (-exponent), 0.0)
        slope, _, _, _ = fit_lengths(lengths)
        worst = max(worst, abs(slope - exponent))
    return [_dev_row(3, "power-law lengths: worst |recovered - true exponent|", worst, 1e-10)]


def claim_4() -> List[CheckResult]:
    n, c1, c2 = 100, 0.4, 0.6
    gap = abs(c1 - c2)
    ts = sample(Alternating(c1, c2), n)
    lengths = curve_lengths(ts, 50)
    dev_l1 = abs(lengths[0] - (n - 1) * gap)
    worst_odd = max(
        abs(lengths[k - 1] - (n - 1) * gap / k**2) for k in range(1, 51, 2)
    )
    even_zero = all(lengths[k - 1] == 0.0 for k in range(2, 51, 2))
    dev_d = abs(hfd(ts, 50).slope - 2.0)
    return [
        _dev_row(4, "alternating series: |L(1) - (N-1)|c1-c2||", dev_l1, 1e-12),
        _dev_row(4, "alternating series: worst odd-stride deviation from (N-1)|c1-c2|/k^2", worst_odd, 1e-12),
        _row(4, "alternating series: even-stride lengths vanish", "all zero", "all zero" if even_zero else "nonzero found", "exact", even_zero),
        _dev_row(4, "alternating series: |slope - 2|", dev_d, 1e-9),
    ]


def claim_5() -> List[CheckResult]:
    spec = Alternating(*DEMO_ALTERNATING)
    slope = hfd(sample(spec, 100), 50).slope
    # The spline has knot spacing 1/99; the mesh grid sits below it so the
    # count scans the locally-linear regime.
    box = box_dim_estimate(spec, delta_min=1e-4, delta_max=1e-3, levels=8, n_samples=100)
    rough = box_dim_estimate(Weierstrass(5.0, 1.7))
    return [
        _dev_row(5, "alternating series: |estimator slope - 2|", abs(slope - 2.0), 1e-9),
        _dev_row(5, "linear spline through same points: |box dim - 1|", abs(box.dim_estimate - 1.0), 0.05),
        _golden_row(5, "spline box dim matches frozen calibration", ("alternating_spline_boxdim",), box.dim_estimate),
        _golden_row(5, "rough graph box dim matches frozen calibration", ("weierstrass_boxdim",), rough.dim_estimate),
    ]


def claim_6() -> List[CheckResult]:
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 401))
        k_max = int(rng.integers(2, ceil_half(n) + 1))
        ts = TimeSeries(rng.normal(size=n))
        res = hfd(ts, k_max)
        if len(res.index_set) >= 2:
            worst = max(worst, abs(geometric_hfd(ts, k_max) - res.slope))
    return [_dev_row(6, "area route vs stride route: worst |(2 - L) - D| over 200 series", worst, 1e-10)]


def claim_7() -> List[CheckResult]:
    ts = sample(PeriodicInterp(DEMO_PERIODIC_COEFFS), 150)
    report = stability_report(ts, 30, j=1, eps=1e-10)
    base, pert = report.base.slope, report.perturbed.slope
    return [
        _row(7, "periodic interpolant: unperturbed slope", "1.9 +- 0.15", f"{base:.6f}", "0.15", abs(base - 1.9) <= 0.15),
        _row(7, "periodic interpolant: perturbed slope", "3.5 +- 0.15", f"{pert:.6f}", "0.15", abs(pert - 3.5) <= 0.15),
        _row(7, "periodic interpolant: perturbed slope exceeds the ceiling 2", "> 2", f"{pert:.6f}", "-", pert > 2.0),
        _golden_row(7, "unperturbed slope matches frozen calibration", ("periodic_interp", "base_d"), base),
        _golden_row(7, "perturbed slope matches frozen calibration", ("periodic_interp", "perturbed_d"), pert),
    ]


def claim_8() -> List[CheckResult]:
    ts = sample(Alternating(*DEMO_ALTERNATING), 100)
    report = stability_report(ts, 50, j=1, eps=1e-10)
    pert = report.perturbed.slope
    return [
        _row(8, "alternating series: perturbed slope", "2.7 +- 0.15", f"{pert:.6f}", "0.15", abs(pert - 2.7) <= 0.15),
        _row(8, "alternating series: perturbed slope exceeds the ceiling 2", "> 2", f"{pert:.6f}", "-", pert > 2.0),
        _golden_row(8, "perturbed slope matches frozen calibration", ("alternating", "perturbed_d"), pert),
        _golden_row(8, "unperturbed slope matches frozen calibration", ("alternating", "base_d"), report.base.slope),
    ]


def claim_9() -> List[CheckResult]:
    cases = [
        ("periodic interpolant", PeriodicInterp(DEMO_PERIODIC_COEFFS), 150, 30, 10),
        ("alternating series", Alternating(*DEMO_ALTERNATING), 100, 50, 2),
    ]
    rows = []
    for label, spec, n, k_max, kappa in cases:
        ts = sample(spec, n)
        eps = 1e-10
        # the bump that survives float rounding of X(1) + eps
        eps_eff = (ts.values[0] + eps) - ts.values[0]
        report = stability_report(ts, k_max, j=1, eps=eps)
        measured = report.perturbed.lengths[kappa - 1]
        predicted = perturbed_length_closed_form(n, kappa, eps_eff)
        rel = abs(measured - predicted) / predicted
        rows.append(_dev_row(9, f"{label}: resurrected length vs closed form (relative)", rel, 1e-15))
    return rows


def claim_10() -> List[CheckResult]:
    spec = Oscillation(20.0)
    slopes = {n: hfd(sample(spec, n), 2).slope for n in (100, 300, 700)}
    gaps = [abs(slopes[n] - 1.0) for n in (100, 300, 700)]
    decreasing = gaps[0] > gaps[1] > gaps[2]
    rows = [
        _row(
            10,
            "oscillating BV signal: |slope - 1| decreases over N = 100, 300, 700",
            "strictly decreasing",
            " > ".join(f"{g:.4f}" for g in gaps),
            "-",
            decreasing,
        ),
        _dev_row(10, "oscillating BV signal: |slope - 1| at N = 700", gaps[2], 0.1),
    ]
    for n in (100, 300, 700):
        rows.append(
            _golden_row(10, f"slope at N = {n} matches frozen calibration", ("oscillation_sweep_kmax2", str(n)), slopes[n])
        )
    return rows


def claim_11() -> List[CheckResult]:
    start = time.perf_counter()
    ts = sample(Weierstrass(5.0, 1.7), 1000)
    slope = hfd(ts, 500).slope
    elapsed = time.perf_counter() - start
    return [
        _row(11, "rough series (target dimension 1.7) at N = 1000", "1.7 +- 0.2", f"{slope:.6f}", "0.2", abs(slope - 1.7) <= 0.2),
        _golden_row(11, "slope matches frozen calibration", ("weierstrass_hfd_n1000",), slope),
        _budget_row(11, "runtime budget", elapsed, 5.0),
    ]


def claim_12() -> List[CheckResult]:
    start = time.perf_counter()
    spec = Oscillation(20.0)
    worst = 0.0
    for k in (1, 2, 3):
        for m in range(1, k + 1):
            for row in variation_convergence_check(spec, k, m, (100, 1000, 10000)):
                worst = max(worst, abs(row.v_pn - (row.v_nkm + row.e_n)))
    grid = (1000, 4000, 16000, 64000, 99900, 100000)
    values = [variation_sum(sample(spec, n), 2, 1) for n in grid]
    rel_diffs = [abs(b - a) / abs(b) for a, b in zip(values, values[1:])]
    monotone = all(x > y for x, y in zip(rel_diffs, rel_diffs[1:]))
    elapsed = time.perf_counter() - start
    tv = total_variation_estimate(spec, levels=12).estimate
    return [
        _dev_row(12, "partition sum = increment sum + endpoint term (worst absolute)", worst, 1e-12),
        _row(
            12,
            "subseries sum converges: relative step changes shrink",
            "strictly decreasing",
            " > ".join(f"{d:.2e}" for d in rel_diffs),
            "-",
            monotone,
        ),
        _dev_row(12, "final relative step change near N = 1e5", rel_diffs[-1], 1e-3),
        _budget_row(12, "runtime budget", elapsed, 10.0),
        _golden_row(12, "12-level variation trace matches frozen calibration", ("oscillation_tv_levels12",), tv),
    ]


def _rational_partition_sum(values: np.ndarray) -> Fraction:
    total = Fraction(0)
    for a, b in zip(values, values[1:]):
        total += abs(Fraction(float(b)) - Fraction(float(a)))
    return total


def claim_13() -> List[CheckResult]:
    rng = np.random.default_rng(113)
    specs = [Oscillation(20.0), Oscillation(3.0), Affine(-3.0, 1.0), Weierstrass(5.0, 1.7)]
    min_gain = math.inf
    worst_float_dev = 0.0
    for _ in range(500):
        spec = specs[int(rng.integers(len(specs)))]
        f = as_callable(spec)
        inner = rng.uniform(0.0, 1.0, int(rng.integers(3, 40)))
        points = np.unique(np.concatenate(([0.0, 1.0], inner)))
        part = Partition(points)
        x = float(rng.uniform(0.0, 1.0))
        while x in part.points:
            x = float(rng.uniform(0.0, 1.0))
        refined = part.refine_with(x)
        before = _rational_partition_sum(np.asarray(f(part.points), dtype=float))
        after = _rational_partition_sum(np.asarray(f(refined.points), dtype=float))
        min_gain = min(min_gain, float(after - before))
        impl = variation_over_partition(spec, part)
        worst_float_dev = max(worst_float_dev, abs(impl - float(before)))
    return [
        _row(
            13,
            "inserting a point never lowers the partition sum (exact rational, 500 trials)",
            ">= 0",
            f"min gain {min_gain:.3e}",
            "-",
            min_gain >= 0.0,
        ),
        _dev_row(13, "float partition sum vs exact rational (worst absolute)", worst_float_dev, 5e-13),
    ]


def claim_14() -> List[CheckResult]:
    ids = DETERMINISM_SUBSET
    first, second = (render_report([row for i in ids for row in run_claim(i)]) for _ in range(2))
    same = first == second
    return [
        _row(
            14,
            f"recomputing claims {', '.join(map(str, ids))} renders byte-identical reports",
            "identical",
            "identical" if same else "reports differ",
            "byte equality",
            same,
        )
    ]


CLAIM_FUNCS: Dict[int, Callable[[], List[CheckResult]]] = {
    1: claim_1,
    2: claim_2,
    3: claim_3,
    4: claim_4,
    5: claim_5,
    6: claim_6,
    7: claim_7,
    8: claim_8,
    9: claim_9,
    10: claim_10,
    11: claim_11,
    12: claim_12,
    13: claim_13,
    14: claim_14,
}

ALL_CLAIM_IDS = tuple(sorted(CLAIM_FUNCS))


def run_claim(claim_id: int) -> List[CheckResult]:
    """Run one claim; an exception is reported as a failed row rather than
    propagated, so a corrupt golden file turns into a clean failure."""
    func = CLAIM_FUNCS.get(claim_id)
    if func is None:
        return [_row(claim_id, "unknown claim id", "1..14", str(claim_id), "-", False)]
    try:
        return func()
    except Exception as exc:  # noqa: BLE001 - fold any failure into the report
        return [_row(claim_id, "claim execution", "no error", f"{type(exc).__name__}: {exc}", "-", False)]


def run_claims(ids: Optional[Sequence[int]] = None) -> List[CheckResult]:
    selected = ALL_CLAIM_IDS if ids is None else tuple(ids)
    token = _run_golden.set(functools.cache(golden_values))
    try:
        return [row for claim_id in selected for row in run_claim(claim_id)]
    finally:
        _run_golden.reset(token)


def render_report(rows: Sequence[CheckResult]) -> str:
    headers = ("claim", "check", "expected", "got", "tolerance", "verdict")
    table = [
        (r.claim, r.name, r.expected, r.got, r.tolerance, "pass" if r.passed else "FAIL")
        for r in rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in table)) if table else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    n_passed = sum(1 for r in rows if r.passed)
    lines.append("")
    lines.append(f"{len(rows)} checks: {n_passed} passed, {len(rows) - n_passed} failed")
    return "\n".join(lines) + "\n"


def all_passed(rows: Sequence[CheckResult]) -> bool:
    return all(r.passed for r in rows)
