"""The (k, m) length table against the estimator's first, loop-based form.

The oracle below is the original double loop over strides and offsets, one
``variation_sum`` call per (k, m) and a left-to-right loop over the terms
of each stride, written once for lengths and areas alike.  The table in
:mod:`fracdim.higuchi` must reproduce it bit for bit: the exact zero test on
L(k) and the frozen golden values leave no room for rounding changes.
The table does its bookkeeping per block of strides, so the comparisons
also run with blocks of one stride, of at most 7 cells and of 2**16 cells.
Within a block, strides that share the full-row count (N-k)//k are summed
from one NaN-padded table per run; the cases below reach every shape of
run, which ``test_cases_reach_every_run_shape`` checks, and
``test_stride_partition`` checks the blocks and runs themselves.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import (
    Affine,
    Alternating,
    Constant,
    PeriodicInterp,
    TimeSeries,
    Weierstrass,
    curve_lengths,
    divergence_trace,
    fit_lengths,
    geometric_hfd,
    hfd,
    perturb,
    regression_slope,
    sample,
    stability_report,
    tilde_lengths,
    variation_sum,
)
from fracdim import higuchi
from fracdim.cli import main
from fracdim.errors import DomainError, FracdimError
from fracdim.higuchi import ceil_half
from fracdim.stability import DEMO_ALTERNATING, DEMO_PERIODIC_COEFFS


def oracle_averages(ts, k_max, term, want_detail=False):
    """Per-stride averages of ``term(k, c, v)`` over the offsets with an
    increment, and the (k, m, c, v, term) rows when ``want_detail``."""
    n = ts.n
    assert 1 <= k_max <= ceil_half(n)
    out = np.zeros(k_max)
    detail = [] if want_detail else None
    for k in range(1, k_max + 1):
        terms = []
        for m in range(1, k + 1):
            q = (n - m) // k
            if q < 1:
                continue
            v = variation_sum(ts, k, m)
            c = (n - 1) / (q * k)
            terms.append(term(k, c, v))
            if want_detail:
                detail.append((k, m, c, v, terms[-1]))
        total = 0.0
        for t in terms:  # left to right: the builtin sum is compensated from Python 3.12 on
            total += t
        out[k - 1] = total / len(terms) if terms else 0.0
    return out, detail


def detail_rows(detail):
    """The (k, m, C, V, L_m) rows of the columns of ``hfd(..., detail=True)``."""
    assert list(detail) == ["k", "m", "C", "V", "L_m"]
    return list(zip(*(column.tolist() for column in detail.values())))


def oracle_length_table(ts, k_max, want_detail):
    return oracle_averages(ts, k_max, lambda k, c, v: c * v / k, want_detail)


def oracle_tilde_lengths(ts, k_max):
    return oracle_averages(ts, k_max, lambda k, c, v: (k / (ts.n - 1)) * c * v)[0]


def oracle_geometric_hfd(ts, k_max):
    areas = oracle_tilde_lengths(ts, k_max)
    n = ts.n
    ks = [k for k in range(1, k_max + 1) if areas[k - 1] != 0.0]
    if len(ks) < 2:
        return 1.0
    points = np.array(
        [(math.log(k / (n - 1)), math.log(areas[k - 1])) for k in ks]
    )
    slope, _ = regression_slope(points)
    return 2.0 - slope


def _alternating(n):
    return sample(Alternating(*DEMO_ALTERNATING), n)


def _noise(n, seed):
    return TimeSeries(np.random.default_rng(seed).normal(size=n))


def _wide_noise(n, seed):
    # magnitudes from 1e-150 to 1e150 in one series
    rng = np.random.default_rng(seed)
    return TimeSeries(rng.normal(size=n) * 10.0 ** rng.integers(-150, 151, size=n))


CASES = {
    "noise-n2": (_noise(2, 1), 1),
    "noise-n3-k1": (_noise(3, 2), 1),
    "noise-n3-k2": (_noise(3, 3), 2),
    "noise-n4": (_noise(4, 4), 2),
    "noise-odd-n51-half": (_noise(51, 5), ceil_half(51)),
    "noise-n100-k17": (_noise(100, 6), 17),
    "noise-n10000-k100": (_noise(10_000, 7), 100),
    "alternating-n100-half": (_alternating(100), 50),
    "alternating-odd-n101-half": (_alternating(101), ceil_half(101)),
    "alternating-bumped-n100": (perturb(_alternating(100), 1, 1e-10), 50),
    "alternating-bumped-odd-n101": (perturb(_alternating(101), 1, 1e-10), ceil_half(101)),
    "periodic-n150-k30": (sample(PeriodicInterp(DEMO_PERIODIC_COEFFS), 150), 30),
    "periodic-odd-n151-half": (sample(PeriodicInterp(DEMO_PERIODIC_COEFFS), 151), ceil_half(151)),
    "weierstrass-n421-half": (sample(Weierstrass(5.0, 1.7), 421), ceil_half(421)),
    "alternating-odd-n31-half": (_alternating(31), ceil_half(31)),
    "periodic-n40-half": (sample(PeriodicInterp(DEMO_PERIODIC_COEFFS), 40), 20),
    "affine-odd-n37-half": (sample(Affine(2.5, -1.0), 37), ceil_half(37)),
    "constant-odd-n11-half": (sample(Constant(3.7), 11), ceil_half(11)),
    "constant-n2": (sample(Constant(-1.0), 2), 1),
    "wide-noise-n260-half": (_wide_noise(260, 8), ceil_half(260)),
    "wide-noise-odd-n259-half": (_wide_noise(259, 9), ceil_half(259)),
}


def _runs(n, k_max):
    """(a, b, f, end): the runs of strides a..b-1 sharing the full-row count
    f that the table forms at the current block size, each with the end of
    its block."""
    return [(a, b, f, runs[-1][1]) for runs in higuchi._stride_blocks(n, k_max) for a, b, f in runs]


@pytest.mark.parametrize("cells", [1, 7, 2**12 - 1, 2**12, 2**16])
def test_stride_partition(cells, monkeypatch):
    # blocks and runs cover 1..k_max in order, keep both caps unless they
    # hold one stride, and are maximal: the stride after a run has another
    # count, breaks the run's cap or opens a block, which only a stride that
    # breaks the block's cap does; 2**12 - 1 is the size here at which both
    # caps are met exactly (no sum of two or more consecutive strides is a
    # power of two)
    monkeypatch.setattr(higuchi, "_BLOCK_CELLS", cells)
    for n in [*range(2, 301), 1000, 2045, 2046, 4000]:
        for k_max in sorted({1, n // 5, ceil_half(n)} - {0}):
            blocks = list(higuchi._stride_blocks(n, k_max))
            runs = [run for block in blocks for run in block]
            assert [k for a, b, _ in runs for k in range(a, b)] == list(range(1, k_max + 1))
            for block, after in zip(blocks, blocks[1:] + [None]):
                block_cells = sum(range(block[0][0], block[-1][1]))
                assert block_cells <= cells or block[-1][1] - block[0][0] == 1
                if after is not None:
                    assert block_cells + after[0][0] > cells
                for a, b, f in block:
                    assert a < b and all((n - k) // k == f for k in range(a, b))
                    assert (f + 2) * sum(range(a, b)) <= cells or b - a == 1
                for a, b, f in block[:-1]:
                    assert (n - b) // b != f or (f + 2) * sum(range(a, b + 1)) > cells


def test_cases_reach_every_run_shape(monkeypatch):
    def runs(name):
        ts, k_max = CASES[name]
        return _runs(ts.n, k_max)

    for name in ("wide-noise-n260-half", "wide-noise-odd-n259-half"):
        n = CASES[name][0].n
        # runs of exactly two strides, and runs that a block boundary cuts:
        # the next block starts with a stride of the same count
        assert any(b - a == 2 for a, b, _, _ in runs(name))
        assert any(b - a >= 2 and b == end and (n - b) // b == f for a, b, f, end in runs(name))
    for name in ("wide-noise-odd-n259-half", "alternating-odd-n101-half"):
        # odd N: the last stride, k = ceil(N/2), has no full row and stays alone
        n, k_max = CASES[name][0].n, CASES[name][1]
        assert runs(name)[-1][:3] == (k_max, k_max + 1, 0) and k_max == ceil_half(n)
    assert np.ptp(np.log10(np.abs(CASES["wide-noise-n260-half"][0].values))) > 290
    monkeypatch.setattr(higuchi, "_BLOCK_CELLS", 2**16)
    assert max(b - a for a, b, _, _ in runs("wide-noise-n260-half")) >= 40
    assert max(b - a for a, b, _, _ in runs("weierstrass-n421-half")) >= 40


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    ts, k_max = CASES[request.param]
    lengths, rows = oracle_length_table(ts, k_max, want_detail=True)
    return ts, k_max, lengths, rows, oracle_tilde_lengths(ts, k_max)


def test_curve_lengths_bit_equal(case):
    ts, k_max, lengths, _, _ = case
    assert np.array_equal(curve_lengths(ts, k_max), lengths)


def test_tilde_lengths_bit_equal(case):
    ts, k_max, _, _, areas = case
    assert np.array_equal(tilde_lengths(ts, k_max), areas)


def test_hfd_bit_equal(case):
    ts, k_max, lengths, _, _ = case
    slope, intercept, index_set, points = fit_lengths(lengths)
    res = hfd(ts, k_max)
    assert np.array_equal(res.lengths, lengths)
    assert res.index_set == index_set
    assert np.array_equal(res.points, points)
    assert res.slope == slope
    assert res.intercept == intercept
    assert res.detail is None


def test_geometric_hfd_bit_equal(case):
    ts, k_max, _, _, _ = case
    assert geometric_hfd(ts, k_max) == oracle_geometric_hfd(ts, k_max)


def test_detail_rows_bit_equal(case):
    ts, k_max, _, rows, _ = case
    got = hfd(ts, k_max, detail=True).detail
    assert detail_rows(got) == rows
    assert got["k"].dtype.kind == got["m"].dtype.kind == "i"
    assert got["C"].dtype == got["V"].dtype == got["L_m"].dtype == np.float64
    for k, m, _, v, _ in detail_rows(got):
        assert v == variation_sum(ts, k, m)


@pytest.mark.parametrize("cells", [1, 7, 2**16])
def test_small_blocks_bit_equal(case, cells, monkeypatch):
    # blocks of one stride, or of at most 7 cells, end at (nearly) every
    # stride and leave no run of two; blocks of 2**16 cells hold runs of
    # dozens of strides; the tests above run the default block size
    monkeypatch.setattr(higuchi, "_BLOCK_CELLS", cells)
    ts, k_max, lengths, rows, areas = case
    assert np.array_equal(curve_lengths(ts, k_max), lengths)
    assert np.array_equal(tilde_lengths(ts, k_max), areas)
    assert detail_rows(hfd(ts, k_max, detail=True).detail) == rows
    assert geometric_hfd(ts, k_max) == oracle_geometric_hfd(ts, k_max)


@pytest.mark.parametrize("cells", [1, 7, higuchi._BLOCK_CELLS])
@pytest.mark.parametrize("name", sorted(name for name, (ts, _) in CASES.items() if ts.n <= 51))
def test_stability_reports_bit_equal(name, cells, monkeypatch):
    monkeypatch.setattr(higuchi, "_BLOCK_CELLS", cells)
    # every bump index, so small series only
    ts, k_max = CASES[name]
    lengths, _ = oracle_length_table(ts, k_max, want_detail=False)
    for j in range(1, ts.n + 1):
        report = stability_report(ts, k_max, j=j, eps=1e-10)
        bumped, _ = oracle_length_table(perturb(ts, j, 1e-10), k_max, want_detail=False)
        assert np.array_equal(report.base.lengths, lengths)
        assert np.array_equal(report.perturbed.lengths, bumped)
        slope, _, index_set, _ = fit_lengths(bumped)
        assert report.perturbed.index_set == index_set
        assert report.perturbed.slope == slope


@pytest.mark.parametrize("cells", [higuchi._BLOCK_CELLS, 2**16])
@pytest.mark.parametrize("name", sorted(name for name, (ts, _) in CASES.items() if 51 < ts.n < 10_000))
def test_stability_reports_on_runs_bit_equal(name, cells, monkeypatch):
    # the bumped column of every stride, also where runs of strides share
    # one table, at bumps at both ends and inside
    monkeypatch.setattr(higuchi, "_BLOCK_CELLS", cells)
    ts, k_max = CASES[name]
    lengths, _ = oracle_length_table(ts, k_max, want_detail=False)
    for j in (1, 2, ts.n // 3, ts.n - 1, ts.n):
        report = stability_report(ts, k_max, j=j, eps=1e-10)
        bumped, _ = oracle_length_table(perturb(ts, j, 1e-10), k_max, want_detail=False)
        assert np.array_equal(report.base.lengths, lengths)
        assert report.perturbed.lengths.tobytes() == bumped.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 3334, 5001])
def test_stride_table_is_a_sequential_column_sum(k):
    # every column of a lone stride's padded table against a left-to-right
    # Python loop over its increments; at N = 10 001 strides 2, 3, 7, 64 and
    # 3334 (one full row) leave a partial last row, which reads the padding,
    # and stride 5001 has no full row and one offset without an increment
    rng = np.random.default_rng(12)
    values = rng.normal(size=10_001) * 10.0 ** rng.integers(-150, 150, size=10_001)
    n = values.size
    expected = []
    for m in range(min(k, n - k)):
        v = 0.0
        for i in range(m + k, n, k):
            v += abs(values[i] - values[i - k])
        expected.append(v)
    padded = np.concatenate([values, np.full(k, np.nan)])
    got = higuchi._run_columns(padded, k, k + 1, (n - k) // k)
    assert got.size == k
    assert got[: len(expected)].tobytes() == np.array(expected).tobytes()
    if k == 1:
        # the data tells the two orders apart: numpy's pairwise sum differs
        assert np.sum(np.abs(np.diff(values))) != expected[0]


@pytest.mark.parametrize("p", [-40, -3, 1, 17])
def test_power_of_two_rescaling(case, p):
    # a power-of-two factor scales every increment, sum and mean exactly;
    # only the logarithms of the fit round differently
    ts, k_max, lengths, _, _ = case
    res = hfd(TimeSeries(ts.values * 2.0**p), k_max)
    assert np.array_equal(res.lengths, lengths * 2.0**p)
    base = hfd(ts, k_max)
    assert res.index_set == base.index_set
    assert abs(res.slope - base.slope) <= 1e-12


OVERFLOWING = TimeSeries([1e308, -1e308] * 10)


class TestOverflow:
    def test_hfd_raises_naming_the_stride(self):
        with pytest.raises(DomainError, match=r"length at stride k=1 "):
            hfd(OVERFLOWING, 5)

    def test_geometric_hfd_raises(self):
        with pytest.raises(DomainError, match=r"area at stride k=1 "):
            geometric_hfd(OVERFLOWING, 5)

    def test_stability_report_raises(self):
        with pytest.raises(DomainError, match=r"stride k=1 "):
            stability_report(OVERFLOWING, 5)

    def test_overflowing_increment_sum_raises(self):
        # every increment is finite, their sum V(1, 1) is not
        ts = TimeSeries([0.0, 1.5e308, 0.0, 1.5e308, 0.0])
        with pytest.raises(DomainError, match=r"length at stride k=1 "):
            hfd(ts, 3)

    def test_overflow_inside_a_run_names_the_first_stride(self):
        # a step to 1e308 after sample 7: C * V overflows from stride 148
        # on, inside the run of strides 147..150, while stride 147 and every
        # shorter one stay finite; the loop oracle overflows at the same stride
        n, k_max = 301, ceil_half(301)
        x = np.zeros(n)
        x[7:] = 1e308
        ts = TimeSeries(x)
        with np.errstate(over="ignore"):
            lengths, _ = oracle_length_table(ts, k_max, want_detail=False)
        first = int(np.flatnonzero(~np.isfinite(lengths))[0]) + 1
        assert first == 148
        assert any(a < first < b - 1 for a, b, _, _ in _runs(n, k_max))
        for fn in (lambda: curve_lengths(ts, k_max), lambda: hfd(ts, k_max, detail=True),
                   lambda: stability_report(ts, k_max, j=2), lambda: divergence_trace(ts, k_max, 2, [1e-3])):
            with pytest.raises(DomainError, match=rf"length at stride k={first} "):
                fn()

    def test_bump_that_overflows_inside_a_run(self):
        # a finite series whose bumped copy overflows first at stride 61,
        # whose bumped column shares its count q = 4 with stride 62's
        n, k_max = 301, ceil_half(301)
        x = np.zeros(n)
        x[7:] = -0.6e308
        ts = TimeSeries(x)
        assert np.all(np.isfinite(hfd(ts, k_max).lengths))
        bumped = perturb(ts, 1, 0.9e308)
        with np.errstate(over="ignore"):
            lengths, _ = oracle_length_table(bumped, k_max, want_detail=False)
        first = int(np.flatnonzero(~np.isfinite(lengths))[0]) + 1
        # j = 1 bumps offset m = 1, whose count is q = (n-1)//k
        assert first == 61 and (n - 1) // first == (n - 1) // (first + 1) == 4
        for fn in (lambda: stability_report(ts, k_max, j=1, eps=0.9e308),
                   lambda: divergence_trace(ts, k_max, 1, [0.9e308, 1e-3])):
            with pytest.raises(DomainError, match=rf"length at stride k={first} "):
                fn()

    def test_large_finite_lengths_pass(self):
        ts = TimeSeries([1e300, -1e300] * 10)
        assert math.isfinite(hfd(ts, 5).slope)

    def test_cli_exits_2_without_nan(self, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        rows = [f"{j},{(j - 1) / 19!r},{x!r}" for j, x in enumerate(OVERFLOWING.values.tolist(), 1)]
        path.write_text("j,t,x\n" + "\n".join(rows) + "\n")
        code = main(["hfd", "--input", str(path), "--kmax", "5", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "stride k=1" in err
        assert "NaN" not in out + err


BIGGEST = 1.7976931348623157e308
EXTREMES = st.sampled_from([0.0, 5e-324, 1e-300, 1e308, -1e308, BIGGEST, -BIGGEST])
FINITE = st.floats(min_value=-BIGGEST, max_value=BIGGEST)


@st.composite
def overflow_inputs(draw):
    values = draw(st.lists(st.one_of(FINITE, EXTREMES), min_size=2, max_size=24))
    n = len(values)
    k_max = draw(st.integers(1, ceil_half(n)))
    j = draw(st.integers(1, n))
    eps = draw(st.one_of(FINITE, EXTREMES))
    grid = draw(st.lists(st.floats(min_value=5e-324, max_value=BIGGEST), min_size=1, max_size=4, unique=True))
    return TimeSeries(values), k_max, j, eps, sorted(grid, reverse=True)


def _finite_or_refused(fn):
    """``fn()``, or None when it raises a FracdimError; a RuntimeWarning or
    any other exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return fn()
        except FracdimError:
            return None


def _assert_finite_result(res):
    assert np.all(np.isfinite(res.lengths)) and np.all(np.isfinite(res.points))
    assert math.isfinite(res.slope)
    assert res.intercept is None or math.isfinite(res.intercept)


@settings(max_examples=150, deadline=None)
@given(overflow_inputs())
def test_finite_series_give_finite_results_or_refusals(inputs):
    ts, k_max, j, eps, grid = inputs
    res = _finite_or_refused(lambda: hfd(ts, k_max))
    if res is not None:
        _assert_finite_result(res)
    lengths = _finite_or_refused(lambda: curve_lengths(ts, k_max))
    assert lengths is None or np.all(np.isfinite(lengths))
    d = _finite_or_refused(lambda: geometric_hfd(ts, k_max))
    assert d is None or math.isfinite(d)
    report = _finite_or_refused(lambda: stability_report(ts, k_max, j=j, eps=eps))
    if report is not None:
        _assert_finite_result(report.base)
        _assert_finite_result(report.perturbed)
        assert math.isfinite(report.delta_d) and np.all(np.isfinite(report.new_points))
    rows = _finite_or_refused(lambda: divergence_trace(ts, k_max, j, grid))
    for row in rows or ():
        assert math.isfinite(row.d_eps)
        # NaN marks a bump that resurrects no stride, and only that
        new_points = stability_report(ts, k_max, j=j, eps=row.eps).new_points
        assert math.isnan(row.min_log_new) == (len(new_points) == 0)
        assert math.isnan(row.min_log_new) or math.isfinite(row.min_log_new)
