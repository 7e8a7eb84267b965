import csv
import io
import tracemalloc

import numpy as np
import pytest

from fracdim import (
    Affine,
    Alternating,
    Constant,
    DomainError,
    PeriodicInterp,
    TimeSeries,
    Weierstrass,
    perturb,
    sample,
    sample_grid,
)
from fracdim.errors import AdmissibilityError
from fracdim.series import from_csv_text, read_csv, to_csv_text, write_csv
from fracdim.signals import eval_weierstrass


ODD_FILES = {
    "plain": "j,t,x\n1,0,1\n2,0.5,2\n3,1,3\n",
    "no_final_newline": "j,t,x\n1,0,1\n2,1,3",
    "crlf": "j,t,x\r\n1,0,1\r\n2,1,3\r\n",
    "lone_cr": "j,t,x\r1,0,1\r2,1,3\r",
    "blank_and_trailing_blank_lines": "j,t,x\n\n1,0,1\n\r\n2,1,3\n\n\n",
    "header_with_spaces": " j , t ,x \n1,0,1\n2,1,3\n",
    "cells_with_spaces": "j,t,x\n 1, 0 ,1\t\n2,1, 3\n",
    "form_feed_ends_a_row": "j,t,x\n1,0,1\x0c\n2,1,3\n",
    "form_feed_inside_a_row": "j,t,x\n1,0\x0c,1\n2,1,3\n",
    "file_separator_ends_a_row": "j,t,x\n1,0,1\x1c2,1,3\n",
    "file_separator_inside_a_row": "j,t,x\n1,0\x1c,1\n2,1,3\n",
    "file_separator_in_header": "j\x1c,t,x\n1,0,1\n2,1,3\n",
    "vertical_tab_inside_a_row": "j,t,x\n1,0,1\x0b2,1,3\n",
    "next_line_inside_a_row": "j,t,x\n1,0\x85,1\n2,1,3\n",
    "line_separator_ends_a_row": "j,t,x\n1,0,1\u2028\n2,1,3\n",
    "whitespace_line": "j,t,x\n1,0,1\n  \n2,1,3\n",
    "quoted_numbers": 'j,t,x\n"1",0,1\n2,1,3\n',
    "underscore_digits": "j,t,x\n1,0,1_0\n2,1,0\n",
    "extra_column": "j,t,x\n1,0,1,9\n2,1,3,9\n",
    "missing_column": "j,t,x\n1,0,1\n2,1\n",
    "shuffled_j": "j,t,x\n2,1,3\n1,0,1\n",
    "off_grid_t": "j,t,x\n1,0,1\n2,0.5,3\n",
    "nan_t": "j,t,x\n1,0,1\n2,nan,3\n",
    "infinite_x": "j,t,x\n1,0,1\n2,1,inf\n",
    "wrong_header": "a,b,c\n1,0,1\n2,1,3\n",
    "header_only": "j,t,x\n",
    "header_and_blank_lines": "j,t,x\n\n\r\n",
    "one_row": "j,t,x\n1,0,1\n",
    "empty": "",
}


def csv_writer_text(ts):
    """Oracle: the standard csv module writing one row per sample."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("j", "t", "x"))
    for j, (t, x) in enumerate(zip(ts.grid, ts.values), start=1):
        writer.writerow((j, format(t, ".17g"), format(x, ".17g")))
    return buf.getvalue()


class TestTimeSeries:
    def test_rejects_short_and_nonfinite(self):
        with pytest.raises(AdmissibilityError):
            TimeSeries(np.array([1.0]))
        with pytest.raises(DomainError):
            TimeSeries(np.array([1.0, np.inf]))
        with pytest.raises(DomainError):
            TimeSeries(np.array([1.0, np.nan, 2.0]))

    def test_values_are_read_only(self):
        ts = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    def test_grid_convention(self):
        ts = TimeSeries(np.zeros(5))
        assert np.array_equal(ts.grid, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))

    def test_len_is_the_sample_count(self):
        ts = TimeSeries(np.zeros(5))
        assert len(ts) == ts.n == 5


class TestSample:
    def test_identity_line(self):
        ts = sample(Affine(1.0, 0.0), 3)
        assert list(ts.values) == [0.0, 0.5, 1.0]

    def test_constant(self):
        ts = sample(Constant(2.5), 5)
        assert np.array_equal(ts.values, np.full(5, 2.5))

    def test_weierstrass_matches_direct_evaluation(self):
        ts = sample(Weierstrass(5.0, 1.7), 4)
        direct = eval_weierstrass(sample_grid(4), 5.0, 1.7)
        assert np.max(np.abs(ts.values - direct)) < 1e-12

    def test_too_few_samples_rejected(self):
        with pytest.raises(AdmissibilityError):
            sample(Constant(1.0), 1)

    def test_more_samples_than_an_array_holds_rejected(self):
        # numpy refuses such a size before allocating; the check names it
        grids = (sample_grid, Alternating(0.0, 1.0).sample_values, PeriodicInterp((1.0, 2.0)).sample_values)
        for n in (2**61, 10**20):
            for grid in grids + (lambda n: sample(Constant(1.0), n),):
                with pytest.raises(AdmissibilityError, match="at most"):
                    grid(n)

    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(4.0), True, None, "4"])
    def test_non_integer_sample_count_rejected(self, n):
        grids = (sample_grid, Alternating(0.0, 1.0).sample_values, PeriodicInterp((1.0, 2.0)).sample_values)
        for grid in grids + (lambda n: sample(Alternating(0.0, 1.0), n),):
            with pytest.raises(AdmissibilityError, match="^sample count n must be an integer, got "):
                grid(n)

    def test_numpy_integer_sample_count_accepted(self):
        assert list(sample(Alternating(0.0, 1.0), np.int64(3)).values) == [0.0, 1.0, 0.0]
        assert list(sample_grid(np.int32(3))) == [0.0, 0.5, 1.0]

    def test_affine_second_differences_within_ulp(self):
        ts = sample(Affine(-7.3, 2.1), 400)
        second = np.diff(ts.values, n=2)
        scale = np.max(np.abs(ts.values))
        assert np.max(np.abs(second)) <= 4 * np.spacing(scale)


class TestPerturb:
    def test_single_value_bumped(self):
        ts = TimeSeries(np.array([0.0, 1.0, 0.0]))
        out = perturb(ts, 1, 1e-10)
        assert out.values[0] == 1e-10
        assert np.array_equal(out.values[1:], ts.values[1:])

    def test_zero_bump_is_identity(self):
        ts = TimeSeries(np.array([0.4, 0.6, 0.4, 0.6]))
        assert np.array_equal(perturb(ts, 2, 0.0).values, ts.values)

    def test_original_untouched(self):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0]))
        perturb(ts, 2, 5.0)
        assert list(ts.values) == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("j", [0, -1, 4])
    def test_out_of_range_index(self, j):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError, match="outside 1..3"):
            perturb(ts, j, 0.1)

    @pytest.mark.parametrize("j", [1.0, 2.5, True, False, np.float64(2.0), None])
    def test_non_integer_index(self, j):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DomainError, match="^index j must be an integer, got "):
            perturb(ts, j, 0.1)

    def test_numpy_integer_index(self):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0]))
        assert list(perturb(ts, np.int64(2), 0.5).values) == [1.0, 2.5, 3.0]

    def test_bump_beyond_float_range(self):
        ts = TimeSeries(np.array([1e308, 0.0, 0.0]))
        with pytest.raises(DomainError, match=r"^the bumped value X\(1\) \+ 1e\+308 is not finite$"):
            perturb(ts, 1, 1e308)

    def test_other_entries_bit_identical(self):
        rng = np.random.default_rng(7)
        ts = TimeSeries(rng.normal(size=50))
        out = perturb(ts, 17, 1e-10)
        mask = np.arange(50) != 16
        assert np.array_equal(out.values[mask], ts.values[mask])


class TestCsv:
    def test_header_and_shape(self):
        ts = TimeSeries(np.array([0.4, 0.6, 0.4]))
        lines = to_csv_text(ts).splitlines()
        assert lines[0] == "j,t,x"
        assert len(lines) == 4
        assert lines[1].startswith("1,0,")

    def test_text_equals_csv_writer_rows(self):
        values = np.array([0.0, -0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 1e308, -1e308, 1 / 3, -7.25])
        ts = TimeSeries(values)
        assert to_csv_text(ts) == csv_writer_text(ts)

    @pytest.mark.parametrize("n", [2, 100_000])
    def test_text_equals_csv_writer_rows_for_weierstrass(self, n):
        ts = sample(Weierstrass(5.0, 1.7), n)
        assert to_csv_text(ts) == csv_writer_text(ts)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        ts = TimeSeries(rng.normal(size=200) * 1e3)
        assert np.array_equal(from_csv_text(to_csv_text(ts)).values, ts.values)

    def test_file_round_trip(self, tmp_path):
        ts = sample(Weierstrass(5.0, 1.7), 64)
        path = tmp_path / "series.csv"
        write_csv(ts, path)
        assert np.array_equal(read_csv(path).values, ts.values)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(DomainError, match="is not text"):
            read_csv(path)

    def test_wrong_header_rejected(self):
        with pytest.raises(DomainError):
            from_csv_text("a,b,c\n1,0,0\n2,1,1\n")

    def test_malformed_row_rejected(self):
        with pytest.raises(DomainError, match="line 3"):
            from_csv_text("j,t,x\n1,0,0\n2,0.5\n3,1,1\n")
        with pytest.raises(DomainError):
            from_csv_text("j,t,x\n1,0,zero\n2,1,1\n")

    def test_malformed_row_after_blank_line_named_by_its_file_line(self):
        # the blank line 3 is skipped, not taken for the malformed row
        with pytest.raises(DomainError, match=r"malformed series row at line 4: \['2', '0.5'\]"):
            from_csv_text("j,t,x\n1,0,0\n\n2,0.5\n3,1,1\n")

    def test_shuffled_rows_rejected(self):
        with pytest.raises(DomainError, match="line 2.*expected j = 1"):
            from_csv_text("j,t,x\n3,1.0,5.0\n1,0.0,1.0\n2,0.5,2.0\n")

    def test_missing_row_rejected(self):
        with pytest.raises(DomainError, match="line 4.*expected j = 3"):
            from_csv_text("j,t,x\n1,0,1\n2,0.25,2\n4,0.75,4\n5,1,5\n")

    def test_t_on_another_grid_rejected(self):
        # the t column of a 5-point grid under 4 rows
        with pytest.raises(DomainError, match="line 3.*expected t = 1/3"):
            from_csv_text("j,t,x\n1,0,1\n2,0.25,2\n3,0.5,3\n4,0.75,4\n")

    def test_t_within_tolerance_accepted(self):
        ts = from_csv_text("j,t,x\n1,0,1\n2,0.3333333333,2\n3,0.6666666667,3\n4,1,4\n")
        assert list(ts.values) == [1.0, 2.0, 3.0, 4.0]

    def test_blank_lines_and_crlf_accepted(self):
        ts = from_csv_text("j,t,x\r\n1,0,1\r\n\r\n2,1,3\r\n")
        assert list(ts.values) == [1.0, 3.0]

    def test_extra_column_rejected(self):
        with pytest.raises(DomainError, match="line 2"):
            from_csv_text("j,t,x\n1,0,1,9\n2,1,3,9\n")

    @pytest.mark.parametrize("name", sorted(ODD_FILES))
    def test_file_reads_as_its_text(self, name, tmp_path):
        # oracle: from_csv_text on the whole text of the file
        text = ODD_FILES[name]
        path = tmp_path / "series.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            expected = from_csv_text(text)
        except (DomainError, AdmissibilityError) as exc:
            with pytest.raises(type(exc)) as excinfo:
                read_csv(path)
            assert str(excinfo.value) == str(exc)
        else:
            assert read_csv(path).values.tobytes() == expected.values.tobytes()

    def test_read_memory_does_not_grow_with_the_text(self, tmp_path):
        # the whole text and its list of lines peaked at 19.5 MiB
        ts = sample(Weierstrass(5.0, 1.7), 10**5)
        path = tmp_path / "series.csv"
        write_csv(ts, path)
        tracemalloc.start()
        try:
            out = read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out.values, ts.values)
        assert peak < 6e6, peak

    def test_large_round_trip_is_exact(self):
        rng = np.random.default_rng(12)
        ts = TimeSeries(rng.normal(size=20000) * 10.0 ** rng.uniform(-300, 300, 20000))
        assert np.array_equal(from_csv_text(to_csv_text(ts)).values, ts.values)
