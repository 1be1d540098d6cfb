from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import natural_spline_eval
from sbsflow.corpus import build_windows
from sbsflow.series import (
    MonthlySeries,
    SeriesError,
    WeeklySeries,
    disaggregate,
    load_monthly,
    month_anchors,
)


def monthly(name, first, values):
    months = []
    y, m = first
    for _ in values:
        months.append(date(y, m, 1))
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return MonthlySeries(name=name, months=tuple(months), values=tuple(float(v) for v in values))


# grid engineered so the three monthly anchors land on window 0, 4 and 9
GRID_START = date(2021, 2, 1)
GRID_END = date(2021, 4, 19)


class TestLoadMonthly:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("month,climate\n2020-01,101.5\n2020-02,102.25\n")
        series = load_monthly(p)
        assert len(series) == 1
        assert series[0].name == "climate"
        assert len(series[0]) == 2
        assert series[0].values == (101.5, 102.25)

    def test_month_gap_fatal(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("month,climate\n2017-01,1\n2017-03,2\n")
        with pytest.raises(SeriesError) as err:
            load_monthly(p)
        assert "gap" in str(err.value) and "2017-02" in str(err.value)

    def test_duplicate_month_fatal(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("month,climate\n2017-01,1\n2017-01,2\n")
        with pytest.raises(SeriesError):
            load_monthly(p)

    def test_non_numeric_cell_fatal_with_location(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("month,climate,personal\n2017-01,1,2\n2017-02,x,3\n")
        with pytest.raises(SeriesError) as err:
            load_monthly(p)
        assert "row 3" in str(err.value) and "climate" in str(err.value)

    @pytest.mark.parametrize(
        "header, refusal",
        [
            ("month,climate,personal,climate", "series 'climate' repeated in columns [2, 4]"),
            ("month,,personal", "a blank series name in columns [2]"),
        ],
        ids=["repeated_name", "blank_name"],
    )
    def test_blank_or_repeated_series_name_fatal(self, tmp_path, header, refusal):
        # a name must pick out one column: targets are configured by name
        cells = ",".join(["1.5"] * header.count(","))
        p = tmp_path / "m.csv"
        p.write_text(f"{header}\n2017-01,{cells}\n2017-02,{cells}\n")
        with pytest.raises(SeriesError) as err:
            load_monthly(p)
        assert str(err.value) == f"{p}: header has {refusal}"

    def test_44_month_multi_year_file(self, tmp_path):
        p = tmp_path / "m.csv"
        rows = ["month,climate,personal"]
        y, m = 2017, 1
        for i in range(44):
            rows.append(f"{y:04d}-{m:02d},{100 + i},{90 + i}")
            y, m = (y + 1, 1) if m == 12 else (y, m + 1)
        p.write_text("\n".join(rows) + "\n")
        series = load_monthly(p)
        assert [len(s) for s in series] == [44, 44]
        assert series[0].months[-1] == date(2020, 8, 1)


class TestAnchors:
    def test_first_window_starting_in_month(self):
        windows = build_windows(GRID_START, GRID_END)
        m = monthly("s", (2021, 2), [1.0, 2.0, 0.5])
        assert month_anchors(m, windows) == [0, 4, 9]

    def test_uncovered_month_fatal(self):
        windows = build_windows(GRID_START, date(2021, 3, 1))
        m = monthly("s", (2021, 2), [1.0, 2.0, 0.5])
        with pytest.raises(SeriesError) as err:
            month_anchors(m, windows)
        assert "2021-03" in str(err.value) or "2021-04" in str(err.value)


class TestDisaggregate:
    def setup_method(self):
        self.windows = build_windows(GRID_START, GRID_END)  # 11 windows

    def test_constant_series_reproduced(self):
        m = monthly("s", (2021, 2), [7.25, 7.25, 7.25])
        weekly = disaggregate(m, self.windows)
        assert all(v == pytest.approx(7.25, abs=1e-9) for v in weekly.values)

    def test_collinear_series_reproduced(self):
        # values linear in the knot index stay on the same line
        knots = [0, 4, 9]
        m = monthly("s", (2021, 2), [3.0 + 0.5 * k for k in knots])
        weekly = disaggregate(m, self.windows)
        for idx, v in enumerate(weekly.values):
            assert v == pytest.approx(3.0 + 0.5 * idx, abs=1e-9)

    def test_knot_passthrough_and_oracle_match(self):
        m = monthly("s", (2021, 2), [1.0, 2.0, 0.5])
        weekly = disaggregate(m, self.windows)
        by_idx = dict(enumerate(weekly.values))
        assert by_idx[0] == pytest.approx(1.0, abs=1e-9)
        assert by_idx[4] == pytest.approx(2.0, abs=1e-9)
        assert by_idx[9] == pytest.approx(0.5, abs=1e-9)
        expected = natural_spline_eval([0, 4, 9], [1.0, 2.0, 0.5], list(range(len(weekly))))
        for v, e in zip(weekly.values, expected):
            assert v == pytest.approx(e, abs=1e-9)

    def test_fewer_than_three_knots_fatal(self):
        m = monthly("s", (2021, 2), [1.0, 2.0])
        with pytest.raises(SeriesError):
            disaggregate(m, self.windows)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=3, max_size=30),
        first_month=st.integers(min_value=1, max_value=12),
        lead_days=st.integers(min_value=0, max_value=40),
        tail_weeks=st.integers(min_value=0, max_value=6),
    )
    def test_equals_scipy_natural_spline(self, values, first_month, lead_days, tail_weeks):
        # the numpy spline returns scipy's floats, also on windows before the
        # first anchor and after the last
        from scipy.interpolate import CubicSpline

        m = monthly("s", (2021, first_month), values)
        after_last = m.months[-1] + timedelta(days=31)
        windows = build_windows(
            m.months[0] - timedelta(days=lead_days),
            after_last.replace(day=1) + timedelta(weeks=tail_weeks),
        )
        knots = month_anchors(m, windows)
        grid = np.arange(len(windows), dtype=float)
        expected = CubicSpline(knots, values, bc_type="natural")(grid)
        weekly = disaggregate(m, windows)
        assert list(map(repr, weekly.values)) == list(map(repr, expected.tolist()))

    def test_c2_continuity_at_knots(self):
        # a check on the reference that test_equals_scipy_natural_spline
        # compares disaggregate with
        from scipy.interpolate import CubicSpline

        knots = np.array([0.0, 4.0, 9.0, 13.0, 17.0])
        values = np.array([1.0, 2.0, 0.5, 3.0, 2.5])
        spline = CubicSpline(knots, values, bc_type="natural")
        second = spline.derivative(2)
        for k in knots[1:-1]:
            left = second(k - 1e-12)
            right = second(k + 1e-12)
            assert left == pytest.approx(right, abs=1e-6)
        # natural boundary: zero curvature at the end knots
        assert second(knots[0]) == pytest.approx(0.0, abs=1e-9)
        assert second(knots[-1]) == pytest.approx(0.0, abs=1e-9)

    @given(
        st.floats(min_value=-5, max_value=5).filter(lambda a: abs(a) > 1e-3),
        st.floats(min_value=-100, max_value=100),
    )
    def test_affine_equivariance(self, a, b):
        m = monthly("s", (2021, 2), [1.0, 2.0, 0.5])
        scaled = monthly("s", (2021, 2), [a * v + b for v in m.values])
        base = disaggregate(m, self.windows)
        got = disaggregate(scaled, self.windows)
        for v, w in zip(base.values, got.values):
            assert a * v + b == pytest.approx(w, rel=1e-9, abs=1e-7)

    def test_longer_series_matches_oracle(self, rng):
        start, end = date(2021, 1, 4), date(2022, 1, 3)
        windows = build_windows(start, end)
        values = list(100 + rng.normal(0, 3, size=12).cumsum())
        m = monthly("s", (2021, 1), values)
        weekly = disaggregate(m, windows)
        anchors = month_anchors(m, windows)
        expected = natural_spline_eval(anchors, values, list(range(len(weekly))))
        for v, e in zip(weekly.values, expected):
            assert v == pytest.approx(e, abs=1e-9)
        # interpolation property at every knot
        by_idx = dict(enumerate(weekly.values))
        for anchor, value in zip(anchors, values):
            assert by_idx[anchor] == pytest.approx(value, abs=1e-9)
