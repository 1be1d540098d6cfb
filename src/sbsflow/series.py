"""Monthly target indices and their disaggregation to the weekly grid.

A monthly series is pinned to the window grid at one knot per month: the
first window whose start date falls inside that month (the survey runs in
the first half of the month, so the weekly series is consistent with the
monthly value there). A natural cubic spline through the knots supplies
the remaining weekly values; it passes through every knot exactly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

from .corpus import TimeWindow

__all__ = [
    "MonthlySeries",
    "WeeklySeries",
    "SeriesError",
    "load_monthly",
    "month_anchors",
    "disaggregate",
]


class SeriesError(ValueError):
    """Fatal target-series problem (format, coverage, degeneracy)."""


@dataclass(frozen=True)
class MonthlySeries:
    """Named monthly series; months are consecutive with no gaps."""

    name: str
    months: tuple[date, ...]  # first day of each month
    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.months)


@dataclass(frozen=True)
class WeeklySeries:
    """Named series on the run's window grid: value ``i`` belongs to window ``i``."""

    name: str
    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


def _next_month(d: date) -> date:
    return date(d.year + 1, 1, 1) if d.month == 12 else date(d.year, d.month + 1, 1)


def load_monthly(path: str | Path) -> list[MonthlySeries]:
    """Parse ``month,series1,series2,...`` CSV with YYYY-MM months.

    Blank or repeated series names, month gaps, duplicate months and
    non-numeric cells are fatal, reported with their row and column.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SeriesError(f"{path}: empty file") from None
        if len(header) < 2 or header[0].strip().lower() != "month":
            raise SeriesError(f"{path}: header must be 'month,<series>...', got {header}")
        names = [h.strip() for h in header[1:]]
        for name in names:
            # CSV column numbers, the month column being 1
            cols = [col for col, other in enumerate(names, start=2) if other == name]
            if not name or len(cols) > 1:
                what = "a blank series name" if not name else f"series {name!r} repeated"
                raise SeriesError(f"{path}: header has {what} in columns {cols}")
        months: list[date] = []
        columns: list[list[float]] = [[] for _ in names]
        for row_no, row in enumerate(reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise SeriesError(f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}")
            try:
                year, month = row[0].strip().split("-")
                m = date(int(year), int(month), 1)
            except ValueError:
                raise SeriesError(f"{path}: row {row_no}: bad month {row[0]!r}") from None
            if months:
                expected = _next_month(months[-1])
                if m == months[-1]:
                    raise SeriesError(f"{path}: row {row_no}: duplicate month {row[0]}")
                if m != expected:
                    raise SeriesError(
                        f"{path}: row {row_no}: month gap, expected "
                        f"{expected:%Y-%m} after {months[-1]:%Y-%m}, got {row[0]}"
                    )
            months.append(m)
            for col, cell in enumerate(row[1:]):
                try:
                    v = float(cell)
                except ValueError:
                    raise SeriesError(
                        f"{path}: row {row_no}, column {names[col]!r}: non-numeric cell {cell!r}"
                    ) from None
                if not np.isfinite(v):
                    raise SeriesError(f"{path}: row {row_no}, column {names[col]!r}: non-finite value")
                columns[col].append(v)
    return [
        MonthlySeries(name=name, months=tuple(months), values=tuple(col))
        for name, col in zip(names, columns)
    ]


def month_anchors(monthly: MonthlySeries, windows: list[TimeWindow]) -> list[int]:
    """Knot index per month: the first window starting inside that month."""
    anchors = []
    for m in monthly.months:
        nxt = _next_month(m)
        knot = next(
            (w.index for w in windows if m <= w.start_date < nxt),
            None,
        )
        if knot is None:
            raise SeriesError(
                f"series {monthly.name!r}: no window starts inside month {m:%Y-%m}; "
                "the window grid does not cover the monthly span"
            )
        anchors.append(knot)
    return anchors


def _natural_spline(x: np.ndarray, y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The natural cubic spline through ``(x, y)``, evaluated at ``grid``.

    Reproduces ``scipy.interpolate.CubicSpline(x, y, bc_type="natural")(grid)``
    operation for operation, so the values are the same floats: the same
    banded system for the knot slopes, the same Hermite coefficients, and
    PPoly's evaluation order on the interval holding each point (the end
    intervals extend beyond the knots).
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    A = np.zeros((3, n))  # banded: upper, main and lower diagonals
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    A[1, 0], A[0, 1] = 2 * dx[0], dx[0]  # zero curvature at the first knot
    A[1, -1], A[-1, -2] = 2 * dx[-1], dx[-1]  # ... and at the last
    b = np.empty(n)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = 3 * (y[1] - y[0])
    b[-1] = 3 * (y[-1] - y[-2])
    s = solve_banded(
        (1, 1), A, b.reshape(n, 1), overwrite_ab=True, overwrite_b=True, check_finite=False
    ).reshape(n)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - s[:-1]) / dx - t
    i = np.clip(np.searchsorted(x, grid, "right") - 1, 0, n - 2)
    u = grid - x[i]
    # PPoly's sum starts at 0.0, which turns a -0.0 knot value into 0.0
    return 0.0 + y[i] + s[i] * u + c1[i] * (u * u) + c0[i] * (u * u * u)


def disaggregate(monthly: MonthlySeries, windows: list[TimeWindow]) -> WeeklySeries:
    """Natural cubic spline through the month anchors, sampled per window.

    The spline reproduces the monthly value exactly at each anchor and has
    zero curvature at the end knots; windows beyond the anchored span take
    the extension of the end segments.
    """
    if len(monthly) < 3:
        raise SeriesError(f"series {monthly.name!r}: need at least 3 monthly points, got {len(monthly)}")
    knots = np.asarray(month_anchors(monthly, windows), dtype=float)
    values = np.asarray(monthly.values, dtype=float)
    grid = np.arange(len(windows), dtype=float)
    weekly = _natural_spline(knots, values, grid)
    return WeeklySeries(name=monthly.name, values=tuple(float(v) for v in weekly))

