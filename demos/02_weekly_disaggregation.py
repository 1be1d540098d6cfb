"""
Disaggregating a monthly index to the weekly grid
=================================================

Monthly index values are pinned to the first analysis window starting
inside each month (the survey runs in the first half of the month), and a
natural cubic spline through those anchors fills in the remaining weeks.
The weekly series holds one value per window, value ``i`` for window
``i``, and reproduces every monthly value exactly at its anchor.
"""
from datetime import date

from sbsflow import MonthlySeries, build_windows, disaggregate
from sbsflow.series import month_anchors

windows = build_windows(date(2021, 2, 1), date(2021, 6, 14))
monthly = MonthlySeries(
    name="confidence_climate",
    months=(date(2021, 2, 1), date(2021, 3, 1), date(2021, 4, 1), date(2021, 5, 1)),
    values=(101.5, 104.2, 98.9, 100.3),
)

anchors = month_anchors(monthly, windows)
print("month -> anchor window:")
for m, a in zip(monthly.months, anchors):
    print(f"  {m:%Y-%m} -> window {a} (starts {windows[a].start_date})")

weekly = disaggregate(monthly, windows)
print("\nweekly values (* marks a monthly anchor):")
for idx, value in enumerate(weekly.values):
    marker = " *" if idx in anchors else ""
    print(f"  window {idx:2d} {windows[idx].start_date} {value:8.3f}{marker}")
