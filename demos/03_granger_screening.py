"""
Screening weekly series for incremental predictive power
========================================================

Two predictor series are tested against a target that is driven by the
first one at a one-week delay. Lag order comes from BIC on the
unrestricted model; the F test then asks whether the predictor's lags
explain the target beyond the target's own history. The phase sign is the
sign of the strongest cross-correlation over non-negative lags. The
battery takes series of one length, one value per week.
"""
import numpy as np

from sbsflow import WeeklySeries, run_battery
from sbsflow.causality import cross_correlation_sign, granger_test, select_lag_bic

rng = np.random.default_rng(42)
T = 150

driver = rng.normal(size=T)
bystander = rng.normal(size=T)
target = np.zeros(T)
for t in range(1, T):
    target[t] = 0.4 * target[t - 1] + 0.8 * driver[t - 1] + rng.normal()

p = select_lag_bic(target, driver, p_max=8)
f_stat, p_value = granger_test(target, driver, p)
cc = cross_correlation_sign(target, driver, max_lag=8)
print(f"driver    : BIC lag={p}, F={f_stat:8.2f}, p={p_value:.2e}, "
      f"phase {cc.sign} at lag {cc.lag} (r={cc.r:+.2f})")

p = select_lag_bic(target, bystander, p_max=8)
f_stat, p_value = granger_test(target, bystander, p)
print(f"bystander : BIC lag={p}, F={f_stat:8.2f}, p={p_value:.2e}")

print("\nfull battery (one row per predictor/target pair):")
series = [
    WeeklySeries("driver", tuple(driver)),
    WeeklySeries("bystander", tuple(bystander)),
]
targets = [WeeklySeries("outcome", tuple(target))]
for r in run_battery(series, targets, p_max=8):
    print(f"  {r.keyword:10s} -> {r.target}: lags={r.lags} F={r.f_stat:8.2f} "
          f"p={r.p_value:.3g} stars={r.stars!r} sign={r.cc_sign} [{r.status}]")
