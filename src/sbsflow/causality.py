"""Granger-causality screening of weekly keyword series against targets.

For each (keyword, target) pair the lag order is chosen by BIC on the
unrestricted bivariate model, then lagged keyword terms are F-tested for
incremental predictive power over the target's own lags. Tests run on
levels; the weekly targets are spline-interpolated and therefore serially
smooth by construction, which is flagged in the emitted reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.special import betainc

from .series import WeeklySeries

__all__ = [
    "RegressionFit",
    "GrangerResult",
    "CrossCorrelation",
    "DegenerateSeriesError",
    "RankDeficientError",
    "ols_fit",
    "lag_design",
    "select_lag_bic",
    "granger_test",
    "f_upper_tail",
    "cross_correlation_sign",
    "assign_stars",
    "run_battery",
]

DEFAULT_THRESHOLDS = (0.10, 0.05, 0.01)


class DegenerateSeriesError(ValueError):
    """Constant series or an exact fit leaves the F statistic undefined."""


class RankDeficientError(ValueError):
    """Design matrix has linearly dependent columns."""

    def __init__(self, columns: list[int]):
        self.columns = columns
        super().__init__(f"rank-deficient design; dependent columns {columns}")


@dataclass(frozen=True)
class RegressionFit:
    coefficients: np.ndarray
    rss: float
    t_effective: int
    k: int


def ols_fit(design: np.ndarray, response: np.ndarray) -> RegressionFit:
    """Least squares through a pivoted QR decomposition.

    Raises :class:`RankDeficientError` naming the offending columns when the
    design is not full column rank.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2:
        raise ValueError("design must be a 2-d matrix")
    rows, cols = X.shape
    if rows <= cols:
        raise ValueError(f"need more rows than columns, got {rows}x{cols}")
    Q, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag[0] * max(rows, cols) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < cols:
        raise RankDeficientError(sorted(int(c) for c in piv[rank:]))
    qty = Q.T @ y
    beta_piv = solve_triangular(R, qty)
    beta = np.empty(cols)
    beta[piv] = beta_piv
    resid = y - X @ beta
    return RegressionFit(
        coefficients=beta,
        rss=float(resid @ resid),
        t_effective=rows,
        k=cols,
    )


def lag_design(y: np.ndarray, x: np.ndarray, p: int, trim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Response and lag blocks on the sample t = trim .. T-1.

    Returns (response, own-lag block, cross-lag block); each block has
    columns lag 1 .. lag p.
    """
    T = len(y)
    rows = T - trim
    ylags = np.column_stack([y[trim - j : T - j] for j in range(1, p + 1)]) if p else np.empty((rows, 0))
    xlags = np.column_stack([x[trim - j : T - j] for j in range(1, p + 1)]) if p else np.empty((rows, 0))
    return y[trim:], ylags, xlags


def _check_series(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or x.ndim != 1:
        raise ValueError("series must be 1-d")
    if len(y) != len(x):
        raise ValueError(f"series lengths differ: {len(y)} vs {len(x)}")
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise ValueError("series contain non-finite values")
    return y, x


def select_lag_bic(y: np.ndarray, x: np.ndarray, p_max: int) -> int:
    """Smallest-BIC lag order of the unrestricted bivariate model.

    All candidates p = 1..p_max are fit on the common sample trimmed at
    p_max, because BIC values are only comparable on identical samples.
    Ties go to the smaller p.
    """
    y, x = _check_series(y, x)
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    T = len(y)
    if T <= 2 * p_max + 1:
        raise ValueError(f"series too short: T={T} needs T > {2 * p_max + 1} for p_max={p_max}")
    resp, ylags, xlags = lag_design(y, x, p_max, trim=p_max)
    t_eff = len(resp)
    ones = np.ones((t_eff, 1))
    best_p, best_bic = 1, math.inf
    for p in range(1, p_max + 1):
        design = np.hstack([ones, ylags[:, :p], xlags[:, :p]])
        fit = ols_fit(design, resp)
        if fit.rss <= 0.0:
            raise DegenerateSeriesError(f"exact fit at lag {p}; BIC undefined")
        bic = t_eff * math.log(fit.rss / t_eff) + fit.k * math.log(t_eff)
        if bic < best_bic:
            best_p, best_bic = p, bic
    return best_p


def f_upper_tail(f: float, d1: int, d2: int) -> float:
    """P(F_{d1,d2} > f) via the regularized incomplete beta function."""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if f <= 0.0:
        return 1.0
    return float(betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f)))


def granger_test(y: np.ndarray, x: np.ndarray, p: int) -> tuple[float, float]:
    """F test of the x lags in y_t ~ 1 + y_{t-1..t-p} + x_{t-1..t-p}.

    Returns (f_stat, p_value). The restricted model drops the x lags;
    F = ((RSS_r - RSS_u)/p) / (RSS_u/(T_eff - 2p - 1)).
    """
    y, x = _check_series(y, x)
    if p < 1:
        raise ValueError("lag order must be >= 1")
    T = len(y)
    t_eff = T - p
    if t_eff <= 2 * p + 1:
        raise ValueError(f"series too short: T_eff={t_eff} needs T_eff > {2 * p + 1}")
    resp, ylags, xlags = lag_design(y, x, p, trim=p)
    if np.ptp(resp) == 0.0 or np.ptp(ylags) == 0.0:
        raise DegenerateSeriesError("target series constant on the estimation sample")
    if np.ptp(xlags) == 0.0:
        raise DegenerateSeriesError("predictor series constant on the estimation sample")
    ones = np.ones((t_eff, 1))
    unrestricted = ols_fit(np.hstack([ones, ylags, xlags]), resp)
    restricted = ols_fit(np.hstack([ones, ylags]), resp)
    scale = max(1.0, float(resp @ resp))
    if unrestricted.rss <= 1e-12 * scale:
        raise DegenerateSeriesError("unrestricted model fits exactly; F undefined")
    d2 = t_eff - 2 * p - 1
    f_stat = ((restricted.rss - unrestricted.rss) / p) / (unrestricted.rss / d2)
    f_stat = max(0.0, f_stat)  # guard the nesting identity against rounding
    return f_stat, f_upper_tail(f_stat, p, d2)


@dataclass(frozen=True)
class CrossCorrelation:
    sign: str  # "+" or "-"
    lag: int
    r: float


def cross_correlation_sign(y: np.ndarray, x: np.ndarray, max_lag: int) -> CrossCorrelation:
    """Sign of the strongest Pearson correlation corr(x_{t-l}, y_t), l = 0..max_lag.

    Ties on |r| go to the smallest lag.
    """
    y, x = _check_series(y, x)
    T = len(y)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if max_lag >= T / 4:
        raise ValueError(f"max_lag={max_lag} too large for T={T} (needs max_lag < T/4)")
    if np.ptp(y) == 0.0 or np.ptp(x) == 0.0:
        raise DegenerateSeriesError("constant series has no correlation phase")
    best: CrossCorrelation | None = None
    for lag in range(max_lag + 1):
        xs = x[: T - lag] if lag else x
        ys = y[lag:]
        if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
            continue
        r = float(np.corrcoef(xs, ys)[0, 1])
        if not np.isfinite(r):
            continue
        if best is None or abs(r) > abs(best.r):
            best = CrossCorrelation(sign="+" if r >= 0 else "-", lag=lag, r=r)
    if best is None:
        raise DegenerateSeriesError("no lag produced a finite correlation")
    return best


def assign_stars(p_value: float) -> str:
    """Significance stars at the (weak, medium, strong) ``DEFAULT_THRESHOLDS``."""
    weak, medium, strong = DEFAULT_THRESHOLDS
    if p_value < strong:
        return "***"
    if p_value < medium:
        return "**"
    if p_value < weak:
        return "*"
    return ""


@dataclass(frozen=True)
class GrangerResult:
    keyword: str
    target: str
    lags: int | None
    f_stat: float | None
    p_value: float | None
    stars: str
    cc_sign: str
    status: str  # "ok" or the failure reason


def _common_grid(series: list[WeeklySeries]) -> tuple[int, ...]:
    grids = [set(s.indices) for s in series]
    common = sorted(set.intersection(*grids)) if grids else []
    return tuple(common)


def run_battery(
    sbs_series: list[WeeklySeries],
    targets: list[WeeklySeries],
    p_max: int = 8,
) -> list[GrangerResult]:
    """Test every (keyword, target) pair on the common window grid.

    Pairs whose test fails (constant series, degenerate fits) are reported
    with the reason in ``status`` rather than dropped. Results come back
    ordered by (keyword, target). Each pair tests keyword -> target on
    levels.
    """
    if not sbs_series or not targets:
        raise ValueError("need at least one keyword series and one target series")
    grid = _common_grid(sbs_series + targets)
    if not grid:
        raise ValueError("keyword and target series share no window indices")

    def on_grid(s: WeeklySeries) -> np.ndarray:
        by_idx = dict(zip(s.indices, s.values))
        return np.asarray([by_idx[i] for i in grid], dtype=float)

    keyword_vecs = {s.name: on_grid(s) for s in sbs_series}
    target_vecs = {t.name: on_grid(t) for t in targets}
    results = []
    for kw in sorted(keyword_vecs):
        for target in sorted(target_vecs):
            y, x = target_vecs[target], keyword_vecs[kw]
            try:
                p = select_lag_bic(y, x, p_max)
                f_stat, p_value = granger_test(y, x, p)
                cc = cross_correlation_sign(y, x, p_max)
            except (DegenerateSeriesError, RankDeficientError, ValueError) as exc:
                results.append(
                    GrangerResult(
                        keyword=kw, target=target, lags=None, f_stat=None,
                        p_value=None, stars="", cc_sign="", status=str(exc),
                    )
                )
                continue
            results.append(
                GrangerResult(
                    keyword=kw,
                    target=target,
                    lags=p,
                    f_stat=f_stat,
                    p_value=p_value,
                    stars=assign_stars(p_value),
                    cc_sign=cc.sign,
                    status="ok",
                )
            )
    return results
