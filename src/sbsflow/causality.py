"""Granger-causality screening of weekly keyword series against targets.

For each (keyword, target) pair the lag order is chosen by BIC on the
unrestricted bivariate model, then lagged keyword terms are F-tested for
incremental predictive power over the target's own lags. Tests run on
levels; the weekly targets are spline-interpolated and therefore serially
smooth by construction, which is flagged in the emitted reports.
"""
from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

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


# A one-QR BIC result is trusted only this far above the rounding that could
# tell it apart from the per-lag refits: the design's conditioning against
# ``ols_fit``'s rank tolerance, and BIC gaps against their estimated rounding.
_MARGIN = 1e3
_EPS = float(np.finfo(float).eps)
# smallest full-model RSS, as a share of resp'resp, that the fast path accepts
_MIN_RSS_SHARE = 1e-10
# |r| gap below which two lags' correlations are recomputed with np.corrcoef
_R_TIE = 1e-9


def select_lag_bic(y: np.ndarray, x: np.ndarray, p_max: int) -> int:
    """Smallest-BIC lag order of the unrestricted bivariate model.

    All candidates p = 1..p_max are fit on the common sample trimmed at
    p_max, because BIC values are only comparable on identical samples.
    Ties go to the smaller p.

    One unpivoted QR of ``[1, y_1, x_1, ..., y_pmax, x_pmax, resp]`` gives
    every candidate's RSS: the model at lag p is the first 1 + 2p columns,
    and its RSS is the sum of squares of ``R[1+2p:, -1]``. That answer is
    used only when it must equal the per-lag ``ols_fit`` refits: the full
    design is well clear of the rank tolerance (so, by interlacing, is every
    prefix), its RSS is not an exact fit, and no other lag's BIC lies within
    rounding of the winner's. Any other pair is refit lag by lag.
    """
    y, x = _check_series(y, x)
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    T = len(y)
    # the largest candidate fits 2 * p_max + 1 columns on T - p_max rows
    if T - p_max <= 2 * p_max + 1:
        raise ValueError(f"series too short: T={T} needs T > {3 * p_max + 1} for p_max={p_max}")
    resp, ylags, xlags = lag_design(y, x, p_max, trim=p_max)
    t_eff = len(resp)
    k = 2 * p_max + 1
    A = np.empty((t_eff, k + 1))
    A[:, 0] = 1.0
    A[:, 1:k:2] = ylags
    A[:, 2:k:2] = xlags
    A[:, k] = resp
    R = np.linalg.qr(A, mode="r")
    ks = 1 + 2 * np.arange(1, p_max + 1)  # columns of the models at lags 1..p_max
    rss = np.cumsum(R[::-1, k] ** 2)[::-1][ks]  # sum of squares of R[1+2p:, -1]
    col_norm = float(np.sqrt((A[:, :k] ** 2).sum(axis=0)).max())
    sigma_min = float(np.linalg.svd(R[:k, :k], compute_uv=False)[-1])
    yty = float(resp @ resp)
    # written so that a NaN anywhere sends the pair to the refits
    if not (sigma_min > _MARGIN * col_norm * t_eff * _EPS and rss[-1] > _MIN_RSS_SHARE * yty):
        return _select_lag_by_refits(resp, ylags, xlags)
    bic = t_eff * np.log(rss / t_eff) + ks * math.log(t_eff)
    best = int(np.argmin(bic))  # first minimum: ties go to the smaller p
    # relative RSS error of a least-squares residual ~ eps * cond * |resp| / |resid|
    rss_err = _MARGIN * _EPS * (col_norm / sigma_min) * math.sqrt(yty / rss[-1])
    if np.count_nonzero(np.abs(bic - bic[best]) > t_eff * rss_err) != p_max - 1:
        return _select_lag_by_refits(resp, ylags, xlags)
    return best + 1


def _select_lag_by_refits(resp: np.ndarray, ylags: np.ndarray, xlags: np.ndarray) -> int:
    """BIC lag from one ``ols_fit`` per candidate, raising what the fits raise."""
    t_eff = len(resp)
    ones = np.ones((t_eff, 1))
    best_p, best_bic = 1, math.inf
    for p in range(1, ylags.shape[1] + 1):
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

    Ties on |r| go to the smallest lag. Each r comes from centred dot
    products; lags whose |r| lies within rounding of the best are decided
    again with ``np.corrcoef``, so ties resolve as that route resolves them.
    """
    y, x = _check_series(y, x)
    T = len(y)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if max_lag >= T / 4:
        raise ValueError(f"max_lag={max_lag} too large for T={T} (needs max_lag < T/4)")
    if np.ptp(y) == 0.0 or np.ptp(x) == 0.0:
        raise DegenerateSeriesError("constant series has no correlation phase")
    # a lag whose x[:T-lag] or y[lag:] is constant has no correlation: x is
    # constant up to its first change, y from just after its last change
    x_first_change = int(np.argmax(x != x[0]))
    y_last_change = T - 1 - int(np.argmax(y[::-1] != y[-1]))
    lags = [lag for lag in range(max_lag + 1) if T - lag > x_first_change and lag <= y_last_change]
    rs = np.empty(len(lags))
    with np.errstate(all="ignore"):  # an under- or overflowing lag is decided below
        for i, lag in enumerate(lags):
            xs, ys = x[: T - lag], y[lag:]
            xc = xs - xs.sum() / len(xs)
            yc = ys - ys.sum() / len(ys)
            rs[i] = (xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc))
    r_abs = np.abs(rs)
    if not lags or not np.isfinite(r_abs).all():
        return _strongest_by_corrcoef(y, x, lags)
    best = int(np.argmax(r_abs))
    near = [lag for lag, a in zip(lags, r_abs) if a >= r_abs[best] - _R_TIE]
    if len(near) != 1 or r_abs[best] <= _R_TIE:
        return _strongest_by_corrcoef(y, x, near)
    r = float(np.clip(rs[best], -1.0, 1.0))
    return CrossCorrelation(sign="+" if r >= 0 else "-", lag=lags[best], r=r)


def _strongest_by_corrcoef(y: np.ndarray, x: np.ndarray, lags: list[int]) -> CrossCorrelation:
    """The first lag with the largest finite ``np.corrcoef`` |r| among ``lags``."""
    T = len(y)
    best: CrossCorrelation | None = None
    for lag in lags:
        r = float(np.corrcoef(x[: T - lag], y[lag:])[0, 1])
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


def _keyword_block(
    keyword: str, x: np.ndarray, targets: list[tuple[str, np.ndarray]], p_max: int
) -> list[GrangerResult]:
    """One keyword against every target, in target order."""
    results = []
    for target, y in targets:
        try:
            p = select_lag_bic(y, x, p_max)
            f_stat, p_value = granger_test(y, x, p)
            cc = cross_correlation_sign(y, x, p_max)
        except (DegenerateSeriesError, RankDeficientError, ValueError) as exc:
            results.append(
                GrangerResult(
                    keyword=keyword, target=target, lags=None, f_stat=None,
                    p_value=None, stars="", cc_sign="", status=str(exc),
                )
            )
            continue
        results.append(
            GrangerResult(
                keyword=keyword,
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


def run_battery(
    sbs_series: list[WeeklySeries],
    targets: list[WeeklySeries],
    p_max: int = 8,
    workers: int = 1,
) -> list[GrangerResult]:
    """Test every (keyword, target) pair; value i of every series is window i.

    Series of unequal length, and two keyword or two target series sharing
    a name, are refused. A pair whose test fails (constant series,
    degenerate fits) is reported with the reason in ``status``, not dropped.
    Results are ordered by (keyword, target); each pair tests keyword ->
    target on levels. With ``workers`` > 1 the keywords are tested in a
    process pool, one block per keyword; the results are the same.
    """
    if not sbs_series or not targets:
        raise ValueError("need at least one keyword series and one target series")
    for kind, group in (("keyword", sbs_series), ("target", targets)):
        repeated = sorted(name for name, n in Counter(s.name for s in group).items() if n > 1)
        if repeated:
            raise ValueError(f"{kind} series names repeat, need one series per name: {repeated}")
    if len({len(s) for s in sbs_series + targets}) > 1:
        lengths = ", ".join(f"{s.name!r}: {len(s)}" for s in sbs_series + targets)
        raise ValueError(f"series lengths differ, need one value per window of one grid: {lengths}")
    keyword_vecs = {s.name: np.asarray(s.values, dtype=float) for s in sbs_series}
    target_vecs = {t.name: np.asarray(t.values, dtype=float) for t in targets}
    keywords = sorted(keyword_vecs)
    block = partial(
        _keyword_block,
        targets=[(name, target_vecs[name]) for name in sorted(target_vecs)],
        p_max=p_max,
    )
    xs = [keyword_vecs[kw] for kw in keywords]
    if workers <= 1 or len(keywords) < 2:
        blocks = list(map(block, keywords, xs))
    else:
        # map returns the blocks in keyword order regardless of scheduling
        with ProcessPoolExecutor(max_workers=min(workers, len(keywords))) as pool:
            blocks = list(pool.map(block, keywords, xs))
    return [r for results in blocks for r in results]
