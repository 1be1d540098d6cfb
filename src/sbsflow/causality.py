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
    with np.errstate(over="ignore"):  # an overflowing tolerance reports rank 0
        tol = diag[0] * max(rows, cols) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < cols:
        raise RankDeficientError(sorted(int(c) for c in piv[rank:]))
    qty = Q.T @ y
    beta_piv = solve_triangular(R, qty)
    beta = np.empty(cols)
    beta[piv] = beta_piv
    resid = y - X @ beta
    return RegressionFit(coefficients=beta, rss=float(resid @ resid), k=cols)


def lag_design(y: np.ndarray, x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Response and lag blocks on the sample t = p .. T-1, for p >= 1.

    Returns (response, own-lag block, cross-lag block); each block has
    columns lag 1 .. lag p. For a ``(K, T)`` stack ``x`` the cross-lag
    block is ``(K, T - p, p)``, one block per row.
    """
    T = len(y)

    def lags(s: np.ndarray) -> np.ndarray:
        return np.stack([s[..., p - j : T - j] for j in range(1, p + 1)], axis=-1)

    return y[p:], lags(y), lags(x)


def _by_row(body, y, x, *args) -> list:
    """Outcome for each keyword row of the ``(K, T)`` stack ``x`` against
    the target ``y``: the row's answer, or its ``ValueError``.

    ``body(y, xs, *args)`` gets the rows with finite values and returns one
    answer or exception per row; what it raises (a check of ``y`` or of an
    argument) is every row's exception.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or x.ndim != 2:
        raise ValueError(
            f"need a 1-d target and a (K, T) stack of keyword series, got shapes {y.shape} and {x.shape}"
        )
    if x.shape[1] != len(y):
        raise ValueError(f"series lengths differ: {len(y)} vs {x.shape[1]}")
    finite = np.isfinite(x).all(axis=1) & np.isfinite(y).all()
    outcomes: list = [None if ok else ValueError("series contain non-finite values") for ok in finite]
    live = np.flatnonzero(finite)
    if live.size:
        try:
            answers = body(y, x[live], *args)
        except ValueError as exc:
            answers = [exc] * live.size
        for i, answer in zip(live, answers):
            outcomes[i] = answer
    return outcomes


def _outcome(fn, *args):
    """``fn(*args)``, or the ``ValueError`` it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


# A one-QR BIC result is trusted only this far above the rounding that could
# tell it apart from the per-lag refits: the design's conditioning against
# ``ols_fit``'s rank tolerance, and BIC gaps against their estimated rounding.
_MARGIN = 1e3
_EPS = float(np.finfo(float).eps)
# smallest full-model RSS, as a share of resp'resp, that the fast path accepts
_MIN_RSS_SHARE = 1e-10
# |r| gap below which two lags' correlations are recomputed with np.corrcoef
_R_TIE = 1e-9


def select_lag_bic(y: np.ndarray, x: np.ndarray, p_max: int) -> list[int | ValueError]:
    """Smallest-BIC lag order of the unrestricted bivariate model, for each
    row of the ``(K, T)`` stack ``x`` (its lag or its exception, see
    ``_by_row``).

    All candidates p = 1..p_max are fit on the common sample trimmed at
    p_max, because BIC values are only comparable on identical samples.
    Ties go to the smaller p.

    One unpivoted QR of ``[1, y_1, x_1, ..., y_pmax, x_pmax, resp]`` gives
    every candidate's RSS: the model at lag p is the first 1 + 2p columns,
    and its RSS is the sum of squares of ``R[1+2p:, -1]``. That answer is
    used only when it must equal the per-lag ``ols_fit`` refits: the full
    design is well clear of the rank tolerance (so, by interlacing, is every
    prefix), its RSS is not an exact fit, and no other lag's BIC lies within
    rounding of the winner's. Any other row is refit lag by lag. One QR and
    one SVD call serve all the rows.
    """
    return _by_row(_bic_lags, y, x, p_max)


def _bic_lags(y: np.ndarray, xs: np.ndarray, p_max: int) -> list[int | ValueError]:
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    T = len(y)
    # the largest candidate fits 2 * p_max + 1 columns on T - p_max rows
    if T - p_max <= 2 * p_max + 1:
        raise ValueError(f"series too short: T={T} needs T > {3 * p_max + 1} for p_max={p_max}")
    resp, ylags, xlags = lag_design(y, xs, p_max)
    t_eff = len(resp)
    k = 2 * p_max + 1
    A = np.empty((len(xs), t_eff, k + 1))
    A[:, :, 0] = 1.0
    A[:, :, 1:k:2] = ylags
    A[:, :, 2:k:2] = xlags
    A[:, :, k] = resp
    R = np.linalg.qr(A, mode="r")
    ks = 1 + 2 * np.arange(1, p_max + 1)  # columns of the models at lags 1..p_max
    # written so that an overflow or a NaN anywhere sends the row to the refits
    with np.errstate(all="ignore"):
        yty = float(resp @ resp)
        rss = np.cumsum(R[:, ::-1, k] ** 2, axis=1)[:, ::-1][:, ks]  # sums of squares of R[1+2p:, -1]
        col_norm = np.sqrt((A[:, :, :k] ** 2).sum(axis=1)).max(axis=1)
        # a non-finite R would stop the SVD of the whole stack; its zeros fail the test below
        Rk = R[:, :k, :k]
        Rk = np.where(np.isfinite(Rk).all(axis=(1, 2))[:, None, None], Rk, 0.0)
        sigma_min = np.linalg.svd(Rk, compute_uv=False)[:, -1]
        bic = t_eff * np.log(rss / t_eff) + ks * math.log(t_eff)
        best = np.argmin(bic, axis=1)  # first minimum: ties go to the smaller p
        # relative RSS error of a least-squares residual ~ eps * cond * |resp| / |resid|
        rss_err = _MARGIN * _EPS * (col_norm / sigma_min) * np.sqrt(yty / rss[:, -1])
        gaps = np.abs(bic - np.take_along_axis(bic, best[:, None], axis=1))
        certified = (
            (sigma_min > _MARGIN * col_norm * t_eff * _EPS)
            & (rss[:, -1] > _MIN_RSS_SHARE * yty)
            & (np.count_nonzero(gaps > (t_eff * rss_err)[:, None], axis=1) == p_max - 1)
        )
    return [
        int(b) + 1 if ok else _outcome(_select_lag_by_refits, resp, ylags, x_lags)
        for x_lags, b, ok in zip(xlags, best, certified)
    ]


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


# steps of Lentz's continued fraction before the scipy route answers
_CF_MAX_STEPS = 300
# the plain-float tail's error bound, in eps times the magnitudes of its
# terms: 256 is 32x the largest error of this routine or of scipy's betainc
# seen against 40-digit mpmath on 600,000 tails (d1 1..16, d2 1..10^6)
_TAIL_ERR = 256.0
# below about 1e-292 scipy's betainc loses digits to underflow, so smaller
# tails are left to it
_MIN_TAIL = 1e-250
# how the tables print a p-value (pipeline._fmt6)
_P_FORMAT = ".6g"


def f_upper_tail(f: float, d1: int, d2: int) -> float:
    """P(F_{d1,d2} > f) = I_x(d2/2, d1/2), the regularized incomplete beta
    function at x = d2 / (d2 + d1 f).

    The tail is computed in plain floats with an error bound. That value is
    returned only if every value within the bound prints the same ``.6g``
    string and earns the same stars, the two forms in which a p-value
    reaches the tables; otherwise the value is ``scipy.special.betainc``'s.
    """
    if not (math.isfinite(f) and math.isfinite(d1) and math.isfinite(d2)):
        raise ValueError(f"F statistic and degrees of freedom must be finite, got F={f} on ({d1}, {d2})")
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if f <= 0.0:
        return 1.0
    a, b, x = d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f)
    tail = _incomplete_beta(a, b, x)
    if tail is not None:
        p, err = tail
        lo, hi = p - err, p + err
        if format(lo, _P_FORMAT) == format(hi, _P_FORMAT) and assign_stars(lo) == assign_stars(hi):
            return p
    from scipy.special import betainc

    return float(betainc(a, b, x))


def _incomplete_beta(a: float, b: float, x: float) -> tuple[float, float] | None:
    """I_x(a, b) and a bound on both its error and scipy's, or None where the
    plain-float route does not answer: x at 0 or 1, a tail below
    ``_MIN_TAIL``, or a continued fraction that has not converged.

    I_x(a, b) = front * cf(a, b, x) / a with front = x^a (1-x)^b / B(a, b),
    or 1 - I_{1-x}(b, a) where that fraction converges faster (Numerical
    Recipes, section 6.4).
    """
    if not 0.0 < x < 1.0:
        return None
    lgammas = (math.lgamma(a + b), math.lgamma(a), math.lgamma(b))
    logs = (a * math.log(x), b * math.log1p(-x))
    front = math.exp(lgammas[0] - lgammas[1] - lgammas[2] + logs[0] + logs[1])
    swap = x > (a + 1.0) / (a + b + 2.0)
    fraction = _beta_fraction(b, a, 1.0 - x) if swap else _beta_fraction(a, b, x)
    if fraction is None:
        return None
    value, steps = fraction
    term = front * value / (b if swap else a)
    p = 1.0 - term if swap else term
    if p < _MIN_TAIL:
        return None
    # rounding of the log terms and of each fraction step, the final
    # subtraction, and x's own conditioning: x (dI/dx) = front / (1 - x)
    magnitude = sum(map(abs, lgammas)) + sum(map(abs, logs)) + steps
    return p, _TAIL_ERR * _EPS * (magnitude * term + p + front / (1.0 - x))


def _beta_fraction(a: float, b: float, x: float) -> tuple[float, int] | None:
    """The continued fraction of I_x(a, b) by Lentz's method, and the steps
    it took; None if a denominator is zero or it has not converged in
    ``_CF_MAX_STEPS`` steps."""
    try:
        c = 1.0
        d = h = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
        for m in range(1, _CF_MAX_STEPS + 1):
            even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
            odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
            for coef in (even, odd):
                d = 1.0 / (1.0 + coef * d)
                c = 1.0 + coef / c
                delta = d * c
                h *= delta
            if abs(delta - 1.0) <= _EPS:
                return h, m
    except ZeroDivisionError:
        pass
    return None


def granger_test(y: np.ndarray, x: np.ndarray, p: int) -> list[tuple[float, float] | ValueError]:
    """F test of the x lags in y_t ~ 1 + y_{t-1..t-p} + x_{t-1..t-p}, for
    each row of the ``(K, T)`` stack ``x`` at the one lag ``p``.

    Each row gets (f_stat, p_value) or its exception (see ``_by_row``). The
    restricted model drops the x lags and is fit once for all the rows;
    F = ((RSS_r - RSS_u)/p) / (RSS_u/(T_eff - 2p - 1)).
    """
    return _by_row(_f_tests, y, x, p)


def _f_tests(y: np.ndarray, xs: np.ndarray, p: int) -> list[tuple[float, float] | ValueError]:
    if p < 1:
        raise ValueError("lag order must be >= 1")
    T = len(y)
    t_eff = T - p
    if t_eff <= 2 * p + 1:
        raise ValueError(f"series too short: T_eff={t_eff} needs T_eff > {2 * p + 1}")
    resp, ylags, xlags = lag_design(y, xs, p)
    if np.ptp(resp) == 0.0 or np.ptp(ylags) == 0.0:
        raise DegenerateSeriesError("target series constant on the estimation sample")
    constant_x = np.ptp(xlags, axis=(1, 2)) == 0.0
    ones = np.ones((t_eff, 1))
    restricted = _outcome(ols_fit, np.hstack([ones, ylags]), resp)
    scale = max(1.0, float(resp @ resp))
    d2 = t_eff - 2 * p - 1

    def f_test(i: int) -> tuple[float, float] | ValueError:
        if constant_x[i]:
            raise DegenerateSeriesError("predictor series constant on the estimation sample")
        unrestricted = ols_fit(np.hstack([ones, ylags, xlags[i]]), resp)
        if isinstance(restricted, ValueError):
            return restricted
        if unrestricted.rss <= 1e-12 * scale:
            raise DegenerateSeriesError("unrestricted model fits exactly; F undefined")
        f_stat = ((restricted.rss - unrestricted.rss) / p) / (unrestricted.rss / d2)
        f_stat = max(0.0, f_stat)  # guard the nesting identity against rounding
        return f_stat, f_upper_tail(f_stat, p, d2)

    return [_outcome(f_test, i) for i in range(len(xs))]


@dataclass(frozen=True)
class CrossCorrelation:
    sign: str  # "+" or "-"
    lag: int
    r: float


def cross_correlation_sign(y: np.ndarray, x: np.ndarray, max_lag: int) -> list[CrossCorrelation | ValueError]:
    """Sign of the strongest Pearson correlation corr(x_{t-l}, y_t), l = 0..max_lag,
    for each row of the ``(K, T)`` stack ``x`` (its answer or its exception,
    see ``_by_row``).

    Ties on |r| go to the smallest lag. Each r comes from centred products,
    for every row at once. Lags whose |r| lies within rounding of the best
    are decided again with ``np.corrcoef``, so ties resolve as that route
    resolves them.
    """
    return _by_row(_strongest_lags, y, x, max_lag)


def _strongest_lags(y: np.ndarray, xs: np.ndarray, max_lag: int) -> list[CrossCorrelation | ValueError]:
    T = len(y)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if max_lag >= T / 4:
        raise ValueError(f"max_lag={max_lag} too large for T={T} (needs max_lag < T/4)")
    constant = DegenerateSeriesError("constant series has no correlation phase")
    if np.ptp(y) == 0.0:
        raise constant
    # a lag whose x[:T-lag] or y[lag:] is constant has no correlation: x is
    # constant up to its first change, y from just after its last change
    lags = np.arange(max_lag + 1)
    x_first_change = np.argmax(xs != xs[:, :1], axis=1)
    y_last_change = T - 1 - int(np.argmax(y[::-1] != y[-1]))
    usable = (T - lags > x_first_change[:, None]) & (lags <= y_last_change)
    rs = np.empty((len(xs), len(lags)))
    with np.errstate(all="ignore"):  # an under- or overflowing lag is decided below
        for lag in lags:
            xl, yl = xs[:, : T - lag], y[lag:]
            xc = xl - xl.sum(axis=1, keepdims=True) / (T - lag)
            yc = yl - yl.sum() / (T - lag)
            # row sums, not a matmul, so a row's r does not depend on the stack around it
            rs[:, lag] = (xc * yc).sum(axis=1) / np.sqrt((xc * xc).sum(axis=1) * (yc @ yc))
        r_abs = np.where(usable, np.abs(rs), -np.inf)
        best = np.argmax(r_abs, axis=1)  # first maximum: ties go to the smallest lag
        top = np.take_along_axis(r_abs, best[:, None], axis=1)
        near = usable & (r_abs >= top - _R_TIE)
    finite = np.isfinite(np.where(usable, r_abs, 0.0)).all(axis=1) & usable.any(axis=1)
    clear = finite & (np.count_nonzero(near, axis=1) == 1) & (top[:, 0] > _R_TIE)
    constant_x = np.ptp(xs, axis=1) == 0.0
    results: list[CrossCorrelation | ValueError] = []
    for i, x in enumerate(xs):
        if constant_x[i]:
            results.append(constant)
        elif clear[i]:
            r = float(np.clip(rs[i, best[i]], -1.0, 1.0))
            results.append(CrossCorrelation(sign="+" if r >= 0 else "-", lag=int(best[i]), r=r))
        else:
            ties = lags[near[i] if finite[i] else usable[i]]
            results.append(_outcome(_strongest_by_corrcoef, y, x, ties.tolist()))
    return results


def _strongest_by_corrcoef(y: np.ndarray, x: np.ndarray, lags: list[int]) -> CrossCorrelation:
    """The first lag with the largest finite ``np.corrcoef`` |r| among ``lags``."""
    T = len(y)
    best: CrossCorrelation | None = None
    for lag in lags:
        # a lag that underflows gives a non-finite r; one that overflows is
        # skipped too, because np.corrcoef then returns a finite r = ±0
        with np.errstate(all="ignore", over="raise"):
            try:
                r = float(np.corrcoef(x[: T - lag], y[lag:])[0, 1])
            except FloatingPointError:
                continue
        if not np.isfinite(r):
            continue
        if best is None or abs(r) > abs(best.r):
            best = CrossCorrelation(sign="+" if r >= 0 else "-", lag=lag, r=r)
    if best is None:
        raise DegenerateSeriesError("no lag produced a finite correlation")
    return best


def assign_stars(p_value: float) -> str:
    """Significance stars at the (weak, medium, strong) ``DEFAULT_THRESHOLDS``."""
    if math.isnan(p_value):
        raise ValueError("p-value is NaN; it has no significance")
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
    """One keyword/target row of the battery; a failed pair keeps only its ``status``."""

    keyword: str
    target: str
    lags: int | None = None
    f_stat: float | None = None
    p_value: float | None = None
    stars: str = ""
    cc_sign: str = ""
    status: str = "ok"  # or the failure reason


def _target_block(
    target: str, y: np.ndarray, keywords: list[str], xs: np.ndarray, p_max: int
) -> list[GrangerResult]:
    """Every keyword (row of ``xs``) against one target, in keyword order.

    One stacked BIC call gives the lags, one F-test call per lag order tests
    the rows that chose it, and one stacked cross-correlation signs the rows
    still standing. A row's status is the message of its first failing step.
    """
    lags = select_lag_bic(y, xs, p_max)
    by_lag: dict[int, list[int]] = {}
    for i, lag in enumerate(lags):
        if not isinstance(lag, ValueError):
            by_lag.setdefault(lag, []).append(i)
    tests = list(lags)
    for p, rows in sorted(by_lag.items()):
        for i, test in zip(rows, granger_test(y, xs[rows], p)):
            tests[i] = test
    standing = [i for i, test in enumerate(tests) if not isinstance(test, ValueError)]
    signs = dict(zip(standing, cross_correlation_sign(y, xs[standing], p_max)))
    results = []
    for i, keyword in enumerate(keywords):
        outcome = signs.get(i, tests[i])
        if isinstance(outcome, ValueError):
            results.append(GrangerResult(keyword, target, status=str(outcome)))
        else:
            f_stat, p_value = tests[i]
            results.append(
                GrangerResult(keyword, target, lags[i], f_stat, p_value, assign_stars(p_value), outcome.sign)
            )
    return results


# a pool worker's task function, stored once per process by the pool's initializer
_worker_fn = None


def _start_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _run_in_worker(task: tuple) -> object:
    return _worker_fn(*task)


def map_in_workers(fn, *iterables, workers: int) -> list:
    """``list(map(fn, *iterables))`` on ``min(workers, tasks)`` processes, this
    one if that is 1; a pool's initializer gives each worker ``fn`` once."""
    tasks = list(zip(*iterables))
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(fn,)) as pool:
        return list(pool.map(_run_in_worker, tasks))


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
    target on levels. The battery runs one target at a time against all
    keywords at once, one block per target on ``map_in_workers``, so each
    worker receives the keyword stack once; the results are the same.
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
    keyword_vecs = {s.name: s.values for s in sbs_series}
    target_vecs = {t.name: np.asarray(t.values, dtype=float) for t in targets}
    keywords = sorted(keyword_vecs)
    names = sorted(target_vecs)
    xs = np.array([keyword_vecs[kw] for kw in keywords], dtype=float)
    block = partial(_target_block, keywords=keywords, xs=xs, p_max=p_max)
    ys = [target_vecs[name] for name in names]
    blocks = map_in_workers(block, names, ys, workers=workers)
    return [r for by_keyword in zip(*blocks) for r in by_keyword]
