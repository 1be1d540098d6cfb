"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written with different algorithms than the
library: exhaustive path enumeration instead of Brandes, a hand-rolled
tridiagonal solve instead of scipy's spline, normal equations instead of
QR, scipy's ``qr`` and ``solve_triangular`` wrappers instead of direct
LAPACK calls, one ``ols_fit`` per BIC candidate instead of one QR per pair,
and ``np.corrcoef`` per lag instead of centred dot products. Tests compare
the two routes.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import qr, solve_triangular

from sbsflow.causality import DegenerateSeriesError, RankDeficientError, RegressionFit, lag_design, ols_fit

RTOL = 1e-12


def _pair_key(a, b):
    return (a, b) if a < b else (b, a)


def enumerate_shortest_paths(n: int, edges: dict[tuple[int, int], float]):
    """All-pairs shortest paths by exhaustive simple-path enumeration.

    ``edges`` maps (i, j) with i < j to the edge LENGTH. Returns
    {(j, k): (n_shortest, interior_count_per_node, mean_interior)} for
    connected pairs. Partial paths longer than the best-known complete
    path (plus tolerance) are pruned, which cannot drop a co-shortest path.
    """
    adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for (i, j), length in edges.items():
        adj[i].append((j, length))
        adj[j].append((i, length))
    result = {}
    for j in range(n):
        for k in range(j + 1, n):
            complete: list[tuple[float, tuple[int, ...]]] = []
            best = [float("inf")]

            def dfs(node, target, length, path, visited):
                if length > best[0] * (1 + 1e-9) and best[0] < float("inf"):
                    return
                if node == target:
                    complete.append((length, tuple(path)))
                    best[0] = min(best[0], length)
                    return
                for nxt, w in adj[node]:
                    if nxt in visited:
                        continue
                    visited.add(nxt)
                    path.append(nxt)
                    dfs(nxt, target, length + w, path, visited)
                    path.pop()
                    visited.remove(nxt)

            dfs(j, k, 0.0, [j], {j})
            if not complete:
                continue
            dist = min(length for length, _ in complete)
            shortest = [
                p for length, p in complete
                if abs(length - dist) <= RTOL * max(abs(length), abs(dist))
            ]
            interior: dict[int, int] = {}
            total_interior = 0
            for p in shortest:
                for node in p[1:-1]:
                    interior[node] = interior.get(node, 0) + 1
                total_interior += len(p) - 2
            result[(j, k)] = (len(shortest), interior, total_interior / len(shortest))
    return result


def betweenness_by_enumeration(n: int, weights: dict[tuple[int, int], float]):
    """Unnormalized pair-fraction betweenness from exhaustive enumeration.

    ``weights`` holds co-occurrence weights; path length is 1/weight.
    """
    lengths = {k: 1.0 / w for k, w in weights.items()}
    pairs = enumerate_shortest_paths(n, lengths)
    score = {i: 0.0 for i in range(n)}
    for (_, _), (count, interior, _) in pairs.items():
        for node, through in interior.items():
            score[node] += through / count
    return score, pairs


def natural_spline_eval(xs, ys, points):
    """Natural cubic spline via the classic tridiagonal second-derivative solve.

    Points beyond the knot span are evaluated with the end segments, the
    natural extension of the spline.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    h = np.diff(xs)
    # tridiagonal system for interior second derivatives, M[0] = M[n-1] = 0
    m = np.zeros(n)
    if n > 2:
        a = np.zeros(n - 2)  # sub-diagonal
        b = np.zeros(n - 2)  # diagonal
        c = np.zeros(n - 2)  # super-diagonal
        d = np.zeros(n - 2)
        for i in range(1, n - 1):
            a[i - 1] = h[i - 1] / 6.0
            b[i - 1] = (h[i - 1] + h[i]) / 3.0
            c[i - 1] = h[i] / 6.0
            d[i - 1] = (ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1]
        # Thomas algorithm
        for i in range(1, n - 2):
            factor = a[i] / b[i - 1]
            b[i] -= factor * c[i - 1]
            d[i] -= factor * d[i - 1]
        sol = np.zeros(n - 2)
        sol[-1] = d[-1] / b[-1]
        for i in range(n - 4, -1, -1):
            sol[i] = (d[i] - c[i] * sol[i + 1]) / b[i]
        m[1:-1] = sol

    def eval_one(t: float) -> float:
        i = int(np.searchsorted(xs, t, side="right")) - 1
        i = min(max(i, 0), n - 2)
        hi = h[i]
        A = (xs[i + 1] - t) / hi
        B = (t - xs[i]) / hi
        return (
            A * ys[i]
            + B * ys[i + 1]
            + ((A**3 - A) * m[i] + (B**3 - B) * m[i + 1]) * hi * hi / 6.0
        )

    return np.array([eval_one(float(t)) for t in np.atleast_1d(points)])


def normal_equations_ols(X, y):
    """Coefficients and RSS from the normal equations."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ beta
    return beta, float(resid @ resid)


def scipy_wrapper_ols(X, y) -> RegressionFit:
    """``ols_fit`` through ``scipy.linalg.qr(mode="economic", pivoting=True)``
    and ``solve_triangular``, with the same rank tolerance."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    rows, cols = X.shape
    Q, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > diag[0] * max(rows, cols) * np.finfo(float).eps))
    if rank < cols:
        raise RankDeficientError(sorted(int(c) for c in piv[rank:]))
    beta = np.empty(cols)
    beta[piv] = solve_triangular(R, Q.T @ y)
    resid = y - X @ beta
    return RegressionFit(coefficients=beta, rss=float(resid @ resid), k=cols)


def brute_force_pairs(tokens, window_size):
    """Co-occurrence counting over all position pairs, no windowed scan."""
    from collections import Counter

    counts = Counter()
    toks = list(tokens)
    for p in range(len(toks)):
        for q in range(p + 1, len(toks)):
            if q - p < window_size and toks[p] != toks[q]:
                counts[_pair_key(toks[p], toks[q])] += 1
    return counts


def random_weighted_graph(rng, n_max=10, w_max=5):
    """Random undirected graph: node count, integer weights 1..w_max."""
    n = int(rng.integers(3, n_max + 1))
    p = float(rng.uniform(0.3, 0.6))
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                weights[(i, j)] = float(rng.integers(1, w_max + 1))
    return n, weights


def _checked_series(y, x):
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or x.ndim != 1:
        raise ValueError("series must be 1-d")
    if len(y) != len(x):
        raise ValueError(f"series lengths differ: {len(y)} vs {len(x)}")
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise ValueError("series contain non-finite values")
    return y, x


def select_lag_bic_reference(y, x, p_max):
    """BIC lag order by refitting every candidate p = 1..p_max with ``ols_fit``.

    Same sample (trimmed at p_max), same BIC formula, ties to the smaller p,
    and the same exceptions: ``RankDeficientError`` from the first candidate
    whose design is rank-deficient, ``exact fit at lag p`` for a zero RSS.
    """
    y, x = _checked_series(y, x)
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    T = len(y)
    if T - p_max <= 2 * p_max + 1:
        raise ValueError(f"series too short: T={T} needs T > {3 * p_max + 1} for p_max={p_max}")
    resp, ylags, xlags = lag_design(y, x, p_max)
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


def cross_correlation_reference(y, x, max_lag):
    """(sign, lag, r) of the strongest ``np.corrcoef`` correlation of
    x_{t-l} with y_t over l = 0..max_lag; ties on |r| go to the smaller lag,
    and a lag whose slices are constant or whose products overflow is skipped."""
    y, x = _checked_series(y, x)
    T = len(y)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if max_lag >= T / 4:
        raise ValueError(f"max_lag={max_lag} too large for T={T} (needs max_lag < T/4)")
    if np.ptp(y) == 0.0 or np.ptp(x) == 0.0:
        raise DegenerateSeriesError("constant series has no correlation phase")
    best = None
    for lag in range(max_lag + 1):
        xs = x[: T - lag] if lag else x
        ys = y[lag:]
        if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
            continue
        try:
            with np.errstate(over="raise"):
                r = float(np.corrcoef(xs, ys)[0, 1])
        except FloatingPointError:  # overflowing products leave r meaningless
            continue
        if not np.isfinite(r):
            continue
        if best is None or abs(r) > abs(best[2]):
            best = ("+" if r >= 0 else "-", lag, r)
    if best is None:
        raise DegenerateSeriesError("no lag produced a finite correlation")
    return best
