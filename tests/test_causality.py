from __future__ import annotations

from collections import Counter
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cross_correlation_reference, normal_equations_ols, select_lag_bic_reference
from sbsflow import causality
from sbsflow.causality import (
    CrossCorrelation,
    DegenerateSeriesError,
    RankDeficientError,
    assign_stars,
    cross_correlation_sign,
    f_upper_tail,
    granger_test,
    ols_fit,
    run_battery,
    select_lag_bic,
)
from sbsflow.series import WeeklySeries


def ar_with_cross(rng, T, phi=0.5, beta=0.8, lag=1):
    x = rng.normal(size=T)
    e = rng.normal(size=T)
    y = np.zeros(T)
    for t in range(lag, T):
        y[t] = phi * y[t - 1] + beta * x[t - lag] + e[t]
    return y, x


class TestOlsFit:
    def test_exact_linear_fit(self, rng):
        x = rng.normal(size=40)
        X = np.column_stack([np.ones(40), x])
        y = 2.0 + 3.5 * x
        fit = ols_fit(X, y)
        assert fit.rss < 1e-18
        assert fit.coefficients[1] == pytest.approx(3.5, abs=1e-9)

    def test_intercept_only(self, rng):
        y = rng.normal(size=30)
        fit = ols_fit(np.ones((30, 1)), y)
        assert fit.rss == pytest.approx(float(np.sum((y - y.mean()) ** 2)), rel=1e-12)

    def test_matches_normal_equations_oracle(self, rng):
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
        y = rng.normal(size=50)
        fit = ols_fit(X, y)
        beta, rss = normal_equations_ols(X, y)
        assert fit.coefficients == pytest.approx(beta, abs=1e-8)
        assert fit.rss == pytest.approx(rss, rel=1e-8)

    def test_rank_deficiency_names_offending_columns(self, rng):
        x = rng.normal(size=40)
        X = np.column_stack([np.ones(40), x, 2 * x])
        with pytest.raises(RankDeficientError) as err:
            ols_fit(X, rng.normal(size=40))
        assert set(err.value.columns) & {1, 2}

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValueError):
            ols_fit(np.ones((3, 4)), np.ones(3))


class TestSelectLagBic:
    def test_single_candidate(self, rng):
        y, x = rng.normal(size=100), rng.normal(size=100)
        assert select_lag_bic(y, x, 1) == 1

    def test_white_noise_prefers_one_lag(self):
        ones = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            ones += select_lag_bic(rng.normal(size=500), rng.normal(size=500), 4) == 1
        assert ones > 20  # parsimony in the majority of seeds

    def test_recovers_planted_lag_two(self):
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            y, x = ar_with_cross(rng, 500, lag=2)
            hits += select_lag_bic(y, x, 4) == 2
        assert hits >= 32  # >= 80%

    def test_too_short_series_errors(self, rng):
        y, x = rng.normal(size=10), rng.normal(size=10)
        with pytest.raises(ValueError):
            select_lag_bic(y, x, 8)

    @pytest.mark.parametrize("T", range(18, 26))
    def test_too_short_for_the_trimmed_fits_refused_up_front(self, rng, T):
        # 8 lags leave T - 8 rows for a 17-column design: T must exceed 25
        y, x = rng.normal(size=T), rng.normal(size=T)
        with pytest.raises(ValueError) as err:
            select_lag_bic(y, x, 8)
        assert str(err.value) == f"series too short: T={T} needs T > 25 for p_max=8"

    def test_shortest_accepted_length(self, rng):
        assert 1 <= select_lag_bic(rng.normal(size=26), rng.normal(size=26), 8) <= 8


class TestFUpperTail:
    def test_zero_gives_full_tail(self):
        assert f_upper_tail(0.0, 3, 10) == 1.0

    def test_tabulated_critical_values(self):
        assert f_upper_tail(4.9646, 1, 10) == pytest.approx(0.05, abs=5e-4)
        assert f_upper_tail(3.4928, 2, 20) == pytest.approx(0.05, abs=5e-4)

    def test_chi_square_limit(self):
        from scipy.stats import chi2

        for d1 in (1, 2, 5):
            for q in (0.5, 1.0, 2.5):
                tail_f = f_upper_tail(q, d1, 10**6)
                tail_chi = float(chi2.sf(d1 * q, d1))
                assert abs(tail_f - tail_chi) <= 1e-4

    def test_high_precision_oracle_spot_checks(self):
        import mpmath as mp

        mp.mp.dps = 40
        for f, d1, d2 in [(2.3, 3, 25), (0.7, 1, 5), (5.1, 10, 200)]:
            x = mp.mpf(d2) / (d2 + d1 * mp.mpf(f))
            expected = float(mp.betainc(mp.mpf(d2) / 2, mp.mpf(d1) / 2, 0, x, regularized=True))
            assert f_upper_tail(f, d1, d2) == pytest.approx(expected, abs=1e-10)

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=5, max_value=100),
    )
    def test_monotone_in_f(self, f1, f2, d1, d2):
        lo, hi = sorted([f1, f2])
        assert f_upper_tail(hi, d1, d2) <= f_upper_tail(lo, d1, d2) + 1e-15


class TestGrangerTest:
    def test_size_under_independence(self):
        rejections = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, p = granger_test(rng.normal(size=300), rng.normal(size=300), 1)
            rejections += p < 0.05
        assert 0.01 <= rejections / 100 <= 0.12

    def test_power_with_strong_cross_lag(self):
        strong = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            y, x = ar_with_cross(rng, 300)
            _, p = granger_test(y, x, 1)
            strong += p < 0.01
        assert strong >= 38  # >= 95%

    def test_exact_lag_relation_is_degenerate(self, rng):
        x = rng.normal(size=120)
        y = np.roll(x, 1)
        y[0] = 0.0
        with pytest.raises(DegenerateSeriesError):
            granger_test(y, x, 1)

    def test_constant_series_error(self, rng):
        y = np.ones(100)
        x = rng.normal(size=100)
        with pytest.raises(DegenerateSeriesError):
            granger_test(y, x, 2)
        with pytest.raises(DegenerateSeriesError):
            granger_test(x, y, 2)

    def test_f_nonnegative_and_p_monotone(self, rng):
        stats = []
        for _ in range(30):
            y = rng.normal(size=150)
            x = rng.normal(size=150)
            f, p = granger_test(y, x, 2)
            assert f >= 0.0
            assert 0.0 <= p <= 1.0
            stats.append((f, p))
        stats.sort()
        for (f1, p1), (f2, p2) in zip(stats, stats[1:]):
            if f2 > f1:
                assert p2 <= p1 + 1e-12

    def test_scale_invariance_of_f_and_sign_flip(self, rng):
        y, x = ar_with_cross(rng, 200)
        f0, p0 = granger_test(y, x, 1)
        for a, b in [(3.0, -2.0), (-0.5, 10.0), (100.0, 0.0)]:
            f1, p1 = granger_test(a * y + b, x, 1)
            f2, p2 = granger_test(y, a * x + b, 1)
            assert f1 == pytest.approx(f0, rel=1e-8, abs=1e-8)
            assert f2 == pytest.approx(f0, rel=1e-8, abs=1e-8)
            assert p1 == pytest.approx(p0, rel=1e-6, abs=1e-8)
        cc0 = cross_correlation_sign(y, x, 4)
        assert cross_correlation_sign(y, 2.0 * x + 1.0, 4).sign == cc0.sign
        flipped = cross_correlation_sign(y, -2.0 * x + 1.0, 4)
        assert flipped.sign != cc0.sign


class TestCrossCorrelation:
    def test_identity(self, rng):
        x = rng.normal(size=100)
        cc = cross_correlation_sign(x, x, 5)
        assert (cc.sign, cc.lag) == ("+", 0)
        assert cc.r == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip(self, rng):
        x = rng.normal(size=100)
        cc = cross_correlation_sign(-x, x, 5)
        assert (cc.sign, cc.lag) == ("-", 0)
        assert cc.r == pytest.approx(-1.0, abs=1e-12)

    def test_lagged_relation_found(self, rng):
        x = rng.normal(size=400)
        noise = 0.05 * rng.normal(size=400)
        y = np.roll(x, 3) + noise
        y[:3] = rng.normal(size=3)
        cc = cross_correlation_sign(y, x, 8)
        assert (cc.sign, cc.lag) == ("+", 3)
        # oracle: direct correlation per lag
        direct = [
            float(np.corrcoef(x[: 400 - lag] if lag else x, y[lag:])[0, 1])
            for lag in range(9)
        ]
        assert max(range(9), key=lambda l: abs(direct[l])) == 3

    def test_constant_series_error(self, rng):
        with pytest.raises(DegenerateSeriesError):
            cross_correlation_sign(np.ones(50), rng.normal(size=50), 4)

    def test_constant_slices_skipped_though_centring_leaves_residue(self, rng):
        # x[:T-lag] is constant 0.1 for every lag >= 1, but 0.1 minus its
        # computed mean is not exactly zero; only lag 0 may be reported
        T = 40
        x = np.full(T, 0.1)
        x[-1] = 0.2
        y = 1e8 + np.round(4.0 * rng.normal(size=T))
        y[-1] = y[:-1].mean()
        cc = cross_correlation_sign(y, x, 8)
        assert (cc.sign, cc.lag) == cross_correlation_reference(y, x, 8)[:2]
        assert cc.lag == 0

    def test_max_lag_bound(self, rng):
        with pytest.raises(ValueError):
            cross_correlation_sign(rng.normal(size=40), rng.normal(size=40), 10)


class TestStars:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.005, "***"), (0.0099, "***"),
            (0.01, "**"), (0.049, "**"),
            (0.05, "*"), (0.0999, "*"),
            (0.10, ""), (0.5, ""), (1.0, ""),
        ],
    )
    def test_thresholds_half_open(self, p, expected):
        assert assign_stars(p) == expected


def _weekly(name, values):
    return WeeklySeries(name=name, values=tuple(values))


class TestRunBattery:
    def test_one_pair_one_result(self, rng):
        y, x = ar_with_cross(rng, 120)
        out = run_battery([_weekly("kw", x)], [_weekly("target", y)], p_max=4)
        assert len(out) == 1
        r = out[0]
        assert (r.keyword, r.target, r.status) == ("kw", "target", "ok")

    def test_cartesian_shape_and_order(self, rng):
        kws = [_weekly(f"kw{i}", rng.normal(size=120)) for i in range(3)]
        targets = [_weekly(f"t{j}", rng.normal(size=120)) for j in range(2)]
        out = run_battery(kws, targets, p_max=3)
        assert len(out) == 6
        assert [(r.keyword, r.target) for r in out] == sorted(
            (f"kw{i}", f"t{j}") for i in range(3) for j in range(2)
        )

    def test_planted_pair_stars_and_decoy_flagged_not_dropped(self, rng):
        y, x = ar_with_cross(rng, 160)
        planted = _weekly("planted", x)
        constant = _weekly("flat", np.zeros(160))
        out = run_battery([planted, constant], [_weekly("target", y)], p_max=4)
        by_kw = {r.keyword: r for r in out}
        assert by_kw["planted"].stars == "***"
        assert by_kw["planted"].cc_sign == "+"
        assert by_kw["flat"].status != "ok"
        assert by_kw["flat"].f_stat is None
        assert len(out) == 2

    @pytest.mark.parametrize(
        "kw_len, target_len", [(140, 150), (150, 140)], ids=["short_keyword", "short_target"]
    )
    def test_unequal_lengths_refused(self, rng, kw_len, target_len):
        # one value per window: a shorter series is an error, not a table of failed pairs
        y, x = ar_with_cross(rng, 150)
        kw, target = _weekly("kw", x[:kw_len]), _weekly("t", y[:target_len])
        named = f"'kw': {kw_len}, 't': {target_len}"
        with pytest.raises(ValueError, match=f"series lengths differ.*{named}"):
            run_battery([kw], [target], p_max=3)

    @pytest.mark.parametrize("repeated", ["keyword", "target"])
    def test_repeated_names_refused(self, rng, repeated):
        # results are keyed by name: a second series named alike would be dropped
        a, b, c = (_weekly("s", rng.normal(size=120)) for _ in range(3))
        kws, targets = ([a, b], [c]) if repeated == "keyword" else ([a], [b, c])
        with pytest.raises(ValueError, match=rf"{repeated} series names repeat.*\['s'\]"):
            run_battery(kws, targets, p_max=3)

    def test_too_short_pair_reported_in_status(self, rng):
        out = run_battery([_weekly("kw", rng.normal(size=20))], [_weekly("t", rng.normal(size=20))], p_max=8)
        assert out[0].status == "series too short: T=20 needs T > 25 for p_max=8"
        assert out[0].lags is None

    def test_two_workers_equal_one_field_for_field(self, rng):
        kws = [_weekly(f"kw{i}", rng.normal(size=120)) for i in range(4)]
        kws.append(_weekly("flat", np.full(120, 0.3)))
        y, x = ar_with_cross(rng, 120)
        kws.append(_weekly("planted", x))
        targets = [_weekly("t", y), _weekly("noise", rng.normal(size=120))]
        serial = run_battery(kws, targets, p_max=4)
        pooled = run_battery(kws, targets, p_max=4, workers=2)
        assert [astuple(r) for r in pooled] == [astuple(r) for r in serial]
        assert {r.status == "ok" for r in serial} == {True, False}


# kinds of generated (y, x) pairs; several are built to reach the refit and
# np.corrcoef fallbacks: rank-deficient designs, exact fits and tied |r|
_PAIR_KINDS = ("noise", "ar", "rounded", "same", "exact", "smooth", "trend", "steps", "near_constant")


@st.composite
def _series_pairs(draw):
    kind = draw(st.sampled_from(_PAIR_KINDS))
    p_max = draw(st.integers(min_value=1, max_value=8))
    T = draw(st.integers(min_value=10, max_value=260))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    y, x = rng.normal(size=T), rng.normal(size=T)
    if kind == "ar":
        y, x = ar_with_cross(rng, T, lag=int(rng.integers(1, 4)))
    elif kind == "rounded":
        y, x = np.round(y), np.round(0.5 * x)
    elif kind == "same":
        y = x.copy()
    elif kind == "exact":
        y = np.r_[0.0, 2.0 * x[:-1] + 1.0]
    elif kind == "smooth":
        y, x = 100.0 + np.cumsum(np.cumsum(y)) / T, np.cumsum(x)
    elif kind == "trend":
        x = np.arange(T, dtype=float)
        y = 3.0 * x + 1.0
    elif kind == "steps":
        # x changes only near its end and y only near its start, so the
        # longer lags slice constant runs
        x = np.full(T, 0.1)
        x[T - 1 - int(rng.integers(0, 4))] = 1.0
        y[int(rng.integers(1, max(2, T // 5))):] = 7.7
    elif kind == "near_constant":
        y, x = 100.0 + 1e-9 * y, 0.1 + 1e-13 * x
    return y, x, p_max


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestFastPathsMatchReference:
    """The one-QR BIC and dot-product cross-correlation give the reference
    routes' answers: the same lag and sign, or the same exception and message."""

    def test_select_lag_bic(self):
        routes = Counter()

        @settings(max_examples=400)
        @given(_series_pairs())
        def check(case):
            y, x, p_max = case
            refits = mock.patch.object(
                causality, "_select_lag_by_refits", wraps=causality._select_lag_by_refits
            )
            with refits as spy:
                got = _outcome(select_lag_bic, y, x, p_max)
            routes["refit" if spy.called else "qr"] += 1
            assert got == _outcome(select_lag_bic_reference, y, x, p_max)

        check()
        assert routes["refit"] > 0 and routes["qr"] > 0

    def test_cross_correlation_sign(self):
        routes = Counter()

        @settings(max_examples=400)
        @given(_series_pairs())
        def check(case):
            y, x, max_lag = case
            corrcoef = mock.patch.object(
                causality, "_strongest_by_corrcoef", wraps=causality._strongest_by_corrcoef
            )
            with corrcoef as spy:
                got = _outcome(cross_correlation_sign, y, x, max_lag)
            routes["corrcoef" if spy.called else "dot"] += 1
            want = _outcome(cross_correlation_reference, y, x, max_lag)
            if isinstance(got, CrossCorrelation):
                assert (got.sign, got.lag) == want[:2]
                assert got.r == pytest.approx(want[2], abs=1e-9)
            else:
                assert got == want

        check()
        assert routes["corrcoef"] > 0 and routes["dot"] > 0
