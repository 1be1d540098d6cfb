from __future__ import annotations

from collections import Counter
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_row
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
from sbsflow.pipeline import _fmt6
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

    def test_design_that_is_not_2d_rejected(self):
        with pytest.raises(ValueError, match="design must be a 2-d matrix"):
            ols_fit(np.ones(5), np.ones(5))

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValueError):
            ols_fit(np.ones((3, 4)), np.ones(3))


class TestSelectLagBic:
    def test_single_candidate(self, rng):
        y, x = rng.normal(size=100), rng.normal(size=100)
        assert one_row(select_lag_bic, y, x, 1) == 1

    def test_white_noise_prefers_one_lag(self):
        ones = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            ones += one_row(select_lag_bic, rng.normal(size=500), rng.normal(size=500), 4) == 1
        assert ones > 20  # parsimony in the majority of seeds

    def test_recovers_planted_lag_two(self):
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            y, x = ar_with_cross(rng, 500, lag=2)
            hits += one_row(select_lag_bic, y, x, 4) == 2
        assert hits >= 32  # >= 80%

    def test_too_short_series_errors(self, rng):
        y, x = rng.normal(size=10), rng.normal(size=10)
        with pytest.raises(ValueError):
            one_row(select_lag_bic, y, x, 8)

    @pytest.mark.parametrize("T", range(18, 26))
    def test_too_short_for_the_trimmed_fits_refused_up_front(self, rng, T):
        # 8 lags leave T - 8 rows for a 17-column design: T must exceed 25
        y, x = rng.normal(size=T), rng.normal(size=T)
        with pytest.raises(ValueError) as err:
            one_row(select_lag_bic, y, x, 8)
        assert str(err.value) == f"series too short: T={T} needs T > 25 for p_max=8"

    def test_shortest_accepted_length(self, rng):
        assert 1 <= one_row(select_lag_bic, rng.normal(size=26), rng.normal(size=26), 8) <= 8


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

    @pytest.mark.parametrize("d1, d2", [(0, 10), (1, 0), (-3, 10)])
    def test_degrees_of_freedom_below_one_refused(self, d1, d2):
        with pytest.raises(ValueError, match="degrees of freedom must be >= 1"):
            f_upper_tail(2.0, d1, d2)

    @pytest.mark.parametrize(
        "f, d1, d2",
        [(float("nan"), 1, 10), (float("inf"), 1, 10), (2.0, float("nan"), 10), (2.0, 1, float("inf"))],
    )
    def test_non_finite_inputs_refused(self, f, d1, d2):
        # a NaN tail would reach the tables as "not significant"
        with pytest.raises(ValueError, match="must be finite"):
            f_upper_tail(f, d1, d2)

    @settings(max_examples=400)
    @given(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_prints_and_stars_as_scipy(self, f, d1, d2):
        from scipy.special import betainc

        expected = float(betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f))) if f > 0 else 1.0
        got = f_upper_tail(f, d1, d2)
        assert (_fmt6(got), assign_stars(got)) == (_fmt6(expected), assign_stars(expected))

    def test_tables_print_in_the_format_the_tail_is_certified_in(self, monkeypatch):
        monkeypatch.setattr(causality, "_P_FORMAT", ".3g")
        assert _fmt6(0.123456) == "0.123"

    def test_plain_float_route_calls_no_scipy(self):
        with mock.patch("scipy.special.betainc") as betainc:
            got = f_upper_tail(2.3, 3, 25)
        betainc.assert_not_called()
        assert got == pytest.approx(0.101799148128465, abs=1e-14)  # 40-digit mpmath

    # a tail placed on a stars threshold and on a .6g rounding midpoint
    @pytest.mark.parametrize("tail", [0.05, 0.01234565])
    def test_tail_on_a_printing_edge_is_scipy_exactly(self, tail):
        from scipy.special import betainc
        from scipy.stats import f as f_dist

        d1, d2 = 3, 40
        f = float(f_dist.isf(tail, d1, d2))
        x = d2 / (d2 + d1 * f)
        with mock.patch("scipy.special.betainc", wraps=betainc) as spy:
            got = f_upper_tail(f, d1, d2)
        spy.assert_called_once()
        assert got == float(betainc(d2 / 2.0, d1 / 2.0, x))

    def test_unconverged_fraction_is_scipy_exactly(self):
        from scipy.special import betainc

        with mock.patch.object(causality, "_CF_MAX_STEPS", 1):
            got = f_upper_tail(2.3, 3, 25)
        assert got == float(betainc(12.5, 1.5, 25 / (25 + 3 * 2.3)))


class TestGrangerTest:
    def test_size_under_independence(self):
        rejections = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, p = one_row(granger_test, rng.normal(size=300), rng.normal(size=300), 1)
            rejections += p < 0.05
        assert 0.01 <= rejections / 100 <= 0.12

    def test_power_with_strong_cross_lag(self):
        strong = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            y, x = ar_with_cross(rng, 300)
            _, p = one_row(granger_test, y, x, 1)
            strong += p < 0.01
        assert strong >= 38  # >= 95%

    def test_exact_lag_relation_is_degenerate(self, rng):
        x = rng.normal(size=120)
        y = np.roll(x, 1)
        y[0] = 0.0
        with pytest.raises(DegenerateSeriesError):
            one_row(granger_test, y, x, 1)

    def test_constant_series_error(self, rng):
        y = np.ones(100)
        x = rng.normal(size=100)
        with pytest.raises(DegenerateSeriesError):
            one_row(granger_test, y, x, 2)
        with pytest.raises(DegenerateSeriesError):
            one_row(granger_test, x, y, 2)

    def test_f_nonnegative_and_p_monotone(self, rng):
        stats = []
        for _ in range(30):
            y = rng.normal(size=150)
            x = rng.normal(size=150)
            f, p = one_row(granger_test, y, x, 2)
            assert f >= 0.0
            assert 0.0 <= p <= 1.0
            stats.append((f, p))
        stats.sort()
        for (f1, p1), (f2, p2) in zip(stats, stats[1:]):
            if f2 > f1:
                assert p2 <= p1 + 1e-12

    def test_scale_invariance_of_f_and_sign_flip(self, rng):
        y, x = ar_with_cross(rng, 200)
        f0, p0 = one_row(granger_test, y, x, 1)
        for a, b in [(3.0, -2.0), (-0.5, 10.0), (100.0, 0.0)]:
            f1, p1 = one_row(granger_test, a * y + b, x, 1)
            f2, p2 = one_row(granger_test, y, a * x + b, 1)
            assert f1 == pytest.approx(f0, rel=1e-8, abs=1e-8)
            assert f2 == pytest.approx(f0, rel=1e-8, abs=1e-8)
            assert p1 == pytest.approx(p0, rel=1e-6, abs=1e-8)
        cc0 = one_row(cross_correlation_sign, y, x, 4)
        assert one_row(cross_correlation_sign, y, 2.0 * x + 1.0, 4).sign == cc0.sign
        flipped = one_row(cross_correlation_sign, y, -2.0 * x + 1.0, 4)
        assert flipped.sign != cc0.sign


class TestCrossCorrelation:
    def test_identity(self, rng):
        x = rng.normal(size=100)
        cc = one_row(cross_correlation_sign, x, x, 5)
        assert (cc.sign, cc.lag) == ("+", 0)
        assert cc.r == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip(self, rng):
        x = rng.normal(size=100)
        cc = one_row(cross_correlation_sign, -x, x, 5)
        assert (cc.sign, cc.lag) == ("-", 0)
        assert cc.r == pytest.approx(-1.0, abs=1e-12)

    def test_lagged_relation_found(self, rng):
        x = rng.normal(size=400)
        noise = 0.05 * rng.normal(size=400)
        y = np.roll(x, 3) + noise
        y[:3] = rng.normal(size=3)
        cc = one_row(cross_correlation_sign, y, x, 8)
        assert (cc.sign, cc.lag) == ("+", 3)
        # oracle: direct correlation per lag
        direct = [
            float(np.corrcoef(x[: 400 - lag] if lag else x, y[lag:])[0, 1])
            for lag in range(9)
        ]
        assert max(range(9), key=lambda l: abs(direct[l])) == 3

    def test_constant_series_error(self, rng):
        with pytest.raises(DegenerateSeriesError):
            one_row(cross_correlation_sign, np.ones(50), rng.normal(size=50), 4)

    def test_constant_slices_skipped_though_centring_leaves_residue(self, rng):
        # x[:T-lag] is constant 0.1 for every lag >= 1, but 0.1 minus its
        # computed mean is not exactly zero; only lag 0 may be reported
        T = 40
        x = np.full(T, 0.1)
        x[-1] = 0.2
        y = 1e8 + np.round(4.0 * rng.normal(size=T))
        y[-1] = y[:-1].mean()
        cc = one_row(cross_correlation_sign, y, x, 8)
        assert (cc.sign, cc.lag) == cross_correlation_reference(y, x, 8)[:2]
        assert cc.lag == 0

    def test_max_lag_bound(self, rng):
        with pytest.raises(ValueError):
            one_row(cross_correlation_sign, rng.normal(size=40), rng.normal(size=40), 10)


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

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            assign_stars(float("nan"))


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

    @pytest.mark.parametrize("empty", ["keywords", "targets"])
    def test_empty_battery_refused(self, rng, empty):
        series = [_weekly("s", rng.normal(size=60))]
        kws, targets = ([], series) if empty == "keywords" else (series, [])
        with pytest.raises(ValueError, match="need at least one keyword series and one target series"):
            run_battery(kws, targets)

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
                got = _outcome(one_row, select_lag_bic, y, x, p_max)
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
                got = _outcome(one_row, cross_correlation_sign, y, x, max_lag)
            routes["corrcoef" if spy.called else "dot"] += 1
            want = _outcome(cross_correlation_reference, y, x, max_lag)
            if isinstance(got, CrossCorrelation):
                assert (got.sign, got.lag) == want[:2]
                assert got.r == pytest.approx(want[2], abs=1e-9)
            else:
                assert got == want

        check()
        assert routes["corrcoef"] > 0 and routes["dot"] > 0


def _pair_result(keyword, target, y, x, p_max):
    """One pair through one-row stacks, as a ``GrangerResult`` tuple."""
    try:
        p = one_row(select_lag_bic, y, x, p_max)
        f_stat, p_value = one_row(granger_test, y, x, p)
        cc = one_row(cross_correlation_sign, y, x, p_max)
    except ValueError as exc:
        return (keyword, target, None, None, None, "", "", str(exc))
    return (keyword, target, p, f_stat, p_value, assign_stars(p_value), cc.sign, "ok")


class TestSharedRestrictedFit:
    """A battery fits each target's restricted model once per lag, and its
    results are those of pair-by-pair tests."""

    def test_battery_equals_per_pair_tests(self):
        @settings(max_examples=150)
        @given(_series_pairs())
        def check(case):
            y, x, p_max = case
            keywords = [_weekly("x", x), _weekly("xr", x[::-1]), _weekly("y", y)]
            targets = [_weekly("t_x", x), _weekly("t_y", y)]
            battery = run_battery(keywords, targets, p_max=p_max)
            pairwise = [
                _pair_result(kw.name, t.name, np.asarray(t.values), np.asarray(kw.values), p_max)
                for kw in keywords
                for t in targets
            ]
            assert [astuple(r) for r in battery] == pairwise

        check()

    def test_one_restricted_fit_per_target_and_lag(self, rng):
        keywords = [_weekly(f"kw{i}", rng.normal(size=120)) for i in range(5)]
        targets = [_weekly(f"t{j}", rng.normal(size=120)) for j in range(3)]
        counts = []
        for _ in range(2):  # no fit outlives its battery
            fits = mock.patch.object(causality, "ols_fit", wraps=causality.ols_fit)
            refits = mock.patch.object(
                causality, "_select_lag_by_refits", wraps=causality._select_lag_by_refits
            )
            with fits as ols, refits as spy:
                results = run_battery(keywords, targets, p_max=4)
            assert not spy.called  # every BIC came from one QR, so ols_fit runs only in granger_test
            assert {r.status for r in results} == {"ok"}
            distinct = {(r.target, r.lags) for r in results}
            assert ols.call_count == len(results) + len(distinct)
            counts.append(ols.call_count)
        assert counts[0] == counts[1]

    def test_each_call_makes_its_own_restricted_fit(self, rng):
        # no restricted fit outlives the call that made it
        y, x = ar_with_cross(rng, 120)
        with mock.patch.object(causality, "ols_fit", wraps=causality.ols_fit) as ols:
            one_row(granger_test, y, x, 2)
            one_row(granger_test, y, x, 2)
        assert ols.call_count == 4


def _stack_rows(y, x, rng):
    """Ordinary keyword rows and degenerate ones for the target ``y``."""
    T = len(y)
    steps = np.full(T, 0.1)
    steps[T - 1 - int(rng.integers(0, 4))] = 1.0
    non_finite = x.copy()
    non_finite[int(rng.integers(0, T))] = np.nan
    return [
        x,
        x[::-1].copy(),
        np.round(2.0 * x),
        np.r_[(y[1:] - 1.0) / 2.0, 0.0],  # y_t = 2 x_{t-1} + 1: an exact fit
        steps,
        0.1 + 1e-13 * x,  # near constant
        np.full(T, 0.3),  # constant
        y.copy(),
        non_finite,
        1e200 * x,
        1e-200 * x,
    ]


def _row_outcomes(outcomes):
    return [(type(o), str(o)) if isinstance(o, Exception) else o for o in outcomes]


class TestStackedCalls:
    """A (K, T) stack of keyword series gives, row by row, the outcome of
    the row's own one-row stack: the same answer, or the same exception type
    and message, whatever rows stand around it."""

    def test_rows_equal_their_one_row_stacks(self):
        @settings(max_examples=150)
        @given(_series_pairs(), st.randoms(use_true_random=False))
        def check(case, shuffle):
            y, x, p_max = case
            rows = _stack_rows(y, x, np.random.default_rng(shuffle.getrandbits(32)))
            shuffle.shuffle(rows)
            stack = np.array(rows)
            for fn in (select_lag_bic, granger_test, cross_correlation_sign):
                stacked = fn(y, stack, p_max)
                assert isinstance(stacked, list) and len(stacked) == len(rows)
                assert _row_outcomes(stacked) == [_outcome(one_row, fn, y, row, p_max) for row in rows]

        check()

    def test_a_check_of_the_target_is_every_rows_exception(self, rng):
        x = rng.normal(size=(3, 20))
        lags = select_lag_bic(rng.normal(size=20), x, 8)
        assert _row_outcomes(lags) == [(ValueError, "series too short: T=20 needs T > 25 for p_max=8")] * 3
        tests = granger_test(np.ones(20), x, 2)
        assert _row_outcomes(tests) == [
            (DegenerateSeriesError, "target series constant on the estimation sample")
        ] * 3

    def test_empty_stack(self, rng):
        assert select_lag_bic(rng.normal(size=60), np.empty((0, 60)), 4) == []

    @pytest.mark.parametrize(
        "fn, arg, message",
        [
            (select_lag_bic, 0, "p_max must be >= 1"),
            (granger_test, 0, "lag order must be >= 1"),
            (cross_correlation_sign, -1, "max_lag must be >= 0"),
        ],
        ids=["p_max", "lag_order", "max_lag"],
    )
    def test_lag_argument_below_its_minimum_is_every_rows_exception(self, rng, fn, arg, message):
        out = fn(rng.normal(size=60), rng.normal(size=(2, 60)), arg)
        assert [(type(e), str(e)) for e in out] == [(ValueError, message)] * 2

    def test_shapes_refused_for_the_whole_call(self, rng):
        with pytest.raises(ValueError, match="series lengths differ: 60 vs 50"):
            granger_test(rng.normal(size=60), rng.normal(size=(3, 50)), 2)
        with pytest.raises(ValueError, match=r"\(K, T\) stack .* got shapes \(60,\) and \(2, 3, 60\)"):
            cross_correlation_sign(rng.normal(size=60), rng.normal(size=(2, 3, 60)), 4)
        with pytest.raises(ValueError, match=r"\(K, T\) stack .* got shapes \(60, 1\) and \(1, 60\)"):
            granger_test(rng.normal(size=(60, 1)), rng.normal(size=(1, 60)), 2)
        # one keyword series is the one-row stack [x], not a bare x
        for fn in (select_lag_bic, granger_test, cross_correlation_sign):
            with pytest.raises(ValueError, match=r"\(K, T\) stack .* got shapes \(60,\) and \(60,\)"):
                fn(rng.normal(size=60), rng.normal(size=60), 4)


class TestExtremeScales:
    """Series that over- or underflow in squares and products are decided
    without a RuntimeWarning (which pytest turns into an error)."""

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_select_lag_bic_takes_the_refits_silently(self, rng, scale):
        y, x = ar_with_cross(rng, 120)
        refits = mock.patch.object(causality, "_select_lag_by_refits", wraps=causality._select_lag_by_refits)
        with refits as spy:
            got = _outcome(one_row, select_lag_bic, y, x * scale, 4)
        assert spy.called
        assert got == _outcome(select_lag_bic_reference, y, x * scale, 4)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_cross_correlation_sign_silent_in_corrcoef(self, rng, scale):
        y, x = ar_with_cross(rng, 120)
        y = y * min(scale, 1.0)  # 1e-200 on both sides underflows every product
        got = _outcome(one_row, cross_correlation_sign, y, x * scale, 4)
        with np.errstate(all="ignore"):
            want = _outcome(cross_correlation_reference, y, x * scale, 4)
        if isinstance(got, CrossCorrelation):
            assert (got.sign, got.lag, got.r) == want
        else:
            assert got == want

    @pytest.mark.parametrize("scale", [1e200, 1e306])
    def test_cross_correlation_refuses_overflowing_products(self, rng, scale):
        # np.corrcoef returns r = ±0 when its variances overflow
        y, x = ar_with_cross(rng, 120)
        assert one_row(cross_correlation_sign, y, x, 4).lag == 1
        with pytest.raises(DegenerateSeriesError, match="no lag produced a finite correlation"):
            one_row(cross_correlation_sign, y, scale * x, 4)

    def test_battery_reports_a_keyword_whose_rank_tolerance_overflows(self, rng):
        y, x = ar_with_cross(rng, 120)
        (huge,) = run_battery([_weekly("huge", 1e306 * x)], [_weekly("t", y)], p_max=4)
        assert huge.status.startswith("rank-deficient design")
        assert huge.f_stat is None

    def test_a_row_whose_qr_overflows_takes_the_refits_alone(self, rng):
        # finite values near the float maximum overflow the QR's column norms,
        # and a non-finite R would stop the SVD of every row in the stack
        y, x = ar_with_cross(rng, 120)
        huge = 1.5e308 * np.sign(x)
        lags = select_lag_bic(y, np.stack([x, huge]), 4)
        assert lags[0] == one_row(select_lag_bic, y, x, 4)
        assert _row_outcomes(lags[1:]) == [_outcome(select_lag_bic_reference, y, huge, 4)]

    def test_battery_reports_every_pair(self, rng):
        y, x = ar_with_cross(rng, 160)
        keywords = [_weekly("big", 1e200 * x), _weekly("tiny", 1e-200 * x), _weekly("plain", x)]
        targets = [_weekly("t", y), _weekly("noise", rng.normal(size=160))]
        out = run_battery(keywords, targets, p_max=4)
        assert [(r.keyword, r.target) for r in out] == sorted(
            (kw.name, t.name) for kw in keywords for t in targets
        )
        assert all(r.status for r in out)
        assert next(r for r in out if (r.keyword, r.target) == ("plain", "t")).status == "ok"
