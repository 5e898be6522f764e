from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import synthetic_panel
from fracparity.backtest import (
    BacktestConfig,
    EquityCurve,
    run_benchmark,
    run_walk_forward,
)
from fracparity.errors import DegenerateBenchmark
from fracparity.metrics import (
    annualize_return,
    annualize_std,
    beta,
    build_report,
    capital_protection,
    max_drawdown,
    sharpe,
    treynor,
)


class TestAnnualize:
    def test_half_year_return_doubles(self):
        assert annualize_return([4.0, 4.0], 126) == pytest.approx(8.0, rel=1e-14)

    def test_annual_identity(self):
        assert annualize_return([8.18], 252) == pytest.approx(8.18, rel=1e-14)

    def test_std_annual_identity(self):
        vals = [3.0, 9.0, 1.0, 7.0]
        assert annualize_std(vals, 252) == pytest.approx(oracles.sample_std(vals), rel=1e-12)

    def test_std_half_year_scales_by_sqrt2(self):
        vals = [3.0, 9.0, 1.0, 7.0]
        assert annualize_std(vals, 126) == pytest.approx(
            oracles.sample_std(vals) * math.sqrt(2.0), rel=1e-12
        )

    def test_std_constant_is_zero(self):
        assert annualize_std([2.0, 2.0, 2.0], 126) == 0.0


class TestSharpe:
    def test_plain_ratio(self):
        assert sharpe(8.18, 15.68) == pytest.approx(8.18 / 15.68, rel=1e-14)

    def test_zero_volatility(self):
        assert math.isnan(sharpe(5.0, 0.0))

    def test_risk_free_override(self):
        assert sharpe(10.0, 5.0, risk_free_rate=2.0) == pytest.approx(1.6, rel=1e-14)


class TestBeta:
    def test_self_regression(self):
        r = [1.0, -2.0, 3.0, 0.5]
        assert beta(r, r) == pytest.approx(1.0, rel=1e-14)

    def test_half_exposure(self):
        b = [2.0, -1.0, 4.0, 0.0]
        p = [1.0, -0.5, 2.0, 0.0]
        assert beta(p, b) == pytest.approx(0.5, rel=1e-12)

    def test_constant_portfolio(self):
        assert beta([1.0, 1.0, 1.0], [2.0, -1.0, 4.0]) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_benchmark(self):
        with pytest.raises(DegenerateBenchmark):
            beta([1.0, 2.0], [3.0, 3.0])

    @given(
        shift=st.floats(min_value=-50, max_value=50),
        scale=st.floats(min_value=0.1, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40)
    def test_shift_invariance_and_scaling(self, shift, scale, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(0, 5, 12)
        p = rng.normal(0, 5, 12)
        base = beta(p, b)
        assert beta(p + shift, b) == pytest.approx(base, abs=1e-9)
        assert beta(scale * p, b) == pytest.approx(scale * base, rel=1e-9, abs=1e-9)


class TestTreynor:
    def test_unit_beta(self):
        assert treynor(8.18, 1.0) == pytest.approx(0.0818, rel=1e-14)

    def test_quarter_beta(self):
        assert treynor(9.09, 0.25) == pytest.approx(0.3636, rel=1e-12)

    def test_zero_beta(self):
        assert math.isnan(treynor(5.0, 0.0))


class TestDrawdown:
    def test_peak_to_trough(self):
        assert max_drawdown([100, 120, 90, 110]) == pytest.approx(25.0, rel=1e-14)

    def test_monotone_has_none(self):
        assert max_drawdown([100, 110, 120]) == 0.0

    def test_single_big_drop(self):
        assert max_drawdown([100, 64]) == pytest.approx(36.0, rel=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        values = 100 * np.exp(np.cumsum(rng.normal(0, 0.05, 40)))
        assert max_drawdown(values) == pytest.approx(
            oracles.peak_trough_drawdown_pct(values), rel=1e-12
        )


class TestCapitalProtection:
    @pytest.mark.parametrize("mdd,expected", [(36.0, 64.0), (0.0, 100.0), (25.0, 75.0)])
    def test_values(self, mdd, expected):
        assert capital_protection(mdd) == expected

    @given(mdd=st.floats(min_value=0.0, max_value=100.0))
    def test_complement_identity(self, mdd):
        assert capital_protection(mdd) == 100.0 - mdd


class TestBuildReport:
    def test_benchmark_against_itself(self):
        n = 63
        panel = synthetic_panel(seed=3, n_rows=6 * n, n_assets=2)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        results, equity = run_benchmark(panel, cfg)
        rep = build_report(results, equity, results, n, mode=cfg.compounding)
        assert rep.beta == pytest.approx(1.0, abs=1e-12)
        assert rep.sharpe == pytest.approx(rep.avg_annual_return / rep.annualized_std, rel=1e-12)
        assert rep.treynor_x001 == pytest.approx(0.01 * rep.avg_annual_return / rep.beta, rel=1e-12)
        assert rep.periods_used == len(results)

    def test_spreadsheet_oracle_fixture(self):
        # ten synthetic periods checked against plain-python statistics
        n = 126
        port = [4.2, -1.3, 2.8, 0.9, -0.4, 3.1, 1.7, -2.2, 5.0, 0.3]
        bench = [3.8, -2.0, 3.5, 1.2, -1.0, 2.5, 2.0, -3.1, 6.2, 0.1]
        panel = synthetic_panel(seed=29, n_rows=(len(port) + 1) * n, n_assets=2)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        results, equity = run_walk_forward(panel, cfg)
        bench_results, _ = run_benchmark(panel, cfg)
        for r, v in zip(results, port):
            r.net_return = v
        for r, v in zip(bench_results, bench):
            r.net_return = v
        rep = build_report(results, equity, bench_results, n, mode=cfg.compounding)

        exp_ret = oracles.mean(port) * 2.0
        exp_std = oracles.sample_std(port) * math.sqrt(2.0)
        exp_beta = oracles.sample_cov(port, bench) / (oracles.sample_std(bench) ** 2)
        assert rep.avg_annual_return == pytest.approx(exp_ret, rel=1e-12)
        assert rep.annualized_std == pytest.approx(exp_std, rel=1e-12)
        assert rep.beta == pytest.approx(exp_beta, rel=1e-12)
        assert rep.sharpe == pytest.approx(exp_ret / exp_std, rel=1e-12)
        assert rep.treynor_x001 == pytest.approx(0.01 * exp_ret / exp_beta, rel=1e-12)
        assert rep.protection == pytest.approx(
            100.0 - oracles.peak_trough_drawdown_pct(equity.values), rel=1e-12
        )

    def test_degenerate_fields_become_nan(self):
        n = 63
        panel = synthetic_panel(seed=31, n_rows=4 * n, n_assets=2)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        results, equity = run_walk_forward(panel, cfg)
        bench_results, _ = run_benchmark(panel, cfg)
        for r in results:
            r.net_return = 0.0  # all-cash style: flat strategy returns
        flat = EquityCurve(dates=equity.dates, values=np.full(len(equity.dates), 1e6))
        rep = build_report(results, flat, bench_results, n, mode=cfg.compounding)
        assert math.isnan(rep.sharpe)
        assert rep.beta == pytest.approx(0.0, abs=1e-15)
        assert math.isnan(rep.treynor_x001)
        assert rep.protection == 100.0
        assert rep.to_dict()["sharpe"] is None

    def test_period_series_embedded(self):
        n = 63
        panel = synthetic_panel(seed=37, n_rows=4 * n, n_assets=2)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        results, equity = run_walk_forward(panel, cfg)
        bench_results, _ = run_benchmark(panel, cfg)
        rep = build_report(results, equity, bench_results, n, mode=cfg.compounding)
        assert rep.period_returns == tuple(r.net_return for r in results)
