from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from conftest import business_days, synthetic_panel
from fracparity.allocation import PortfolioWeights, StrategyVariant
from fracparity.backtest import (
    FIXED_CAPITAL,
    REINVEST,
    BacktestConfig,
    CommissionPlan,
    EquityCurve,
    commission_for,
    daily_marked_equity,
    execute_rebalance,
    period_return,
    run_benchmark,
    run_walk_forward,
)
from fracparity.metrics import max_drawdown
from fracparity.data import AlignedPanel, AssetSpec
from fracparity.errors import ConfigError, InsufficientCapital, InsufficientHistory

PLAN = CommissionPlan()


def single_weights(ticker="A", weight=1.0):
    cash = 1.0 - weight
    return PortfolioWeights(tickers=(ticker,), weights=np.array([weight]), cash=cash)


def flat_window(n, start, end, ticker="A", expense_ratio=0.0):
    prices = np.geomspace(start, end, n).reshape(-1, 1)
    prices[0, 0] = start
    prices[-1, 0] = end
    return AlignedPanel(
        dates=business_days(dt.date(2012, 1, 2), n),
        assets=(AssetSpec(ticker, expense_ratio=expense_ratio),),
        prices=prices,
    )


class TestCommissionFor:
    def test_linear_region(self):
        assert commission_for(1000, 100.0, PLAN) == pytest.approx(3.50, abs=1e-12)

    def test_floor_binds(self):
        assert commission_for(50, 100.0, PLAN) == 0.35

    def test_zero_shares(self):
        assert commission_for(0, 100.0, PLAN) == 0.0

    def test_cap_binds_on_tiny_value(self):
        # 10 shares at $1: 1% of $10 is below the per-order floor
        assert commission_for(10, 1.0, PLAN) == pytest.approx(0.10, abs=1e-12)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            commission_for(-1, 100.0, PLAN)

    def test_plan_fields_validated(self):
        with pytest.raises(ConfigError):
            CommissionPlan(per_share=-0.1)


class TestExecuteRebalance:
    def test_full_deployment(self):
        trades, holdings, fee = execute_rebalance(
            single_weights(), 1_000_000.0, [100.0], PLAN
        )
        assert holdings.tolist() == [10_000]
        assert fee == pytest.approx(35.00, abs=1e-12)
        assert len(trades) == 1 and trades[0].shares == 10_000

    def test_noop_rebalance(self):
        trades, holdings, fee = execute_rebalance(
            single_weights(), 1_000_000.0, [100.0], PLAN, [10_000]
        )
        assert trades == [] and fee == 0.0
        assert holdings.tolist() == [10_000]

    def test_liquidation(self):
        all_cash = PortfolioWeights(tickers=("A",), weights=np.array([0.0]), cash=1.0)
        trades, holdings, fee = execute_rebalance(
            all_cash, 1_000_000.0, [100.0], PLAN, [10_000]
        )
        assert holdings.tolist() == [0]
        assert len(trades) == 1 and trades[0].shares == -10_000
        assert fee == pytest.approx(35.00, abs=1e-12)

    def test_whole_shares_leave_remainder(self):
        _, holdings, _ = execute_rebalance(single_weights(), 1_050.0, [100.0], PLAN)
        assert holdings.tolist() == [10]

    def test_insufficient_capital(self):
        all_cash = PortfolioWeights(tickers=("A",), weights=np.array([0.0]), cash=1.0)
        with pytest.raises(InsufficientCapital):
            execute_rebalance(all_cash, 0.30, [100.0], PLAN, [1000])

    def test_non_positive_capital(self):
        with pytest.raises(InsufficientCapital):
            execute_rebalance(single_weights(), 0.0, [100.0], PLAN)


class TestPeriodReturn:
    def test_cost_model(self):
        window = flat_window(126, 100.0, 110.0, expense_ratio=0.40)
        parts = period_return([50], 0.0, window)
        assert parts.gross == pytest.approx(10.0, abs=1e-12)
        assert parts.expense_drag == pytest.approx(0.20, abs=1e-12)
        assert parts.net == pytest.approx(9.80, abs=1e-12)

    def test_flat_prices(self):
        window = flat_window(20, 100.0, 100.0)
        parts = period_return([10], 0.0, window)
        assert parts.gross == 0.0 and parts.net == 0.0

    def test_cash_only_pays_commissions(self):
        window = flat_window(20, 100.0, 105.0)
        parts = period_return([0], 1_000_000.0, window, commissions=35.0)
        assert parts.gross == 0.0
        assert parts.net == pytest.approx(-100.0 * 35.0 / 1_000_000.0, abs=1e-15)

    def test_cash_drag_free(self):
        # half in cash halves both the move and the expense drag
        window = flat_window(126, 100.0, 110.0, expense_ratio=0.40)
        parts = period_return([50], 5_000.0, window)
        assert parts.gross == pytest.approx(5.0, abs=1e-12)
        assert parts.expense_drag == pytest.approx(0.10, abs=1e-12)


class TestWalkForward:
    def test_period_count(self):
        n = 63
        panel = synthetic_panel(seed=42, n_rows=5 * n, n_assets=3)
        cfg = BacktestConfig(horizon_n=n, variant=StrategyVariant.NAIVE_RISK_PARITY)
        results, equity = run_walk_forward(panel, cfg)
        assert len(results) == 4
        assert len(equity.values) == 5
        assert equity.values[0] == cfg.initial_capital

    def test_insufficient_history(self):
        panel = synthetic_panel(seed=42, n_rows=100, n_assets=2)
        with pytest.raises(InsufficientHistory):
            run_walk_forward(panel, BacktestConfig(horizon_n=63))

    def test_constant_panel_stays_in_cash(self):
        n = 63
        rows = 4 * n
        assets = (AssetSpec("A"), AssetSpec("B"))
        panel = AlignedPanel(
            dates=business_days(dt.date(2012, 1, 2), rows),
            assets=assets,
            prices=np.full((rows, 2), 50.0),
        )
        cfg = BacktestConfig(horizon_n=n, variant=StrategyVariant.STANDARD_BIASED)
        results, equity = run_walk_forward(panel, cfg)
        assert all(r.net_return == 0.0 for r in results)
        assert all(r.weights.cash == 1.0 for r in results)
        assert np.all(equity.values == cfg.initial_capital)

    def test_deterministic(self):
        n = 63
        panel = synthetic_panel(seed=7, n_rows=6 * n, n_assets=4)
        cfg = BacktestConfig(horizon_n=n, variant=StrategyVariant.FRACTAL_BIASED)
        r1, e1 = run_walk_forward(panel, cfg)
        r2, e2 = run_walk_forward(panel, cfg)
        assert np.array_equal(e1.values, e2.values)
        for a, b in zip(r1, r2):
            assert a.net_return == b.net_return
            assert a.trades == b.trades
            assert np.array_equal(a.weights.weights, b.weights.weights)

    def test_accounting_identity_both_modes(self):
        n = 63
        for mode in (FIXED_CAPITAL, REINVEST):
            for seed in range(5):
                panel = synthetic_panel(seed=seed, n_rows=5 * n, n_assets=3)
                cfg = BacktestConfig(horizon_n=n, compounding=mode)
                results, _ = run_walk_forward(panel, cfg)
                for r in results:
                    expected = r.start_capital * (1.0 + r.net_return / 100.0)
                    assert r.end_capital == pytest.approx(expected, rel=1e-12)

    def test_reinvest_chains_end_capital(self):
        n = 63
        panel = synthetic_panel(seed=11, n_rows=6 * n, n_assets=3)
        cfg = BacktestConfig(horizon_n=n, compounding=REINVEST)
        results, equity = run_walk_forward(panel, cfg)
        product = cfg.initial_capital
        for r in results:
            assert r.start_capital == pytest.approx(product, rel=1e-12)
            product *= 1.0 + r.net_return / 100.0
        assert equity.values[-1] == pytest.approx(product, rel=1e-9)

    def test_fixed_mode_resets_start_capital(self):
        n = 63
        panel = synthetic_panel(seed=11, n_rows=6 * n, n_assets=3)
        results, _ = run_walk_forward(panel, BacktestConfig(horizon_n=n))
        assert all(r.start_capital == 1_000_000.0 for r in results)

    def test_costs_never_raise_net_return(self):
        n = 63
        pricier = CommissionPlan(per_share=0.02, min_per_order=2.0, max_pct_of_value=1.0)
        for seed in range(6):
            panel = synthetic_panel(seed=seed, n_rows=5 * n, n_assets=3)
            cheap, _ = run_walk_forward(panel, BacktestConfig(horizon_n=n))
            costly, _ = run_walk_forward(
                panel, BacktestConfig(horizon_n=n, commission=pricier)
            )
            for a, b in zip(cheap, costly):
                assert b.net_return <= a.net_return + 1e-12

    def test_future_rows_cannot_change_weights(self):
        n = 63
        panel = synthetic_panel(seed=13, n_rows=5 * n, n_assets=3)
        cfg = BacktestConfig(horizon_n=n, variant=StrategyVariant.FRACTAL_BIASED)
        base, _ = run_walk_forward(panel, cfg)
        k = 1  # poison everything from period k's holding start onward
        poisoned_prices = panel.prices.copy()
        poisoned_prices[(k + 1) * n :, :] *= np.random.default_rng(0).uniform(
            1.5, 2.5, size=poisoned_prices[(k + 1) * n :, :].shape
        )
        poisoned = AlignedPanel(dates=panel.dates, assets=panel.assets, prices=poisoned_prices)
        mutated, _ = run_walk_forward(poisoned, cfg)
        for j in range(k + 1):
            assert np.array_equal(base[j].weights.weights, mutated[j].weights.weights)

    def test_net_below_gross_when_costs_positive(self):
        n = 63
        panel = synthetic_panel(seed=17, n_rows=5 * n, n_assets=3)
        results, _ = run_walk_forward(panel, BacktestConfig(horizon_n=n))
        for r in results:
            if r.commission_cost > 0 or r.expense_drag > 0:
                assert r.net_return < r.gross_return


class TestDailyMarkedEquity:
    def test_lands_on_period_end_values(self):
        n = 63
        panel = synthetic_panel(seed=41, n_rows=5 * n, n_assets=3)
        cfg = BacktestConfig(horizon_n=n)
        results, equity = run_walk_forward(panel, cfg)
        daily = daily_marked_equity(panel, results, cfg)
        # every period-end point of the coarse curve appears in the daily path
        daily_by_date = dict(zip(daily.dates, daily.values))
        for date, value in zip(equity.dates, equity.values):
            assert daily_by_date[date] == pytest.approx(value, rel=1e-12)

    def test_daily_drawdown_at_least_period_drawdown(self):
        n = 63
        for seed in range(10):
            panel = synthetic_panel(seed=seed, n_rows=5 * n, n_assets=3)
            cfg = BacktestConfig(horizon_n=n)
            results, equity = run_walk_forward(panel, cfg)
            daily = daily_marked_equity(panel, results, cfg)
            assert max_drawdown(daily) >= max_drawdown(equity) - 1e-12


class TestRunBenchmark:
    def test_cost_free_and_aligned(self):
        n = 63
        panel = synthetic_panel(seed=19, n_rows=5 * n, n_assets=2)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        results, equity = run_benchmark(panel, cfg)
        assert len(results) == 4
        col = panel.column("BMK")
        for k, r in enumerate(results):
            start, end = (k + 1) * n, (k + 2) * n - 1
            assert r.net_return == pytest.approx(
                100.0 * (col[end] / col[start] - 1.0), rel=1e-12
            )
            assert r.commission_cost == 0.0 and r.expense_drag == 0.0

    def test_windows_match_strategy_windows(self):
        n = 63
        panel = synthetic_panel(seed=23, n_rows=5 * n, n_assets=2)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        strategy, _ = run_walk_forward(panel, cfg)
        bench, _ = run_benchmark(panel, cfg)
        assert [(r.start_date, r.end_date) for r in strategy] == [
            (r.start_date, r.end_date) for r in bench
        ]


class TestConfigValidation:
    def test_horizon_floor(self):
        with pytest.raises(ConfigError):
            BacktestConfig(horizon_n=7)

    def test_compounding_mode(self):
        with pytest.raises(ConfigError):
            BacktestConfig(compounding="martingale")

    def test_equity_curve_positive(self):
        with pytest.raises(ValueError):
            EquityCurve(
                dates=business_days(dt.date(2012, 1, 2), 2), values=np.array([1.0, -1.0])
            )
