from __future__ import annotations

import dataclasses
import datetime as dt
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import business_days, synthetic_panel, trade_rows
from fracparity.allocation import PortfolioWeights, StrategyVariant
from fracparity import backtest, data
from fracparity.backtest import (
    BENCHMARK_LABEL,
    FIXED_CAPITAL,
    REINVEST,
    BacktestConfig,
    CommissionPlan,
    EquityCurve,
    commission_for,
    execute_rebalance,
    period_return,
    run_benchmark,
    run_strategies,
    run_walk_forward,
)
from fracparity.metrics import max_drawdown
from fracparity.data import AlignedPanel, AssetSpec
from fracparity.errors import ConfigError, InsufficientCapital, InsufficientHistory, NumericError
from fracparity.fractal import HurstConfig
from fracparity.riskstats import log_returns
from fracparity.runconfig import load_run_settings, load_universe_panel

PLAN = CommissionPlan()
PANEL_CONFIG = Path(__file__).parent / "fixtures" / "panel4" / "universe.yaml"


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

    def test_overflowing_fee_is_capped_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert commission_for(10, 100.0, CommissionPlan(per_share=1e308)) == 10.0

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
        assert trades.shares.tolist() == [10_000]

    def test_noop_rebalance(self):
        trades, holdings, fee = execute_rebalance(
            single_weights(), 1_000_000.0, [100.0], PLAN, [10_000]
        )
        assert len(trades) == 0 and fee == 0.0
        assert holdings.tolist() == [10_000]

    def test_liquidation(self):
        all_cash = PortfolioWeights(tickers=("A",), weights=np.array([0.0]), cash=1.0)
        trades, holdings, fee = execute_rebalance(
            all_cash, 1_000_000.0, [100.0], PLAN, [10_000]
        )
        assert holdings.tolist() == [0]
        assert trades.shares.tolist() == [-10_000]
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

    def test_share_count_beyond_int64(self):
        # 2**63 shares at $1 is one share more than int64 holds
        with pytest.raises(NumericError, match="overflows int64"):
            execute_rebalance(single_weights(), 2.0**63, [1.0], PLAN)
        _, holdings, _ = execute_rebalance(single_weights(), 2.0**62, [1.0], PLAN)
        assert holdings.tolist() == [2**62]


class TestPeriodReturn:
    def test_cost_model(self):
        window = flat_window(126, 100.0, 110.0, expense_ratio=0.40)
        gross, drag, net = period_return([50], 0.0, window)
        assert gross == pytest.approx(10.0, abs=1e-12)
        assert drag == pytest.approx(0.20, abs=1e-12)
        assert net == pytest.approx(9.80, abs=1e-12)

    def test_flat_prices(self):
        window = flat_window(20, 100.0, 100.0)
        gross, _, net = period_return([10], 0.0, window)
        assert gross == 0.0 and net == 0.0

    def test_cash_only_pays_commissions(self):
        window = flat_window(20, 100.0, 105.0)
        gross, _, net = period_return([0], 1_000_000.0, window, commissions=35.0)
        assert gross == 0.0
        assert net == pytest.approx(-100.0 * 35.0 / 1_000_000.0, abs=1e-15)

    def test_cash_drag_free(self):
        # half in cash halves both the move and the expense drag
        window = flat_window(126, 100.0, 110.0, expense_ratio=0.40)
        gross, drag, _ = period_return([50], 5_000.0, window)
        assert gross == pytest.approx(5.0, abs=1e-12)
        assert drag == pytest.approx(0.10, abs=1e-12)


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
            assert trade_rows(a.trades) == trade_rows(b.trades)
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

    def test_period_losing_all_its_capital_is_a_numeric_error(self):
        # a 10% fall plus fees of 99.9% of the order's value: the period returns below -100%
        n = 20
        lookback = np.tile([100.0, 101.0], n // 2)
        prices = np.concatenate([lookback, np.linspace(100.0, 90.0, n)]).reshape(-1, 1)
        panel = AlignedPanel(
            dates=business_days(dt.date(2012, 1, 2), 2 * n), assets=(AssetSpec("A"),),
            prices=prices,
        )
        ruinous = CommissionPlan(per_share=1e6, min_per_order=0.0, max_pct_of_value=99.9)
        cfg = BacktestConfig(
            horizon_n=n, variant=StrategyVariant.NAIVE_RISK_PARITY, commission=ruinous
        )
        with pytest.raises(InsufficientCapital, match="wiping out its capital"):
            run_walk_forward(panel, cfg)

    def test_net_below_gross_when_costs_positive(self):
        n = 63
        panel = synthetic_panel(seed=17, n_rows=5 * n, n_assets=3)
        results, _ = run_walk_forward(panel, BacktestConfig(horizon_n=n))
        for r in results:
            if r.commission_cost > 0 or r.expense_drag > 0:
                assert r.net_return < r.gross_return


def daily_marks(panel, results, cfg):
    """The oracle's daily-marked equity of one run, rebuilt from its stored trades."""
    columns = panel.portfolio_columns.tolist()  # trade columns index the portfolio tickers
    periods = [
        (r.start_capital, r.net_return, [(columns[c], s) for c, s, _, _ in trade_rows(r.trades)])
        for r in results
    ]
    return oracles.daily_marked_equity(panel.prices.tolist(), cfg.horizon_n,
                                       cfg.initial_capital, periods)


class TestDailyMarkedEquity:
    """The stored trades, capitals and net returns, marked at every close by the oracle."""

    def test_lands_on_period_end_values(self):
        n = 63
        panel = synthetic_panel(seed=41, n_rows=5 * n, n_assets=3)
        cfg = BacktestConfig(horizon_n=n)
        results, equity = run_walk_forward(panel, cfg)
        daily = dict(daily_marks(panel, results, cfg))
        # every period-end point of the coarse curve appears in the daily path
        for date, value in zip(equity.dates, equity.values):
            assert daily[panel.dates.index(date)] == pytest.approx(value, rel=1e-12)

    def test_daily_drawdown_at_least_period_drawdown(self):
        n = 63
        for seed in range(10):
            panel = synthetic_panel(seed=seed, n_rows=5 * n, n_assets=3)
            cfg = BacktestConfig(horizon_n=n)
            results, equity = run_walk_forward(panel, cfg)
            daily = [value for _, value in daily_marks(panel, results, cfg)]
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

    @pytest.mark.parametrize("mode", [FIXED_CAPITAL, REINVEST])
    @pytest.mark.parametrize("variant", list(StrategyVariant))
    def test_periods_match_every_strategy(self, variant, mode):
        # the period_returns.csv rows pair the benchmark with every variant by position
        n = 63
        panel = synthetic_panel(seed=29, n_rows=6 * n + 17, n_assets=3)  # a partial last block
        cfg = BacktestConfig(horizon_n=n, variant=variant, compounding=mode, benchmark="BMK")
        strategy, strategy_equity = run_walk_forward(panel, cfg)
        bench, bench_equity = run_benchmark(panel, cfg)
        assert len(bench) == 5
        assert [(r.start_date, r.end_date) for r in strategy] == [
            (r.start_date, r.end_date) for r in bench
        ]
        assert strategy_equity.dates == bench_equity.dates

    @pytest.mark.parametrize("mode", [FIXED_CAPITAL, REINVEST])
    def test_net_returns_match_close_to_close_oracle(self, mode):
        settings = load_run_settings(PANEL_CONFIG)
        cases = [(load_universe_panel(settings), "BMK", n) for n in (42, 63, 126)]
        cases += [(synthetic_panel(seed=31, n_rows=rows, n_assets=2), "BMK", n)
                  for n, rows in ((42, 400), (63, 5 * 63), (252, 1000))]
        for panel, ticker, n in cases:
            cfg = BacktestConfig(horizon_n=n, compounding=mode, benchmark=ticker)
            results, equity = run_benchmark(panel, cfg)
            want = oracles.benchmark_period_returns(panel.column(ticker).tolist(), n)
            assert [r.net_return for r in results] == want  # bit for bit
            assert [r.gross_return for r in results] == want
            for r in results:
                assert (r.weights, r.trades, r.commission_cost, r.expense_drag) == (
                    None, None, 0.0, 0.0
                )
            chained = [cfg.initial_capital]
            for r in want:
                chained.append(chained[-1] * (1.0 + r / 100.0))
            assert equity.values.tolist() == chained
            if mode == REINVEST:
                assert [r.start_capital for r in results] == chained[:-1]
            else:
                assert all(r.start_capital == cfg.initial_capital for r in results)


class TestConfigValidation:
    def test_horizon_floor(self):
        with pytest.raises(ConfigError):
            BacktestConfig(horizon_n=7)

    @pytest.mark.parametrize("horizon", [7, 63.0, "63", None])
    def test_horizon_is_an_integer_of_at_least_8(self, horizon):
        with pytest.raises(ConfigError):
            BacktestConfig(horizon_n=horizon, variant=StrategyVariant.STANDARD_BIASED)

    @pytest.mark.parametrize(
        "capital", [0.0, -1.0, math.inf, math.nan, pytest.param(10**400, id="10**400"), "1"]
    )
    def test_capital_finite_and_positive(self, capital):
        with pytest.raises(ConfigError):
            BacktestConfig(initial_capital=capital)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, pytest.param(10**400, id="10**400"), "0.01", None]
    )
    def test_commission_rates_finite_numbers(self, value):
        for name in ("per_share", "min_per_order", "max_pct_of_value"):
            with pytest.raises(ConfigError):
                CommissionPlan(**{name: value})

    def test_compounding_mode(self):
        with pytest.raises(ConfigError):
            BacktestConfig(compounding="martingale")

    def test_fractal_clamp_at_most_one(self):
        hurst = HurstConfig(h_min=0.5, h_max=1.5)
        with pytest.raises(ConfigError, match="h_max is 1.5"):
            BacktestConfig(hurst=hurst)
        BacktestConfig(hurst=HurstConfig(h_min=0.5, h_max=1.0))
        for variant in (StrategyVariant.STANDARD_BIASED, StrategyVariant.NAIVE_RISK_PARITY):
            BacktestConfig(variant=variant, hurst=hurst)

    def test_equity_curve_positive(self):
        with pytest.raises(ValueError):
            EquityCurve(
                dates=business_days(dt.date(2012, 1, 2), 2), values=np.array([1.0, -1.0])
            )


def period_fields(p):
    """Every field of a period result, floats and arrays as bytes, for a bitwise comparison."""
    w, t = p.weights, p.trades
    weights = None if w is None else (w.tickers, w.cash, *(
        np.asarray(a).tobytes() for a in (w.weights, w.mu, w.std0, w.h, w.std_n, w.r_squared,
                                          w.clamped)
    ))
    trades = None if t is None else tuple(
        a.tobytes() for a in (t.columns, t.shares, t.prices, t.fees)
    )
    scalars = np.array([p.gross_return, p.expense_drag, p.commission_cost, p.net_return,
                        p.start_capital, p.end_capital])
    return p.start_date, p.end_date, weights, trades, scalars.tobytes()


class TestRunStrategies:
    """One walk of all four strategies equals four walks of one strategy each."""

    NAMES = [*(v.value for v in StrategyVariant), BENCHMARK_LABEL]

    @pytest.mark.parametrize("mode", [FIXED_CAPITAL, REINVEST])
    @pytest.mark.parametrize("source", ["panel4", "synthetic"])
    def test_one_walk_equals_the_wrappers_bitwise(self, source, mode):
        if source == "panel4":
            settings = load_run_settings(PANEL_CONFIG)
            panel = load_universe_panel(settings)
            cfg = dataclasses.replace(settings.base_config(), compounding=mode)
        else:
            panel = synthetic_panel(seed=41, n_rows=6 * 63 + 17, n_assets=5)
            cfg = BacktestConfig(horizon_n=63, compounding=mode, benchmark="BMK")
        runs = run_strategies(panel, cfg, self.NAMES)
        assert list(runs) == self.NAMES
        traded = 0
        for name, (results, equity) in runs.items():
            if name == BENCHMARK_LABEL:
                alone, alone_equity = run_benchmark(panel, cfg)
            else:
                variant_cfg = dataclasses.replace(cfg, variant=name)
                alone, alone_equity = run_walk_forward(panel, variant_cfg)
                traded += sum(len(p.trades) for p in results)
            assert len(results) == len(alone) > 0
            assert [period_fields(p) for p in results] == [period_fields(p) for p in alone]
            assert equity.dates == alone_equity.dates
            assert equity.values.tobytes() == alone_equity.values.tobytes()
        assert traded > 0

    def test_benchmark_alone_computes_no_lookback_statistics(self, monkeypatch):
        def no_stats(window, n):
            raise AssertionError("lookback statistics computed for the benchmark")

        monkeypatch.setattr(backtest, "lookback_stats", no_stats)
        panel = synthetic_panel(seed=43, n_rows=4 * 63, n_assets=2)
        results, _ = run_benchmark(panel, BacktestConfig(horizon_n=63, benchmark="BMK"))
        assert len(results) == 3

    def test_walks_over_a_panel_share_one_returns_block(self, monkeypatch):
        shapes = []

        def counted(prices):
            shapes.append(prices.shape)
            return log_returns(prices)

        monkeypatch.setattr(data, "log_returns", counted)
        panel = synthetic_panel(seed=59, n_rows=6 * 42, n_assets=3)
        run_benchmark(panel, BacktestConfig(horizon_n=63, benchmark="BMK"))
        assert shapes == []
        for n in (42, 63):
            base = BacktestConfig(horizon_n=n, benchmark="BMK")
            for variant in StrategyVariant:
                run_walk_forward(panel, dataclasses.replace(base, variant=variant))
            run_benchmark(panel, base)
        assert shapes == [(3, 6 * 42)]

    def test_a_strategy_named_twice_runs_once(self):
        panel = synthetic_panel(seed=47, n_rows=4 * 63, n_assets=2)
        cfg = BacktestConfig(horizon_n=63, benchmark="BMK")
        twice = run_strategies(panel, cfg, ["naive_risk_parity", BENCHMARK_LABEL] * 2)
        assert list(twice) == ["naive_risk_parity", BENCHMARK_LABEL]
        assert [len(results) for results, _ in twice.values()] == [3, 3]

    def test_every_variant_is_checked_before_the_walk(self):
        # a clamp above 1 is fine for standard_biased but not for fractal_biased
        cfg = BacktestConfig(horizon_n=63, variant="standard_biased",
                             hurst=HurstConfig(h_min=1.2, h_max=1.5))
        panel = synthetic_panel(seed=53, n_rows=63, n_assets=2)  # too short to walk at all
        with pytest.raises(ConfigError):
            run_strategies(panel, cfg, ["standard_biased", "fractal_biased"])
        with pytest.raises(InsufficientHistory):
            run_strategies(panel, cfg, ["standard_biased"])
