from __future__ import annotations

import dataclasses
import datetime as dt
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import business_ordinals, synthetic_panel, trade_rows, weights_of
from fracparity.allocation import (
    Lookbacks,
    PortfolioWeights,
    StrategyVariant,
    lookback_stats,
    weights_plan,
)
from fracparity import allocation, backtest, data
from fracparity.backtest import (
    BENCHMARK_LABEL,
    FIXED_CAPITAL,
    REINVEST,
    BacktestConfig,
    CommissionPlan,
    commission_for,
    execute_rebalance,
    period_return,
    run_benchmark,
    run_strategies,
    run_walk_forward,
)
from fracparity.metrics import max_drawdown
from fracparity.data import AlignedPanel, AssetSpec, log_returns, slice_window
from fracparity.errors import (
    ConfigError,
    DegeneratePath,
    DegenerateVolatility,
    InsufficientCapital,
    InsufficientHistory,
    NumericError,
    TickerMismatch,
)
from fracparity.fractal import HurstConfig, build_path, cover_variations, fit_hurst_rows
from fracparity.runconfig import load_run_settings, load_universe_panel

PLAN = CommissionPlan()
PANEL_CONFIG = Path(__file__).parent / "fixtures" / "panel4" / "universe.yaml"


def rebalance(weight, capital, price, prior, plan=PLAN):
    """``execute_rebalance`` of one period of one asset, as a one-row block."""
    return execute_rebalance(np.array([[weight]]), [capital], [[price]], plan, [prior])


def one_asset_panel(*periods, n=20):
    """Asset A over a lookback and one holding period per ``(trade, mark)`` price pair.

    The rows alternate 100 and 99, except each period's rows from its trade
    row to its mark row (:func:`oracles.period_rows`), which alternate its
    pair: the period trades at the first price and is marked at the second.
    A period trades on the row the one before is marked on, so each pair's
    first price is the mark of the pair before, or that mark is overwritten.
    """
    prices = np.tile((100.0, 99.0), (len(periods) + 1) * n // 2)
    for (_, trade, mark), pair in zip(oracles.period_rows(len(prices), n), periods, strict=True):
        prices[trade : mark + 1] = np.resize(pair, mark + 1 - trade)
        prices[mark] = pair[1]
    return AlignedPanel(ordinals=business_ordinals(dt.date(2012, 1, 2), len(prices)),
                        assets=(AssetSpec("A"),), prices=prices.reshape(-1, 1))


def walk_lookbacks(panel, n):
    """``lookback_stats`` of every lookback of a walk at ``n`` (:func:`oracles.period_rows`)."""
    last, _, _ = oracles.period_rows(panel.n_rows, n)[-1]
    return lookback_stats(slice_window(panel, last[-1], last.stop), n)


def one_fee(shares, price, plan=PLAN) -> float:
    """The commission of one order, which comes back as a 0-d array."""
    fee = commission_for(shares, price, plan)
    assert isinstance(fee, np.ndarray) and fee.shape == ()
    return float(fee)


class TestCommissionFor:
    def test_linear_region(self):
        assert one_fee(1000, 100.0) == pytest.approx(3.50, abs=1e-12)

    def test_floor_binds(self):
        assert one_fee(50, 100.0) == 0.35

    def test_zero_shares(self):
        assert one_fee(0, 100.0) == 0.0

    def test_cap_binds_on_tiny_value(self):
        # 10 shares at $1: 1% of $10 is below the per-order floor
        assert one_fee(10, 1.0) == pytest.approx(0.10, abs=1e-12)

    def test_overflowing_fee_is_capped_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert one_fee(10, 100.0, CommissionPlan(per_share=1e308)) == 10.0

    def test_plan_fields_validated(self):
        with pytest.raises(ConfigError):
            CommissionPlan(per_share=-0.1)


class TestExecuteRebalance:
    def test_full_deployment(self):
        _, holdings, deltas, fees, commissions = rebalance(1.0, 1_000_000.0, 100.0, 0)
        assert holdings.tolist() == [[10_000]]
        assert commissions == [pytest.approx(35.00, abs=1e-12)]
        assert deltas.tolist() == [[10_000]] and fees.tolist() == [commissions]

    def test_noop_rebalance(self):
        _, holdings, deltas, fees, commissions = rebalance(1.0, 1_000_000.0, 100.0, 10_000)
        assert deltas.tolist() == [[0]] and fees.tolist() == [[0.0]]
        assert commissions == [0.0]
        assert holdings.tolist() == [[10_000]]

    def test_liquidation(self):
        _, holdings, deltas, _, commissions = rebalance(0.0, 1_000_000.0, 100.0, 10_000)
        assert holdings.tolist() == [[0]]
        assert deltas.tolist() == [[-10_000]]
        assert commissions == [pytest.approx(35.00, abs=1e-12)]

    def test_whole_shares_leave_remainder(self):
        _, holdings, *_ = rebalance(1.0, 1_050.0, 100.0, 0)
        assert holdings.tolist() == [[10]]

    def test_share_count_beyond_int64(self):
        # 2**63 shares at $1 is one share more than int64 holds: the target comes back
        # as a float and is not cast (the walk rejects its period; see TestRunStrategies)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            target, holdings, *_ = rebalance(1.0, 2.0**63, 1.0, 0)
        assert target.tolist() == [[2.0**63]] and holdings.tolist() == [[0]]
        target, holdings, *_ = rebalance(1.0, 2.0**62, 1.0, 0)
        assert target.tolist() == [[2.0**62]] and holdings.tolist() == [[2**62]]

    def test_a_block_equals_its_rows_one_at_a_time(self):
        rng = np.random.default_rng(3)
        weights = rng.dirichlet(np.ones(7), size=9)
        weights[2] = 0.0  # an all-cash period liquidates
        weights[5, :3] = 0.0
        capital = rng.uniform(1e4, 1e7, 9)
        prices = rng.uniform(1.0, 400.0, (9, 7))
        prior = rng.integers(0, 500, 7)
        weights[6], capital[6], prices[6] = weights[5], capital[5], prices[5]  # no trade
        block = execute_rebalance(weights, capital, prices, PLAN, prior)
        held = prior
        for k in range(9):
            row = execute_rebalance(weights[k : k + 1], capital[k : k + 1], prices[k : k + 1],
                                    PLAN, held)
            for got, want in zip(block[:4], row[:4]):
                assert got[k : k + 1].tobytes() == want.tobytes(), k
            assert np.float64(block[4][k]).tobytes() == np.float64(row[4][0]).tobytes(), k
            held = row[1][0]
        assert (block[2] == 0).any() and (block[2] != 0).any()

    def test_an_untraded_column_leaves_the_commission_sum_unchanged(self):
        # fees of many magnitudes, so that the order of the additions shows in the last bits
        rng = np.random.default_rng(5)
        prices = rng.uniform(1.0, 400.0, (1, 40))
        prior = rng.integers(0, 10**6, 40)
        weights = rng.dirichlet(np.ones(40), size=1)
        _, holdings, *_ = execute_rebalance(weights, [1e9], prices, PLAN, prior)
        prior[::3] = holdings[0, ::3]  # every third column already holds its target
        *_, deltas, fees, commissions = execute_rebalance(weights, [1e9], prices, PLAN, prior)
        traded = np.flatnonzero(deltas[0])
        assert 0 < len(traded) < 40 and (fees[0, deltas[0] == 0] == 0.0).all()
        assert commissions[0] == oracles.left_sum(fees[0, traded].tolist())


class TestPeriodReturn:
    def test_cost_model(self):
        # an annual ratio of 0.40% over half a year
        gross, drag, net = period_return([[50]], [5_000.0], [[100.0]], [[110.0]], [0.20], [0.0])
        assert gross == [pytest.approx(10.0, abs=1e-12)]
        assert drag == [pytest.approx(0.20, abs=1e-12)]
        assert net == [pytest.approx(9.80, abs=1e-12)]

    def test_flat_prices(self):
        gross, _, net = period_return([[10]], [1_000.0], [[100.0]], [[100.0]], [0.0], [0.0])
        assert gross == [0.0] and net == [0.0]

    def test_cash_only_pays_commissions(self):
        gross, _, net = period_return(
            [[0]], [1_000_000.0], [[100.0]], [[105.0]], [0.0], commissions=[35.0]
        )
        assert gross == [0.0]
        assert net == [pytest.approx(-100.0 * 35.0 / 1_000_000.0, abs=1e-15)]

    def test_cash_drag_free(self):
        # half in cash halves both the move and the expense drag
        gross, drag, _ = period_return([[50]], [10_000.0], [[100.0]], [[110.0]], [0.20], [0.0])
        assert gross == [pytest.approx(5.0, abs=1e-12)]
        assert drag == [pytest.approx(0.10, abs=1e-12)]

    def test_a_block_equals_its_rows_one_at_a_time(self):
        rng = np.random.default_rng(4)
        shares = rng.integers(0, 10**5, (9, 30))
        shares[3] = 0  # an all-cash period
        capital = ((shares * 200.0).sum(axis=1) + rng.uniform(0.0, 1e5, 9)).tolist()
        start, end = rng.uniform(1.0, 200.0, (2, 9, 30))
        expense, commissions = rng.uniform(0.0, 1.0, 30), rng.uniform(0.0, 100.0, 9).tolist()
        block = period_return(shares, capital, start, end, expense, commissions)
        for k in range(9):
            rows = slice(k, k + 1)
            row = period_return(shares[rows], capital[rows], start[rows], end[rows], expense,
                                commissions[rows])
            got = [values[rows] for values in block]
            assert np.array(got).tobytes() == np.array(row).tobytes(), k


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
            ordinals=business_ordinals(dt.date(2012, 1, 2), rows),
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
        # every strategy of one walk, bit for bit: a reinvested period starts at the equity
        # point before it and ends at its own; a fixed-capital one starts at the initial capital
        n = 63
        panel = synthetic_panel(seed=11, n_rows=6 * n, n_assets=3)
        names = [*(v.value for v in StrategyVariant), BENCHMARK_LABEL]
        for mode in (REINVEST, FIXED_CAPITAL):
            cfg = BacktestConfig(horizon_n=n, compounding=mode, benchmark="BMK")
            runs = run_strategies(panel, cfg, names)
            assert list(runs) == names
            for results, equity in runs.values():
                assert len(results) == 5
                starts = [r.start_capital for r in results]
                if mode == REINVEST:
                    assert starts == equity.values[:-1].tolist()
                    assert [r.end_capital for r in results] == equity.values[1:].tolist()
                else:
                    assert starts == [cfg.initial_capital] * 5

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
        k = 1  # poison every row after period k's lookback
        future = slice(oracles.period_rows(panel.n_rows, n)[k][0].stop, None)
        poisoned_prices = panel.prices.copy()
        poisoned_prices[future] *= np.random.default_rng(0).uniform(
            1.5, 2.5, size=poisoned_prices[future].shape
        )
        poisoned = AlignedPanel(ordinals=panel.ordinals, assets=panel.assets, prices=poisoned_prices)
        mutated, _ = run_walk_forward(poisoned, cfg)
        for j in range(k + 1):
            assert np.array_equal(base[j].weights.weights, mutated[j].weights.weights)

    @pytest.mark.parametrize("source", ["panel4 benchmark", "one cost-free asset"])
    def test_the_chained_equity_is_buy_and_hold(self, source):
        # every day of the covered span belongs to a period: the chain telescopes to the
        # closes at the curve's first and last dates, whichever rows the periods use
        if source == "panel4 benchmark":
            settings = load_run_settings(PANEL_CONFIG)
            panel, cfg, name = load_universe_panel(settings), settings.base_config(), "BMK"
            (_, equity), rel = run_benchmark(panel, cfg), 1e-12
        else:  # weight 1 on a fixed price path; whole shares leave under 1e-10 in cash
            base = synthetic_panel(seed=37, n_rows=5 * 63, n_assets=1, with_benchmark=False)
            panel = AlignedPanel(ordinals=base.ordinals, assets=(AssetSpec("A0"),),
                                 prices=base.prices)
            cfg = BacktestConfig(horizon_n=63, variant=StrategyVariant.NAIVE_RISK_PARITY,
                                 initial_capital=1e12, compounding=REINVEST,
                                 commission=CommissionPlan(0.0, 0.0, 0.0))
            (_, equity), rel, name = run_walk_forward(panel, cfg), 1e-9, "A0"
        closes = panel.column(name)
        first, last = (panel.dates.index(day) for day in (equity.dates[0], equity.dates[-1]))
        assert equity.values[-1] / equity.values[0] == pytest.approx(
            closes[last] / closes[first], rel=rel
        )

    def test_period_losing_all_its_capital_is_a_numeric_error(self):
        # a fall from 101 to 90 plus fees of 99.9% of the order's value: period 0 returns
        # below -100%
        n = 20
        lookback = np.tile([100.0, 101.0], n // 2)
        falls = np.linspace(100.0, 90.0, n)
        prices = np.concatenate([lookback, falls, np.full(n, 90.0)]).reshape(-1, 1)
        panel = AlignedPanel(
            ordinals=business_ordinals(dt.date(2012, 1, 2), 3 * n), assets=(AssetSpec("A"),),
            prices=prices,
        )
        ruinous = CommissionPlan(per_share=1e6, min_per_order=0.0, max_pct_of_value=99.9)
        cfg = BacktestConfig(
            horizon_n=n, variant=StrategyVariant.NAIVE_RISK_PARITY, commission=ruinous
        )
        _, _, mark = oracles.period_rows(panel.n_rows, n)[0]
        period_0 = (f"^naive_risk_parity: period ending {panel.dates[mark]} returns .*, "
                    "wiping out its capital$")
        with pytest.raises(InsufficientCapital, match=period_0):
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
            assert max_drawdown(daily) >= max_drawdown(equity.values) - 1e-12


class TestRunBenchmark:
    def test_cost_free_and_aligned(self):
        n = 63
        panel = synthetic_panel(seed=19, n_rows=5 * n, n_assets=2)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        results, equity = run_benchmark(panel, cfg)
        assert len(results) == 4
        col = panel.column("BMK")
        for r, (_, start, end) in zip(results, oracles.period_rows(panel.n_rows, n), strict=True):
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

    def test_fractal_lookback_length_is_the_ladders_rule(self):
        # the shortest ladder, delta 2 and 4 with two windows each, needs 9 prices
        hurst = HurstConfig(min_windows=2, min_scales=2, max_rungs=64)
        BacktestConfig(horizon_n=9, hurst=hurst)
        message = "horizon_n 8 is too short for fractal_biased: path of 8 points affords 1 scales"
        with pytest.raises(ConfigError, match=message):
            BacktestConfig(horizon_n=8, hurst=hurst)

    def test_compounding_mode(self):
        with pytest.raises(ConfigError):
            BacktestConfig(compounding="martingale")

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="^'bogus' is not a valid StrategyVariant$"):
            BacktestConfig(variant="bogus")
        panel = synthetic_panel(seed=53, n_rows=4 * 63, n_assets=2)
        with pytest.raises(ConfigError, match="'fractal_biassed' is not a valid"):
            run_strategies(panel, BacktestConfig(horizon_n=63), ["fractal_biassed"])

    def test_fractal_clamp_at_most_one(self):
        hurst = HurstConfig(h_min=0.5, h_max=1.5)
        with pytest.raises(ConfigError, match="h_max is 1.5"):
            BacktestConfig(hurst=hurst)
        BacktestConfig(hurst=HurstConfig(h_min=0.5, h_max=1.0))
        for variant in (StrategyVariant.STANDARD_BIASED, StrategyVariant.NAIVE_RISK_PARITY):
            BacktestConfig(variant=variant, hurst=hurst)


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
    @pytest.mark.parametrize("source", ["panel4", "synthetic", "falling"])
    def test_one_walk_equals_the_wrappers_bitwise(self, source, mode):
        if source == "panel4":
            settings = load_run_settings(PANEL_CONFIG)
            panel = load_universe_panel(settings)
            cfg = dataclasses.replace(settings.base_config(), compounding=mode)
        else:
            if source == "synthetic":
                panel = synthetic_panel(seed=41, n_rows=6 * 63 + 17, n_assets=5)
            else:  # drifts low enough that the trend filter empties a lookback
                panel = synthetic_panel(seed=47, n_rows=6 * 63 + 17, n_assets=5,
                                        drift_range=(-0.002, 0.001))
            cfg = BacktestConfig(horizon_n=63, compounding=mode, benchmark="BMK")
        runs = run_strategies(panel, cfg, self.NAMES)
        assert list(runs) == self.NAMES
        traded = all_cash = 0
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
            for w in (p.weights for p in results if p.weights is not None):
                # long-only, fully invested unless every asset was filtered out
                assert (w.weights >= 0.0).all()
                assert w.cash in (0.0, 1.0)
                assert (w.cash == 1.0) == (not (w.weights > 0.0).any())
                assert abs(w.weights.sum() + w.cash - 1.0) <= 1e-12
                all_cash += w.cash == 1.0
        assert traded > 0
        if source == "falling":
            assert all_cash > 0

    @pytest.mark.parametrize("mode", [FIXED_CAPITAL, REINVEST])
    def test_marking_ignores_benchmark_columns_wherever_they_sit(self, mode):
        # the benchmark column moved first and given an expense ratio changes no bit
        last = synthetic_panel(seed=71, n_rows=6 * 63 + 17, n_assets=4)
        *assets, bench = last.assets
        first = AlignedPanel(
            ordinals=last.ordinals,
            assets=(dataclasses.replace(bench, expense_ratio=0.75), *assets),
            prices=np.roll(last.prices, 1, axis=1),
        )
        assert first.assets[0].role == bench.role != assets[0].role
        cfg = BacktestConfig(horizon_n=63, compounding=mode, benchmark=bench.ticker)
        moved = run_strategies(first, cfg, self.NAMES)
        traded = 0
        for name, (results, equity) in run_strategies(last, cfg, self.NAMES).items():
            moved_results, moved_equity = moved[name]
            assert [period_fields(p) for p in moved_results] == [period_fields(p) for p in results]
            assert moved_equity.dates == equity.dates
            assert moved_equity.values.tobytes() == equity.values.tobytes()
            traded += sum(len(p.trades) for p in results if p.trades is not None)
        assert traded > 0

    def test_benchmark_alone_computes_no_lookback_statistics(self, monkeypatch):
        def no_stats(window, n):
            raise AssertionError("lookback statistics computed for the benchmark")

        monkeypatch.setattr(backtest, "lookback_stats", no_stats)
        panel = synthetic_panel(seed=43, n_rows=4 * 63, n_assets=2)
        results, _ = run_benchmark(panel, BacktestConfig(horizon_n=63, benchmark="BMK"))
        assert len(results) == 3

    def test_walks_over_a_panel_share_one_returns_block(self, monkeypatch):
        shapes, calls = [], []

        def counted(prices):
            shapes.append(prices.shape)
            return log_returns(prices)

        def counted_call(name):
            inner = getattr(allocation, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(data, "log_returns", counted)
        for name in ("unbiased_std", "mean_return", "fit_hurst_rows"):
            monkeypatch.setattr(allocation, name, counted_call(name))
        panel = synthetic_panel(seed=59, n_rows=6 * 42, n_assets=3)
        run_benchmark(panel, BacktestConfig(horizon_n=63, benchmark="BMK"))
        assert shapes == [] and calls == []
        for n in (42, 63):  # each horizon builds its lookbacks once; the fractal walk fits
            base = BacktestConfig(horizon_n=n, benchmark="BMK")
            for variant in StrategyVariant:
                run_walk_forward(panel, dataclasses.replace(base, variant=variant))
            run_benchmark(panel, base)
            assert sorted(calls) == ["fit_hurst_rows", "mean_return", "unbiased_std"]
            calls.clear()
        assert shapes == [(3, 6 * 42)]
        # another Hurst configuration fits again, on the statistics already built
        run_walk_forward(panel, BacktestConfig(horizon_n=63, benchmark="BMK",
                                               hurst=HurstConfig(max_rungs=3)))
        assert calls == ["fit_hurst_rows"]

    def test_a_window_of_a_walked_panel_walks_as_a_fresh_panel(self):
        n = 42
        panel = synthetic_panel(seed=79, n_rows=8 * n, n_assets=3)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        run_strategies(panel, cfg, self.NAMES)
        # rows 5 to 5 + 6n: none of the window's lookbacks is one of the panel's
        window = slice_window(panel, 6 * n + 4, 6 * n)
        fresh = AlignedPanel(ordinals=window.ordinals, assets=window.assets, prices=window.prices.copy())
        walked = run_strategies(window, cfg, self.NAMES)
        for name, (results, equity) in run_strategies(fresh, cfg, self.NAMES).items():
            window_results, window_equity = walked[name]
            assert len(results) == 5
            assert [period_fields(p) for p in window_results] == [
                period_fields(p) for p in results
            ]
            assert window_equity.values.tobytes() == equity.values.tobytes()

    def test_shared_statistics_are_read_only(self):
        n = 63
        panel = synthetic_panel(seed=83, n_rows=5 * n, n_assets=3)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        results, _ = run_walk_forward(panel, cfg)
        before = [period_fields(p) for p in results]
        weights = results[0].weights
        # mu and std0 are rows of blocks that every walk at n over the panel reads
        for vector in (weights.mu, weights.std0):
            with pytest.raises(ValueError):
                vector[0] = -1.0
        for variant in StrategyVariant:
            run_walk_forward(panel, dataclasses.replace(cfg, variant=variant))
        again, _ = run_walk_forward(panel, cfg)
        assert [period_fields(p) for p in again] == before

        (lookbacks,) = backtest._LOOKBACKS[panel].values()
        for block in (lookbacks.returns, lookbacks.mu, lookbacks.std0):
            with pytest.raises(ValueError):
                block[0] = 0

    def test_a_walk_builds_one_weights_plan_per_variant(self, monkeypatch):
        plans, rescale = [], allocation.rescale_volatility

        def counted(std0, n, h):
            plans.append(std0.shape)
            return rescale(std0, n, h)

        monkeypatch.setattr(allocation, "rescale_volatility", counted)
        n = 42
        panel = synthetic_panel(seed=97, n_rows=7 * n, n_assets=3)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        runs = run_strategies(panel, cfg, self.NAMES)
        assert [len(results) for results, _ in runs.values()] == [6] * 4
        assert plans == [(6, 3)] * 3  # (lookbacks x assets), one per variant
        for variant in StrategyVariant:  # a plan lives as long as its walk
            run_walk_forward(panel, dataclasses.replace(cfg, variant=variant))
        assert plans == [(6, 3)] * 6
        # the panel keeps only the statistics of each horizon, shared by every walk
        entry = backtest._LOOKBACKS[panel]
        assert list(entry) == [n] and type(entry[n]) is Lookbacks
        assert [f.name for f in dataclasses.fields(Lookbacks)] == [
            "tickers", "returns", "mu", "std0"
        ]

    def test_a_flat_asset_raises_before_the_first_period(self, monkeypatch):
        n = 63
        base = synthetic_panel(seed=73, n_rows=4 * n, n_assets=3)
        prices = base.prices.copy()
        lookback, _, _ = oracles.period_rows(base.n_rows, n)[1]
        prices[lookback, 1] = prices[lookback[0], 1]  # A1 is flat over lookback 1 only
        panel = AlignedPanel(ordinals=base.ordinals, assets=base.assets, prices=prices)
        lookbacks = walk_lookbacks(panel, n)
        assert (lookbacks.std0[:, 1] == 0.0).tolist() == [False, True, False]

        naive = StrategyVariant.NAIVE_RISK_PARITY
        with pytest.raises(DegenerateVolatility, match="^A1: zero volatility"):
            weights_plan(lookbacks, naive)
        # a flat asset has mu = 0, so the trend filter drops it
        assert weights_of(lookbacks, StrategyVariant.STANDARD_BIASED, k=1).weights[1] == 0.0

        rebalances = []

        def counted(*args):
            rebalances.append(args[0])
            return execute_rebalance(*args)

        monkeypatch.setattr(backtest, "execute_rebalance", counted)
        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        with pytest.raises(DegenerateVolatility, match="^naive_risk_parity: A1: zero volatility"):
            run_strategies(panel, cfg, [naive.value])
        assert rebalances == []  # the plan raised before period 0's rebalance

    def test_a_missing_benchmark_column_raises_before_the_first_period(self, monkeypatch):
        rebalances = []

        def counted(*args):
            rebalances.append(args[0])
            return execute_rebalance(*args)

        monkeypatch.setattr(backtest, "execute_rebalance", counted)
        panel = synthetic_panel(seed=3, n_rows=4 * 63, n_assets=3)  # BMK, and no SPY
        with pytest.raises(TickerMismatch):
            run_strategies(panel, BacktestConfig(horizon_n=63),
                           ["naive_risk_parity", BENCHMARK_LABEL])
        assert rebalances == []  # the variant named first never walked

    def test_of_two_failing_strategies_the_first_named_raises(self):
        # one asset falls over lookback 0 and then rises; an expense ratio of 99% and fees
        # of 99.9% of each order's value take any period that trades below -100%
        n = 20
        steps = np.where(np.arange(3 * n) % 2, 0.004, -0.004)
        lookback, _, _ = oracles.period_rows(3 * n, n)[0]
        steps += np.where(np.arange(3 * n) < lookback.stop, -0.003, 0.001)
        panel = AlignedPanel(
            ordinals=business_ordinals(dt.date(2012, 1, 2), 3 * n),
            assets=(AssetSpec("A", expense_ratio=99.0), AssetSpec("BMK", role="benchmark")),
            prices=100.0 * np.exp(np.cumsum(np.tile(steps, (2, 1)).T, axis=0)),
        )
        ruinous = CommissionPlan(per_share=1e6, min_per_order=0.0, max_pct_of_value=99.9)
        cfg = BacktestConfig(horizon_n=n, variant="standard_biased", commission=ruinous,
                             benchmark="BMK")
        # naive risk parity trades in period 0; standard_biased holds cash until period 1
        naive, standard = "naive_risk_parity", "standard_biased"
        marks = [mark for *_, mark in oracles.period_rows(panel.n_rows, n)]
        for names, end_row in (([standard, naive], marks[1]), ([naive, standard], marks[0])):
            message = (f"^{names[0]}: period ending {panel.dates[end_row]} returns .*, "
                       "wiping out its capital$")
            with pytest.raises(InsufficientCapital, match=message):
                run_strategies(panel, cfg, names)

    @pytest.mark.parametrize("mode", [FIXED_CAPITAL, REINVEST])
    def test_an_overflowing_target_raises_without_a_cast(self, mode):
        # 2**63 shares at $1 is one share more than int64 holds; 2**62 shares fit
        naive = "naive_risk_parity"
        panel = one_asset_panel((1.0, 0.99), (0.99, 0.98))
        overflow = "^naive_risk_parity: A: target of 9.22337e[+]18 shares overflows int64$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an out-of-range cast would warn
            cfg = BacktestConfig(horizon_n=20, variant=naive, initial_capital=2.0**63,
                                 compounding=mode)
            with pytest.raises(NumericError, match=overflow):
                run_strategies(panel, cfg, [naive])
            # $1e6 over $1e-305 overflows to an infinite target
            tiny = one_asset_panel((1e-305, 1.0), (1.0, 0.99))
            infinite = "^naive_risk_parity: A: target of inf shares overflows int64$"
            with pytest.raises(NumericError, match=infinite):
                run_strategies(tiny, dataclasses.replace(cfg, initial_capital=1e6), [naive])
        cfg = dataclasses.replace(cfg, initial_capital=2.0**62)
        results, _ = run_strategies(panel, cfg, [naive])[naive]
        assert len(results) == 2 and results[0].trades.shares.tolist() == [2**62]

    # per-share fees far above the price: the cap binds, at 99.9% or 100 times an order's value
    RUINOUS = CommissionPlan(per_share=1e6, min_per_order=0.0, max_pct_of_value=99.9)
    HUNDREDFOLD = CommissionPlan(per_share=1e6, min_per_order=0.0, max_pct_of_value=1e4)
    # 99 cents a share, whatever the price: the cap of 100 times an order's value never binds
    STEEP = CommissionPlan(per_share=0.99, min_per_order=0.0, max_pct_of_value=1e4)
    BOTH = (FIXED_CAPITAL, REINVEST)

    @pytest.mark.parametrize(("periods", "plan", "error", "message", "modes"), [
        # period 0 buys 1e6 shares at $1 for $990,000 in fees and falls to $0.40, below
        # -100% after them; period 1 buys 1.5e6 more at $0.40, fees of $1,485,000
        pytest.param(((1.0, 0.4), (0.4, 0.39)), STEEP, InsufficientCapital,
                     "^naive_risk_parity: period ending 2012-02-24 returns -159.00%, "
                     "wiping out its capital$",
                     BOTH,
                     id="return-then-commissions"),
        # period 0 buys 1,010,101 shares at $0.99 and survives its fees; period 1 sells
        # 1,000,101 of them at $100, fees of 99.9% of $100 million; in reinvest mode
        # period 1 starts from period 0's end capital and nothing raises
        pytest.param(((0.99, 100.0), (100.0, 99.0)), RUINOUS, InsufficientCapital,
                     "^naive_risk_parity: commissions 99910089.90 would consume capital "
                     "1000000.00$",
                     (FIXED_CAPITAL,),
                     id="commissions-alone"),
        # period 0's target of 1e306 shares overflows, and buying 10,000 shares at $100
        # in period 1 costs 100 times their value
        pytest.param(((1e-300, 100.0), (100.0, 99.0)), HUNDREDFOLD, NumericError,
                     "^naive_risk_parity: A: target of 1e[+]306 shares overflows int64$",
                     BOTH,
                     id="overflow-then-commissions"),
        pytest.param(((100.0, 1e-300), (1e-300, 0.99e-300)), HUNDREDFOLD, InsufficientCapital,
                     "^naive_risk_parity: commissions 100000000.00 would consume capital "
                     "1000000.00$",
                     BOTH,
                     id="commissions-then-overflow"),
    ])
    def test_of_two_failing_periods_the_earlier_raises(self, periods, plan, error, message,
                                                        modes):
        panel = one_asset_panel(*periods)
        naive = "naive_risk_parity"
        for mode in modes:  # one block of two periods, or two blocks of one
            cfg = BacktestConfig(horizon_n=20, variant=naive, commission=plan, compounding=mode)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error, match=message):
                    run_strategies(panel, cfg, [naive])

    @pytest.mark.parametrize("mode", [FIXED_CAPITAL, REINVEST])
    def test_a_benchmark_that_loses_everything_is_judged_as_a_variant(self, mode):
        # the benchmark closes at 1e300 through period 0's trade row and at 1e-300 from its
        # mark row on: its change underflows to -100% in period 0, and 0% in period 1
        n = 15
        _, _, mark = oracles.period_rows(3 * n, n)[0]
        bench = np.where(np.arange(3 * n) < mark, 1e300, 1e-300)
        panel = AlignedPanel(
            ordinals=business_ordinals(dt.date(2012, 1, 2), 3 * n),
            assets=(AssetSpec("A"), AssetSpec("BMK", role="benchmark")),
            prices=np.column_stack([np.where(np.arange(3 * n) % 2, 99.0, 100.0), bench]),
        )
        naive = "naive_risk_parity"
        cfg = BacktestConfig(horizon_n=n, variant=naive, compounding=mode, benchmark="BMK")
        message = "^benchmark: period ending 2012-02-10 returns -100.00%, wiping out its capital$"
        assert panel.dates[mark] == dt.date(2012, 2, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the quotient underflows to 0.0 without a warning
            with pytest.raises(InsufficientCapital, match=message):
                run_strategies(panel, cfg, [BENCHMARK_LABEL])
            # the variant walks first and records both its periods; the benchmark then raises
            with pytest.raises(InsufficientCapital, match=message):
                run_strategies(panel, cfg, [naive, BENCHMARK_LABEL])
            results, _ = run_walk_forward(panel, cfg)
        assert len(results) == 2

    @pytest.mark.parametrize("mode", [FIXED_CAPITAL, REINVEST])
    def test_an_equity_curve_that_overflows_is_a_numeric_error(self, mode):
        # the benchmark climbs from 1e-300 to 1e300 at a steady rate: each period's change
        # is finite, but the chained equity passes the largest float in period 2 (in
        # fixed_capital mode too, whose curve compounds the net returns)
        n = 20
        bench = np.logspace(-300.0, 300.0, 5 * n)
        panel = AlignedPanel(
            ordinals=business_ordinals(dt.date(2012, 1, 2), 5 * n),
            assets=(AssetSpec("A"), AssetSpec("BMK", role="benchmark")),
            prices=np.column_stack([np.where(np.arange(5 * n) % 2, 99.0, 100.0), bench]),
        )
        nets = oracles.benchmark_period_returns(bench.tolist(), n)
        assert all(map(math.isfinite, nets)) and len(nets) == 4
        _, _, mark = oracles.period_rows(5 * n, n)[2]
        cfg = BacktestConfig(horizon_n=n, variant="naive_risk_parity", compounding=mode,
                             benchmark="BMK")
        message = f"^benchmark: period ending {panel.dates[mark]} takes the equity curve to inf,"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=message):
                run_strategies(panel, cfg, [BENCHMARK_LABEL])

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

    @pytest.mark.parametrize("source", ["panel4", "synthetic"])
    def test_a_walk_fits_each_lookback_as_if_alone(self, source, monkeypatch):
        if source == "panel4":
            settings = load_run_settings(PANEL_CONFIG)
            panel, base = load_universe_panel(settings), settings.base_config()
            horizons = (42, 63, 126)
        else:
            panel = synthetic_panel(seed=61, n_rows=5 * 252, n_assets=30)
            base, horizons = BacktestConfig(benchmark="BMK"), (42, 63, 126, 252)
        built = []

        def counted(returns):
            built.append(returns.shape)
            return build_path(returns)

        monkeypatch.setattr(allocation, "build_path", counted)
        fitted = 0
        for n in horizons:
            cfg = dataclasses.replace(base, horizon_n=n)
            run_strategies(panel, cfg, ["standard_biased", "naive_risk_parity", BENCHMARK_LABEL])
            assert built == []
            results, _ = run_strategies(panel, cfg, self.NAMES)["fractal_biased"]
            assert len(built) == 1
            built.clear()
            tiling = oracles.period_rows(panel.n_rows, n)
            for result, (rows, _, _) in zip(results, tiling, strict=True):
                lookback = lookback_stats(slice_window(panel, rows[-1], len(rows)), n)
                active = lookback.mu[0] > 0.0
                w = result.weights
                if active.any():
                    fit = fit_hurst_rows(build_path(lookback.returns[0][active]), cfg.hurst)
                    assert w.h[active].tobytes() == fit.h.tobytes()
                    assert w.r_squared[active].tobytes() == fit.r_squared.tobytes()
                    assert w.clamped[active].tobytes() == fit.clamped.tobytes()
                    fitted += 1
                assert (w.h[~active] == 0.5).all()
                assert np.isnan(w.r_squared[~active]).all()
                assert not w.clamped[~active].any()
        assert fitted > 0

    def test_a_degenerate_path_raises_before_the_first_period(self):
        n = 63
        base = synthetic_panel(seed=67, n_rows=4 * n, n_assets=3, drift_range=(0.002, 0.003))
        # lookback 1 of A0 is flat over its first 56 returns, then rises over its last 6:
        # mu > 0 and std0 > 0, but V(8) = 0, as every window of 8 lies in the flat stretch
        steps = np.diff(np.log(base.prices[:, 0]), prepend=np.log(100.0))
        lookback, _, _ = oracles.period_rows(base.n_rows, n)[1]
        steps[lookback[1] : lookback[57]] = 0.0
        steps[lookback[57] : lookback.stop] = 0.01
        prices = base.prices.copy()
        prices[:, 0] = 100.0 * np.exp(np.cumsum(steps))
        panel = AlignedPanel(ordinals=base.ordinals, assets=base.assets, prices=prices)
        lookbacks = walk_lookbacks(panel, n)
        assert lookbacks.mu[1, 0] > 0.0 and lookbacks.std0[1, 0] > 0.0
        assert cover_variations(build_path(lookbacks.returns[1, :1]), [8])[0, 0] == 0.0

        with pytest.raises(DegeneratePath):
            weights_plan(lookbacks, StrategyVariant.FRACTAL_BIASED)

        cfg = BacktestConfig(horizon_n=n, benchmark="BMK")
        with pytest.raises(DegeneratePath, match="^fractal_biased: "):
            run_strategies(panel, cfg, ["fractal_biased"])
        results, _ = run_strategies(panel, cfg, ["standard_biased"])["standard_biased"]
        assert len(results) == 3
        # period 0's fees alone exceed the capital (the cap is 100 times the trade
        # value), but the walk's plan raises first
        costly = dataclasses.replace(
            cfg, commission=CommissionPlan(min_per_order=1e7, max_pct_of_value=1e4)
        )
        with pytest.raises(InsufficientCapital, match="^standard_biased: commissions"):
            run_strategies(panel, costly, ["standard_biased"])
        with pytest.raises(DegeneratePath, match="^fractal_biased: "):
            run_strategies(panel, costly, ["fractal_biased"])
