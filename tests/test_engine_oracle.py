"""The walk-forward engine against the plain-Python oracle in ``oracles.py``.

The engine computes each lookback window as one array pass over all
portfolio columns; the oracle recomputes every window asset by asset on
Python floats, with its own minimal-cover Hurst estimate. The engine keeps
per-asset diagnostics, holdings and trades as vectors, and the checks here
read those vectors.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import synthetic_panel, trade_rows
from fracparity.allocation import StrategyVariant
from fracparity.backtest import FIXED_CAPITAL, REINVEST, BacktestConfig, run_walk_forward
from fracparity.data import slice_window
from fracparity.fractal import (
    HurstConfig,
    cover_variations,
    estimate_hurst,
    fit_hurst_rows,
    hurst_scales,
)
from fracparity.runconfig import load_run_settings, load_universe_panel

PANEL_CONFIG = Path(__file__).parent / "fixtures" / "panel4" / "universe.yaml"
WEIGHT_RTOL = 1e-12


def lookback_columns(panel, n, k):
    """Price lists of the portfolio assets over lookback rows ``[k*n, (k+1)*n)``."""
    rows = panel.prices[k * n : (k + 1) * n]
    return rows[:, panel.portfolio_columns].T.tolist()


def oracle_weights(panel, variant, n, k, hurst_options=None):
    columns = lookback_columns(panel, n, k)
    return oracles.risk_parity_weights(columns, variant.value, n, hurst_options)


def assert_weights_match_oracle(panel, config, hurst_options=None):
    n = config.horizon_n
    results, _ = run_walk_forward(panel, config)
    assert results
    for k, result in enumerate(results):
        want = oracle_weights(panel, config.variant, n, k, hurst_options)
        np.testing.assert_allclose(result.weights.weights, want, rtol=WEIGHT_RTOL, atol=0.0)
        assert result.weights.cash == (0.0 if any(want) else 1.0)

        assert_diagnostic_vectors_match_oracle(
            result.weights, lookback_columns(panel, n, k), config.variant, hurst_options
        )


def assert_diagnostic_vectors_match_oracle(weights, columns, variant, hurst_options):
    mu, std0, h, r_squared, clamped = map(
        np.array, zip(*oracles.window_diagnostics(columns, variant.value, hurst_options))
    )
    # a mean near zero carries the rounding of a sum of O(1) returns
    np.testing.assert_allclose(weights.mu, mu, rtol=WEIGHT_RTOL, atol=1e-12)
    np.testing.assert_allclose(weights.std0, std0, rtol=WEIGHT_RTOL, atol=0.0)
    np.testing.assert_allclose(weights.h, h, rtol=WEIGHT_RTOL, atol=0.0)
    # NaN marks the columns without a fit on both sides
    np.testing.assert_allclose(weights.r_squared, r_squared, rtol=WEIGHT_RTOL, atol=1e-12)
    assert weights.clamped.tolist() == clamped.tolist()


@pytest.mark.parametrize("variant", list(StrategyVariant))
def test_fixture_weights_match_oracle(variant):
    settings = load_run_settings(PANEL_CONFIG)
    panel = load_universe_panel(settings)
    config = settings.variant_configs()[variant]
    assert_weights_match_oracle(panel, config)


@pytest.mark.parametrize("n", [42, 126])
@pytest.mark.parametrize("variant", list(StrategyVariant))
def test_synthetic_weights_match_oracle(variant, n):
    for seed in range(25):
        panel = synthetic_panel(seed=seed, n_rows=1260, n_assets=4)
        assert_weights_match_oracle(panel, BacktestConfig(horizon_n=n, variant=variant))


@pytest.mark.parametrize(
    "options",
    [
        {"min_windows": 2, "max_rungs": None, "h_min": 0.2, "h_max": 0.9},
        {"h_min": 0.6, "h_max": 0.65},  # both clamps bind on some windows
    ],
)
def test_weights_match_oracle_with_other_estimator_settings(options):
    config = BacktestConfig(horizon_n=126, hurst=HurstConfig(**options))
    for seed in range(5):
        panel = synthetic_panel(seed=seed, n_rows=1260, n_assets=4)
        assert_weights_match_oracle(panel, config, options)


@pytest.mark.parametrize("variant", list(StrategyVariant))
def test_fixture_trades_match_oracle(variant):
    # a floor tie flipped by a last-bit weight difference would show up here
    settings = load_run_settings(PANEL_CONFIG)
    panel = load_universe_panel(settings)
    config = settings.variant_configs()[variant]
    assert config.compounding == "fixed_capital"
    n = config.horizon_n
    columns = panel.portfolio_columns
    results, _ = run_walk_forward(panel, config)

    plan = dataclasses.asdict(config.commission)
    expense = panel.expense_ratios[columns].tolist()
    prior = [0] * len(columns)
    for k, result in enumerate(results):
        prices = panel.prices[(k + 1) * n, columns].tolist()
        weights = oracle_weights(panel, variant, n, k)
        want, prior = oracles.whole_share_trades(
            weights, config.initial_capital, prices, prior
        )
        rows = trade_rows(result.trades)
        assert [(c, s, p) for c, s, p, _ in rows] == [(i, s, prices[i]) for i, s in want], k

        fees = [oracles.order_commission(abs(s), prices[i], **plan) for i, s in want]
        assert [fee for *_, fee in rows] == pytest.approx(fees, rel=1e-12)
        end_prices = panel.prices[(k + 2) * n - 1, columns].tolist()
        net = oracles.holding_net_return(
            prior, config.initial_capital, prices, end_prices, expense, n, sum(fees)
        )
        # percent returns of O(1): the two summation orders agree to rounding
        assert result.net_return == pytest.approx(net, rel=1e-12, abs=1e-12), k


def test_cover_variations_match_oracle():
    rng = np.random.default_rng(5)
    for size in (9, 17, 40, 64, 129, 253):
        paths = np.cumsum(rng.standard_normal((3, size)), axis=1)
        deltas = list(range(2, size // 2 + 1))
        # a scale that the one before divides starts from that scale's block extremes
        ladders = [
            deltas,
            [2**j for j in range(1, 9) if (size - 1) // 2**j >= 4],  # every dyadic rung
            [d for d in (3, 4, 6, 12, 5) if 2 * d <= size],  # nested, then not
            [d for d in (8, 2, 4, 16, 16) if 2 * d <= size],  # falling and repeated
            *([hurst_scales(size)] if size >= 40 else []),
        ]
        got = cover_variations(paths, deltas)
        for row, path in enumerate(paths):
            for j, delta in enumerate(deltas):
                want = oracles.minimal_cover_variation(path, delta)
                assert got[row, j] == pytest.approx(want, rel=1e-12)
        for scales in ladders:
            got = cover_variations(paths, scales)
            for row, path in enumerate(paths):
                # one scale at a time: each restarts from the path
                want = [cover_variations(path[None], [delta])[0, 0] for delta in scales]
                assert got[row].tobytes() == np.array(want).tobytes(), (size, scales)


def test_batched_hurst_rows_equal_single_paths_bitwise():
    rng = np.random.default_rng(6)
    for size in (42, 63, 126, 252):
        paths = np.cumsum(rng.standard_normal((12, size)), axis=1)
        fit = fit_hurst_rows(paths)
        for row, path in enumerate(paths):
            single = estimate_hurst(path)
            assert (fit.h[row], fit.mu_index[row], fit.r_squared[row]) == (
                single.h[0], single.mu_index[0], single.r_squared[0]
            )
            assert fit.variations[row].tobytes() == single.variations[0].tobytes()
            assert fit.h[row] == pytest.approx(oracles.minimal_cover_hurst(path), rel=1e-12)


@pytest.mark.parametrize("variant", list(StrategyVariant))
def test_trade_vectors_add_up_and_repeat(variant):
    settings = load_run_settings(PANEL_CONFIG)
    fixture = load_universe_panel(settings)
    runs = [(fixture, settings.variant_configs()[variant])]
    for seed in range(3):
        panel = synthetic_panel(seed=seed, n_rows=1260, n_assets=4)
        runs.append((panel, BacktestConfig(horizon_n=42, variant=variant)))
    for panel, config in runs:
        results, _ = run_walk_forward(panel, config)
        assert sum(len(r.trades) for r in results) > 0
        for result in results:
            assert len(trade_rows(result.trades)) == len(result.trades)
            assert oracles.left_sum(result.trades.fees.tolist()) == result.commission_cost
        again, _ = run_walk_forward(panel, config)
        assert [trade_rows(r.trades) for r in again] == [trade_rows(r.trades) for r in results]


@pytest.mark.parametrize("mode", [FIXED_CAPITAL, REINVEST])
def test_period_sums_add_left_to_right(mode):
    # the same bits on every Python: the builtin sum of floats, compensated from
    # Python 3.12 on, moves the start or end value of most of these periods
    n = 63
    panel = synthetic_panel(seed=89, n_rows=8 * n, n_assets=120)
    row = {date: i for i, date in enumerate(panel.dates)}
    columns = panel.portfolio_columns
    expense = panel.expense_ratios[columns]
    for variant in StrategyVariant:
        config = BacktestConfig(horizon_n=n, variant=variant, compounding=mode, benchmark="BMK")
        results, _ = run_walk_forward(panel, config)
        held = np.zeros(len(columns), np.int64)
        for k, result in enumerate(results):
            held[result.trades.columns] += result.trades.shares
            invested = held * panel.prices[row[result.start_date], columns]
            marked = held * panel.prices[row[result.end_date], columns]
            commission = oracles.left_sum(result.trades.fees.tolist())
            cash = result.start_capital - oracles.left_sum(invested.tolist())
            v_start = oracles.left_sum(invested.tolist()) + cash
            v_end = oracles.left_sum(marked.tolist(), cash)
            gross = 100.0 * (v_end - v_start) / v_start
            drag = oracles.left_sum((expense * (n / 252) * (invested / v_start)).tolist())
            assert (result.commission_cost, result.gross_return, result.expense_drag) == (
                commission, gross, drag
            ), (variant, k)
            assert result.net_return == gross - drag - 100.0 * commission / v_start


def test_slice_window_is_a_read_only_view():
    panel = synthetic_panel(seed=11, n_rows=120, n_assets=3)
    before = panel.prices.copy()
    window = slice_window(panel, end_index=59, length=30)
    assert np.shares_memory(window.prices, panel.prices)
    with pytest.raises(ValueError):
        window.prices[0, 0] = 1.0
    with pytest.raises(ValueError):
        window.prices[:] *= 2.0
    inner = slice_window(window, end_index=9, length=5)
    with pytest.raises(ValueError):
        inner.prices[-1, -1] = 1.0
    assert np.array_equal(panel.prices, before)
    assert np.array_equal(window.prices, before[30:60])
