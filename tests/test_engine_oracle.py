"""The walk-forward engine against the plain-Python oracle in ``oracles.py``.

The engine computes each lookback window as one array pass over all
portfolio columns; the oracle recomputes every window asset by asset on
Python floats, with its own minimal-cover Hurst estimate. The engine keeps
per-asset diagnostics, holdings and trades as vectors and builds records
from them on demand; both views are checked here.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import synthetic_panel
from fracparity.allocation import StrategyVariant
from fracparity.backtest import BacktestConfig, Trade, run_walk_forward
from fracparity.data import slice_window
from fracparity.fractal import (
    HurstConfig,
    cover_variations,
    estimate_hurst,
    fit_hurst_rows,
    minimal_cover_variation,
)
from fracparity.riskstats import RiskEstimate
from fracparity.runconfig import load_run_settings, load_universe_panel

PANEL_CONFIG = Path(__file__).parent / "fixtures" / "panel4" / "universe.yaml"
WEIGHT_RTOL = 1e-12


def lookback_columns(panel, n, k):
    """Price lists of the portfolio assets over lookback rows ``[k*n, (k+1)*n)``."""
    rows = panel.prices[k * n : (k + 1) * n]
    return [rows[:, panel.index_of(a.ticker)].tolist() for a in panel.portfolio_assets()]


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

        estimates = oracles.window_estimates(
            lookback_columns(panel, n, k), config.variant.value, hurst_options
        )
        for ticker, (mu, std0, h) in zip(result.weights.tickers, estimates):
            risk = result.weights.risk[ticker]
            # a mean near zero carries the rounding of a sum of O(1) returns
            assert risk.mu == pytest.approx(mu, rel=WEIGHT_RTOL, abs=1e-12)
            assert risk.std0 == pytest.approx(std0, rel=WEIGHT_RTOL)
            assert risk.h == pytest.approx(h, rel=WEIGHT_RTOL)
            if ticker in result.weights.hurst:
                assert result.weights.hurst[ticker].h == risk.h
        assert_diagnostic_vectors_match_oracle(
            result.weights, lookback_columns(panel, n, k), config.variant, hurst_options
        )


def assert_diagnostic_vectors_match_oracle(weights, columns, variant, hurst_options):
    mu, std0, h, r_squared, clamped = map(
        np.array, zip(*oracles.window_diagnostics(columns, variant.value, hurst_options))
    )
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
    tickers = [a.ticker for a in panel.portfolio_assets()]
    columns = [panel.index_of(t) for t in tickers]
    results, _ = run_walk_forward(panel, config)

    plan = dataclasses.asdict(config.commission)
    expense = [a.expense_ratio for a in panel.portfolio_assets()]
    prior = [0] * len(tickers)
    for k, result in enumerate(results):
        prices = panel.prices[(k + 1) * n, columns].tolist()
        weights = oracle_weights(panel, variant, n, k)
        want, prior = oracles.whole_share_trades(
            weights, config.initial_capital, prices, prior
        )
        got = [(t.ticker, t.shares, t.price) for t in result.trades]
        assert got == [(tickers[i], shares, prices[i]) for i, shares in want], k

        fees = [oracles.order_commission(abs(s), prices[i], **plan) for i, s in want]
        assert [t.commission for t in result.trades] == pytest.approx(fees, rel=1e-12)
        end_prices = panel.prices[(k + 2) * n - 1, columns].tolist()
        net = oracles.holding_net_return(
            prior, config.initial_capital, prices, end_prices, expense, n, sum(fees)
        )
        # percent returns of O(1): the two summation orders agree to rounding
        assert result.net_return == pytest.approx(net, rel=1e-12, abs=1e-12), k


def test_cover_variations_match_oracle():
    rng = np.random.default_rng(5)
    for size in (9, 17, 40, 64, 129):
        paths = np.cumsum(rng.standard_normal((3, size)), axis=1)
        deltas = list(range(2, size // 2 + 1))
        got = cover_variations(paths, deltas)
        for row, path in enumerate(paths):
            for j, delta in enumerate(deltas):
                want = oracles.minimal_cover_variation(path, delta)
                assert got[row, j] == pytest.approx(want, rel=1e-12)
                assert minimal_cover_variation(path, delta) == got[row, j]


def test_batched_hurst_rows_equal_single_paths_bitwise():
    rng = np.random.default_rng(6)
    for size in (42, 63, 126, 252):
        paths = np.cumsum(rng.standard_normal((12, size)), axis=1)
        for path, est in zip(paths, fit_hurst_rows(paths).estimates()):
            single = estimate_hurst(path)
            assert (est.h, est.mu_index, est.r_squared) == (
                single.h, single.mu_index, single.r_squared
            )
            assert est.variations == single.variations
            assert est.h == pytest.approx(oracles.minimal_cover_hurst(path), rel=1e-12)


def assert_records_equal_vectors(result):
    """The on-demand ``risk``, ``hurst`` and ``Trade`` records of one period."""
    w = result.weights
    assert list(w.risk) == list(w.tickers)
    for i, ticker in enumerate(w.tickers):
        want = RiskEstimate(ticker, w.mu[i], w.std0[i], w.h[i], w.std_n[i])
        assert w.risk[ticker] == want
    if w.fit is None:
        assert w.hurst == {}
    else:
        assert list(w.hurst) == [w.tickers[i] for i in w.fitted]
        for row, i in enumerate(w.fitted):
            est = w.hurst[w.tickers[i]]
            assert (est.h, est.mu_index, est.r_squared) == (
                w.fit.h[row], w.fit.mu_index[row], w.fit.r_squared[row]
            )
            assert est.h == w.h[i]
            assert est.scales == w.fit.scales
            assert est.variations == tuple(w.fit.variations[row])

    trades = result.trades
    want = [
        Trade(trades.tickers[c], s, p, f)
        for c, s, p, f in zip(trades.columns, trades.shares, trades.prices, trades.fees)
    ]
    assert len(trades) == len(want)
    assert list(trades) == want
    assert trades == want and trades == tuple(want)
    assert [trades[i] for i in range(len(trades))] == want
    assert sum(t.commission for t in trades) == result.commission_cost


@pytest.mark.parametrize("variant", list(StrategyVariant))
def test_records_equal_their_vectors(variant):
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
            assert_records_equal_vectors(result)
        again, _ = run_walk_forward(panel, config)
        assert [r.trades for r in again] == [r.trades for r in results]


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
