from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import business_ordinals, synthetic_panel, weights_of
from fracparity.allocation import (
    StrategyVariant,
    inverse_volatility_weights,
    lookback_stats,
    mean_return,
    unbiased_std,
)
from fracparity.data import AlignedPanel, AssetSpec, log_returns, slice_window
from fracparity.errors import DegenerateVolatility, Empty
from fracparity.fractal import HurstConfig, build_path, fit_hurst_rows


def panel_from_columns(columns: dict[str, np.ndarray], benchmark: str | None = None):
    n = len(next(iter(columns.values())))
    assets = tuple(
        AssetSpec(t, role="benchmark" if t == benchmark else "portfolio_asset")
        for t in columns
    )
    prices = np.column_stack([columns[a.ticker] for a in assets])
    return AlignedPanel(ordinals=business_ordinals(dt.date(2015, 1, 5), n), assets=assets, prices=prices)


def drifted(seed, n, drift, vol=0.01):
    rng = np.random.default_rng(seed)
    steps = rng.normal(drift, vol, n)
    steps[0] = 0.0
    return 100.0 * np.exp(np.cumsum(steps))


def zigzag(up, down, rows=65):
    """Closes whose log returns alternate ``+up, -down``: the mean has the sign of up - down."""
    steps = np.tile([up, -down], rows)[: rows - 1]
    return 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


RISING, FALLING = zigzag(0.02, 0.01), zigzag(0.01, 0.02)
ROUND_TRIP = np.tile([100.0, 110.0], 33)[:65]  # the returns cancel exactly


class TestTrendFilter:
    """The trend filter is ``compute_weights``' active mask in both biased variants."""

    @staticmethod
    def active(*closes):
        window = panel_from_columns({f"T{i}": c for i, c in enumerate(closes)})
        masks = []
        for variant in (StrategyVariant.FRACTAL_BIASED, StrategyVariant.STANDARD_BIASED):
            w = weights_of(lookback_stats(window, window.n_rows), variant)
            assert ((w.weights > 0.0) == (w.mu > 0.0)).all()
            masks.append((w.weights > 0.0).tolist())
        assert masks[0] == masks[1]
        return masks[0]

    def test_mixed_signs(self):
        assert self.active(RISING, FALLING, RISING) == [True, False, True]

    def test_all_positive(self):
        assert self.active(RISING, RISING) == [True, True]

    def test_zero_mean_is_inactive(self):
        window = panel_from_columns({"RT": ROUND_TRIP})
        assert lookback_stats(window, 65).mu.tolist() == [[0.0]]
        assert self.active(ROUND_TRIP) == [False]

    def test_empty(self):
        n = 63
        panel = panel_from_columns({"BMK": drifted(24, n, 0.004)}, benchmark="BMK")
        for variant in (StrategyVariant.FRACTAL_BIASED, StrategyVariant.STANDARD_BIASED):
            with pytest.raises(Empty):
                weights_of(lookback_stats(panel, n), variant)


class TestLookbackStats:
    """Every lookback of a window comes from one strided view of the panel's returns."""

    @pytest.mark.parametrize("n", [8, 42, 63, 126])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_each_block_as_if_sliced_alone(self, seed, n):
        panel = synthetic_panel(seed=seed, n_rows=4 * 126, n_assets=5)
        # start away from row 0, at an offset that depends on n
        rows = (panel.n_rows - 1) // n * n
        window = slice_window(panel, end_index=panel.n_rows - 2, length=rows)
        lookbacks = lookback_stats(window, n)
        assert lookbacks.tickers == panel.portfolio_tickers
        assert len(lookbacks.returns) == len(lookbacks.mu) == len(lookbacks.std0) == rows // n
        for k in range(rows // n):
            alone = log_returns(window.prices[k * n : (k + 1) * n].T[window.portfolio_columns])
            assert lookbacks.returns[k].tobytes() == alone.tobytes()
            assert lookbacks.mu[k].tobytes() == mean_return(alone).tobytes()
            assert lookbacks.std0[k].tobytes() == unbiased_std(alone).tobytes()
        for block in (lookbacks.returns, lookbacks.mu, lookbacks.std0):
            assert not block.flags.writeable


class TestInverseVolatilityWeights:
    def test_two_assets(self):
        w = inverse_volatility_weights(np.array([2.0, 4.0]))
        assert w.tolist() == [pytest.approx(2 / 3, rel=1e-14), pytest.approx(1 / 3, rel=1e-14)]

    def test_uniform_rescale_exact_for_binary_factor(self):
        s = np.array([1.3, 2.7, 0.4])
        assert np.array_equal(
            inverse_volatility_weights(s), inverse_volatility_weights(4.0 * s)
        )

    @given(
        c=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30)
    def test_uniform_rescale_general(self, c, seed):
        s = np.random.default_rng(seed).uniform(0.1, 5.0, size=4)
        assert np.allclose(
            inverse_volatility_weights(s), inverse_volatility_weights(c * s), atol=1e-12
        )


class TestComputeWeights:
    def test_filtered_asset_gets_zero_and_twins_split(self):
        n = 63
        twin = drifted(seed=11, n=n, drift=0.002)
        falling = drifted(seed=12, n=n, drift=-0.005)
        panel = panel_from_columns({"DN": falling, "T1": twin, "T2": twin.copy()})
        for variant in (StrategyVariant.FRACTAL_BIASED, StrategyVariant.STANDARD_BIASED):
            w = weights_of(lookback_stats(panel, n), variant)
            assert w.tickers == ("DN", "T1", "T2")
            assert w.weights[0] == 0.0
            assert w.weights[1] == 0.5
            assert w.weights[2] == 0.5
            assert w.cash == 0.0

    def test_all_filtered_goes_to_cash(self):
        n = 63
        panel = panel_from_columns(
            {"D1": drifted(21, n, -0.004), "D2": drifted(22, n, -0.006)}
        )
        w = weights_of(lookback_stats(panel, n), StrategyVariant.FRACTAL_BIASED)
        assert np.all(w.weights == 0.0)
        assert w.cash == 1.0

    def test_naive_skips_filter(self):
        n = 63
        panel = panel_from_columns(
            {"D1": drifted(21, n, -0.004), "UP": drifted(23, n, 0.004)}
        )
        w = weights_of(lookback_stats(panel, n), StrategyVariant.NAIVE_RISK_PARITY)
        assert np.all(w.weights > 0.0)
        assert w.cash == 0.0

    def test_constant_price_asset(self):
        n = 63
        panel = panel_from_columns(
            {"C": np.full(n, 50.0), "UP": drifted(23, n, 0.004)}
        )
        # constant prices mean zero volatility: an error for naive, filtered for biased
        with pytest.raises(DegenerateVolatility):
            weights_of(lookback_stats(panel, n), StrategyVariant.NAIVE_RISK_PARITY)
        w = weights_of(lookback_stats(panel, n), StrategyVariant.FRACTAL_BIASED)
        assert w.tickers == ("C", "UP")
        assert w.weights[0] == 0.0
        assert w.weights[1] == 1.0

    def test_benchmark_column_excluded(self):
        n = 63
        panel = panel_from_columns(
            {"UP": drifted(23, n, 0.004), "BMK": drifted(24, n, 0.004)}, benchmark="BMK"
        )
        w = weights_of(lookback_stats(panel, n), StrategyVariant.NAIVE_RISK_PARITY)
        assert w.tickers == ("UP",)
        assert w.weights[0] == 1.0

    def test_no_portfolio_assets(self):
        n = 63
        panel = panel_from_columns({"BMK": drifted(24, n, 0.004)}, benchmark="BMK")
        with pytest.raises(Empty):
            weights_of(lookback_stats(panel, n), StrategyVariant.NAIVE_RISK_PARITY)

    def test_clamped_hurst_makes_variants_identical_bitwise(self):
        n = 126
        pinned = HurstConfig(h_min=0.5, h_max=0.5)
        for seed in range(8):
            panel = synthetic_panel(seed=seed, n_rows=n, n_assets=4)
            lookbacks = lookback_stats(panel, n)
            wf = weights_of(lookbacks, StrategyVariant.FRACTAL_BIASED, pinned)
            ws = weights_of(lookbacks, StrategyVariant.STANDARD_BIASED, pinned)
            assert wf.tickers == ws.tickers
            assert np.array_equal(wf.weights, ws.weights)
            assert wf.cash == ws.cash

    def test_pipelines_share_mean_and_daily_std(self):
        # the variants may only differ through the exponent h
        n = 126
        panel = synthetic_panel(seed=8, n_rows=n, n_assets=4)
        lookbacks = lookback_stats(panel, n)
        fractal, *others = (weights_of(lookbacks, v) for v in StrategyVariant)
        for w in others:
            assert np.array_equal(w.mu, fractal.mu)
            assert np.array_equal(w.std0, fractal.std0)

    def test_diagnostics_populated(self):
        n = 126
        panel = synthetic_panel(seed=9, n_rows=n, n_assets=3)
        lookbacks = lookback_stats(panel, n)
        w = weights_of(lookbacks, StrategyVariant.FRACTAL_BIASED)
        for diagnostic in (w.mu, w.std0, w.h, w.std_n, w.r_squared, w.clamped):
            assert diagnostic.shape == (len(w.tickers),)
        for diagnostic in (w.mu, w.std0, w.h, w.std_n):
            assert np.isfinite(diagnostic).all()
        active = np.flatnonzero(w.weights > 0)
        assert active.size
        fit = fit_hurst_rows(build_path(lookbacks.returns[0][active]))
        assert np.array_equal(w.h[active], fit.h)
        assert np.array_equal(w.r_squared[active], fit.r_squared)
        assert np.array_equal(w.clamped[active], fit.clamped)
        assert np.isfinite(w.r_squared[active]).all()
        assert np.isnan(np.delete(w.r_squared, active)).all()
        assert not np.delete(w.clamped, active).any()

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_budget_sums_to_one(self, seed):
        n = 63
        panel = synthetic_panel(seed=seed, n_rows=n, n_assets=4)
        for variant in StrategyVariant:
            w = weights_of(lookback_stats(panel, n), variant)
            assert float(np.sum(w.weights)) + w.cash == pytest.approx(1.0, abs=1e-12)

    def test_permuting_assets_permutes_weights(self):
        n = 63
        cols = {
            "A": drifted(31, n, 0.003),
            "B": drifted(32, n, 0.001),
            "C": drifted(33, n, 0.002),
        }
        fractal = StrategyVariant.FRACTAL_BIASED
        base = weights_of(lookback_stats(panel_from_columns(cols), n), fractal)
        shuffled = {"C": cols["C"], "A": cols["A"], "B": cols["B"]}
        perm = weights_of(lookback_stats(panel_from_columns(shuffled), n), fractal)
        assert base.tickers == ("A", "B", "C") and perm.tickers == ("C", "A", "B")
        for i, j in enumerate((1, 2, 0)):  # base column i is perm column j
            assert perm.weights[j] == pytest.approx(base.weights[i], abs=1e-15)

