"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The final, data-dependent check needs user-supplied 2005-2016 ETF
price history and is skipped unless FRACPARITY_ETF_DIR points at it.
"""

from __future__ import annotations

import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import synthetic_panel, trade_rows, weights_of
from fracparity.allocation import StrategyVariant, lookback_stats
from fracparity.backtest import (
    BacktestConfig,
    CommissionPlan,
    run_benchmark,
    run_walk_forward,
)
from fracparity.data import (
    AlignedPanel,
    AssetSpec,
    align_panel,
    load_price_csv,
    slice_window,
)
from fracparity.fractal import HurstConfig, StableParams, estimate_hurst, stable_cdf_with_error
from fracparity.metrics import (
    build_report,
    capital_protection,
    max_drawdown,
    sharpe,
    treynor,
)
from fracparity.runconfig import load_run_settings, load_universe_panel

PANEL_CONFIG = Path(__file__).parent / "fixtures" / "panel4" / "universe.yaml"

# annual-horizon reference rows: (return %, std %, beta, sharpe, treynor x 0.01)
REFERENCE_ROWS = [
    ("fractal", 9.09, 7.06, 0.25, 1.29, 0.36),
    ("standard", 8.91, 7.49, 0.28, 1.19, 0.32),
    ("naive", 8.18, 9.40, 0.36, 0.90, 0.24),
    ("benchmark", 8.18, 15.68, 1.00, 0.52, 0.08),
]


def report_pass(name: str) -> None:
    print(f"[ACCEPTANCE] {name}: PASS")


def test_metric_identity_reproduction():
    for label, ret, std, beta_value, want_sharpe, want_treynor in REFERENCE_ROWS:
        assert sharpe(ret, std) == pytest.approx(want_sharpe, abs=0.03), label
        assert treynor(ret, beta_value) == pytest.approx(want_treynor, abs=0.02), label
    report_pass("metric identity reproduction (4 rows, +-0.03 / +-0.02)")


def test_degeneracy_pinned_hurst_bitwise():
    n = 252
    panel = synthetic_panel(seed=97, n_rows=2520, n_assets=4)
    pinned = HurstConfig(h_min=0.5, h_max=0.5)

    # weights identical bitwise on every lookback window
    for lookback, _, _ in oracles.period_rows(panel.n_rows, n):
        window = slice_window(panel, end_index=lookback[-1], length=len(lookback))
        lookbacks = lookback_stats(window, n)
        wf = weights_of(lookbacks, StrategyVariant.FRACTAL_BIASED, pinned)
        ws = weights_of(lookbacks, StrategyVariant.STANDARD_BIASED, pinned)
        assert np.array_equal(wf.weights, ws.weights)
        assert wf.cash == ws.cash

    # and so is the whole backtest output
    base = BacktestConfig(horizon_n=n, hurst=pinned)
    rf, ef = run_walk_forward(
        panel, dataclasses.replace(base, variant=StrategyVariant.FRACTAL_BIASED)
    )
    rs, es = run_walk_forward(
        panel, dataclasses.replace(base, variant=StrategyVariant.STANDARD_BIASED)
    )
    assert np.array_equal(ef.values, es.values)
    for a, b in zip(rf, rs):
        assert a.net_return == b.net_return
        assert a.gross_return == b.gross_return
        assert a.commission_cost == b.commission_cost
        assert trade_rows(a.trades) == trade_rows(b.trades)
    report_pass("degeneracy: pinned H=0.5 makes fractal == standard bitwise")


def test_hurst_oracle_recovery():
    for h_true in (0.3, 0.5, 0.7):
        estimates = [
            estimate_hurst(oracles.fbm_path(1024, h_true, np.random.default_rng(seed))).h[0]
            for seed in range(100)
        ]
        median = float(np.median(estimates))
        assert abs(median - h_true) <= 0.10, (h_true, median)
    assert estimate_hurst(np.arange(1025.0)).h[0] == 1.0
    report_pass("hurst oracle recovery (fBm H in {0.3, 0.5, 0.7} +-0.10; ramp == 1.0)")


def test_stable_law_anchors():
    gauss = StableParams(alpha=2.0, beta=0.0)
    for z in np.linspace(-5.0, 5.0, 50):
        want = oracles.gaussian_cdf(float(z), std=math.sqrt(2.0))
        assert stable_cdf_with_error(float(z), gauss)[0] == pytest.approx(want, abs=1e-4)

    cauchy = StableParams(alpha=1.0, beta=0.0)
    for z in np.linspace(-5.0, 5.0, 50):
        assert stable_cdf_with_error(float(z), cauchy)[0] == pytest.approx(
            oracles.cauchy_cdf(float(z)), abs=1e-6
        )

    rng = np.random.default_rng(11)
    for _ in range(8):
        params = StableParams(
            alpha=float(rng.uniform(0.5, 2.0)), beta=float(rng.uniform(-1.0, 1.0))
        )
        grid = np.linspace(-8.0, 8.0, 100)
        values = [stable_cdf_with_error(float(z), params)[0] for z in grid]
        assert all(b - a >= -1e-9 for a, b in zip(values, values[1:])), params
    for _ in range(6):
        params = StableParams(alpha=float(rng.uniform(0.5, 2.0)), beta=0.0)
        for z in rng.uniform(0.0, 6.0, 5):
            total = (stable_cdf_with_error(float(z), params)[0]
                     + stable_cdf_with_error(float(-z), params)[0])
            assert total == pytest.approx(1.0, abs=1e-8), params
    report_pass("stable-law anchors (Gaussian 1e-4, Cauchy 1e-6, monotone + symmetric)")


def test_backtest_accounting_invariants():
    n = 63
    pricier = CommissionPlan(per_share=0.0105, min_per_order=1.05, max_pct_of_value=3.0)
    for seed in range(100):
        panel = synthetic_panel(seed=seed, n_rows=5 * n, n_assets=4)
        cfg = BacktestConfig(horizon_n=n)
        results, equity = run_walk_forward(panel, cfg)

        for r in results:
            expected = r.start_capital * (1.0 + r.net_return / 100.0)
            assert abs(r.end_capital - expected) <= 1e-9 * abs(expected)

        mdd = max_drawdown(equity.values)
        assert capital_protection(mdd) + mdd == 100.0

        costly, _ = run_walk_forward(panel, dataclasses.replace(cfg, commission=pricier))
        for cheap_r, costly_r in zip(results, costly):
            assert costly_r.net_return <= cheap_r.net_return

        # reinvest mode: the curve is the product of period growth factors
        re_results, re_equity = run_walk_forward(
            panel, dataclasses.replace(cfg, compounding="reinvest")
        )
        product = cfg.initial_capital
        for r in re_results:
            product *= 1.0 + r.net_return / 100.0
        assert abs(re_equity.values[-1] - product) <= 1e-9 * abs(product)

    # out-of-sample discipline: poisoned future rows never move weights
    for seed in range(100):
        panel = synthetic_panel(seed=1000 + seed, n_rows=5 * n, n_assets=4)
        cfg = BacktestConfig(horizon_n=n, variant=StrategyVariant.FRACTAL_BIASED)
        base, _ = run_walk_forward(panel, cfg)
        k = seed % len(base)  # poison every row after period k's lookback
        mutated_prices = panel.prices.copy()
        rng = np.random.default_rng(seed)
        tail = slice(oracles.period_rows(panel.n_rows, n)[k][0].stop, None)
        mutated_prices[tail, :] *= rng.uniform(0.5, 2.0, size=mutated_prices[tail, :].shape)
        mutated_panel = AlignedPanel(
            ordinals=panel.ordinals, assets=panel.assets, prices=mutated_prices
        )
        mutated, _ = run_walk_forward(mutated_panel, cfg)
        for j in range(k + 1):
            assert np.array_equal(base[j].weights.weights, mutated[j].weights.weights)
            assert base[j].weights.cash == mutated[j].weights.cash
    report_pass(
        "backtest accounting (identity 1e-9, cost monotonicity, poisoning, protection sum)"
    )


def test_end_to_end_fixture():
    settings = load_run_settings(PANEL_CONFIG)
    panel = load_universe_panel(settings)
    base = settings.base_config()
    bench_results, bench_equity = run_benchmark(panel, base)
    report = build_report(
        bench_results, bench_equity, bench_results, settings.horizon_n, mode="fixed_capital"
    )
    assert report.protection == pytest.approx(64.0, abs=1e-9)
    assert report.beta == pytest.approx(1.0, abs=1e-9)
    # strategy runs share the same windows and complete cleanly
    for variant in settings.variants:
        results, equity = run_walk_forward(panel, dataclasses.replace(base, variant=variant))
        assert len(results) == len(bench_results) == 5
        assert np.all(equity.values > 0.0)
    report_pass("end-to-end fixture (benchmark protection 64, beta 1 to 1e-9)")


@pytest.mark.skipif(
    "FRACPARITY_ETF_DIR" not in os.environ,
    reason="set FRACPARITY_ETF_DIR to a directory of 2005-2016 adjusted ETF closes",
)
def test_user_supplied_etf_history():
    data_dir = Path(os.environ["FRACPARITY_ETF_DIR"])
    universe = [
        ("SPY", 0.09),
        ("TLT", 0.15),
        ("IYR", 0.43),
        ("GLD", 0.40),
    ]
    series, specs = [], []
    for ticker, expense in universe:
        series.append(load_price_csv(str(data_dir / f"{ticker.lower()}.csv"), ticker))
        specs.append(AssetSpec(ticker, expense_ratio=expense))
    panel = align_panel(series, specs)
    cfg = BacktestConfig(horizon_n=126, benchmark="SPY")
    bench_results, bench_equity = run_benchmark(panel, cfg)
    # the tiling rule's count: about 3,020 rows of 2005-2016 closes give 22 periods
    n_periods = len(oracles.period_rows(panel.n_rows, 126))
    assert len(bench_results) == n_periods, (
        f"expected {n_periods} half-year periods, got {len(bench_results)}"
    )

    sharpes = {}
    for variant in StrategyVariant:
        results, equity = run_walk_forward(panel, dataclasses.replace(cfg, variant=variant))
        rep = build_report(results, equity, bench_results, 126, mode="fixed_capital")
        sharpes[variant.value] = rep.sharpe
    bench_rep = build_report(bench_results, bench_equity, bench_results, 126, mode="fixed_capital")
    sharpes["benchmark"] = bench_rep.sharpe

    ordering = ["fractal_biased", "standard_biased", "naive_risk_parity", "benchmark"]
    observed = sorted(ordering, key=lambda k: -sharpes[k])
    # reported, not asserted: vendor adjustment conventions shift these values
    print(f"[ACCEPTANCE] sharpe ordering observed: {observed} values={sharpes}")
    report_pass(f"user-supplied ETF history ({n_periods} periods; ordering reported above)")
