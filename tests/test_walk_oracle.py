"""Whole walks of the engine against ``oracles.walk``, on panels Hypothesis draws.

The piece oracles check weights, trades, commissions and period returns one
at a time; this test checks the chain that joins them: the holdings a period
inherits, its trade deltas and their commissions, the cash, the start
capital of each mode, the period rows and their dates. The prices are a
seeded random walk, so a draw cannot put a target share count on a floor
tie that a last-bit difference between the two sides would flip.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import business_days
from fracparity.allocation import StrategyVariant
from fracparity.backtest import (
    BENCHMARK_LABEL,
    FIXED_CAPITAL,
    REINVEST,
    BacktestConfig,
    CommissionPlan,
    run_strategies,
)
from fracparity.data import ROLE_BENCHMARK, ROLE_PORTFOLIO, AlignedPanel, AssetSpec
from fracparity.fractal import HurstConfig

MAX_EXAMPLES = 200  # about 1.5 s on a 2-vCPU machine
RTOL = ATOL = 1e-12  # percent returns of O(1), and currency amounts
# the default estimator needs lookbacks of 33 rows; this looser one fits from 17
LOOSE_HURST = {"min_windows": 2, "max_rungs": 64}
COMMISSIONS = st.fixed_dictionaries({
    "per_share": st.sampled_from([0.0, 0.0035, 0.01]),
    "min_per_order": st.sampled_from([0.0, 0.35, 25.0]),  # 25 binds below 2,500 shares
    "max_pct_of_value": st.sampled_from([0.0, 0.5, 1.0, 3.0]),
})


@st.composite
def walks(draw):
    n_assets = draw(st.integers(2, 6))
    n = draw(st.integers(17, 48))
    rows = (draw(st.integers(3, 8)) + 1) * n + draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # drifts low enough that the trend filter sometimes empties a lookback
    drifts = rng.uniform(-0.003, 0.003, n_assets + 1)
    steps = rng.standard_normal((rows, n_assets + 1)) * rng.uniform(0.005, 0.03, n_assets + 1)
    prices = rng.uniform(5.0, 500.0, n_assets + 1) * np.exp(np.cumsum(steps + drifts, axis=0))
    roles = [ROLE_PORTFOLIO] * n_assets
    roles.insert(draw(st.integers(0, n_assets)), ROLE_BENCHMARK)
    expense = [draw(st.sampled_from([0.0, 0.09, 0.4, 1.2])) for _ in roles]
    loose = n < 33 or draw(st.booleans())
    return dict(
        rows=prices.tolist(), expense_ratios=expense, roles=roles, n=n,
        strategy=draw(st.sampled_from([*(v.value for v in StrategyVariant), BENCHMARK_LABEL])),
        capital=draw(st.floats(1e4, 1e7)), commission=draw(COMMISSIONS),
        mode=draw(st.sampled_from([FIXED_CAPITAL, REINVEST])),
        hurst_options=LOOSE_HURST if loose else None,
    )


def engine_walk(case):
    """The engine's run of ``case``'s strategy, over a panel of its rows."""
    assets = tuple(
        AssetSpec("BMK" if role == ROLE_BENCHMARK else f"A{j}", expense_ratio=e, role=role)
        for j, (role, e) in enumerate(zip(case["roles"], case["expense_ratios"]))
    )
    dates = business_days(dt.date(2011, 3, 1), len(case["rows"]))
    ordinals = [d.toordinal() for d in dates]
    panel = AlignedPanel(ordinals=ordinals, assets=assets, prices=np.array(case["rows"]))
    config = BacktestConfig(
        horizon_n=case["n"], initial_capital=case["capital"],
        commission=CommissionPlan(**case["commission"]), compounding=case["mode"],
        benchmark="BMK", hurst=HurstConfig(**(case["hurst_options"] or {})),
    )
    results, _ = run_strategies(panel, config, [case["strategy"]])[case["strategy"]]
    return dates, results


def close(got: float, want: float) -> bool:
    return got == pytest.approx(want, rel=RTOL, abs=ATOL)


@settings(max_examples=MAX_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=walks())
def test_engine_walk_matches_the_oracle_walk(case):
    dates, results = engine_walk(case)
    want = oracles.walk(**case)
    assert len(results) == len(want) >= 3
    held = np.zeros(case["roles"].count(ROLE_PORTFOLIO), np.int64)
    for k, (got, period) in enumerate(zip(results, want)):
        assert (got.start_date, got.end_date) == (
            dates[period["trade_row"]], dates[period["mark_row"]]
        ), k
        if period["shares"] is None:
            assert got.weights is None and got.trades is None
        else:
            trades = list(zip(got.trades.columns.tolist(), got.trades.shares.tolist()))
            assert trades == period["trades"], k
            held[got.trades.columns] += got.trades.shares
            assert held.tolist() == period["shares"], k
        for name, value in (("gross", got.gross_return), ("drag", got.expense_drag),
                            ("commission", got.commission_cost), ("net", got.net_return),
                            ("start_capital", got.start_capital),
                            ("end_capital", got.end_capital)):
            assert close(value, period[name]), (k, name, value, period[name])
