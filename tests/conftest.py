from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np
import pytest

from fracparity.data import AlignedPanel, AssetSpec, ROLE_BENCHMARK

FIXTURES = Path(__file__).parent / "fixtures"


def business_days(start: dt.date, count: int) -> tuple[dt.date, ...]:
    days = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return tuple(days)


def trade_rows(trades) -> list[tuple]:
    """One ``(column, shares, price, fee)`` tuple per order of a rebalance's trades."""
    vectors = (trades.columns, trades.shares, trades.prices, trades.fees)
    return list(zip(*(v.tolist() for v in vectors), strict=True))


def synthetic_panel(
    seed: int,
    n_rows: int,
    n_assets: int = 4,
    with_benchmark: bool = True,
    drift_range: tuple[float, float] = (-0.0005, 0.0015),
    vol_range: tuple[float, float] = (0.006, 0.015),
) -> AlignedPanel:
    """Geometric random-walk panel; strictly positive by construction."""
    rng = np.random.default_rng(seed)
    total = n_assets + (1 if with_benchmark else 0)
    drifts = rng.uniform(*drift_range, size=total)
    vols = rng.uniform(*vol_range, size=total)
    steps = rng.standard_normal((n_rows, total)) * vols + drifts
    steps[0, :] = 0.0
    prices = 100.0 * np.exp(np.cumsum(steps, axis=0))
    assets = [AssetSpec(f"A{i}", expense_ratio=0.1 * (i + 1)) for i in range(n_assets)]
    if with_benchmark:
        assets.append(AssetSpec("BMK", expense_ratio=0.0, role=ROLE_BENCHMARK))
    return AlignedPanel(
        dates=business_days(dt.date(2010, 1, 4), n_rows),
        assets=tuple(assets),
        prices=prices,
    )


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def panel_config_path() -> Path:
    return FIXTURES / "panel4" / "universe.yaml"
