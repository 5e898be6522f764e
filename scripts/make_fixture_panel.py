#!/usr/bin/env python3
"""Regenerate the committed synthetic test fixtures.

Writes the 4-asset-plus-benchmark panel under tests/fixtures/panel4/ and
the small series fixtures under tests/fixtures/series/. The benchmark
column is engineered so that one holding period returns exactly -36%
from its running peak, pinning the protection metric at 64 by
construction; everything else is seeded geometric noise. Deterministic:
rerunning reproduces identical files.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

HORIZON = 63
N_PERIODS = 5
ROWS = (N_PERIODS + 1) * HORIZON  # one lookback block plus five holding blocks
SEED = 2024

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# per-period benchmark anchors (start value, end value) at exact decimals, each
# start the previous end, as consecutive periods share an endpoint; period 1 is
# the engineered crash from the running peak
BENCH_WINDOWS = [
    (100.0, 105.0),       # +5%
    (105.0, 67.2),        # -36%
    (67.2, 72.576),       # +8%
    (72.576, 76.93056),   # +6%
    (76.93056, 80.776088),  # +5%
]

PORTFOLIO = [
    # ticker, expense ratio %, daily drift, daily vol (log scale)
    ("EQT", 0.09, 0.0012, 0.011),
    ("BND", 0.15, 0.0005, 0.006),
    ("REI", 0.43, -0.0004, 0.013),
    ("CMD", 0.40, 0.0008, 0.009),
]


def business_days(start: dt.date, count: int) -> list[dt.date]:
    days = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def holding_rows(k: int) -> tuple[int, int]:
    """(trade row, mark row) of holding period ``k`` at HORIZON: the rows BENCH_WINDOWS anchors.

    The walk's period rule: period ``k`` looks back over rows ``[k*N, (k+1)*N)``,
    trades at row ``(k+1)*N - 1``, the last lookback row, and is marked at row
    ``(k+2)*N - 1``, where period ``k + 1`` trades.
    """
    lookback_end = (k + 1) * HORIZON
    return lookback_end - 1, lookback_end + HORIZON - 1


def benchmark_column() -> np.ndarray:
    values = np.empty(ROWS)
    first, _ = holding_rows(0)
    values[:first] = np.geomspace(96.0, 99.5, first)
    for k, (start, end) in enumerate(BENCH_WINDOWS):
        trade, mark = holding_rows(k)
        seg = np.geomspace(start, end, mark + 1 - trade)
        seg[0] = start
        seg[-1] = end
        values[trade : mark + 1] = seg
    return values


def portfolio_columns(rng: np.random.Generator) -> dict[str, np.ndarray]:
    columns = {}
    for i, (ticker, _, drift, vol) in enumerate(PORTFOLIO):
        steps = rng.normal(drift, vol, ROWS)
        steps[0] = 0.0
        columns[ticker] = (80.0 + 20.0 * i) * np.exp(np.cumsum(steps))
    return columns


def write_series(path: Path, dates: list[dt.date], values: np.ndarray) -> None:
    lines = ["date,adj_close"]
    lines += [f"{d.isoformat()},{v:.6f}" for d, v in zip(dates, values)]
    path.write_text("\n".join(lines) + "\n")


def write_panel() -> None:
    out = FIXTURES / "panel4"
    out.mkdir(parents=True, exist_ok=True)
    dates = business_days(dt.date(2010, 1, 4), ROWS)
    rng = np.random.default_rng(SEED)

    for ticker, values in portfolio_columns(rng).items():
        write_series(out / f"{ticker.lower()}.csv", dates, values)
    write_series(out / "bmk.csv", dates, benchmark_column())

    universe_lines = ["universe:"]
    for ticker, expense, _, _ in PORTFOLIO:
        universe_lines.append(
            f"  - {{ticker: {ticker}, csv: {ticker.lower()}.csv, "
            f"expense_ratio: {expense}, role: portfolio_asset}}"
        )
    universe_lines += [
        "  - {ticker: BMK, csv: bmk.csv, expense_ratio: 0.0, role: benchmark}",
        "benchmark: BMK",
        f"horizon: {HORIZON}",
        "variants: [fractal_biased, standard_biased, naive_risk_parity]",
        "initial_capital: 1000000",
        "compounding: fixed_capital",
        "commission: {per_share: 0.0035, min_per_order: 0.35, max_pct_of_value: 1.0}",
    ]
    (out / "universe.yaml").write_text("\n".join(universe_lines) + "\n")


def write_small_series() -> None:
    out = FIXTURES / "series"
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(13)
    walk = np.cumsum(rng.standard_normal(513))
    (out / "randwalk.csv").write_text(
        "value\n" + "\n".join(f"{v:.6f}" for v in walk) + "\n"
    )
    ramp = np.arange(129) * 0.5 + 10.0
    (out / "ramp.csv").write_text("value\n" + "\n".join(f"{v:.6f}" for v in ramp) + "\n")
    (out / "tooshort.csv").write_text("value\n1.0\n2.0\n3.0\n2.0\n1.0\n")


if __name__ == "__main__":
    write_panel()
    write_small_series()
    print(f"fixtures written under {FIXTURES}")
