"""Seeded inputs for the benchmark workloads.

Price panels follow the geometric random walk of the test suite's
``synthetic_panel``: per-asset drift and volatility drawn uniformly, normal
daily log steps, prices starting at 100. They are written as one
``date,adj_close`` CSV per asset plus a YAML run configuration, which is all
the program under test receives. The stable-law grid is a list of
``(r, alpha, beta)`` points. The same seed always gives the same files and
the same grid.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

DRIFT_RANGE = (-0.0005, 0.0015)
VOL_RANGE = (0.006, 0.015)
BENCHMARK_TICKER = "BMK"


def business_days(start: dt.date, count: int) -> list[dt.date]:
    days = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def random_walk_prices(rng: np.random.Generator, n_rows: int, n_cols: int) -> np.ndarray:
    """(n_rows, n_cols) strictly positive closes, first row at 100."""
    drifts = rng.uniform(*DRIFT_RANGE, size=n_cols)
    vols = rng.uniform(*VOL_RANGE, size=n_cols)
    steps = rng.standard_normal((n_rows, n_cols)) * vols + drifts
    steps[0, :] = 0.0
    return 100.0 * np.exp(np.cumsum(steps, axis=0))


def write_panel(
    out_dir: Path,
    seed: int,
    n_assets: int,
    n_rows: int,
    horizon: int,
    start: dt.date = dt.date(2010, 1, 4),
    drop_fraction: float = 0.0,
) -> Path:
    """Write ``n_assets`` portfolio CSVs, one benchmark CSV and a config.

    With ``drop_fraction > 0`` every series independently loses that share
    of its dates, so the program's date intersection has to discard rows.
    Returns the path of the YAML configuration.
    """
    rng = np.random.default_rng(seed)
    n_cols = n_assets + 1
    prices = random_walk_prices(rng, n_rows, n_cols)
    keep = rng.random((n_rows, n_cols)) >= drop_fraction
    iso = [d.isoformat() for d in business_days(start, n_rows)]
    tickers = [f"A{i:03d}" for i in range(n_assets)] + [BENCHMARK_TICKER]

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["universe:"]
    for j, ticker in enumerate(tickers):
        csv_name = f"{ticker.lower()}.csv"
        rows = [f"{iso[i]},{prices[i, j]:.6f}\n" for i in np.flatnonzero(keep[:, j])]
        (out_dir / csv_name).write_text("date,adj_close\n" + "".join(rows))
        if ticker == BENCHMARK_TICKER:
            entry = f"{{ticker: {ticker}, csv: {csv_name}, expense_ratio: 0.0, role: benchmark}}"
        else:
            expense = 0.05 * (j % 10 + 1)
            entry = (
                f"{{ticker: {ticker}, csv: {csv_name}, expense_ratio: {expense:.2f}, "
                "role: portfolio_asset}"
            )
        lines.append(f"  - {entry}")
    lines += [
        f"benchmark: {BENCHMARK_TICKER}",
        f"horizon: {horizon}",
        "variants: [fractal_biased, standard_biased, naive_risk_parity]",
        "initial_capital: 1000000",
        "compounding: fixed_capital",
        "commission: {per_share: 0.0035, min_per_order: 0.35, max_pct_of_value: 1.0}",
    ]
    config = out_dir / "universe.yaml"
    config.write_text("\n".join(lines) + "\n")
    return config


def stable_grid(
    seed: int, n_random: int, n_mirror: int, n_anchor: int
) -> tuple[list[tuple[float, float, float]], dict[int, int]]:
    """Points ``(r, alpha, beta)`` for the stable-law workload.

    ``n_random`` points draw alpha from [0.5, 2], beta from [-1, 1] and r as
    2 * Student-t(3). The first ``n_mirror`` of them are repeated as
    ``(-r, alpha, -beta)``. Then come ``n_anchor`` Gaussian (alpha = 2) and
    ``n_anchor`` Cauchy (alpha = 1, beta = 0) points on [-5, 5]. Also returns
    the mirror pairs, each index mapped to its partner.
    """
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.5, 2.0, n_random)
    betas = rng.uniform(-1.0, 1.0, n_random)
    rs = 2.0 * rng.standard_t(3, n_random)
    points = [(float(r), float(a), float(b)) for r, a, b in zip(rs, alphas, betas)]
    points += [(-r, a, -b) for r, a, b in points[:n_mirror]]
    mirror = {i: n_random + i for i in range(n_mirror)}
    mirror.update({j: i for i, j in mirror.items()})
    anchors = rng.uniform(-5.0, 5.0, (2, n_anchor))
    points += [(float(z), 2.0, 0.0) for z in anchors[0]]
    points += [(float(z), 1.0, 0.0) for z in anchors[1]]
    return points, mirror
