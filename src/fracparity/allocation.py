"""Turning a lookback window into portfolio weights.

Three variants share one skeleton. Both biased variants drop assets whose
mean lookback return is non-positive, rescale each survivor's daily
volatility to the holding horizon, and weight survivors by inverse rescaled
volatility; they differ only in where the exponent comes from (estimated
per asset vs pinned at 0.5). Naive risk parity skips the trend filter and
weights every asset by inverse daily volatility, which matches the biased
pipelines up to the horizon factor that normalization cancels anyway.

Lookbacks are handled in array passes over all portfolio columns.
:func:`lookback_stats`, shared by every variant, views the panel's percent
log returns as an (assets x lookbacks x days) array; the means and ddof=1
deviations of every lookback are each one call along the days.
:func:`compute_weights` runs one variant on one lookback: minimal-cover
paths and Hurst fits are one call along the rows, and the trend filter, the
``h`` clamp and the inverse-volatility weights are masked array operations.
The per-asset diagnostics are vectors on :class:`PortfolioWeights`, one
entry per ticker, and are not kept in any other form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import AlignedPanel
from .errors import DegenerateVolatility, Empty, LengthMismatch
from .fractal import HurstConfig, build_path, fit_hurst_rows
from .fractal import estimate_hurst  # noqa: F401  (perfbench/tracing.py wraps this binding)
from .riskstats import log_returns  # noqa: F401  (perfbench/tracing.py wraps this binding)
from .riskstats import mean_return, rescale_volatility, unbiased_std

WEIGHT_BUDGET_TOL = 1e-12


class StrategyVariant(str, Enum):
    FRACTAL_BIASED = "fractal_biased"
    STANDARD_BIASED = "standard_biased"
    NAIVE_RISK_PARITY = "naive_risk_parity"


@dataclass(eq=False)
class PortfolioWeights:
    """Long-only weights per asset plus the cash remainder.

    Weights are normalized to full investment whenever any asset survives;
    cash is 1 only when the trend filter removed everything.

    The diagnostics the weights were built from are vectors in ``tickers``
    order: ``mu`` and ``std0`` (mean and ddof=1 deviation of the percent log
    returns, per day), the exponent ``h``, the horizon deviation ``std_n``,
    and the r² and clamp flag of each minimal-cover fit (``r_squared``,
    ``clamped``). Only the active assets of ``fractal_biased`` are fitted;
    every other column holds NaN and False.
    """

    tickers: tuple[str, ...]
    weights: np.ndarray
    cash: float
    mu: np.ndarray | None = None
    std0: np.ndarray | None = None
    h: np.ndarray | None = None
    std_n: np.ndarray | None = None
    r_squared: np.ndarray | None = None
    clamped: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.tickers),):
            raise LengthMismatch(
                f"{len(self.tickers)} tickers vs weights shape {self.weights.shape}"
            )
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be non-negative (long-only)")
        if self.cash < 0.0:
            raise ValueError(f"cash must be non-negative, got {self.cash}")
        budget = float(np.sum(self.weights)) + self.cash
        if abs(budget - 1.0) > WEIGHT_BUDGET_TOL:
            raise ValueError(f"weights + cash = {budget!r}, expected 1")
        if np.any(self.weights > 0.0) and self.cash != 0.0:
            raise ValueError("cash must be zero when any asset is held")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.tickers, (float(w) for w in self.weights)))


def inverse_volatility_weights(stds: np.ndarray) -> np.ndarray:
    """Normalize 1/std across assets; uniform rescaling of stds cancels."""
    stds = np.asarray(stds, dtype=float)
    if stds.size == 0:
        raise Empty("no volatilities to weight")
    if np.any(stds <= 0.0):
        raise DegenerateVolatility(f"non-positive volatility among {stds}")
    inv = 1.0 / stds
    return inv / np.sum(inv)


@dataclass(frozen=True, eq=False)
class LookbackStats:
    """A lookback's percent log returns (read-only, a row per column), means and ddof=1 stds."""

    tickers: tuple[str, ...]
    returns: np.ndarray
    mu: np.ndarray
    std0: np.ndarray


def lookback_stats(window: AlignedPanel, n: int) -> list[LookbackStats]:
    """Statistics of each consecutive ``n``-row block of a window, in row order.

    ``n`` must divide the window's rows. A block's returns are the ``n - 1``
    within its rows; the return that crosses into the next block is left out,
    and so are the benchmark-role columns.
    """
    if n < 1 or window.n_rows < n or window.n_rows % n:
        raise LengthMismatch(f"window has {window.n_rows} rows, not a multiple of horizon {n}")
    if not window.portfolio_columns.size:
        raise Empty("window contains no portfolio assets")
    # (assets x blocks x n - 1): block k starts at return k*n, each a contiguous run of a row
    blocks = sliding_window_view(window.returns, n - 1, axis=-1)[:, ::n]
    mu, std0 = mean_return(blocks), unbiased_std(blocks)
    per_block = zip(blocks.swapaxes(0, 1), mu.T, std0.T)
    return [LookbackStats(window.portfolio_tickers, r, m, s) for r, m, s in per_block]


def compute_weights(
    stats: LookbackStats,
    variant: StrategyVariant,
    n: int,
    hurst_config: HurstConfig = HurstConfig(),
) -> PortfolioWeights:
    """Run one variant's pipeline on the statistics of an ``n``-row lookback window.

    When a biased variant filters out every asset the result is all zeros
    with cash = 1.
    """
    variant = StrategyVariant(variant)
    tickers, mus, std0s = stats.tickers, stats.mu, stats.std0
    # the trend filter drops an asset with a non-positive mean return; naive risk parity has none
    active = (mus > 0.0) | (variant is StrategyVariant.NAIVE_RISK_PARITY)
    flat = np.flatnonzero(active & (std0s == 0.0))
    if flat.size:
        raise DegenerateVolatility(f"{tickers[flat[0]]}: zero volatility over the window")

    h = np.full(len(tickers), 0.5)
    r_squared = np.full(len(tickers), np.nan)
    clamped = np.zeros(len(tickers), dtype=bool)
    if variant is StrategyVariant.FRACTAL_BIASED and active.any():
        fit = fit_hurst_rows(build_path(stats.returns[active]), hurst_config)
        h[active], r_squared[active], clamped[active] = fit.h, fit.r_squared, fit.clamped
    std_n = rescale_volatility(std0s, n, h)

    # naive weighting uses the daily deviation; biased variants the
    # horizon-rescaled one (a shared factor would cancel anyway)
    std_invest = std0s if variant is StrategyVariant.NAIVE_RISK_PARITY else std_n
    weights = np.zeros(len(tickers))
    if active.any():
        weights[active] = inverse_volatility_weights(std_invest[active])
        cash = 0.0
    else:
        cash = 1.0
    return PortfolioWeights(
        tickers=tickers, weights=weights, cash=cash,
        mu=mus, std0=std0s, h=h, std_n=std_n, r_squared=r_squared, clamped=clamped,
    )
