"""Turning a lookback window into portfolio weights.

Three variants share one skeleton. Both biased variants drop assets whose
mean lookback return is non-positive, rescale each survivor's daily
volatility to the holding horizon, and weight survivors by inverse rescaled
volatility; they differ only in where the exponent comes from (estimated
per asset vs pinned at 0.5). Naive risk parity skips the trend filter and
weights every asset by inverse daily volatility, which matches the biased
pipelines up to the horizon factor that normalization cancels anyway.

Lookbacks are handled in array passes over all portfolio columns.
:func:`lookback_stats`, shared by every variant and, kept per panel by
:func:`fracparity.backtest.run_strategies`, by every walk at the same
horizon, views the panel's percent log returns as an (assets x lookbacks
x days) array; the means and ddof=1 deviations of every lookback are each
one call along the days. The first time
``fractal_biased`` asks for a lookback's Hurst fit, the minimal-cover paths
and fits of the trend-surviving rows of every lookback of the walk are
made in one call along the rows; each period reads its own run of rows
and rejects its own constant paths. What is shared is read-only.
:func:`compute_weights` runs one variant on one lookback: the trend
filter, the ``h`` clamp and the inverse-volatility weights are masked
array operations.
The per-asset diagnostics are vectors on :class:`PortfolioWeights`, one
entry per ticker, and are not kept in any other form.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import AlignedPanel
from .errors import DegenerateVolatility, Empty, LengthMismatch
from .fractal import HurstConfig, HurstFit, build_path, fit_hurst_rows, require_variation
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
        if (self.weights < 0.0).any():
            raise ValueError("weights must be non-negative (long-only)")
        if self.cash < 0.0:
            raise ValueError(f"cash must be non-negative, got {self.cash}")
        budget = float(self.weights.sum()) + self.cash
        if abs(budget - 1.0) > WEIGHT_BUDGET_TOL:
            raise ValueError(f"weights + cash = {budget!r}, expected 1")
        if (self.weights > 0.0).any() and self.cash != 0.0:
            raise ValueError("cash must be zero when any asset is held")


def inverse_volatility_weights(stds: np.ndarray) -> np.ndarray:
    """Normalize 1/std across assets (each std > 0); uniform rescaling of stds cancels."""
    inv = 1.0 / stds
    return inv / inv.sum()


@dataclass(frozen=True, eq=False)
class LookbackStats:
    """A lookback's percent log returns (a row per column), means and ddof=1 stds.

    ``walk_fit(config)`` is the walk's one Hurst fit per configuration, made
    on first request, of the trend-surviving rows (``mu > 0``) of every
    lookback: ``(bounds, fit)``, lookback ``index``'s rows running from
    ``bounds[index]`` to ``bounds[index + 1]``. Every walk at this horizon
    over the panel shares these statistics and fits, so all their arrays
    are read-only.
    """

    tickers: tuple[str, ...]
    returns: np.ndarray
    mu: np.ndarray
    std0: np.ndarray
    walk_fit: Callable[[HurstConfig], tuple[np.ndarray, HurstFit]]
    index: int


def lookback_stats(window: AlignedPanel, n: int) -> list[LookbackStats]:
    """Statistics of each consecutive ``n``-row block of a window, in row order.

    ``n`` must divide the window's rows. A block's returns are the ``n - 1``
    within its rows; the return that crosses into the next block is left out,
    and so are the benchmark-role columns. The returns, ``mu`` and ``std0``
    blocks and the vectors of each Hurst fit are read-only, as
    :func:`fracparity.backtest.run_strategies` hands them to every walk at
    ``n`` over the panel.
    """
    if n < 1 or window.n_rows < n or window.n_rows % n:
        raise LengthMismatch(f"window has {window.n_rows} rows, not a multiple of horizon {n}")
    if not window.portfolio_columns.size:
        raise Empty("window contains no portfolio assets")
    # (assets x blocks x n - 1): block k starts at return k*n, each a contiguous run of a row
    blocks = sliding_window_view(window.returns, n - 1, axis=-1)[:, ::n]
    mu, std0 = mean_return(blocks).T, unbiased_std(blocks).T  # lookbacks x assets
    returns = blocks.swapaxes(0, 1)
    for block in (mu, std0):  # every walk at this horizon over the panel reads them
        block.flags.writeable = False

    @functools.cache
    def walk_fit(config: HurstConfig) -> tuple[np.ndarray, HurstFit]:
        # rows lookback by lookback, in column order within each; a row's fit reads it alone
        trend = mu > 0.0
        bounds = np.concatenate(([0], np.cumsum(trend.sum(axis=1))))
        fit = fit_hurst_rows(build_path(returns[trend]), config)
        for vector in (bounds, fit.h, fit.mu_index, fit.r_squared, fit.clamped, fit.variations):
            vector.flags.writeable = False
        return bounds, fit

    tickers = window.portfolio_tickers
    return [LookbackStats(tickers, returns[k], mu[k], std0[k], walk_fit, k) for k in range(len(mu))]


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
        bounds, fit = stats.walk_fit(hurst_config)
        run = slice(bounds[stats.index], bounds[stats.index + 1])
        require_variation(fit.variations[run])  # this lookback's rows only
        h[active], r_squared[active] = fit.h[run], fit.r_squared[run]
        clamped[active] = fit.clamped[run]
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
