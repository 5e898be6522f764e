"""Turning a lookback window into portfolio weights.

The three variants are one rule: keep the assets a trend mask lets through,
rescale each survivor's daily volatility to the holding horizon as
``std_n = std0 * N**h``, and weight survivors by inverse ``std_n``. Both
biased variants drop assets whose mean lookback return is non-positive and
differ only in where ``h`` comes from (estimated per asset vs pinned at
0.5); naive risk parity keeps every asset and weights by ``std_n`` at
``h = 0.5``.

Lookbacks are handled in array passes over all portfolio columns.
:func:`lookback_stats` views a window's percent log returns
(:func:`fracparity.data.log_returns`) as a (lookbacks x assets x days)
array; the means and ddof=1 deviations of every lookback are each one
call along the days (:func:`mean_return`, :func:`unbiased_std`, which,
like :func:`rescale_volatility`, work along the last axis and keep the
percent units). These :class:`Lookbacks` are shared by every variant
and, kept per panel and horizon by
:func:`fracparity.backtest.run_strategies`, by every walk at that
horizon, so they are read-only. Every step of a variant but a
lookback's normalization is elementwise, so :func:`weights_plan` computes
them for every lookback of a walk at once: the trend mask, ``h`` and the
fit diagnostics (``fractal_biased`` builds and fits the paths of the
trend survivors of every lookback in one call along the rows) and the
horizon deviations; it then normalizes each lookback's inverse horizon
deviations over its active assets, in row order, into the plan's
(lookbacks x assets) ``weights`` block. It is also where a walk's data
errors are raised (a flat active asset, a constant fitted path), before
the walk's first period. A walk builds one plan per variant and drops it
when it ends. A period's weights are its row of the plan:
:func:`compute_weights` does no arithmetic, and its
:class:`PortfolioWeights` holds the row's views of the plan's and the
lookbacks' blocks, one entry per ticker. Weights and diagnostics are not
kept in any other form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import AlignedPanel
from .data import log_returns  # noqa: F401  (perfbench/tracing.py wraps this binding)
from .errors import DegenerateVolatility, Empty
from .fractal import HurstConfig, build_path, fit_hurst_rows
from .fractal import estimate_hurst  # noqa: F401  (perfbench/tracing.py wraps this binding)


class StrategyVariant(str, Enum):
    FRACTAL_BIASED = "fractal_biased"
    STANDARD_BIASED = "standard_biased"
    NAIVE_RISK_PARITY = "naive_risk_parity"


@dataclass(eq=False)
class PortfolioWeights:
    """Long-only weights per asset plus the cash remainder.

    Weights are normalized to full investment whenever any asset survives;
    cash is 1 only when the trend filter removed everything.
    :func:`compute_weights` returns a period's as its row of the plan's
    normalized ``weights``, and they are not re-checked.

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


def mean_return(returns):
    """Arithmetic mean of percent returns along the last axis, percent per day."""
    return np.mean(np.asarray(returns, dtype=float), axis=-1)


def unbiased_std(returns):
    """Sample standard deviation along the last axis, with the n-1 denominator."""
    return np.std(np.asarray(returns, dtype=float), axis=-1, ddof=1)


def rescale_volatility(std0, n: int, h):
    """Rescale one-day standard deviations to an n-day horizon: ``std0 * n**h``.

    At ``h = 0.5`` this is the square-root-of-time rule. ``std0`` and ``h``
    may be scalars or arrays of the same shape.
    """
    return std0 * float(n) ** h


def inverse_volatility_weights(stds: np.ndarray) -> np.ndarray:
    """Normalize 1/std across assets (each std > 0); uniform rescaling of stds cancels."""
    inv = 1.0 / stds
    return inv / inv.sum()


@dataclass(frozen=True, eq=False)
class Lookbacks:
    """The percent log returns, means and ddof=1 deviations of a walk's lookbacks.

    ``returns`` is a (lookbacks x assets x N-1) view, ``mu`` and ``std0``
    are (lookbacks x assets) blocks, with the assets in ``tickers`` order.
    Every walk at N over the panel reads them, so all three are read-only.
    """

    tickers: tuple[str, ...]
    returns: np.ndarray
    mu: np.ndarray
    std0: np.ndarray


def lookback_stats(window: AlignedPanel, n: int) -> Lookbacks:
    """Statistics of each consecutive ``n``-row block of a window, in row order.

    ``n`` must divide the window's rows, as in every walk's window of
    ``n_periods * n`` rows (``n >= 8`` is ``BacktestConfig``'s rule, so a
    block has at least 7 returns). A block's returns are the ``n - 1``
    within its rows; the return that crosses into the next block is left
    out, and so are the benchmark-role columns.
    """
    if not window.portfolio_columns.size:
        raise Empty("window contains no portfolio assets")
    # (assets x blocks x n - 1): block k starts at return k*n, each a contiguous run of a row
    blocks = sliding_window_view(window.returns, n - 1, axis=-1)[:, ::n]
    mu, std0 = mean_return(blocks).T, unbiased_std(blocks).T  # lookbacks x assets
    for block in (mu, std0):
        block.flags.writeable = False
    return Lookbacks(window.portfolio_tickers, blocks.swapaxes(0, 1), mu, std0)


@dataclass(frozen=True, eq=False)
class WeightsPlan:
    """A variant's normalized weights for every lookback of a walk, with their diagnostics.

    ``weights`` (each lookback's inverse-volatility weights over its active
    assets, zero elsewhere), ``active`` (the trend mask), ``h``,
    ``r_squared``, ``clamped`` and ``std_n`` are (lookbacks x assets)
    blocks; a period's weights are its row.
    """

    lookbacks: Lookbacks
    weights: np.ndarray
    active: np.ndarray
    h: np.ndarray
    r_squared: np.ndarray
    clamped: np.ndarray
    std_n: np.ndarray


def weights_plan(
    lookbacks: Lookbacks, variant: StrategyVariant, config: HurstConfig = HurstConfig()
) -> WeightsPlan:
    """``variant``'s :class:`WeightsPlan` over every lookback of ``lookbacks``.

    ``fractal_biased`` fits the trend-surviving rows (``mu > 0``) of every
    lookback with ``config`` in one call; a row's fit reads that row alone.
    Raises :class:`DegenerateVolatility` for an active asset with zero
    volatility in some lookback and ``DegeneratePath`` for a fitted path
    whose variation vanishes, so a walk fails before its first period.
    """
    mu, std0 = lookbacks.mu, lookbacks.std0
    # the trend filter drops an asset with a non-positive mean return; naive has none
    active = (mu > 0.0) | (variant is StrategyVariant.NAIVE_RISK_PARITY)
    zero = active & (std0 == 0.0)
    if zero.any():
        j = np.argwhere(zero)[0, 1]  # the first in lookback order, then column order
        raise DegenerateVolatility(f"{lookbacks.tickers[j]}: zero volatility over the window")
    h = np.full(mu.shape, 0.5)
    r_squared = np.full(mu.shape, np.nan)
    clamped = np.zeros(mu.shape, dtype=bool)
    if variant is StrategyVariant.FRACTAL_BIASED and active.any():
        # rows lookback by lookback, in column order within each
        fit = fit_hurst_rows(build_path(lookbacks.returns[active]), config)
        h[active], r_squared[active], clamped[active] = fit.h, fit.r_squared, fit.clamped
    # a lookback of n rows holds n - 1 returns
    std_n = rescale_volatility(std0, lookbacks.returns.shape[-1] + 1, h)
    weights = np.zeros(mu.shape)
    for w, row, stds in zip(weights, active, std_n):  # each lookback normalized on its own
        w[row] = inverse_volatility_weights(stds[row])
    return WeightsPlan(lookbacks, weights, active, h, r_squared, clamped, std_n)


def compute_weights(plan: WeightsPlan, k: int) -> PortfolioWeights:
    """The weights of lookback ``k`` of ``plan``'s walk, with their diagnostics.

    Every field is row ``k`` of a block of the plan or its lookbacks; the
    weights are the plan's normalized row. When a biased variant filters
    out every asset the weights are all zeros with cash = 1.
    """
    lookbacks = plan.lookbacks
    return PortfolioWeights(
        tickers=lookbacks.tickers, weights=plan.weights[k],
        cash=0.0 if plan.active[k].any() else 1.0,
        mu=lookbacks.mu[k], std0=lookbacks.std0[k], h=plan.h[k], std_n=plan.std_n[k],
        r_squared=plan.r_squared[k], clamped=plan.clamped[k],
    )
