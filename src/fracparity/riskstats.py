"""Per-asset return statistics and horizon rescaling of volatility.

Returns are daily log returns in percent (100 * delta-log-price); every
standard deviation downstream inherits those units. The horizon rescaling
``std_n = std0 * n**h`` reduces to the familiar square-root-of-time rule at
``h = 0.5`` and is the only place the two allocation pipelines differ.

Every function works along the last axis: a 1-d array is one series (a
numpy float result), and a 2-d block with one row per asset gives one
result per asset in a single array pass. The walk-forward engine takes a
panel's returns in one call, and the means and deviations of an (assets x
lookbacks x days) view of them, every lookback of a walk, in one call each.

Inputs are checked where they enter, not here: prices (the CSV readers,
``hurst --prices``, ``AlignedPanel``), ``h`` (``HurstConfig``, ``BacktestConfig``),
a Hurst path's length (its scale ladder, ``fractal.hurst_scales``) and the
length of a lookback (``BacktestConfig``'s ``horizon_n >= 8``, so each of
the engine's series has at least 7 returns).
"""

from __future__ import annotations

import numpy as np


def log_returns(prices) -> np.ndarray:
    """Percent log returns: ``r[..., k] = 100 * (ln p[..., k+1] - ln p[..., k])``."""
    return 100.0 * np.diff(np.log(np.asarray(prices, dtype=float)), axis=-1)


def mean_return(returns):
    """Arithmetic mean of the returns, percent per day."""
    return np.mean(np.asarray(returns, dtype=float), axis=-1)


def unbiased_std(returns):
    """Sample standard deviation with the n-1 denominator."""
    return np.std(np.asarray(returns, dtype=float), axis=-1, ddof=1)


def rescale_volatility(std0, n: int, h):
    """Rescale one-day standard deviations to an n-day horizon: std0 * n**h.

    ``std0`` and ``h`` may be scalars or arrays of the same shape.
    """
    return std0 * float(n) ** h
