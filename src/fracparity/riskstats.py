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
"""

from __future__ import annotations

import numpy as np

from .errors import Empty, InvalidHurst, NonPositivePrice, TooShort


def log_returns(prices, ticker: str | None = None) -> np.ndarray:
    """Percent log returns: ``r[..., k] = 100 * (ln p[..., k+1] - ln p[..., k])``."""
    p = np.asarray(prices, dtype=float)
    if p.ndim not in (1, 2):
        raise ValueError(f"prices must be 1-d or one row per asset, got shape {p.shape}")
    if p.shape[-1] < 2:
        raise TooShort(f"need at least 2 prices, got {p.shape[-1]}")
    if np.any(p <= 0.0):
        raise NonPositivePrice(ticker or "<series>", None, float(p.min()))
    r = 100.0 * np.diff(np.log(p), axis=-1)
    if not np.all(np.isfinite(r)):
        raise ValueError(f"{ticker or '<series>'}: non-finite return")
    return r


def mean_return(returns):
    """Arithmetic mean of the returns, percent per day."""
    v = np.asarray(returns, dtype=float)
    if v.shape[-1] == 0:
        raise Empty("mean of an empty return series")
    return np.mean(v, axis=-1)


def unbiased_std(returns):
    """Sample standard deviation with the n-1 denominator."""
    v = np.asarray(returns, dtype=float)
    if v.shape[-1] < 2:
        raise TooShort(f"need at least 2 returns for a standard deviation, got {v.shape[-1]}")
    return np.std(v, axis=-1, ddof=1)


def rescale_volatility(std0, n: int, h):
    """Rescale one-day standard deviations to an n-day horizon: std0 * n**h.

    ``std0`` and ``h`` may be scalars or arrays of the same shape.
    """
    if (np.asarray(std0) < 0.0).any():
        raise ValueError(f"std0 must be non-negative, got {std0}")
    if n < 1:
        raise ValueError(f"horizon must be >= 1 day, got {n}")
    h_arr = np.asarray(h)
    if not ((h_arr > 0.0) & (h_arr <= 1.0)).all():
        raise InvalidHurst(f"h must be in (0, 1], got {h}")
    return std0 * float(n) ** h
