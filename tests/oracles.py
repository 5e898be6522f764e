"""Independent reference implementations used only by the tests.

Nothing here imports from the package: these are the other side of every
dual-route check (exact-covariance fBm synthesis, closed-form CDFs, plain
statistics on Python floats) and must stay independent of the code paths
they validate.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import math
import operator
import re

import numpy as np


def fbm_path(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Exact-covariance fractional Brownian motion path of n+1 points.

    Fractional Gaussian noise is synthesized by circulant embedding of the
    exact autocovariance (Davies-Harte); if the embedding is not
    non-negative definite the covariance matrix is Cholesky-factored
    instead. The returned path starts at zero.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must be in (0, 1), got {hurst}")
    k = np.arange(n)
    gamma = 0.5 * (
        np.abs(k + 1) ** (2 * hurst)
        - 2 * np.abs(k) ** (2 * hurst)
        + np.abs(k - 1) ** (2 * hurst)
    )
    circ = np.concatenate([gamma, [0.0], gamma[-1:0:-1]])
    eigenvalues = np.fft.fft(circ).real
    if eigenvalues.min() > -1e-8:
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        m = 2 * n
        z = np.zeros(m, dtype=complex)
        z[0] = rng.standard_normal() * math.sqrt(2.0)
        z[n] = rng.standard_normal() * math.sqrt(2.0)
        pairs = rng.standard_normal((n - 1, 2))
        z[1:n] = pairs[:, 0] + 1j * pairs[:, 1]
        z[n + 1 :] = np.conj(z[1:n][::-1])
        fgn = np.fft.ifft(np.sqrt(eigenvalues) * z).real[:n] * math.sqrt(m) / math.sqrt(2.0)
    else:
        cov = np.empty((n, n))
        for i in range(n):
            cov[i, :] = gamma[np.abs(np.arange(n) - i)]
        fgn = np.linalg.cholesky(cov) @ rng.standard_normal(n)
    return np.concatenate([[0.0], np.cumsum(fgn)])


def gaussian_cdf(x: float, mean: float = 0.0, std: float = 1.0) -> float:
    """Normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf((x - mean) / (std * math.sqrt(2.0))))


def cauchy_cdf(x: float, loc: float = 0.0, scale: float = 1.0) -> float:
    """Closed-form Cauchy CDF."""
    return 0.5 + math.atan((x - loc) / scale) / math.pi


def levy_cdf(x: float, loc: float = 0.0, scale: float = 1.0) -> float:
    """Closed-form Levy CDF on the support ``(loc, inf)``."""
    if x <= loc:
        return 0.0
    return math.erfc(math.sqrt(scale / (2.0 * (x - loc))))


def mean(xs) -> float:
    xs = list(map(float, xs))
    return sum(xs) / len(xs)


def sample_std(xs) -> float:
    xs = list(map(float, xs))
    m = mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def sample_cov(xs, ys) -> float:
    xs = list(map(float, xs))
    ys = list(map(float, ys))
    mx, my = mean(xs), mean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / (len(xs) - 1)


def peak_trough_drawdown_pct(values) -> float:
    """Brute-force maximum drawdown over all (peak, trough) index pairs."""
    values = list(map(float, values))
    worst = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            dd = (values[i] - values[j]) / values[i]
            worst = max(worst, dd)
    return 100.0 * worst


def minimal_cover_variation(path, delta: int) -> float:
    """Sum of max-minus-min over consecutive windows of ``delta`` intervals.

    Window ``w`` spans points ``w*delta .. (w+1)*delta`` inclusive, so
    neighbours share a boundary point; a trailing remainder is dropped.
    """
    path = list(map(float, path))
    n_intervals = len(path) - 1
    total = 0.0
    for w in range(n_intervals // delta):
        segment = path[w * delta : (w + 1) * delta + 1]
        total += max(segment) - min(segment)
    return total


def minimal_cover_fit(
    path, h_min=0.1, h_max=1.0, min_windows=4, max_rungs=4
) -> tuple[float, float, bool]:
    """(clamped h, r², clamp hit) of one path from the minimal-cover scaling law.

    Dyadic scales from 2 while at least ``min_windows`` windows fit, the
    ``max_rungs`` largest kept; least-squares slope of ln V on ln delta;
    ``h = 1 + slope`` (the variation index is ``-slope`` and ``h = 1 - mu``).
    r² is one minus residual over total sum of squares (1 for a flat ln V);
    the clamp is hit when ``1 + slope`` lies outside ``[h_min, h_max]``.
    """
    n_intervals = len(path) - 1
    scales = []
    delta = 2
    while n_intervals // delta >= min_windows:
        scales.append(delta)
        delta *= 2
    if max_rungs is not None:
        scales = scales[-max_rungs:]
    xs = [math.log(d) for d in scales]
    ys = [math.log(minimal_cover_variation(path, d)) for d in scales]
    mx, my = mean(xs), mean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    ss_res = sum((y - my - slope * (x - mx)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r_squared = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0) if ss_tot > 0.0 else 1.0
    raw = 1.0 + slope
    return min(max(raw, h_min), h_max), r_squared, not h_min <= raw <= h_max


def minimal_cover_hurst(path, **options) -> float:
    """Clamped Hurst exponent of one path; see :func:`minimal_cover_fit`."""
    return minimal_cover_fit(path, **options)[0]


def window_diagnostics(columns, variant: str, hurst_options=None) -> list[tuple]:
    """(mean, sample std, h, r², clamp hit) of the percent log returns of each price list.

    ``h``, r² and the clamp hit come from :func:`minimal_cover_fit` of the
    cumulative return path for ``fractal_biased`` assets with a positive
    mean; otherwise ``h`` is 0.5, r² is NaN and the clamp is not hit.
    """
    diagnostics = []
    for prices in columns:
        returns = [
            100.0 * (math.log(prices[k + 1]) - math.log(prices[k]))
            for k in range(len(prices) - 1)
        ]
        mu, fit = mean(returns), (0.5, math.nan, False)
        if variant == "fractal_biased" and mu > 0.0:
            path = [0.0]
            for r in returns:
                path.append(path[-1] + r)
            fit = minimal_cover_fit(path, **(hurst_options or {}))
        diagnostics.append((mu, sample_std(returns), *fit))
    return diagnostics


def window_estimates(columns, variant: str, hurst_options=None) -> list[tuple]:
    """(mean, sample std, h) of each price list; see :func:`window_diagnostics`."""
    return [d[:3] for d in window_diagnostics(columns, variant, hurst_options)]


def risk_parity_weights(columns, variant: str, n: int, hurst_options=None) -> list[float]:
    """Weights of one lookback window, one price list per portfolio asset.

    ``fractal_biased`` and ``standard_biased`` keep assets with a positive
    mean return and weight them by ``1 / (std0 * n**h)``;
    ``naive_risk_parity`` weights every asset by ``1 / std0``. All cash
    (every weight zero) when nothing survives the trend filter.
    """
    inverse = []
    for mu, std0, h in window_estimates(columns, variant, hurst_options):
        if variant == "naive_risk_parity":
            inverse.append(1.0 / std0)
        elif mu > 0.0:
            inverse.append(1.0 / (std0 * float(n) ** h))
        else:
            inverse.append(0.0)
    total = sum(inverse)
    return [x / total if total else 0.0 for x in inverse]


def whole_share_trades(weights, capital: float, prices, prior):
    """(asset index, signed share delta) for ``floor(w * capital / price)`` targets."""
    targets = [math.floor(w * capital / p) for w, p in zip(weights, prices)]
    trades = [(i, t - s) for i, (t, s) in enumerate(zip(targets, prior)) if t != s]
    return trades, targets


def order_commission(shares: int, price: float, per_share: float, min_per_order: float,
                     max_pct_of_value: float) -> float:
    """Per-share fee floored per order and capped at a percentage of the order's value."""
    if shares == 0:
        return 0.0
    return min(max(per_share * shares, min_per_order), max_pct_of_value * shares * price / 100.0)


def left_sum(xs, start: float = 0.0) -> float:
    """``start + xs[0] + xs[1] + ...``, one rounded addition at a time, left to right.

    The builtin ``sum`` of floats is compensated from Python 3.12 on, so it
    gives other bits than this on some inputs.
    """
    return functools.reduce(operator.add, xs, start)


def holding_returns(targets, capital: float, start_prices, end_prices, expense_ratios,
                    days: int, commissions: float) -> tuple[float, float, float]:
    """(gross, drag, net) percent returns of whole-share ``targets`` bought at ``start_prices``.

    The capital not spent on shares stays in cash at zero return. Each
    asset's annual expense ratio (percent) is charged on its share of the
    start value for ``days / 252`` of a year; commissions are a percentage
    of the start value.
    """
    invested = [t * p for t, p in zip(targets, start_prices)]
    cash = capital - sum(invested)
    v_start = sum(invested) + cash
    v_end = sum(t * p for t, p in zip(targets, end_prices)) + cash
    gross = 100.0 * (v_end - v_start) / v_start
    drag = sum(e * days / 252 * v / v_start for e, v in zip(expense_ratios, invested))
    return gross, drag, gross - drag - 100.0 * commissions / v_start


def holding_net_return(targets, capital: float, start_prices, end_prices, expense_ratios,
                       days: int, commissions: float) -> float:
    """The net percent return of :func:`holding_returns`."""
    return holding_returns(targets, capital, start_prices, end_prices, expense_ratios, days,
                           commissions)[2]


def benchmark_period_returns(closes, n: int) -> list[float]:
    """Close-to-close percent change of ``closes`` over each period of :func:`period_rows`."""
    closes = [float(c) for c in closes]
    return [
        100.0 * (closes[mark] / closes[trade] - 1.0)
        for _, trade, mark in period_rows(len(closes), n)
    ]


def period_rows(n_rows: int, n: int) -> list[tuple[range, int, int]]:
    """``(lookback rows, trade row, mark row)`` of each period of a walk over ``n_rows`` rows.

    The one statement of the period rule on this side. After the first ``n``
    lookback rows the rows tile into ``n_rows // n - 1`` periods: period
    ``k`` looks back over rows ``[k*n, (k+1)*n)``, trades at the close of
    its last row, ``(k+1)*n - 1``, and is marked at the close of row
    ``(k+2)*n - 1``, the last row of the next lookback, where period
    ``k + 1`` trades: ``n`` daily returns per period, and none between two.
    """
    periods = []
    for k in range(n_rows // n - 1):
        lookback = range(k * n, (k + 1) * n)
        periods.append((lookback, lookback[-1], lookback[-1] + n))
    return periods


def walk(rows, expense_ratios, roles, n: int, strategy: str, capital: float, commission: dict,
         mode: str, hurst_options=None) -> list[dict]:
    """Every holding period of one strategy, walked on Python floats and ints.

    ``rows`` holds one list of closes per date, and ``expense_ratios`` and
    ``roles`` one entry per column; the portfolio is the columns of role
    ``portfolio_asset``, in column order. ``strategy`` is a variant name,
    weighted by :func:`risk_parity_weights` over each period's lookback and
    traded by :func:`whole_share_trades` from the holdings the period before
    left, with one :func:`order_commission` per order; or ``"benchmark"``,
    the close-to-close change of the column of role ``benchmark``, with no
    trades or costs. ``commission`` holds the plan's ``per_share``,
    ``min_per_order`` and ``max_pct_of_value``. A period starts from
    ``capital`` in ``fixed_capital`` mode and from the previous period's end
    capital in ``reinvest`` mode.

    Each period is a dict of its ``trade_row`` and ``mark_row``, the held
    ``shares`` after its rebalance and its ``trades`` as ``(portfolio index,
    signed shares)`` pairs (both None for the benchmark), and its
    ``gross``, ``drag``, ``commission`` and ``net`` returns (percent; the
    commission in currency) with its ``start_capital`` and ``end_capital``.
    """
    portfolio = [j for j, role in enumerate(roles) if role == "portfolio_asset"]
    held = [0] * len(portfolio)
    periods, equity = [], float(capital)
    for lookback, trade_row, mark_row in period_rows(len(rows), n):
        start_capital = equity if mode == "reinvest" else float(capital)
        shares = trades = None
        if strategy == "benchmark":
            column = roles.index("benchmark")
            gross = net = 100.0 * (rows[mark_row][column] / rows[trade_row][column] - 1.0)
            drag = fee = 0.0
        else:
            columns = [[rows[r][j] for r in lookback] for j in portfolio]
            weights = risk_parity_weights(columns, strategy, n, hurst_options)
            prices = [rows[trade_row][j] for j in portfolio]
            trades, shares = whole_share_trades(weights, start_capital, prices, held)
            fee = left_sum(order_commission(abs(s), prices[i], **commission) for i, s in trades)
            gross, drag, net = holding_returns(
                shares, start_capital, prices, [rows[mark_row][j] for j in portfolio],
                [expense_ratios[j] for j in portfolio], n, fee,
            )
            held = shares
        end_capital = start_capital * (1.0 + net / 100.0)
        equity *= 1.0 + net / 100.0
        periods.append(dict(trade_row=trade_row, mark_row=mark_row, shares=shares, trades=trades,
                            gross=gross, drag=drag, commission=fee, net=net,
                            start_capital=start_capital, end_capital=end_capital))
    return periods


def daily_marked_equity(rows, n: int, initial_capital: float, periods) -> list[tuple[int, float]]:
    """Equity marked at every close of every holding period, as ``(row, value)`` pairs.

    ``rows`` holds one list of closes per date, in panel column order;
    ``periods`` lists ``(start_capital, net_return, trades)`` per period,
    with ``trades`` as ``(column, signed shares)`` pairs. Holdings add up
    the trades. Inside each period, from its trade row to its mark row
    (:func:`period_rows`), the shares plus the cash left at the start are
    marked at each close and scaled onto the chained equity; the period's
    last close carries its net return, costs included. The first point is
    the initial capital at the first period's trade row.
    """
    shares = [0] * len(rows[0])
    tiling = period_rows(len(rows), n)
    marks = [(tiling[0][1], initial_capital)]
    base = initial_capital
    for (start_capital, net_return, trades), (_, start, end) in zip(periods, tiling):
        for column, delta in trades:
            shares[column] += delta
        cash = start_capital - sum(s * p for s, p in zip(shares, rows[start]))
        for row in range(start + 1, end):
            value = cash + sum(s * p for s, p in zip(shares, rows[row]))
            marks.append((row, base * value / start_capital))
        base *= 1.0 + net_return / 100.0
        marks.append((end, base))
    return marks


class Rejected(Exception):
    """A reference loader's verdict on bad input: error class name, message, line."""

    def __init__(self, kind: str, message: str, line: int | None = None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.line = line


def _malformed(path: str, line: int, detail: str) -> Rejected:
    return Rejected("MalformedRow", f"{path}:{line}: {detail}", line)


def load_price_rows(path: str, ticker: str, date_column: str = "date",
                    price_column: str = "adj_close") -> tuple[list[dt.date], list[float]]:
    """Row-by-row reference CSV loader: ``(dates, closes)`` sorted by date.

    Each row in file order must have the header's width, a YYYY-MM-DD date,
    a float price that is finite and positive; after a stable sort no date
    may repeat and at least two rows must remain. The first failure raises
    :class:`Rejected` with the error the package is expected to raise.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise _malformed(path, 1, "empty file") from None
        if date_column not in header:
            raise _malformed(path, 1, f"missing date column {date_column!r}")
        if price_column not in header:
            raise _malformed(path, 1, f"missing price column {price_column!r}")
        d_idx = header.index(date_column)
        p_idx = header.index(price_column)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise _malformed(path, line_no, f"expected {len(header)} fields, got {len(row)}")
            day = row[d_idx].strip()
            try:
                # only YYYY-MM-DD: Python 3.11 would also read 20100104 and week dates
                if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", day):
                    raise ValueError
                date = dt.date.fromisoformat(day)
            except ValueError:
                raise _malformed(path, line_no, f"unparseable date {row[d_idx]!r}") from None
            try:
                price = float(row[p_idx])
            except ValueError:
                raise _malformed(path, line_no, f"unparseable price {row[p_idx]!r}") from None
            if not math.isfinite(price):
                raise _malformed(path, line_no, f"non-finite price {row[p_idx]!r}")
            if price <= 0.0:
                message = f"{ticker}: non-positive price {price} on {date}"
                raise Rejected("NonPositivePrice", message)
            rows.append((date, price))
    rows.sort(key=lambda r: r[0])
    for (prev, _), (date, _) in zip(rows, rows[1:]):
        if date == prev:
            raise Rejected("DuplicateDate", f"{ticker}: duplicate date {date}")
    if len(rows) < 2:
        raise Rejected("TooShort", f"{ticker}: need at least 2 rows, got {len(rows)}")
    return [r[0] for r in rows], [r[1] for r in rows]


def align_rows(series, tickers) -> tuple[list[dt.date], list[list[float]]]:
    """Reference alignment: dates every series has, one row of closes per date.

    ``series`` is a list of ``(ticker, dates, closes)``; columns follow
    ``tickers``. Fewer than two common dates raise :class:`Rejected`.
    """
    common = set(series[0][1])
    for _, dates, _ in series[1:]:
        common &= set(dates)
    if len(common) < 2:
        raise Rejected("EmptyIntersection",
                       f"date intersection across {len(series)} series has {len(common)} dates")
    lookup = {ticker: dict(zip(dates, closes)) for ticker, dates, closes in series}
    dates = sorted(common)
    return dates, [[lookup[t][d] for t in tickers] for d in dates]
