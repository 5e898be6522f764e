"""Walk-forward out-of-sample simulator.

The engine tiles the panel after an initial lookback: optimize on rows
``[k*N, (k+1)*N)``, hold over ``[(k+1)*N, (k+2)*N)``, repeat. Trades fill at
the holding window's first close with zero slippage; whole shares only,
with the remainder parked in zero-earning cash. Costs are commissions per
trade (per-share rate floored per order and capped as a percentage of trade
value) plus each fund's expense ratio pro-rated over the holding period.

Two compounding modes ship: ``fixed_capital`` resets the deployed capital
to the initial amount every period, so the period returns form an i.i.d.-
style sample for the metric tables; ``reinvest`` chains each period's end
capital into the next. The equity curve always compounds the per-period net
returns; in reinvest mode that is exactly the simulated capital path, in
fixed-capital mode it is the reinvested view of the per-period results.

Each period is a fixed set of array operations over the portfolio
columns, from the lookback window to the net return, and builds no
per-asset Python object. The lookback and holding windows are read-only
views of the panel (:func:`slice_window`). :func:`compute_weights` returns
the weights with their diagnostics as vectors; the holdings are an int64
share vector in column order; a rebalance returns its orders as
:class:`Trades`, parallel vectors of column, signed shares, price and fee,
whose :class:`Trade` records are built only when read. Sums that feed the
reported figures run left to right in column order, so results do not
depend on how the arrays are blocked.
"""

from __future__ import annotations

import datetime as dt
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .allocation import PortfolioWeights, StrategyVariant, compute_weights
from .data import AlignedPanel, slice_window
from .errors import (
    ConfigError,
    DeltaTooLarge,
    InsufficientCapital,
    InsufficientHistory,
    LengthMismatch,
    TooShort,
)
from .fractal import MIN_RETURNS_FOR_PATH, HurstConfig, hurst_scales

FIXED_CAPITAL = "fixed_capital"
REINVEST = "reinvest"
TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class CommissionPlan:
    """Tiered per-share commission with a per-order floor and a value cap."""

    per_share: float = 0.0035
    min_per_order: float = 0.35
    max_pct_of_value: float = 1.0  # percent of trade value

    def __post_init__(self):
        for name in ("per_share", "min_per_order", "max_pct_of_value"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"commission {name} must be >= 0")


@dataclass(frozen=True)
class BacktestConfig:
    horizon_n: int = 252
    variant: StrategyVariant = StrategyVariant.FRACTAL_BIASED
    initial_capital: float = 1_000_000.0
    commission: CommissionPlan = field(default_factory=CommissionPlan)
    compounding: str = FIXED_CAPITAL
    benchmark: str = "SPY"
    hurst: HurstConfig = field(default_factory=HurstConfig)

    def __post_init__(self):
        if self.horizon_n < 8:
            raise ConfigError(f"horizon_n must be >= 8 trading days, got {self.horizon_n}")
        if not self.initial_capital > 0.0:
            raise ConfigError(f"initial_capital must be positive, got {self.initial_capital}")
        if self.compounding not in (FIXED_CAPITAL, REINVEST):
            raise ConfigError(f"unknown compounding mode {self.compounding!r}")
        object.__setattr__(self, "variant", StrategyVariant(self.variant))
        if self.variant is StrategyVariant.FRACTAL_BIASED:
            # a lookback of N prices is a path of N points built from N - 1 returns
            try:
                if self.horizon_n - 1 < MIN_RETURNS_FOR_PATH:
                    raise TooShort(f"need {MIN_RETURNS_FOR_PATH} returns per lookback")
                hurst_scales(self.horizon_n, self.hurst)
            except (TooShort, DeltaTooLarge) as exc:
                raise ConfigError(
                    f"horizon_n {self.horizon_n} is too short for {self.variant.value}: {exc}"
                ) from None


class Trade(NamedTuple):
    ticker: str
    shares: int  # signed: positive buys, negative sells
    price: float
    commission: float


@dataclass(frozen=True, eq=False)
class Trades(Sequence):
    """The orders of one rebalance, held as parallel vectors.

    ``columns`` index ``tickers``; ``shares`` are signed (positive buys,
    negative sells), ``prices`` the fills and ``fees`` the commissions.
    As a sequence it yields one :class:`Trade` per order, built on first
    read, and it compares equal to any sequence of the same records.
    """

    tickers: tuple[str, ...]
    columns: np.ndarray
    shares: np.ndarray
    prices: np.ndarray
    fees: np.ndarray

    @cached_property
    def records(self) -> tuple[Trade, ...]:
        names = map(self.tickers.__getitem__, self.columns.tolist())
        fields = zip(names, self.shares.tolist(), self.prices.tolist(), self.fees.tolist())
        return tuple(map(Trade._make, fields))

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, i):
        return self.records[i]

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.records == tuple(other)

    __hash__ = None


class PeriodBreakdown(NamedTuple):
    gross: float         # percent over the window
    expense_drag: float  # percent of start capital
    net: float           # percent over the window


@dataclass(eq=False)
class PeriodResult:
    """One out-of-sample holding period."""

    start_date: dt.date
    end_date: dt.date
    weights: PortfolioWeights | None
    trades: Sequence[Trade]
    gross_return: float
    expense_drag: float
    commission_cost: float
    net_return: float
    start_capital: float
    end_capital: float


@dataclass(eq=False)
class EquityCurve:
    """Period-end capital path, first point at the initial capital."""

    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.dates),):
            raise ValueError("dates and values differ in length")
        if np.any(self.values <= 0.0):
            raise ValueError("equity curve must stay strictly positive")


def commission_for(shares, price, plan: CommissionPlan):
    """Commission for orders of ``shares`` at ``price``; zero shares cost zero.

    Takes one order as scalars or many as equal-length arrays, and returns
    a float or an array to match.
    """
    shares = np.asarray(shares)
    price = np.asarray(price, dtype=float)
    if np.any(shares < 0):
        raise ValueError(f"share count must be non-negative, got {shares}")
    if np.any(price <= 0.0):
        raise ValueError(f"price must be positive, got {price}")
    raw = plan.per_share * shares
    cap = plan.max_pct_of_value * shares * price / 100.0
    fee = np.where(shares == 0, 0.0, np.minimum(np.maximum(raw, plan.min_per_order), cap))
    return float(fee) if fee.ndim == 0 else fee


def execute_rebalance(
    weights: PortfolioWeights,
    capital: float,
    prices,
    plan: CommissionPlan,
    prior=None,
) -> tuple[Trades, np.ndarray, float]:
    """Realize target weights as whole-share positions.

    ``prices`` (execution prices) and ``prior`` (shares held before, none
    if ``None``) are vectors in ``weights.tickers`` order. Target shares
    per asset are ``floor(weight * capital / price)``; trades are the
    deltas against ``prior`` and each one pays its own commission. The
    unspent remainder stays in cash. Returns the trades, the int64 target
    share vector and the total commission. Raises
    :class:`InsufficientCapital` when the commissions alone would consume
    the whole capital.
    """
    if capital <= 0.0:
        raise InsufficientCapital(f"capital must be positive, got {capital}")
    tickers = weights.tickers
    price = np.asarray(prices, dtype=float)
    held = np.zeros(len(tickers), np.int64) if prior is None else np.asarray(prior, np.int64)
    if price.shape != (len(tickers),) or held.shape != price.shape:
        raise LengthMismatch(
            f"{len(tickers)} tickers vs prices {price.shape} and prior holdings {held.shape}"
        )
    bad = np.flatnonzero(price <= 0.0)
    if bad.size:
        i = bad[0]
        raise ValueError(f"{tickers[i]}: non-positive execution price {price[i]}")
    target = np.floor(weights.weights * capital / price).astype(np.int64)
    delta = target - held

    traded = np.flatnonzero(delta)
    traded_shares = delta[traded]
    traded_price = price[traded]
    fees = commission_for(np.abs(traded_shares), traded_price, plan)
    total_commission = sum(fees.tolist(), 0.0)
    if total_commission >= capital:
        raise InsufficientCapital(
            f"commissions {total_commission:.2f} would consume capital {capital:.2f}"
        )
    return Trades(tickers, traded, traded_shares, traded_price, fees), target, total_commission


def period_return(
    shares,
    cash: float,
    window: AlignedPanel,
    commissions: float = 0.0,
) -> PeriodBreakdown:
    """Gross and net percent return of fixed holdings over one window.

    ``shares`` holds the position of every window column, in column order.
    Positions are priced at the window's first row. The gross return is the
    mark-to-market change; each asset's expense ratio is pro-rated by the
    window length over a 252-day year and applied to that asset's share of
    start capital; commissions convert to percent of start capital.
    """
    shares = np.asarray(shares, dtype=float)
    if shares.shape != (len(window.assets),):
        raise LengthMismatch(f"{len(window.assets)} columns vs shares shape {shares.shape}")
    start_values = shares * window.prices[0]
    v_start = sum(start_values.tolist(), 0.0) + cash
    if v_start <= 0.0:
        raise InsufficientCapital(f"period starts with non-positive value {v_start}")
    v_end = sum((shares * window.prices[-1]).tolist(), cash)
    gross = 100.0 * (v_end - v_start) / v_start

    year_fraction = window.n_rows / TRADING_DAYS_PER_YEAR
    drag = sum((window.expense_ratios * year_fraction * (start_values / v_start)).tolist(), 0.0)

    net = gross - drag - 100.0 * commissions / v_start
    return PeriodBreakdown(gross=gross, expense_drag=drag, net=net)


def _period_count(n_rows: int, n: int) -> int:
    return max(n_rows // n - 1, 0)


def run_walk_forward(
    panel: AlignedPanel, config: BacktestConfig
) -> tuple[list[PeriodResult], EquityCurve]:
    """Simulate one strategy variant over every non-overlapping period.

    Weights for period ``k`` are computed strictly from lookback rows
    ``[k*N, (k+1)*N)``; no holding-window price can influence them. The run
    is fully deterministic in its inputs.
    """
    n = config.horizon_n
    if panel.n_rows < 2 * n:
        raise InsufficientHistory(
            f"panel of {panel.n_rows} rows cannot fit lookback + holding of {n} days each"
        )
    columns = panel.portfolio_columns
    results: list[PeriodResult] = []
    equity_dates = [panel.dates[n]]
    equity_values = [config.initial_capital]
    held = np.zeros(len(columns), dtype=np.int64)  # in weights.tickers order
    shares = np.zeros(len(panel.assets), dtype=np.int64)  # in panel column order
    for k in range(_period_count(panel.n_rows, n)):
        lookback = slice_window(panel, end_index=(k + 1) * n - 1, length=n)
        weights = compute_weights(lookback, config.variant, n, config.hurst)

        start_row = (k + 1) * n
        end_row = (k + 2) * n - 1
        exec_prices = panel.prices[start_row, columns]
        start_capital = (
            config.initial_capital if config.compounding == FIXED_CAPITAL else equity_values[-1]
        )
        # weights.tickers are the portfolio columns in panel order
        trades, held, commission = execute_rebalance(
            weights, start_capital, exec_prices, config.commission, held
        )
        cash = start_capital - sum((held * exec_prices).tolist(), 0.0)
        shares[columns] = held
        hold_window = slice_window(panel, end_index=end_row, length=n)
        parts = period_return(shares, cash, hold_window, commissions=commission)

        end_capital = start_capital * (1.0 + parts.net / 100.0)
        results.append(
            PeriodResult(
                start_date=panel.dates[start_row],
                end_date=panel.dates[end_row],
                weights=weights,
                trades=trades,
                gross_return=parts.gross,
                expense_drag=parts.expense_drag,
                commission_cost=commission,
                net_return=parts.net,
                start_capital=start_capital,
                end_capital=end_capital,
            )
        )
        equity_values.append(equity_values[-1] * (1.0 + parts.net / 100.0))
        equity_dates.append(panel.dates[end_row])
    return results, EquityCurve(dates=tuple(equity_dates), values=np.array(equity_values))


def daily_marked_equity(
    panel: AlignedPanel, results: list[PeriodResult], config: BacktestConfig
) -> EquityCurve:
    """Diagnostic equity path marked at every trading day, not just period ends.

    Holdings are reconstructed from the stored trade deltas as one share
    vector over the panel's columns; within each period the position is
    marked to market daily as one (days x assets) product, with the period's
    costs realized on its final day so the path lands exactly on the
    period-end equity. The period-end curve is therefore a subset of this
    one, and drawdowns measured here can only be equal or deeper.
    """
    n = config.horizon_n
    dates: list[dt.date] = [panel.dates[n]]
    values: list[float] = [config.initial_capital]
    shares = np.zeros(len(panel.assets))
    base = config.initial_capital
    for k, result in enumerate(results):
        for trade in result.trades:
            shares[panel.index_of(trade.ticker)] += trade.shares
        start_row = (k + 1) * n
        end_row = (k + 2) * n - 1
        cash = result.start_capital - float(panel.prices[start_row] @ shares)
        marked = cash + panel.prices[start_row + 1 : end_row] @ shares
        dates.extend(panel.dates[start_row + 1 : end_row])
        values.extend((base * marked / result.start_capital).tolist())
        base *= 1.0 + result.net_return / 100.0
        dates.append(panel.dates[end_row])
        values.append(base)
    return EquityCurve(dates=tuple(dates), values=np.array(values))


def run_benchmark(
    panel: AlignedPanel, config: BacktestConfig
) -> tuple[list[PeriodResult], EquityCurve]:
    """Benchmark returns over the same holding windows, free of costs.

    The benchmark is a reference series, not a traded strategy: each period
    return is the raw close-to-close change of the benchmark column.
    """
    n = config.horizon_n
    if panel.n_rows < 2 * n:
        raise InsufficientHistory(
            f"panel of {panel.n_rows} rows cannot fit lookback + holding of {n} days each"
        )
    col = panel.column(config.benchmark)
    results: list[PeriodResult] = []
    equity_dates = [panel.dates[n]]
    equity_values = [config.initial_capital]
    for k in range(_period_count(panel.n_rows, n)):
        start_row = (k + 1) * n
        end_row = (k + 2) * n - 1
        ret = 100.0 * (float(col[end_row]) / float(col[start_row]) - 1.0)
        start_capital = (
            config.initial_capital if config.compounding == FIXED_CAPITAL else equity_values[-1]
        )
        end_capital = start_capital * (1.0 + ret / 100.0)
        results.append(
            PeriodResult(
                start_date=panel.dates[start_row],
                end_date=panel.dates[end_row],
                weights=None,
                trades=(),
                gross_return=ret,
                expense_drag=0.0,
                commission_cost=0.0,
                net_return=ret,
                start_capital=start_capital,
                end_capital=end_capital,
            )
        )
        equity_values.append(equity_values[-1] * (1.0 + ret / 100.0))
        equity_dates.append(panel.dates[end_row])
    return results, EquityCurve(dates=tuple(equity_dates), values=np.array(equity_values))
