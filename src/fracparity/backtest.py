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

Each period is one array pass over the portfolio columns: the lookback
window goes to :func:`compute_weights` as a block, and whole-share targets,
trade deltas, commissions, the start and end marks and the expense drag are
vectors in column order. Ticker lookups are dictionary hits, resolved once
per call. Sums that feed the reported figures run left to right in column
order, so results do not depend on how the arrays are blocked.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .allocation import PortfolioWeights, StrategyVariant, compute_weights
from .data import AlignedPanel, slice_window
from .errors import (
    ConfigError,
    DeltaTooLarge,
    InsufficientCapital,
    InsufficientHistory,
    TickerMismatch,
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
    trades: tuple[Trade, ...]
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
    prices: Mapping[str, float],
    plan: CommissionPlan,
    prior_holdings: Mapping[str, int] | None = None,
) -> tuple[list[Trade], dict[str, int], float]:
    """Realize target weights as whole-share positions.

    Target shares per asset are ``floor(weight * capital / price)``; trades
    are the deltas against ``prior_holdings`` and each one pays its own
    commission. The unspent remainder stays in cash. Raises
    :class:`InsufficientCapital` when the commissions alone would consume
    the whole capital.
    """
    if capital <= 0.0:
        raise InsufficientCapital(f"capital must be positive, got {capital}")
    prior = dict(prior_holdings or {})
    unknown = set(prior) - set(weights.tickers)
    if unknown:
        raise TickerMismatch(f"prior holdings for unknown tickers {sorted(unknown)}")

    tickers = weights.tickers
    price = np.array([float(prices[t]) for t in tickers])
    bad = np.flatnonzero(price <= 0.0)
    if bad.size:
        i = bad[0]
        raise ValueError(f"{tickers[i]}: non-positive execution price {price[i]}")
    target = np.floor(weights.weights * capital / price).astype(np.int64)
    delta = target - np.array([prior.get(t, 0) for t in tickers], dtype=np.int64)

    traded = np.flatnonzero(delta)
    traded_price = price[traded]
    fees = commission_for(np.abs(delta[traded]), traded_price, plan).tolist()
    traded_tickers = [tickers[i] for i in traded.tolist()]
    fields = zip(traded_tickers, delta[traded].tolist(), traded_price.tolist(), fees)
    trades = list(map(Trade._make, fields))
    total_commission = sum(fees, 0.0)
    if total_commission >= capital:
        raise InsufficientCapital(
            f"commissions {total_commission:.2f} would consume capital {capital:.2f}"
        )
    return trades, dict(zip(tickers, target.tolist())), total_commission


def period_return(
    holdings: Mapping[str, int],
    cash: float,
    window: AlignedPanel,
    commissions: float = 0.0,
) -> PeriodBreakdown:
    """Gross and net percent return of fixed holdings over one window.

    Positions are priced at the window's first row. The gross return is the
    mark-to-market change; each asset's expense ratio is pro-rated by the
    window length over a 252-day year and applied to that asset's share of
    start capital; commissions convert to percent of start capital.
    """
    held = [(window.index_of(t), shares) for t, shares in holdings.items() if shares]
    columns = [c for c, _ in held]
    shares = np.array([s for _, s in held], dtype=float)
    start_values = shares * window.prices[0, columns]
    v_start = sum(start_values.tolist(), 0.0) + cash
    if v_start <= 0.0:
        raise InsufficientCapital(f"period starts with non-positive value {v_start}")
    v_end = sum((shares * window.prices[-1, columns]).tolist(), cash)
    gross = 100.0 * (v_end - v_start) / v_start

    year_fraction = window.n_rows / TRADING_DAYS_PER_YEAR
    expense = np.array([window.assets[c].expense_ratio for c in columns])
    drag = sum((expense * year_fraction * (start_values / v_start)).tolist(), 0.0)

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
    tickers = tuple(a.ticker for a in panel.portfolio_assets())
    columns = [panel.index_of(t) for t in tickers]
    results: list[PeriodResult] = []
    equity_dates = [panel.dates[n]]
    equity_values = [config.initial_capital]
    holdings: dict[str, int] = {}
    for k in range(_period_count(panel.n_rows, n)):
        lookback = slice_window(panel, end_index=(k + 1) * n - 1, length=n)
        weights = compute_weights(lookback, config.variant, n, config.hurst)

        start_row = (k + 1) * n
        end_row = (k + 2) * n - 1
        exec_prices = panel.prices[start_row, columns]
        start_capital = (
            config.initial_capital if config.compounding == FIXED_CAPITAL else equity_values[-1]
        )
        trades, holdings, commission = execute_rebalance(
            weights, start_capital, dict(zip(tickers, exec_prices.tolist())),
            config.commission, holdings,
        )
        # holdings are keyed by weights.tickers, the portfolio columns in panel order
        shares = np.fromiter(holdings.values(), dtype=float, count=len(holdings))
        cash = start_capital - sum((shares * exec_prices).tolist(), 0.0)
        hold_window = slice_window(panel, end_index=end_row, length=n)
        parts = period_return(holdings, cash, hold_window, commissions=commission)

        end_capital = start_capital * (1.0 + parts.net / 100.0)
        results.append(
            PeriodResult(
                start_date=panel.dates[start_row],
                end_date=panel.dates[end_row],
                weights=weights,
                trades=tuple(trades),
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
