"""Walk-forward out-of-sample simulator.

The engine tiles the panel after an initial lookback: optimize on rows
``[k*N, (k+1)*N)``, hold over ``[(k+1)*N, (k+2)*N)``, repeat. Those rows are
defined in one place, :func:`run_strategies`, the one period loop of the
three variants and the cost-free benchmark; the return statistics of all
lookbacks are computed there once per panel and horizon, for every variant
and every walk, and each variant's weights plan once per walk. Trades fill
at the holding period's first close with zero slippage; whole shares only,
with the remainder parked in zero-earning cash. Costs are commissions per
trade (per-share rate floored per order and capped as a percentage of
trade value) plus each fund's expense ratio pro-rated over the holding
period.

Two compounding modes ship: ``fixed_capital`` resets the deployed capital
to the initial amount every period, so the period returns form an i.i.d.-
style sample for the metric tables; ``reinvest`` chains each period's end
capital into the next. The equity curve always compounds the per-period net
returns; in reinvest mode that is exactly the simulated capital path, in
fixed-capital mode it is the reinvested view of the per-period results.

Each period is a fixed set of array operations over the portfolio
columns, from the lookback statistics to the net return, and builds no
per-asset Python object. Only the lookbacks are a window: one read-only
view of the panel (:func:`slice_window`) per horizon, from which
:func:`lookback_stats` returns the statistics of every period's lookback
in one pass, before the first period of the first walk at that horizon.
They are kept for as long as the panel lives, so a later walk at that
horizon, such as each strategy walked alone through
:func:`run_walk_forward` and :func:`run_benchmark`, reads them. A
period is marked from the trade-row and mark-row prices of the portfolio
columns (:func:`period_return`), gathered once per walk as two (periods x
columns) blocks; the benchmark's net returns are one vector operation over
its trade and mark rows. Before the first period a walk builds each
variant's :func:`weights_plan` for every lookback at once
(``fractal_biased`` fits the Hurst exponents of every lookback in one
batched call) and drops it when the walk ends. :func:`compute_weights`
returns a period's weights with their diagnostics, as vectors: everything
but its own normalization is its row of the plan, and it raises only its
own errors (a flat asset, a constant path), so errors still come in
period order. The holdings are an
int64 share vector in portfolio-column order; a rebalance returns its
orders as :class:`Trades`, parallel vectors of column, signed shares,
price and fee.
These vectors are the only form of a period's result. Sums that feed the
reported figures are plain float additions, left to right in column order
(``_sum_left``), so results depend neither on how the arrays are
blocked nor on the Python version, whose builtin ``sum`` of floats is
compensated from 3.12 on.

Values are checked once, where they enter (the config classes, ``AlignedPanel``
and the panel length in :func:`run_strategies`); the functions a period calls
take the shapes, prices and capital it builds as given.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import sys
import weakref
from dataclasses import dataclass, field

import numpy as np

from .allocation import (
    PortfolioWeights,
    StrategyVariant,
    compute_weights,
    lookback_stats,
    weights_plan,
)
from .data import AlignedPanel, slice_window
from .errors import (
    ConfigError,
    InsufficientCapital,
    InsufficientHistory,
    LengthMismatch,
    NumericError,
    TooShort,
)
from .fractal import HurstConfig, hurst_scales

FIXED_CAPITAL = "fixed_capital"
REINVEST = "reinvest"
TRADING_DAYS_PER_YEAR = 252
# the name the benchmark's run goes by in reports, next to the variants'
BENCHMARK_LABEL = "benchmark"
# panel -> {horizon N: the Lookbacks of a walk at N}. An entry lives as long as its
# panel; a window from slice_window is a panel of its own, so it starts with none.
_LOOKBACKS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class CommissionPlan:
    """Tiered per-share commission with a per-order floor and a value cap."""

    per_share: float = 0.0035
    min_per_order: float = 0.35
    max_pct_of_value: float = 1.0  # percent of trade value

    def __post_init__(self):
        for name in ("per_share", "min_per_order", "max_pct_of_value"):
            value = getattr(self, name)
            if not (_finite_number(value) and value >= 0.0):
                raise ConfigError(f"commission {name} must be a finite number >= 0")


def _finite_number(value) -> bool:
    """True for an int or float, not a bool, inside the range of finite floats."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


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
        if not isinstance(self.horizon_n, int) or self.horizon_n < 8:
            raise ConfigError(f"horizon must be an integer >= 8 days, got {self.horizon_n!r}")
        if not (_finite_number(self.initial_capital) and self.initial_capital > 0.0):
            raise ConfigError(
                f"initial_capital must be finite and positive, got {self.initial_capital!r}"
            )
        if self.compounding not in (FIXED_CAPITAL, REINVEST):
            raise ConfigError(f"unknown compounding mode {self.compounding!r}")
        try:
            object.__setattr__(self, "variant", StrategyVariant(self.variant))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.variant is StrategyVariant.FRACTAL_BIASED:
            if self.hurst.h_max > 1.0:
                raise ConfigError(
                    f"{self.variant.value} rescales volatility as n**h for h in (0, 1], "
                    f"but hurst h_max is {self.hurst.h_max}"
                )
            # a lookback of N prices is a path of N points built from N - 1 returns
            try:
                hurst_scales(self.horizon_n, self.hurst)
            except TooShort as exc:
                raise ConfigError(
                    f"horizon_n {self.horizon_n} is too short for {self.variant.value}: {exc}"
                ) from None


@dataclass(frozen=True, eq=False)
class Trades:
    """The orders of one rebalance, held as parallel vectors.

    ``columns`` index the weights' tickers; ``shares`` are signed (positive
    buys, negative sells), ``prices`` the fills and ``fees`` the commissions.
    """

    columns: np.ndarray
    shares: np.ndarray
    prices: np.ndarray
    fees: np.ndarray

    def __len__(self) -> int:
        return len(self.columns)


@dataclass(eq=False)
class PeriodResult:
    """One out-of-sample holding period; the benchmark's has no weights or trades."""

    start_date: dt.date
    end_date: dt.date
    weights: PortfolioWeights | None
    trades: Trades | None
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


# a strategy's period results and equity curve
Run = tuple[list[PeriodResult], EquityCurve]


def _sum_left(values: np.ndarray, start: float = 0.0) -> float:
    """``start + values[0] + values[1] + ...``, added left to right in plain floats.

    The order, and with it every bit, is the same on every Python; the
    builtin ``sum`` of floats is compensated from Python 3.12 on.
    """
    total = np.empty(len(values) + 1)
    total[0], total[1:] = start, values
    return float(np.add.accumulate(total, out=total)[-1])


def commission_for(shares, price, plan: CommissionPlan) -> np.ndarray:
    """Commission per order for orders of ``shares`` at ``price``; zero shares cost zero.

    ``shares`` and ``price`` are equal-shape arrays (or scalars, giving a 0-d array).
    """
    shares = np.asarray(shares)
    price = np.asarray(price, dtype=float)
    # float rates: an integer rate beyond int64 must not meet the int64 share counts;
    # a fee or cap that overflows to inf still orders correctly against the other
    with np.errstate(over="ignore"):
        raw = float(plan.per_share) * shares
        cap = float(plan.max_pct_of_value) * shares * price / 100.0
    return np.where(shares == 0, 0.0, np.minimum(np.maximum(raw, plan.min_per_order), cap))


def execute_rebalance(
    weights: PortfolioWeights,
    capital: float,
    prices,
    plan: CommissionPlan,
    prior,
) -> tuple[Trades, np.ndarray, float]:
    """Realize target weights as whole-share positions.

    ``prices`` (execution prices, positive) and ``prior`` (shares held
    before) are vectors in ``weights.tickers`` order. Target shares per
    asset are ``floor(weight * capital / price)``; trades are the deltas
    against ``prior`` and each one pays its own commission. The unspent
    remainder stays in cash. Returns the trades, the int64 target share
    vector and the total commission. Raises :class:`InsufficientCapital`
    when the commissions alone would consume the whole capital (any capital
    <= 0), and :class:`NumericError` when a target does not fit in int64.
    """
    tickers = weights.tickers
    price = np.asarray(prices, dtype=float)
    target = np.floor(weights.weights * capital / price)
    if not (target < 2.0**63).all():
        i = np.flatnonzero(~(target < 2.0**63))[0]
        raise NumericError(f"{tickers[i]}: target of {target[i]:.6g} shares overflows int64")
    target = target.astype(np.int64)
    delta = target - np.asarray(prior, np.int64)

    traded = np.flatnonzero(delta)
    traded_shares = delta[traded]
    traded_price = price[traded]
    fees = commission_for(np.abs(traded_shares), traded_price, plan)
    total_commission = _sum_left(fees)
    if total_commission >= capital:
        raise InsufficientCapital(
            f"commissions {total_commission:.2f} would consume capital {capital:.2f}"
        )
    return Trades(traded, traded_shares, traded_price, fees), target, total_commission


def period_return(
    shares,
    capital: float,
    start_prices,
    end_prices,
    expense_ratios,
    n_rows: int,
    commissions: float = 0.0,
) -> tuple[float, float, float]:
    """Gross return, expense drag and net return of fixed holdings over one holding period.

    ``shares``, the trade-row prices ``start_prices``, the mark-row prices
    ``end_prices`` and the annual ``expense_ratios`` (percent) are vectors
    over the same columns. Positions are priced at the start prices; what
    of the start ``capital`` they do not take is held in cash. The
    gross return is the mark-to-market change in percent; each asset's
    expense ratio is pro-rated by the period's ``n_rows`` rows over a
    252-day year and applied to that asset's share of start capital;
    commissions convert to percent of start capital. The net return is
    gross minus both costs.
    """
    shares = np.asarray(shares, dtype=float)
    start_prices, end_prices, expense_ratios = map(
        np.asarray, (start_prices, end_prices, expense_ratios)
    )
    if shares.ndim != 1 or not (
        shares.shape == start_prices.shape == end_prices.shape == expense_ratios.shape
    ):
        raise LengthMismatch(f"shares {shares.shape} vs prices or expense ratios of another shape")
    start_values = shares * start_prices
    invested = _sum_left(start_values)
    cash = capital - invested
    v_start = invested + cash
    if v_start <= 0.0:
        raise InsufficientCapital(f"period starts with non-positive value {v_start}")
    v_end = _sum_left(shares * end_prices, cash)
    gross = 100.0 * (v_end - v_start) / v_start

    year_fraction = n_rows / TRADING_DAYS_PER_YEAR
    drag = _sum_left(expense_ratios * year_fraction * (start_values / v_start))

    return gross, drag, gross - drag - 100.0 * commissions / v_start


def run_strategies(panel: AlignedPanel, config: BacktestConfig, names: list[str]) -> dict[str, Run]:
    """Walk the named strategies over the same periods; results by name, in ``names`` order.

    ``names`` lists variant values, each run as ``config`` with that variant
    (checked before the walk starts), and :data:`BENCHMARK_LABEL`, the raw
    close-to-close change of the ``config.benchmark`` column with no weights,
    trades or costs. Period ``k`` trades at the close of row ``(k+1)*N`` and
    is marked at the close of row ``(k+2)*N - 1``; its weights come from the
    ``N`` rows before, so no holding-window price can influence them. Each
    period starts from the initial capital in ``fixed_capital`` mode and from
    the end of the strategy's equity chain in ``reinvest`` mode.

    The lookback statistics are built by the first walk at horizon ``N`` over
    ``panel`` that runs a variant and kept while ``panel`` lives; every later
    walk at ``N`` over it, of any variant, reads them. Each variant's weights
    plan, with its Hurst fit, is built before the first period and dropped
    when the walk ends.
    """
    names = list(dict.fromkeys(names))  # a strategy named twice runs once
    variants = {  # each checked by BacktestConfig's rules; hurst and commission are shared
        name: dataclasses.replace(config, variant=name).variant
        for name in names if name != BENCHMARK_LABEL
    }
    n = config.horizon_n
    if panel.n_rows < 2 * n:
        raise InsufficientHistory(
            f"panel of {panel.n_rows} rows cannot fit lookback + holding of {n} days each"
        )
    n_periods = panel.n_rows // n - 1
    trade_rows = n * np.arange(1, n_periods + 1)  # period k trades at (k+1)N, marks at (k+2)N - 1
    mark_rows = trade_rows + n - 1
    if BENCHMARK_LABEL in names:
        bench = panel.column(config.benchmark)
        bench_net = (100.0 * (bench[mark_rows] / bench[trade_rows] - 1.0)).tolist()
    columns = panel.portfolio_columns
    expense_ratios = panel.expense_ratios[columns]
    held = {name: np.zeros(len(columns), np.int64) for name in variants}  # weights.tickers order
    runs = {name: ([], [config.initial_capital]) for name in names}  # results, equity values
    reinvest = config.compounding == REINVEST
    if variants:
        built = _LOOKBACKS.setdefault(panel, {})
        if n not in built:  # period k's lookback is block k of the first n_periods * n rows
            built[n] = lookback_stats(slice_window(panel, n_periods * n - 1, n_periods * n), n)
        plans = {name: weights_plan(built[n], v, config.hurst) for name, v in variants.items()}
        # (periods x portfolio columns): each period's trade-row and mark-row prices
        trade_prices = panel.prices[np.ix_(trade_rows, columns)]
        mark_prices = panel.prices[np.ix_(mark_rows, columns)]
    for k, (start_row, end_row) in enumerate(zip(trade_rows.tolist(), mark_rows.tolist())):
        for name, (results, equity) in runs.items():
            start_capital = equity[-1] if reinvest else config.initial_capital
            if name == BENCHMARK_LABEL:
                weights = trades = None
                commission = drag = 0.0
                gross = net = bench_net[k]
            else:
                weights = compute_weights(plans[name], k)
                # weights.tickers are the portfolio columns in panel order
                trades, held[name], commission = execute_rebalance(
                    weights, start_capital, trade_prices[k], config.commission, held[name]
                )
                gross, drag, net = period_return(
                    held[name], start_capital, trade_prices[k], mark_prices[k], expense_ratios,
                    n, commission,
                )
            if not net > -100.0:
                raise InsufficientCapital(
                    f"period ending {panel.dates[end_row]} returns {net:.2f}%, "
                    "wiping out its capital"
                )
            results.append(PeriodResult(
                start_date=panel.dates[start_row], end_date=panel.dates[end_row],
                weights=weights, trades=trades, gross_return=gross, expense_drag=drag,
                commission_cost=commission, net_return=net, start_capital=start_capital,
                end_capital=start_capital * (1.0 + net / 100.0),
            ))
            equity.append(equity[-1] * (1.0 + net / 100.0))
    dates = tuple(panel.dates[row] for row in (n, *mark_rows.tolist()))
    return {
        name: (results, EquityCurve(dates=dates, values=np.array(equity)))
        for name, (results, equity) in runs.items()
    }


def run_walk_forward(panel: AlignedPanel, config: BacktestConfig) -> Run:
    """Simulate ``config.variant`` alone (see :func:`run_strategies`)."""
    return run_strategies(panel, config, [config.variant.value])[config.variant.value]


def run_benchmark(panel: AlignedPanel, config: BacktestConfig) -> Run:
    """The cost-free benchmark alone (see :func:`run_strategies`)."""
    return run_strategies(panel, config, [BENCHMARK_LABEL])[BENCHMARK_LABEL]
