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
batched call) and drops it when the walk ends; a walk's data errors (a
flat asset, a constant path) are raised when its plans are built.
:func:`compute_weights` returns a period's weights with their diagnostics,
as vectors: everything but its own normalization is its row of the plan.

The strategies are then walked one at a time, in the order named. A
variant rebalances (:func:`execute_rebalance`) and marks
(:func:`period_return`) its periods in blocks of periods whose start
capitals are known before the block starts: all of its periods in
``fixed_capital`` mode, one period at a time in ``reinvest`` mode, where a
period starts from the end of the one before. One kernel serves both: it
takes (periods x columns) rows of weights and prices, each row trades from
the targets of the row before, and it computes every row it is given. The
holdings are int64 shares in portfolio-column order, and each period's
orders are cut from its row as :class:`Trades`, parallel vectors of
column, signed shares, price and fee.
These vectors are the only form of a period's result. Sums that feed the
reported figures are plain float additions, left to right in column order
(``_sum_left``, one sum per row), so results depend neither on how the
periods are blocked nor on the Python version, whose builtin ``sum`` of
floats is compensated from 3.12 on.

Values are checked once, where they enter (the config classes, ``AlignedPanel``,
the panel length in :func:`run_strategies` and the weights plans); the
functions a period calls take the shapes, prices and capital it builds as
given and judge nothing. A period can fail only by what its capital path
causes, and :func:`run_strategies` alone judges that, period by period in
period order: a target that overflows int64, then commissions that consume
the period's capital, then a net return at or below -100%.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
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
    NumericError,
    TooShort,
    finite_number,
)
from .fractal import HurstConfig, hurst_scales

FIXED_CAPITAL = "fixed_capital"
REINVEST = "reinvest"
TRADING_DAYS_PER_YEAR = 252
# the name the benchmark's run goes by in reports, next to the variants'
BENCHMARK_LABEL = "benchmark"
# the first share count that int64 cannot hold
_INT64_END = 2.0**63
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
            if not (finite_number(value) and value >= 0.0):
                raise ConfigError(f"commission {name} must be a finite number >= 0")


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
        if not (finite_number(self.initial_capital) and self.initial_capital > 0.0):
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


def _sum_left(values: np.ndarray) -> np.ndarray:
    """``values[..., 0] + values[..., 1] + ...``, added left to right in plain floats.

    One sum per row of the last axis; a 1-D ``values`` is one row. The
    order, and with it every bit, is the same on every Python; the builtin
    ``sum`` of floats is compensated from Python 3.12 on. A sum starts from
    its first term: the engine's terms are non-negative, or the cash comes
    first, so a start of 0.0 would change no bit (``0.0 + x`` is ``x``
    unless ``x`` is ``-0.0``).
    """
    # .T[-1] is the last column of a block and the last element of a vector
    return np.add.accumulate(values, axis=-1).T[-1]


def commission_for(shares, price, plan: CommissionPlan) -> np.ndarray:
    """Commission per order for orders of ``shares`` at ``price``; zero shares cost zero.

    ``shares`` (>= 0) and ``price`` (positive, finite) are equal-shape
    arrays (or scalars, giving a 0-d array); zero shares meet a cap of 0.0.
    """
    shares = np.asarray(shares, dtype=float)  # one cast of the share counts, not one per rate
    price = np.asarray(price, dtype=float)
    # a fee or cap that overflows to inf still orders correctly against the other
    with np.errstate(over="ignore"):
        raw = float(plan.per_share) * shares
        cap = float(plan.max_pct_of_value) * shares * price / 100.0
    return np.asarray(np.minimum(np.maximum(raw, plan.min_per_order), cap))


def execute_rebalance(
    weights: np.ndarray, capital: list[float], prices, plan: CommissionPlan, prior
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """Realize rows of target weights as whole-share positions, one row per period.

    ``weights`` and the execution ``prices`` (positive) are (periods x
    columns) blocks, ``capital`` lists each row's start capital and
    ``prior`` holds the shares held before the first row; each later row
    trades from the targets of the row before. Target shares are
    ``floor(weight * capital / price)``; the trades are the deltas, and each
    traded column pays its own commission (an untraded one 0.0, which leaves
    the row's sum unchanged). The unspent remainder stays in cash. Returns,
    for every row, the targets as floats, the int64 holdings, the deltas,
    the fees and the list of each row's total commission.

    Nothing is judged here; :func:`run_strategies` judges each period. A
    target of ``2**63`` shares or more does not fit in int64 and is never
    cast: its column holds 0 shares instead, and the walk rejects that
    row's period before it records it or any later one.
    """
    price = np.asarray(prices, dtype=float)
    with np.errstate(over="ignore"):  # a quotient that overflows is an inf target, not a warning
        target = np.floor(weights * np.asarray(capital, dtype=float)[:, None] / price)
    held, fits = target, target < _INT64_END
    if np.count_nonzero(fits) < fits.size:  # int64 cannot hold these: hold 0, never cast them
        held = np.where(fits, target, 0.0)
    shares = held.astype(np.int64)
    delta = shares - prior
    if len(shares) > 1:  # each later row trades from the targets of the row before
        np.subtract(shares[1:], shares[:-1], out=delta[1:])
    fees = commission_for(np.abs(delta, dtype=float), price, plan)
    return target, shares, delta, fees, _sum_left(fees).tolist()


def period_return(
    shares,
    capital: list[float],
    start_prices,
    end_prices,
    expense_rates,
    commissions: list[float],
) -> tuple[list[float], list[float], list[float]]:
    """Gross returns, expense drags and net returns of fixed holdings, one per holding period.

    ``shares``, the trade-row prices ``start_prices`` and the mark-row
    prices ``end_prices`` are (periods x columns) blocks, and
    ``expense_rates`` holds each column's expense charge over a holding
    period, in percent: its annual expense ratio pro-rated by the period's
    N rows over a 252-day year. ``capital`` and ``commissions`` list one
    value per row, each capital positive, as the engine builds them.
    Positions are priced at the start prices; what of the start ``capital``
    they do not take is held in cash. The gross return is the
    mark-to-market change in percent; the expense drag charges each
    asset's rate on its share of start capital; commissions convert to
    percent of start capital. The net return is gross minus both costs.
    Each comes as a list of floats, one per row.
    """
    shares = np.asarray(shares, dtype=float)
    start_values = shares * start_prices
    invested = _sum_left(start_values)
    cash = np.asarray(capital) - invested
    v_start = invested + cash
    end_values = np.empty((len(shares), shares.shape[-1] + 1))  # the cash, then each position
    end_values[:, 0] = cash
    np.multiply(shares, end_prices, out=end_values[:, 1:])
    v_end = _sum_left(end_values)
    drag = _sum_left(expense_rates * (start_values / v_start[:, None]))
    # a row's scalars in plain floats, which one-row blocks would pay for as arrays
    v_start, drag = v_start.tolist(), drag.tolist()
    gross = [100.0 * (end - start) / start for start, end in zip(v_start, v_end.tolist())]
    net = [g - d - 100.0 * c / start for g, d, c, start in zip(gross, drag, commissions, v_start)]
    return gross, drag, net


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

    The panel must hold a lookback and two holding periods (``3N`` rows),
    as every report needs two periods. The lookback statistics are built by
    the first walk at horizon ``N`` over ``panel`` that runs a variant and
    kept while ``panel`` lives; every later walk at ``N`` over it, of any
    variant, reads them. Each variant's weights plan, with its Hurst fit,
    is built, and raises the walk's data errors, before the first period,
    and is dropped when the walk ends. The strategies then walk one after
    the other, in ``names`` order, so of two that fail the first named
    raises. A variant rebalances and marks its periods in blocks whose start
    capitals are known before the block starts: all of them in
    ``fixed_capital`` mode, one at a time in ``reinvest`` mode; the
    benchmark's periods are one block with no costs.

    Each period is then judged, in period order, before it is recorded, so
    of two failing periods the earlier raises: a target of ``2**63`` shares
    or more (:class:`NumericError`), commissions at or above the period's
    start capital, and a net return at or below -100%
    (:class:`InsufficientCapital`), in that order within a period.
    """
    names = list(dict.fromkeys(names))  # a strategy named twice runs once
    variants = {  # each checked by BacktestConfig's rules; hurst and commission are shared
        name: dataclasses.replace(config, variant=name).variant
        for name in names if name != BENCHMARK_LABEL
    }
    n = config.horizon_n
    n_periods = panel.n_rows // n - 1
    if n_periods < 2:  # every report needs two periods
        raise InsufficientHistory(
            f"panel of {panel.n_rows} rows at horizon {n}: a lookback and two holding "
            f"periods need {3 * n} rows"
        )
    trade_rows = n * np.arange(1, n_periods + 1)  # period k trades at (k+1)N, marks at (k+2)N - 1
    mark_rows = trade_rows + n - 1
    # date objects only for the rows the periods trade and mark on
    starts = list(map(dt.date.fromordinal, panel.ordinals[trade_rows].tolist()))
    ends = list(map(dt.date.fromordinal, panel.ordinals[mark_rows].tolist()))
    columns = panel.portfolio_columns
    # each column's expense charge over a period of N rows, in percent
    expense_rates = panel.expense_ratios[columns] * (n / TRADING_DAYS_PER_YEAR)
    reinvest = config.compounding == REINVEST
    if variants:
        built = _LOOKBACKS.setdefault(panel, {})
        if n not in built:  # period k's lookback is block k of the first n_periods * n rows
            built[n] = lookback_stats(slice_window(panel, n_periods * n - 1, n_periods * n), n)
        plans = {name: weights_plan(built[n], v, config.hurst) for name, v in variants.items()}
        # (periods x portfolio columns): each period's trade-row and mark-row prices
        trade_prices = panel.prices[np.ix_(trade_rows, columns)]
        mark_prices = panel.prices[np.ix_(mark_rows, columns)]
    runs = {}
    for name in names:
        results, equity = [], [config.initial_capital]
        # blocks of the periods whose start capitals are known in advance; no capital
        # enters the benchmark's returns, so its periods are one block, with no costs
        size = 1 if reinvest and name != BENCHMARK_LABEL else n_periods
        if name != BENCHMARK_LABEL:  # the walk's weights, and the same rows as one block
            weights = [compute_weights(plans[name], k) for k in range(n_periods)]
            targets = np.stack([w.weights for w in weights])
            held = np.zeros((1, len(columns)), np.int64)  # weights.tickers order
        for first in range(0, n_periods, size):
            rows = slice(first, min(first + size, n_periods))
            if name == BENCHMARK_LABEL:
                bench = panel.column(config.benchmark)
                gross = net = (100.0 * (bench[mark_rows] / bench[trade_rows] - 1.0)).tolist()
                drag = [0.0] * n_periods
            else:
                capital = [equity[-1] if reinvest else config.initial_capital] * (rows.stop - first)
                target, shares, deltas, fees, commissions = execute_rebalance(
                    targets[rows], capital, trade_prices[rows], config.commission, held
                )
                gross, drag, net = period_return(
                    shares, capital, trade_prices[rows], mark_prices[rows], expense_rates,
                    commissions,
                )
                fits = (target < _INT64_END).all(axis=1).tolist()
                held = shares[-1:]
            for i, k in enumerate(range(first, rows.stop)):
                start_capital = equity[-1] if reinvest else config.initial_capital
                weights_k = trades = None
                cost = 0.0
                if name != BENCHMARK_LABEL:  # the period's rebalance is judged before its return
                    if not fits[i]:
                        j = np.argmin(target[i] < _INT64_END)
                        raise NumericError(
                            f"{panel.portfolio_tickers[j]}: target of {target[i, j]:.6g} shares "
                            "overflows int64"
                        )
                    cost = commissions[i]
                    if cost >= start_capital:
                        raise InsufficientCapital(
                            f"commissions {cost:.2f} would consume capital {start_capital:.2f}"
                        )
                    weights_k, delta = weights[k], deltas[i]
                    traded = delta.nonzero()[0]  # the period's orders, cut from its row
                    trades = Trades(traded, delta[traded], trade_prices[k][traded], fees[i][traded])
                if not net[i] > -100.0:
                    raise InsufficientCapital(
                        f"period ending {ends[k]} returns {net[i]:.2f}%, wiping out its capital"
                    )
                results.append(PeriodResult(
                    start_date=starts[k], end_date=ends[k], weights=weights_k, trades=trades,
                    gross_return=gross[i], expense_drag=drag[i], commission_cost=cost,
                    net_return=net[i], start_capital=start_capital,
                    end_capital=start_capital * (1.0 + net[i] / 100.0),
                ))
                equity.append(equity[-1] * (1.0 + net[i] / 100.0))
        runs[name] = results, EquityCurve(dates=(starts[0], *ends), values=np.array(equity))
    return runs


def run_walk_forward(panel: AlignedPanel, config: BacktestConfig) -> Run:
    """Simulate ``config.variant`` alone (see :func:`run_strategies`)."""
    return run_strategies(panel, config, [config.variant.value])[config.variant.value]


def run_benchmark(panel: AlignedPanel, config: BacktestConfig) -> Run:
    """The cost-free benchmark alone (see :func:`run_strategies`)."""
    return run_strategies(panel, config, [BENCHMARK_LABEL])[BENCHMARK_LABEL]
