"""Walk-forward out-of-sample simulator.

The engine tiles the panel after an initial lookback: optimize on rows
``[k*N, (k+1)*N)``, trade at the close of the last of them, row
``(k+1)*N - 1``, and hold until the close of row ``(k+2)*N - 1``, where the
next period trades; repeat. A period holds N daily returns, consecutive
periods share an endpoint, and every daily return from the first trade to
the last mark belongs to exactly one period; the rows after the last full
period belong to none. Those rows are defined in one place,
:func:`_period_rows`, and :func:`run_strategies`, the one period loop of the
three variants and the cost-free benchmark, reads them there; the tests'
oracles state the rule once more, in ``oracles.period_rows``. Trades fill at
the trade-row close with zero slippage; whole shares only, with the
remainder parked in zero-earning cash. Costs are commissions per trade
(per-share rate floored per order and capped as a percentage of trade
value) plus each fund's expense ratio pro-rated over the holding period.

Two compounding modes ship: ``fixed_capital`` resets the deployed capital
to the initial amount every period, so the period returns form an i.i.d.-
style sample for the metric tables; ``reinvest`` chains each period's end
capital into the next. The equity curve always compounds the per-period net
returns; in reinvest mode that is exactly the simulated capital path, in
fixed-capital mode it is the reinvested view of the per-period results.

Each period of a variant is a fixed set of array operations over the
portfolio columns, from the lookback statistics to the net return, and
builds no per-asset Python object. Only the lookbacks are a window: one
read-only view of the panel (:func:`slice_window`) per horizon, from which
:func:`lookback_stats` returns the statistics of every lookback in one
pass. Each variant's :func:`weights_plan` covers every lookback at once
(``fractal_biased`` fits the Hurst exponents of every lookback in one
batched call) and normalizes every lookback's weights into one (lookbacks
x assets) block. A period's weights are its row of that block: a variant
rebalances on the plan's rows, and :func:`compute_weights` returns a
recorded period's weights with their diagnostics as row views of the plan.

A variant rebalances (:func:`execute_rebalance`) and marks
(:func:`period_return`) a block of periods in one pass. The kernel takes
(periods x columns) rows of weights and of trade-row and mark-row prices;
each row trades from the targets of the row before, and it computes every
row it is given. The holdings are int64 shares in portfolio-column order,
and each period's orders are cut from its row as :class:`Trades`, parallel
vectors of column, signed shares, price and fee. These vectors are the only
form of a period's result. Sums that feed the reported figures are plain
float additions, left to right in column order (``_sum_left``, one sum per
row), so results depend neither on how the periods are blocked nor on the
Python version, whose builtin ``sum`` of floats is compensated from 3.12 on.

Values are checked once, where they enter (the config classes,
``AlignedPanel``, the panel length in :func:`run_strategies` and the
weights plans); the functions a period calls take the shapes, prices and
capital it builds as given and judge nothing. A period can fail only by
what its capital path causes, and the record step of :func:`run_strategies`
alone judges that.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
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
    DegeneratePath,
    DegenerateVolatility,
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
    shares = np.where(target < _INT64_END, target, 0.0).astype(np.int64)  # hold 0, never cast
    delta = shares - prior
    np.subtract(shares[1:], shares[:-1], out=delta[1:])  # later rows trade from the row before
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
    N daily returns over a 252-day year. ``capital`` and ``commissions``
    list one value per row, each capital positive, as the engine builds
    them.
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


def _period_rows(n_rows: int, n: int) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """The walk's rows at horizon ``n`` over ``n_rows`` rows: the one home of the period rule.

    Returns the lookback window, as the ``(end_index, length)`` of
    :func:`slice_window` (period ``k``'s lookback is its block ``k`` of ``n``
    rows), and each period's trade row and mark row. After the first ``n``
    lookback rows the rows tile into ``n_rows // n - 1`` periods: period ``k``
    looks back over rows ``[k*n, (k+1)*n)``, trades at the close of its last
    row, ``(k+1)*n - 1``, and is marked at the close of row ``(k+2)*n - 1``,
    the last row of the next lookback, where period ``k + 1`` trades. So
    each period holds ``n`` daily returns and none falls between two.
    """
    ends = n * np.arange(1, n_rows // n)  # each lookback's end, one row past its last
    return (len(ends) * n - 1, len(ends) * n), ends - 1, ends + n - 1


def run_strategies(panel: AlignedPanel, config: BacktestConfig, names: list[str]) -> dict[str, Run]:
    """Walk the named strategies over the same periods; results by name, in ``names`` order.

    ``names`` lists variant values, each run as ``config`` with that variant
    (checked before the walk starts), and :data:`BENCHMARK_LABEL`, the
    cost-free run of the ``config.benchmark`` column. The periods' rows are
    those of :func:`_period_rows`: each period trades at its lookback's last
    close and is marked after it, so no holding-window price can influence
    its weights. Each period starts from the initial capital in
    ``fixed_capital`` mode and from the end of the strategy's equity chain
    in ``reinvest`` mode. The panel must hold a lookback and two holding
    periods (``3N`` rows), as every report needs two periods.

    If any variant runs, the lookback statistics at ``N`` are read from
    those kept with ``panel``, or built and kept while it lives, and each
    variant's weights plan, with its Hurst fit, is built for this walk;
    building them raises the walk's data errors before the first period,
    each prefixed with the variant's name.
    The strategies then walk one after the other, in ``names`` order, so of
    two that fail the first named raises. A strategy's name chooses only how
    its period returns are computed. The benchmark's are its close-to-close
    changes, one vector operation, with no drag, commission, weights or
    trades. A variant rebalances and marks its periods in blocks whose start
    capitals are known before the block starts: all of them in
    ``fixed_capital`` mode, one at a time in ``reinvest`` mode.

    Every period of every strategy then passes through one record step, in
    period order, which judges the period before it appends its result and
    its equity point, so of two failing periods the earlier raises. It
    checks a target of ``2**63`` shares or more (:class:`NumericError`; only
    a variant has targets), commissions at or above the period's start
    capital (:class:`InsufficientCapital`), a net return or next equity
    point that is not a finite number (:class:`NumericError`, naming for a
    variant the first ticker whose marked value is not finite), and a net
    return at or below -100% (:class:`InsufficientCapital`), in that order.
    Each message starts with the strategy's name.
    The strategies walk under one ``np.errstate`` that lets an overflow
    through as ``inf``, for the record step to judge.
    """
    names = list(dict.fromkeys(names))  # a strategy named twice runs once
    variants = {  # each checked by BacktestConfig's rules; hurst and commission are shared
        name: dataclasses.replace(config, variant=name).variant
        for name in names if name != BENCHMARK_LABEL
    }
    n = config.horizon_n
    window, trade_rows, mark_rows = _period_rows(panel.n_rows, n)
    n_periods = len(trade_rows)
    if n_periods < 2:  # every report needs two periods
        raise InsufficientHistory(
            f"panel of {panel.n_rows} rows at horizon {n}: a lookback and two holding "
            f"periods need {3 * n} rows"
        )
    # date objects only for the rows the periods trade and mark on
    starts = list(map(dt.date.fromordinal, panel.ordinals[trade_rows].tolist()))
    ends = list(map(dt.date.fromordinal, panel.ordinals[mark_rows].tolist()))
    columns = panel.portfolio_columns
    # each column's expense charge over a period of N daily returns, in percent
    expense_rates = panel.expense_ratios[columns] * (n / TRADING_DAYS_PER_YEAR)
    reinvest = config.compounding == REINVEST
    if variants:
        built = _LOOKBACKS.setdefault(panel, {})
        if n not in built:
            built[n] = lookback_stats(slice_window(panel, *window), n)
        plans = {}
        for name, variant in variants.items():
            try:
                plans[name] = weights_plan(built[n], variant, config.hurst)
            except (DegeneratePath, DegenerateVolatility) as exc:
                raise type(exc)(f"{name}: {exc}") from None
        # (periods x portfolio columns): each period's trade-row and mark-row prices
        trade_prices = panel.prices[np.ix_(trade_rows, columns)]
        mark_prices = panel.prices[np.ix_(mark_rows, columns)]

    def rebalanced(plan, equity: list[float]):
        """A variant's blocks of periods, each rebalanced and marked in one pass.

        A block's start capital is read from ``equity`` when the block is
        drawn, so in ``reinvest`` mode after the period before it is recorded.
        """
        held = np.zeros((1, len(columns)), np.int64)  # the plan's column order
        size = 1 if reinvest else n_periods
        for first in range(0, n_periods, size):
            rows = slice(first, min(first + size, n_periods))
            capital = [equity[-1] if reinvest else config.initial_capital] * (rows.stop - first)
            target, shares, deltas, fees, commissions = execute_rebalance(
                plan.weights[rows], capital, trade_prices[rows], config.commission, held
            )
            gross, drag, net = period_return(
                shares, capital, trade_prices[rows], mark_prices[rows], expense_rates, commissions
            )
            held = shares[-1:]
            yield first, gross, drag, commissions, net, (plan, target, deltas, fees)

    runs = {}
    with np.errstate(over="ignore"):  # an overflow is judged as a value that is not finite
        for name in names:
            results, equity = [], [config.initial_capital]
            if name == BENCHMARK_LABEL:  # no capital enters its returns: one block, with no costs
                bench = panel.column(config.benchmark)
                change = (100.0 * (bench[mark_rows] / bench[trade_rows] - 1.0)).tolist()
                blocks = [(0, change, [0.0] * n_periods, [0.0] * n_periods, change, None)]
            else:
                blocks = rebalanced(plans[name], equity)
            for first, gross, drag, commissions, net, orders in blocks:
                for i, k in enumerate(range(first, first + len(net))):  # the record step
                    start_capital = equity[-1] if reinvest else config.initial_capital
                    weights_k = trades = None
                    if orders is not None:
                        plan, target, deltas, fees = orders
                        if not (target[i] < _INT64_END).all():  # a NaN target does not fit either
                            j = np.argmin(target[i] < _INT64_END)
                            raise NumericError(
                                f"{name}: {panel.portfolio_tickers[j]}: target of "
                                f"{target[i, j]:.6g} shares overflows int64"
                            )
                        weights_k, delta = compute_weights(plan, k), deltas[i]
                        traded = delta.nonzero()[0]  # the period's orders, cut from its row
                        trades = Trades(traded, delta[traded], trade_prices[k][traded],
                                        fees[i][traded])
                    if commissions[i] >= start_capital:
                        raise InsufficientCapital(
                            f"{name}: commissions {commissions[i]:.2f} would consume capital "
                            f"{start_capital:.2f}"
                        )
                    point = equity[-1] * (1.0 + net[i] / 100.0)
                    if not math.isfinite(point):  # a finite net return can overflow the chain too
                        detail = (f"returns {net[i]:.6g}%" if not math.isfinite(net[i])
                                  else f"takes the equity curve to {point:.6g}")
                        # the targets fit int64 here, so they are the held shares as floats
                        marked = [] if orders is None else target[i] * mark_prices[k]
                        bad = np.flatnonzero(~np.isfinite(marked))
                        if bad.size:
                            j = bad[0]
                            detail = f"marks {panel.portfolio_tickers[j]} at {marked[j]:.6g}"
                        raise NumericError(f"{name}: period ending {ends[k]} {detail}, "
                                           "which is not finite")
                    if not net[i] > -100.0:
                        raise InsufficientCapital(f"{name}: period ending {ends[k]} returns "
                                                  f"{net[i]:.2f}%, wiping out its capital")
                    results.append(PeriodResult(
                        start_date=starts[k], end_date=ends[k], weights=weights_k, trades=trades,
                        gross_return=gross[i], expense_drag=drag[i], commission_cost=commissions[i],
                        net_return=net[i], start_capital=start_capital,
                        end_capital=start_capital * (1.0 + net[i] / 100.0),
                    ))
                    equity.append(point)
            runs[name] = results, EquityCurve(dates=(starts[0], *ends), values=np.array(equity))
    return runs


def run_walk_forward(panel: AlignedPanel, config: BacktestConfig) -> Run:
    """Simulate ``config.variant`` alone (see :func:`run_strategies`)."""
    return run_strategies(panel, config, [config.variant.value])[config.variant.value]


def run_benchmark(panel: AlignedPanel, config: BacktestConfig) -> Run:
    """The cost-free benchmark alone (see :func:`run_strategies`)."""
    return run_strategies(panel, config, [BENCHMARK_LABEL])[BENCHMARK_LABEL]
