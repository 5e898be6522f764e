"""Annualized performance statistics for period-return samples.

Conventions: period returns are percent per holding period; annualization
scales the mean by 252/n and the standard deviation by sqrt(252/n). The
risk-free rate defaults to zero for both Sharpe and Treynor, so each report
satisfies sharpe == return / std and treynor == 0.01 * return / beta by
construction; each is NaN where undefined (zero deviation, zero beta).
Drawdown is measured on period-end equity.

The statistics take their samples as a walk builds them and judge only
what a walk can produce: every report rests on two or more periods, with
the strategy's and the benchmark's returns on the same periods, because
:func:`fracparity.backtest.run_strategies` rejects a panel shorter than a
lookback and two holding periods (``InsufficientHistory``). Two failures
are left here: a benchmark whose returns do not vary
(``DegenerateBenchmark``), for which beta is undefined, and finite returns
so large that their mean, variance or covariance is not finite
(``NumericError`` naming the statistic). Outside these two rules the only
non-finite values a report holds are its documented NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backtest import EquityCurve, PeriodResult, TRADING_DAYS_PER_YEAR
from .errors import DegenerateBenchmark, NumericError


@dataclass(frozen=True)
class PerformanceReport:
    """One row of the comparison table, plus the series behind it."""

    sharpe: float
    treynor_x001: float
    avg_annual_return: float
    protection: float
    annualized_std: float
    beta: float
    periods_used: int
    mode: str
    period_returns: tuple[float, ...]

    def to_dict(self) -> dict:
        def clean(x):
            return None if isinstance(x, float) and not math.isfinite(x) else x

        return {
            "sharpe": clean(self.sharpe),
            "treynor_x001": clean(self.treynor_x001),
            "avg_annual_return": clean(self.avg_annual_return),
            "protection": clean(self.protection),
            "annualized_std": clean(self.annualized_std),
            "beta": clean(self.beta),
            "periods_used": self.periods_used,
            "mode": self.mode,
            "period_returns": [clean(r) for r in self.period_returns],
        }


def _finite(statistic: str, value: float) -> float:
    """``value``, or NumericError naming ``statistic`` when it is not finite."""
    if not math.isfinite(value):
        raise NumericError(f"{statistic} is {value}, which is not finite")
    return value


def annualize_return(period_returns, n: int) -> float:
    """Mean period return scaled to a 252-day year."""
    return _finite("mean return", float(np.mean(period_returns)) * (TRADING_DAYS_PER_YEAR / n))


def annualize_std(period_returns, n: int) -> float:
    """Unbiased standard deviation of period returns scaled by sqrt(252/n)."""
    std = float(np.std(period_returns, ddof=1)) * math.sqrt(TRADING_DAYS_PER_YEAR / n)
    return _finite("standard deviation", std)


def sharpe(annual_return: float, annual_std: float, risk_free_rate: float = 0.0) -> float:
    """Annualized Sharpe ratio, NaN at zero deviation; the risk-free rate defaults to zero."""
    if annual_std <= 0.0:
        return math.nan
    return (annual_return - risk_free_rate) / annual_std


def beta(portfolio_returns, benchmark_returns) -> float:
    """Covariance with the benchmark over benchmark variance (n-1 conventions)."""
    var_b = _finite("benchmark variance", float(np.var(benchmark_returns, ddof=1)))
    if var_b == 0.0:
        raise DegenerateBenchmark("benchmark returns have zero variance")
    cov = np.cov(portfolio_returns, benchmark_returns, ddof=1)[0, 1]
    return _finite("covariance with the benchmark", float(cov)) / var_b


def treynor(annual_return: float, beta_value: float, risk_free_rate: float = 0.0) -> float:
    """Treynor ratio scaled by 0.01, matching the table convention; NaN at beta = 0."""
    if beta_value == 0.0:
        return math.nan
    return 0.01 * (annual_return - risk_free_rate) / beta_value


def max_drawdown(values) -> float:
    """Largest peak-to-trough decline of the (positive) equity values, in percent."""
    values = np.asarray(values, dtype=float)
    peaks = np.maximum.accumulate(values)
    return float(np.max((peaks - values) / peaks)) * 100.0


def capital_protection(mdd: float) -> float:
    """Percent of capital preserved at the worst drawdown ``mdd`` (0 to 100): 100 - mdd."""
    return 100.0 - mdd


def build_report(
    results: list[PeriodResult],
    equity: EquityCurve,
    benchmark_results: list[PeriodResult],
    n: int,
    mode: str,
    risk_free_rate: float = 0.0,
) -> PerformanceReport:
    """Assemble the full metric row for one strategy against the benchmark.

    The mean, variance and covariance are computed with numpy's overflow
    and invalid-value warnings off, and each one is judged: one that is not
    finite raises ``NumericError`` naming it. The caller names the strategy.
    """
    rets = [r.net_return for r in results]
    bench = [r.net_return for r in benchmark_results]
    with np.errstate(over="ignore", invalid="ignore"):
        avg = annualize_return(rets, n)
        std = annualize_std(rets, n)
        b = beta(rets, bench)
    protection = capital_protection(max_drawdown(equity.values))
    return PerformanceReport(
        sharpe=sharpe(avg, std, risk_free_rate),
        treynor_x001=treynor(avg, b, risk_free_rate),
        avg_annual_return=avg,
        protection=protection,
        annualized_std=std,
        beta=b,
        periods_used=len(rets),
        mode=mode,
        period_returns=tuple(rets),
    )
