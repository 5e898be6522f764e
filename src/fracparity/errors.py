"""Exception hierarchy shared across the package.

Three branches matter to the CLI exit-code mapping: ConfigError (bad run
configuration or parameters), DataError (bad or insufficient input data) and
NumericError (a numerical procedure failed or hit a degenerate input).
:func:`finite_number` is the one rule for what a numeric setting may be.
"""

from __future__ import annotations

import sys


def finite_number(value) -> bool:
    """True for an int or float, not a bool, inside the range of finite floats."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


class FracparityError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FracparityError):
    """Invalid run configuration or invalid user-supplied parameters."""


class DataError(FracparityError):
    """Input data is malformed, inconsistent, or too short for the task."""


class NumericError(FracparityError):
    """A numerical routine failed or was handed a degenerate input."""


# --- data ingestion -------------------------------------------------------

class MalformedRow(DataError):
    """A line of an input file (CSV row, header, or text that is not UTF-8) could not be parsed."""

    def __init__(self, path: str, line: int, detail: str):
        super().__init__(f"{path}:{line}: {detail}")
        self.line = line


class NonPositivePrice(DataError):
    """A close price of zero or below was encountered."""

    def __init__(self, ticker: str, date, price: float):
        super().__init__(f"{ticker}: non-positive price {price} on {date}")


class DuplicateDate(DataError):
    """The same calendar date appears twice in one series."""

    def __init__(self, ticker: str, date):
        super().__init__(f"{ticker}: duplicate date {date}")


class EmptyIntersection(DataError):
    """Aligning the series left fewer than two common dates."""


class TickerMismatch(DataError):
    """Series tickers and asset specs do not match one-to-one."""


class OutOfRange(DataError):
    """A requested window does not fit inside the available history."""


class TooShort(DataError):
    """The series is too short for the requested computation."""


class Empty(DataError):
    """An operation that needs at least one element got none."""


class InsufficientHistory(DataError):
    """The panel cannot accommodate even one lookback-plus-holding cycle."""


# --- numerics -------------------------------------------------------------

class DegeneratePath(NumericError):
    """The path is constant at some scale, so no scaling law can be fit."""


class QuadratureFailure(NumericError):
    """The stable CDF's fixed-node quadrature has an error estimate above the tolerance."""

    def __init__(self, achieved_error: float, tolerance: float):
        super().__init__(
            f"quadrature error estimate {achieved_error:.3e} exceeds "
            f"tolerance {tolerance:.3e}"
        )


class InvalidHurst(ConfigError):
    """Invalid Hurst estimator settings: clamp bounds or scale counts."""


class DegenerateVolatility(NumericError):
    """An asset selected for investment has zero return volatility."""


class InsufficientCapital(NumericError):
    """Commissions for the required trades exceed the available capital."""


class DegenerateBenchmark(NumericError):
    """Benchmark returns have zero variance; beta is undefined."""


class InvalidStableParams(ConfigError):
    """Stable-distribution parameters violate their admissible ranges."""
