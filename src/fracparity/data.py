"""Loading, validation and date-alignment of adjusted price histories.

All downstream computation runs on an :class:`AlignedPanel`: a rectangular
date-by-asset matrix of adjusted closes with no holes. Alignment is by
intersection of trading dates, never by fill: an imputed price would leak
into return and scaling statistics.

Files are read as UTF-8 (a byte-order mark is dropped). A CSV is checked
and parsed a whole column at a time; only when that fails are its rows
scanned one by one, to name the first bad line. Dates are sorted, checked
and intersected as integer day ordinals, which each series keeps.
"""

from __future__ import annotations

import copy
import csv
import datetime as dt
import io
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import (
    DuplicateDate,
    EmptyIntersection,
    MalformedRow,
    NonPositivePrice,
    OutOfRange,
    TickerMismatch,
    TooShort,
)

ROLE_PORTFOLIO = "portfolio_asset"
ROLE_BENCHMARK = "benchmark"
VALID_ROLES = (ROLE_PORTFOLIO, ROLE_BENCHMARK)

DEFAULT_DATE_COLUMN = "date"
DEFAULT_PRICE_COLUMN = "adj_close"


@dataclass(frozen=True)
class AssetSpec:
    """One universe entry: ticker, annual expense ratio (percent), role."""

    ticker: str
    expense_ratio: float = 0.0
    role: str = ROLE_PORTFOLIO

    def __post_init__(self):
        if not self.ticker:
            raise TickerMismatch("empty ticker in asset spec")
        if not 0.0 <= self.expense_ratio < 100.0:
            raise ValueError(
                f"{self.ticker}: expense_ratio must be in [0, 100), "
                f"got {self.expense_ratio}"
            )
        if self.role not in VALID_ROLES:
            raise ValueError(f"{self.ticker}: unknown role {self.role!r}")


def _ordinals(dates) -> np.ndarray:
    """Day numbers of ``dates``."""
    return np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))


def _first_unordered(days: np.ndarray) -> int:
    """Index of the first day number not above its predecessor, or 0."""
    bad = np.flatnonzero(np.diff(days) <= 0)
    return int(bad[0]) + 1 if bad.size else 0


@dataclass(eq=False)
class PriceSeries:
    """Adjusted daily closes for one ticker, sorted by date.

    ``ordinals`` are the day numbers of ``dates``; a caller that already has
    them may pass them, otherwise they are computed here.
    """

    ticker: str
    dates: tuple[dt.date, ...]
    closes: np.ndarray
    ordinals: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.closes = np.asarray(self.closes, dtype=float)
        if len(self.dates) != len(self.closes):
            raise MalformedRow(self.ticker, 0, "dates and closes differ in length")
        if len(self.dates) < 2:
            raise TooShort(f"{self.ticker}: need at least 2 prices, got {len(self.dates)}")
        if self.ordinals is None:
            self.ordinals = _ordinals(self.dates)
        elif np.shape(self.ordinals) != (len(self.dates),):
            raise MalformedRow(self.ticker, 0, "dates and ordinals differ in length")
        i = _first_unordered(self.ordinals)
        if i and self.ordinals[i] == self.ordinals[i - 1]:
            raise DuplicateDate(self.ticker, self.dates[i])
        if i:
            raise MalformedRow(self.ticker, 0, "dates not sorted ascending")
        if not np.all(np.isfinite(self.closes)):
            raise MalformedRow(self.ticker, 0, "non-finite price")
        bad = np.nonzero(self.closes <= 0.0)[0]
        if bad.size:
            i = int(bad[0])
            raise NonPositivePrice(self.ticker, self.dates[i], float(self.closes[i]))

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(eq=False)
class AlignedPanel:
    """Date-aligned close-price matrix for a universe (plus benchmark).

    The column lookups the engine needs every period are built once here:
    the ticker index, the ``portfolio_columns`` (role ``portfolio_asset``,
    in panel order) with their ``portfolio_tickers``, and the annual
    ``expense_ratios`` (percent, one per column). Windows made by
    :func:`slice_window` share them.
    """

    dates: tuple[dt.date, ...]
    assets: tuple[AssetSpec, ...]
    prices: np.ndarray  # shape (n_dates, n_assets)
    portfolio_columns: np.ndarray = field(init=False, repr=False)
    portfolio_tickers: tuple[str, ...] = field(init=False, repr=False)
    expense_ratios: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.assets = tuple(self.assets)
        self.prices = np.asarray(self.prices, dtype=float)
        if self.prices.shape != (len(self.dates), len(self.assets)):
            raise ValueError(
                f"panel shape {self.prices.shape} does not match "
                f"{len(self.dates)} dates x {len(self.assets)} assets"
            )
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0.0):
            raise NonPositivePrice("<panel>", None, float(np.min(self.prices)))
        i = _first_unordered(_ordinals(self.dates))
        if i:
            raise DuplicateDate("<panel>", self.dates[i])
        self._columns = {a.ticker: i for i, a in enumerate(self.assets)}
        if len(self._columns) != len(self.assets):
            raise TickerMismatch(f"duplicate tickers in panel {self.tickers}")
        self.portfolio_columns = np.flatnonzero([a.role == ROLE_PORTFOLIO for a in self.assets])
        self.portfolio_tickers = tuple(self.assets[i].ticker for i in self.portfolio_columns)
        self.expense_ratios = np.array([a.expense_ratio for a in self.assets], dtype=float)
        self.portfolio_columns.flags.writeable = False
        self.expense_ratios.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def tickers(self) -> tuple[str, ...]:
        return tuple(a.ticker for a in self.assets)

    def index_of(self, ticker: str) -> int:
        try:
            return self._columns[ticker]
        except KeyError:
            raise TickerMismatch(f"ticker {ticker!r} not in panel {self.tickers}") from None

    def column(self, ticker: str) -> np.ndarray:
        return self.prices[:, self.index_of(ticker)]

    def portfolio_assets(self) -> tuple[AssetSpec, ...]:
        return tuple(a for a in self.assets if a.role == ROLE_PORTFOLIO)


def read_text(path) -> str:
    """Text of a UTF-8 file without its byte-order mark; bad bytes raise MalformedRow."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise MalformedRow(str(path), raw.count(b"\n", 0, exc.start) + 1, "not UTF-8") from None


def _raise_first_bad_row(path, rows, width, fields, ticker):
    """Raise the error of the first bad row (line 2 on) at ``fields``: [date,] value."""
    *date_at, value_at = fields
    label = "price" if date_at else "value"
    for line, row in enumerate(rows, start=2):
        if len(row) != width:
            raise MalformedRow(path, line, f"expected {width} fields, got {len(row)}")
        if date_at:
            try:
                date = dt.date.fromisoformat(row[date_at[0]].strip())
            except ValueError:
                raise MalformedRow(path, line, f"unparseable date {row[date_at[0]]!r}") from None
        try:
            value = float(row[value_at])
        except ValueError:
            raise MalformedRow(path, line, f"unparseable {label} {row[value_at]!r}") from None
        if not np.isfinite(value):
            raise MalformedRow(path, line, f"non-finite {label} {row[value_at]!r}")
        if date_at and value <= 0.0:
            raise NonPositivePrice(ticker, date, value)


def _read_columns(path: str, names: dict[str, str], ticker: str = ""):
    """Dates (None if undated) and values of a headed CSV, in file order.

    ``names`` maps "value", or "date" and "price", to header names; the
    rules of :func:`_raise_first_bad_row` are applied to whole columns.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedRow(path, reader.line_num, str(exc)) from None
    if not rows:
        raise MalformedRow(path, 1, "empty file")
    header = [h.strip() for h in rows.pop(0)]
    for kind, name in names.items():
        if name not in header:
            raise MalformedRow(path, 1, f"missing {kind} column {name!r}")
    fields = [header.index(name) for name in names.values()]
    if not set(map(len, rows)) <= {len(header)}:
        _raise_first_bad_row(path, rows, len(header), fields, ticker)
    columns = [list(map(itemgetter(i), rows)) for i in fields]
    del rows  # the columns hold every field still needed
    *date_col, value_col = columns
    try:
        dates = list(map(dt.date.fromisoformat, map(str.strip, date_col[0]))) if date_col else None
        values = np.fromiter(map(float, value_col), dtype=float, count=len(value_col))
        ok = np.isfinite(values).all() and (not date_col or (values > 0.0).all())
    except ValueError:
        ok = False
    if not ok:
        _raise_first_bad_row(path, zip(*columns), len(columns), range(len(columns)), ticker)
    return dates, values


def load_price_csv(
    path: str,
    ticker: str,
    date_column: str = DEFAULT_DATE_COLUMN,
    price_column: str = DEFAULT_PRICE_COLUMN,
) -> PriceSeries:
    """Read one adjusted-close series from CSV.

    The file must have a header row naming ``date_column`` (ISO-8601 dates)
    and ``price_column`` (decimal prices). Rows that fail to parse are
    rejected with the offending line number, not skipped. The returned
    series is sorted ascending by date.
    """
    dates, closes = _read_columns(path, {"date": date_column, "price": price_column}, ticker)
    if len(dates) < 2:
        raise TooShort(f"{ticker}: need at least 2 rows, got {len(dates)}")
    days = _ordinals(dates)
    order = np.argsort(days, kind="stable")
    sorted_dates = tuple(map(dates.__getitem__, order.tolist()))
    return PriceSeries(ticker, sorted_dates, closes[order], ordinals=days[order])


def load_series_csv(path: str, column: str) -> np.ndarray:
    """Read one numeric column from CSV, in file order, no date handling."""
    return _read_columns(path, {"value": column})[1]


def align_panel(series: list[PriceSeries], specs: list[AssetSpec]) -> AlignedPanel:
    """Intersect the trading dates of all series into one rectangular panel.

    A date survives only if every series has it; gaps shrink the panel
    rather than getting filled. Asset order follows ``specs``.
    """
    if not series:
        raise EmptyIntersection("no price series supplied")
    spec_tickers = [s.ticker for s in specs]
    series_by_ticker = {s.ticker: s for s in series}
    if len(series_by_ticker) != len(series):
        raise TickerMismatch("duplicate tickers among price series")
    if set(series_by_ticker) != set(spec_tickers):
        raise TickerMismatch(
            f"series tickers {sorted(series_by_ticker)} do not match "
            f"universe tickers {sorted(spec_tickers)}"
        )

    common = series[0].ordinals
    for s in series[1:]:
        common = np.intersect1d(common, s.ordinals, assume_unique=True)
    if len(common) < 2:
        raise EmptyIntersection(
            f"date intersection across {len(series)} series has {len(common)} dates"
        )

    prices = np.empty((len(common), len(specs)))
    for j, spec in enumerate(specs):
        s = series_by_ticker[spec.ticker]
        prices[:, j] = s.closes[np.searchsorted(s.ordinals, common)]
    dates = tuple(map(dt.date.fromordinal, common.tolist()))
    return AlignedPanel(dates=dates, assets=tuple(specs), prices=prices)


def slice_window(panel: AlignedPanel, end_index: int, length: int) -> AlignedPanel:
    """Contiguous sub-panel of exactly ``length`` rows ending at ``end_index``.

    The window is a read-only view of ``panel``: its prices share the
    panel's memory and cannot be written, and it shares the panel's column
    lookups. A slice of a valid panel is valid, so it is not checked again.
    """
    if length < 1:
        raise OutOfRange(f"window length must be >= 1, got {length}")
    start = end_index - length + 1
    if start < 0 or end_index >= panel.n_rows:
        raise OutOfRange(
            f"window [{start}, {end_index}] does not fit in panel of {panel.n_rows} rows"
        )
    window = copy.copy(panel)
    window.dates = panel.dates[start : end_index + 1]
    window.prices = panel.prices[start : end_index + 1]
    window.prices.flags.writeable = False
    return window
