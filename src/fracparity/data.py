"""Loading, validation and date-alignment of adjusted price histories.

All downstream computation runs on an :class:`AlignedPanel`: a rectangular
date-by-asset matrix of adjusted closes with no holes. Alignment is by
intersection of trading dates, never by fill: an imputed price would leak
into return and scaling statistics.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

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


@dataclass(eq=False)
class PriceSeries:
    """Adjusted daily closes for one ticker, sorted by date."""

    ticker: str
    dates: tuple[dt.date, ...]
    closes: np.ndarray

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.closes = np.asarray(self.closes, dtype=float)
        if len(self.dates) != len(self.closes):
            raise MalformedRow(self.ticker, 0, "dates and closes differ in length")
        if len(self.dates) < 2:
            raise TooShort(f"{self.ticker}: need at least 2 prices, got {len(self.dates)}")
        for i in range(1, len(self.dates)):
            if self.dates[i] == self.dates[i - 1]:
                raise DuplicateDate(self.ticker, self.dates[i])
            if self.dates[i] < self.dates[i - 1]:
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
    """Date-aligned close-price matrix for a universe (plus benchmark)."""

    dates: tuple[dt.date, ...]
    assets: tuple[AssetSpec, ...]
    prices: np.ndarray  # shape (n_dates, n_assets)

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
        for i in range(1, len(self.dates)):
            if self.dates[i] <= self.dates[i - 1]:
                raise DuplicateDate("<panel>", self.dates[i])
        self._columns = {a.ticker: i for i, a in enumerate(self.assets)}
        if len(self._columns) != len(self.assets):
            raise TickerMismatch(f"duplicate tickers in panel {self.tickers}")

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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(path, 1, "empty file") from None
        header = [h.strip() for h in header]
        if date_column not in header:
            raise MalformedRow(path, 1, f"missing date column {date_column!r}")
        if price_column not in header:
            raise MalformedRow(path, 1, f"missing price column {price_column!r}")
        d_idx = header.index(date_column)
        p_idx = header.index(price_column)

        rows: list[tuple[dt.date, float]] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise MalformedRow(path, line_no, f"expected {len(header)} fields, got {len(row)}")
            try:
                date = dt.date.fromisoformat(row[d_idx].strip())
            except ValueError:
                raise MalformedRow(path, line_no, f"unparseable date {row[d_idx]!r}") from None
            try:
                price = float(row[p_idx])
            except ValueError:
                raise MalformedRow(path, line_no, f"unparseable price {row[p_idx]!r}") from None
            if not np.isfinite(price):
                raise MalformedRow(path, line_no, f"non-finite price {row[p_idx]!r}")
            if price <= 0.0:
                raise NonPositivePrice(ticker, date, price)
            rows.append((date, price))

    rows.sort(key=lambda r: r[0])
    for i in range(1, len(rows)):
        if rows[i][0] == rows[i - 1][0]:
            raise DuplicateDate(ticker, rows[i][0])
    if len(rows) < 2:
        raise TooShort(f"{ticker}: need at least 2 rows, got {len(rows)}")
    return PriceSeries(
        ticker=ticker,
        dates=tuple(r[0] for r in rows),
        closes=np.array([r[1] for r in rows]),
    )


def load_series_csv(path: str, column: str) -> np.ndarray:
    """Read one numeric column from CSV, in file order, no date handling."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise MalformedRow(path, 1, "empty file") from None
        if column not in header:
            raise MalformedRow(path, 1, f"missing column {column!r}")
        idx = header.index(column)
        values: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise MalformedRow(path, line_no, f"expected {len(header)} fields, got {len(row)}")
            try:
                v = float(row[idx])
            except ValueError:
                raise MalformedRow(path, line_no, f"unparseable value {row[idx]!r}") from None
            if not np.isfinite(v):
                raise MalformedRow(path, line_no, f"non-finite value {row[idx]!r}")
            values.append(v)
    return np.array(values)


def align_panel(series: list[PriceSeries], specs: list[AssetSpec]) -> AlignedPanel:
    """Intersect the trading dates of all series into one rectangular panel.

    A date survives only if every series has it; gaps shrink the panel
    rather than getting filled. Asset order follows ``specs``.
    """
    if not series:
        raise EmptyIntersection("no price series supplied")
    spec_tickers = [s.ticker for s in specs]
    if len(set(spec_tickers)) != len(spec_tickers):
        raise TickerMismatch(f"duplicate tickers in universe: {spec_tickers}")
    series_by_ticker = {s.ticker: s for s in series}
    if len(series_by_ticker) != len(series):
        raise TickerMismatch("duplicate tickers among price series")
    if set(series_by_ticker) != set(spec_tickers):
        raise TickerMismatch(
            f"series tickers {sorted(series_by_ticker)} do not match "
            f"universe tickers {sorted(spec_tickers)}"
        )

    common = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    if len(common) < 2:
        raise EmptyIntersection(
            f"date intersection across {len(series)} series has {len(common)} dates"
        )
    dates = tuple(sorted(common))

    prices = np.empty((len(dates), len(specs)))
    for j, spec in enumerate(specs):
        s = series_by_ticker[spec.ticker]
        lookup = dict(zip(s.dates, s.closes))
        prices[:, j] = [lookup[d] for d in dates]
    return AlignedPanel(dates=dates, assets=tuple(specs), prices=prices)


def slice_window(panel: AlignedPanel, end_index: int, length: int) -> AlignedPanel:
    """Contiguous sub-panel of exactly ``length`` rows ending at ``end_index``."""
    if length < 1:
        raise OutOfRange(f"window length must be >= 1, got {length}")
    start = end_index - length + 1
    if start < 0 or end_index >= panel.n_rows:
        raise OutOfRange(
            f"window [{start}, {end_index}] does not fit in panel of {panel.n_rows} rows"
        )
    return AlignedPanel(
        dates=panel.dates[start : end_index + 1],
        assets=panel.assets,
        prices=panel.prices[start : end_index + 1, :].copy(),
    )
