"""Loading, validation and date-alignment of adjusted price histories.

All downstream computation runs on an :class:`AlignedPanel`: a rectangular
date-by-asset matrix of adjusted closes with no holes. Alignment is by
intersection of trading dates, never by fill: an imputed price would leak
into return and scaling statistics.

Files are read as UTF-8 (a byte-order mark is dropped), by one of two
routes. A CSV of the common shape is read straight from its bytes: ASCII
with no quote, carriage return or NUL, at least two data rows, every line
with the header's field count and no byte at or below ``,`` in a field (one
comparison finds the commas and newlines, and a space, tab, ``#`` or ``+``
among them sends the file to ``csv.reader``), no field over
``csv.field_size_limit()``, every date exactly
``YYYY-MM-DD`` naming a real day of year 1 or later, and every value
``digits.digits`` with one fraction width k and at most 15 digits (above 0
for prices). The digits make an integer below 10**15 < 2**53, exact in any
summation order, and one division by the exact float 10**k rounds it as
``float()`` rounds the text. Any other file goes through ``csv.reader`` in
one scan that parses and checks each row in file order, so the first bad
line is the one named. Both routes give the same dates, values and errors.
:func:`load_price_csv` alone decides a file's route and its calendar:
:func:`_fast_columns` only splits a common-shape text into date bytes and
values, copying each field out through one byte window per row. Within one
panel load each distinct date column is parsed, sorted and checked once; a
later file's date bytes are matched against it as they lie in the file,
row by row, and the series on it share its ordinals.
Dates are sorted, checked and intersected as integer day ordinals: a
:class:`PriceSeries` and an :class:`AlignedPanel` are each made from
read-only ordinals, whose order one rule judges for both, and build their
``datetime.date`` tuple only when ``dates`` is first read. Series that
all have one calendar are aligned by stacking their closes, without
counting days, and the panel takes their ordinals as they are.
:func:`log_returns` gives a panel's returns, and those of
``fracparity hurst --prices``: daily log returns in percent
(100 * delta-log-price), along the last axis.
"""

from __future__ import annotations

import copy
import csv
import datetime as dt
import io
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DuplicateDate,
    EmptyIntersection,
    MalformedRow,
    NonPositivePrice,
    OutOfRange,
    TickerMismatch,
    TooShort,
    finite_number,
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
            raise ConfigError("empty ticker in asset spec")
        if not (finite_number(self.expense_ratio) and 0.0 <= self.expense_ratio < 100.0):
            raise ConfigError(
                f"{self.ticker}: expense_ratio must be in [0, 100), "
                f"got {self.expense_ratio}"
            )
        if self.role not in VALID_ROLES:
            raise ConfigError(f"{self.ticker}: unknown role {self.role!r}")


def _check_calendar(name: str, ordinals: np.ndarray) -> None:
    """Raise unless the day numbers ``ordinals`` ascend strictly.

    The first day not above the one before it raises ``DuplicateDate``
    naming ``name`` and that day if it repeats it, else ``MalformedRow``
    (``<name>:0: dates not sorted ascending``).
    """
    stalled = np.flatnonzero(np.diff(ordinals) <= 0) + 1
    if stalled.size and ordinals[stalled[0]] == ordinals[stalled[0] - 1]:
        raise DuplicateDate(name, dt.date.fromordinal(int(ordinals[stalled[0]])))
    if stalled.size:
        raise MalformedRow(name, 0, "dates not sorted ascending")


class PriceSeries:
    """Adjusted daily closes for one ticker, sorted by date.

    ``ordinals`` are the day numbers (``date.toordinal()``) of the closes,
    which the series makes read-only; ``dates`` is built from them on first
    read. The CSV readers check the closes. The series of one panel load
    that share a calendar share its ``ordinals`` array.
    """

    def __init__(self, ticker: str, ordinals, closes):
        self.ticker = ticker
        self.ordinals = ordinals = np.asarray(ordinals)
        ordinals.flags.writeable = False
        self.closes = np.asarray(closes, dtype=float)
        n = len(self.closes)
        if ordinals.shape != (n,):
            raise MalformedRow(ticker, 0, "ordinals and closes differ in length")
        if n < 2:
            raise TooShort(f"{ticker}: need at least 2 rows, got {n}")
        _check_calendar(ticker, ordinals)

    @cached_property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(map(dt.date.fromordinal, self.ordinals.tolist()))

    def __len__(self) -> int:
        return len(self.closes)


def log_returns(prices) -> np.ndarray:
    """Percent log returns along the last axis: ``100 * (ln p[..., k+1] - ln p[..., k])``.

    Every standard deviation downstream inherits the percent units.
    """
    return 100.0 * np.diff(np.log(np.asarray(prices, dtype=float)), axis=-1)


@dataclass(eq=False)
class AlignedPanel:
    """Date-aligned close-price matrix for a universe (plus benchmark).

    ``ordinals`` are the day numbers of the rows, which the panel makes
    read-only, as a :class:`PriceSeries` holds its own; ``dates`` is built
    from them on first read. Checks its shape, calendar (as
    :class:`PriceSeries` does, naming ``<panel>``) and tickers, and that
    every price is positive and finite (the engine's one price check; it
    names the first bad price's ticker and date).
    The column lookups the engine needs every period are built once here:
    the ticker index, the ``portfolio_columns`` (role ``portfolio_asset``,
    in panel order) with their ``portfolio_tickers``, and the annual
    ``expense_ratios`` (percent, one per column). Windows made by
    :func:`slice_window` share them. ``returns``, the percent log returns
    of the portfolio columns, is built on first use and then shared by every
    walk over the panel and every window sliced from it.
    """

    ordinals: np.ndarray
    assets: tuple[AssetSpec, ...]
    prices: np.ndarray  # shape (n_dates, n_assets)
    portfolio_columns: np.ndarray = field(init=False, repr=False)
    portfolio_tickers: tuple[str, ...] = field(init=False, repr=False)
    expense_ratios: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.ordinals = np.asarray(self.ordinals)
        self.ordinals.flags.writeable = False
        self.assets = tuple(self.assets)
        self.prices = np.asarray(self.prices, dtype=float)
        if self.prices.shape != (len(self.ordinals), len(self.assets)):
            raise ValueError(
                f"panel shape {self.prices.shape} does not match "
                f"{len(self.ordinals)} dates x {len(self.assets)} assets"
            )
        good = (self.prices > 0.0) & (self.prices < math.inf)  # NaN is neither
        if not good.all():
            row, col = np.argwhere(~good)[0]
            ticker, date, price = self.assets[col].ticker, self.dates[row], self.prices[row, col]
            if price <= 0.0:
                raise NonPositivePrice(ticker, date, float(price))
            raise DataError(f"{ticker}: non-finite price {price} on {date}")
        _check_calendar("<panel>", self.ordinals)
        self._columns = {a.ticker: i for i, a in enumerate(self.assets)}
        if len(self._columns) != len(self.assets):
            raise TickerMismatch(f"duplicate tickers in panel {self.tickers}")
        self.portfolio_columns = np.flatnonzero([a.role == ROLE_PORTFOLIO for a in self.assets])
        self.portfolio_tickers = tuple(self.assets[i].ticker for i in self.portfolio_columns)
        self.expense_ratios = np.array([a.expense_ratio for a in self.assets], dtype=float)
        self.portfolio_columns.flags.writeable = False
        self.expense_ratios.flags.writeable = False

    @cached_property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(map(dt.date.fromordinal, self.ordinals.tolist()))

    @property
    def n_rows(self) -> int:
        return len(self.ordinals)

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

    @cached_property
    def returns(self) -> np.ndarray:
        """Read-only percent log returns, one row per portfolio column (assets x rows - 1)."""
        returns = log_returns(self.prices.T[self.portfolio_columns])
        returns.flags.writeable = False
        return returns


def read_text(path) -> str:
    """Text of a UTF-8 file without its byte-order mark; bad bytes raise MalformedRow."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise MalformedRow(str(path), raw.count(b"\n", 0, exc.start) + 1, "not UTF-8") from None


# days in each month of a common year, and before each month, indexed by month 1..12
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.cumsum(_MONTH_DAYS) - _MONTH_DAYS
# leap years, and the days from year 1 to each year, indexed by year 0..9999
_LEAP = np.zeros(10000, dtype=bool)
_LEAP[::4], _LEAP[::100], _LEAP[::400] = True, False, True
_DAYS_BEFORE_YEAR = np.concatenate(([0, 0], np.cumsum(365 + _LEAP[1:-1])))
# bytewise bounds of a YYYY-MM-DD date, one row per byte
_DATE_LOW = np.frombuffer(b"0000-00-00", dtype=np.uint8)[:, None]
_DATE_HIGH = np.frombuffer(b"9999-99-99", dtype=np.uint8)[:, None]
# place values of a date's digits, one row each for year, month and day
_DATE_PLACES = np.array(
    [[1000, 100, 10, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 10, 1, 0, 0, 0], [0] * 8 + [10, 1]],
    dtype=float,
)
# the one date form; Python 3.11's date.fromisoformat also reads 20100104 and 2010-W01-1
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")
# the byte route reads fields of at most 15 digits and a point
_MAX_DIGITS = 15
# the byte offsets of a window, one row each
_SPAN = np.arange(_MAX_DIGITS + 1, dtype=np.uint8)[:, None]
# 10**0 .. 10**15, each exact as a float
_POWERS = np.array([float(10**e) for e in range(_MAX_DIGITS + 1)])


def _day_ordinals(chars: np.ndarray) -> np.ndarray | None:
    """Day numbers of the ``YYYY-MM-DD`` dates whose bytes are ``chars`` (row x byte).

    None unless every date names a real day of year 1 or later.
    """
    chars = np.ascontiguousarray(chars.T)  # (byte x row): each byte's test is one long pass
    if not ((chars >= _DATE_LOW) & (chars <= _DATE_HIGH)).all():
        return None
    # the dashes wrap around below "0", but their place value is 0
    year, month, day = (_DATE_PLACES @ (chars - np.uint8(ord("0")))).astype(np.int64)
    if not ((year >= 1).all() and ((month >= 1) & (month <= 12)).all() and (day >= 1).all()):
        return None
    leap = _LEAP[year]
    if not (day <= _MONTH_DAYS[month] + (leap & (month == 2))).all():
        return None
    # as date.toordinal: the days before the year and before the month, plus the day
    return _DAYS_BEFORE_YEAR[year] + _DAYS_BEFORE_MONTH[month] + (leap & (month > 2)) + day


def _windows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each of ``starts``, one row each (row x byte).

    One ``V{width}`` item per row is copied out of a strided view of ``buf``;
    every window must lie inside it.
    """
    view = np.ndarray((len(buf) - width + 1,), f"V{width}", buf, strides=(1,))
    return view[starts].view(np.uint8).reshape(len(starts), width)


def _decimal_values(buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """``float()`` of the fields ending at ``ends`` in ``buf``, or None.

    None unless every field is ``digits.digits`` with one number k of
    digits after the point, at least one before it and at most 15 in all.
    Each field is read through a right-aligned window as wide as the
    widest field (:func:`_windows`; the buffer is padded at its front when
    the first window would start before it), and the window's bytes left
    of a narrower field are zeroed. The digits of a field then make an
    integer m below 10**15 < 2**53: each place value is an exact power of
    ten, so each product and partial sum is an integer below 2**53 and m is
    exact in any summation order. The value m / 10**k is one division of
    two exact floats, correctly rounded as ``float()`` rounds the decimal
    (Clinger's fast path).
    """
    width = int(lengths.max())
    first = buf[ends[0] - lengths[0] : ends[0]].tobytes()
    k = len(first) - 1 - first.find(b".")
    if width > _MAX_DIGITS + 1 or not 1 <= k <= lengths.min() - 2:
        return None
    if ends[0] < width:  # a window, the first at the latest, starts before the buffer
        buf = np.concatenate((np.zeros(width, np.uint8), buf))
        ends = ends + width
    # right-aligned windows, transposed to (byte x row)
    chars = _windows(buf, ends - width, width).T
    point = width - 1 - k
    if not (chars[point] == ord(".")).all():
        return None
    digits = chars - np.uint8(ord("0"))
    digits *= _SPAN[:width] >= (width - lengths).astype(np.uint8)  # one-byte compares
    digits[point] = 0
    if not (digits <= 9).all():
        return None
    powers = _POWERS[width - 2 :: -1]  # the place value of each digit, the point's is 0
    places = np.concatenate((powers[:point], [0.0], powers[point:]))
    return (places @ digits) / _POWERS[k]


def _fast_columns(text: str, names: dict[str, str]):
    """Date bytes (row x byte; None if undated) and values of a common-shape ``text``.

    For the common shape (see the module docstring) ``csv.reader`` yields
    the same fields as splitting on newlines and commas and ``float()`` the
    same values as :func:`_decimal_values`; dates whose bytes
    :func:`_day_ordinals` reads are those ``date.fromisoformat`` reads, so
    the result is that of :func:`_row_columns`. Any other text gives None,
    among them a body with any byte at or below ``,`` but its separators.
    Each date is copied out through one 10-byte window per row and kept
    row-major, as the file holds it: that is the layout
    :func:`load_price_csv` keys and matches a shared calendar on, and only
    a calendar parsed for the first time is transposed, by
    :func:`_day_ordinals`.
    """
    # csv.reader before Python 3.11 rejects NUL
    if not text.isascii() or '"' in text or "\r" in text or "\0" in text:
        return None
    head, _, body = text.partition("\n")
    raw_header = head.split(",")
    limit = csv.field_size_limit()
    header = [h.strip() for h in raw_header]
    if not head or max(map(len, raw_header)) > limit or not set(names.values()) <= set(header):
        return None
    *date_at, value_at = [header.index(name) for name in names.values()]
    width = len(header)
    if not body.endswith("\n"):
        body += "\n"
    buf = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    # every byte at or below "," (newline, space, tab, "#", "+", ...), one past each field
    ends = np.flatnonzero(buf <= ord(","))
    n_rows = len(ends) // width
    if n_rows < 2 or len(ends) != n_rows * width:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1)).reshape(n_rows, width)
    ends = ends.reshape(n_rows, width)
    # every line is width - 1 commas and then a newline, and no other byte at or
    # below "," is in a field; an empty line, which csv.reader reads as no field,
    # fails this or, in a one-column file, _decimal_values
    separators = buf[ends]
    if not ((separators[:, :-1] == ord(",")).all() and (separators[:, -1] == ord("\n")).all()):
        return None
    lengths = ends - starts
    if lengths.max() > limit:
        return None
    dates = None
    if date_at:
        if not (lengths[:, date_at[0]] == 10).all():
            return None
        dates = _windows(buf, starts[:, date_at[0]], 10)
    values = _decimal_values(buf, ends[:, value_at], lengths[:, value_at])
    if values is None or (date_at and not (values > 0.0).all()):
        return None
    return dates, values


def _row_columns(path: str, text: str, names: dict[str, str], ticker: str = ""):
    """Day ordinals (None if undated) and values of a headed CSV ``text``, in file order.

    ``names`` maps "value", or "date" and "price", to header names. The rows
    of ``csv.reader`` are parsed and checked one at a time, in file order;
    the first bad one raises, named by its line (the header is line 1).
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    days, values = [], []
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedRow(path, 1, "empty file")
        header = [h.strip() for h in header]
        for kind, name in names.items():
            if name not in header:
                raise MalformedRow(path, 1, f"missing {kind} column {name!r}")
        width = len(header)
        *date_at, value_at = [header.index(name) for name in names.values()]
        label = "price" if date_at else "value"
        for line, row in enumerate(reader, start=2):
            if len(row) != width:
                raise MalformedRow(path, line, f"expected {width} fields, got {len(row)}")
            if date_at:
                day = row[date_at[0]].strip()
                try:
                    if not _ISO_DATE.fullmatch(day):
                        raise ValueError
                    date = dt.date.fromisoformat(day)
                except ValueError:
                    detail = f"unparseable date {row[date_at[0]]!r}"
                    raise MalformedRow(path, line, detail) from None
                days.append(date.toordinal())
            try:
                value = float(row[value_at])
            except ValueError:
                raise MalformedRow(path, line, f"unparseable {label} {row[value_at]!r}") from None
            if not math.isfinite(value):
                raise MalformedRow(path, line, f"non-finite {label} {row[value_at]!r}")
            if date_at and value <= 0.0:
                raise NonPositivePrice(ticker, date, value)
            values.append(value)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedRow(path, reader.line_num, str(exc)) from None
    return (np.array(days, dtype=np.int64) if date_at else None), np.array(values, dtype=float)


def _sorted_series(ticker: str, days: np.ndarray, closes: np.ndarray):
    """The series of ``closes`` on ``days`` sorted by date, and the sort (None if they ascend)."""
    order = None if (days[1:] > days[:-1]).all() else np.argsort(days, kind="stable")
    if order is not None:
        days, closes = days[order], closes[order]
    return PriceSeries(ticker, days, closes), order


def load_price_csv(
    path: str,
    ticker: str,
    date_column: str = DEFAULT_DATE_COLUMN,
    price_column: str = DEFAULT_PRICE_COLUMN,
    calendars: dict | None = None,
) -> PriceSeries:
    """Read one adjusted-close series from CSV.

    The file must have a header row naming ``date_column`` (ISO-8601 dates)
    and ``price_column`` (decimal prices). Rows that fail to parse are
    rejected with the offending line number, not skipped. The returned
    series is sorted ascending by date.

    This is where a file's route and calendar are decided. A common-shape
    file (:func:`_fast_columns`) whose dates are all real days is read from
    its bytes; any other goes through :func:`_row_columns`. ``calendars`` is
    a dict shared by the calls of one load and nothing else, keyed by the row
    count and eight sampled dates. A byte-route file whose date bytes are
    those of a file read before with it is a copy of that file's series, with
    the same read-only ordinals and sort order, checked once; only its closes
    are parsed.
    """
    calendars = {} if calendars is None else calendars
    names = {"date": date_column, "price": price_column}
    text = read_text(path)
    columns = _fast_columns(text, names)
    if columns is not None:
        chars, closes = columns
        n = len(chars)
        key = n, chars[np.arange(8) * (n - 1) // 7].tobytes()
        known = calendars.get(key)
        if known is not None and np.array_equal(known[0], chars):
            _, first, order = known
            series = copy.copy(first)
            series.ticker = ticker
            series.closes = closes if order is None else closes[order]
            return series
        days = _day_ordinals(chars)
        if days is not None:
            series, order = _sorted_series(ticker, days, closes)
            # of two date columns on one key, the first keeps it
            calendars.setdefault(key, (chars, series, order))
            return series
    days, closes = _row_columns(path, text, names, ticker)
    return _sorted_series(ticker, days, closes)[0]


def load_series_csv(path: str, column: str) -> np.ndarray:
    """Read one numeric column from CSV, in file order, no date handling."""
    names = {"value": column}
    text = read_text(path)
    return (_fast_columns(text, names) or _row_columns(path, text, names))[1]


def align_panel(series: list[PriceSeries], specs: list[AssetSpec]) -> AlignedPanel:
    """Intersect the trading dates of all series into one rectangular panel.

    A date survives only if every series has it; gaps shrink the panel
    rather than getting filled. Asset order follows ``specs``. When every
    series has the same day ordinals, as the series of one calendar loaded
    by :func:`fracparity.runconfig.load_universe_panel` share one array, the
    closes are stacked as they are; otherwise the surviving days are found
    by counting. The prices are an (assets x rows) block viewed as (rows x
    assets), so each column is contiguous.
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

    days = series[0].ordinals
    if all(s.ordinals is days or np.array_equal(s.ordinals, days) for s in series[1:]):
        columns = [series_by_ticker[spec.ticker].closes for spec in specs]
    else:
        # how many series have each day of the overlap window, from the latest
        # first day to the earliest last day; the days all of them have survive
        first = max(s.ordinals[0] for s in series)
        last = min(s.ordinals[-1] for s in series)
        counts = np.zeros(max(last - first + 1, 0), dtype=np.intp)
        for s in series:
            lo, hi = s.ordinals.searchsorted((first, last + 1))
            counts[s.ordinals[lo:hi] - first] += 1
        common = counts == len(series)
        days = np.flatnonzero(common) + first
        columns = []
        for spec in specs:
            s = series_by_ticker[spec.ticker]
            lo, hi = s.ordinals.searchsorted((first, last + 1))
            columns.append(s.closes[lo:hi][common[s.ordinals[lo:hi] - first]])
    if len(days) < 2:
        raise EmptyIntersection(
            f"date intersection across {len(series)} series has {len(days)} dates"
        )

    prices = np.stack(columns).T
    return AlignedPanel(ordinals=days, assets=tuple(specs), prices=prices)


def slice_window(panel: AlignedPanel, end_index: int, length: int) -> AlignedPanel:
    """Contiguous sub-panel of exactly ``length`` rows ending at ``end_index``.

    The window is a read-only view of ``panel``: its prices and returns share
    the panel's memory and cannot be written, and so do its column lookups.
    A slice of a valid panel is valid, so it is not checked again.
    """
    if length < 1:
        raise OutOfRange(f"window length must be >= 1, got {length}")
    start = end_index - length + 1
    if start < 0 or end_index >= panel.n_rows:
        raise OutOfRange(
            f"window [{start}, {end_index}] does not fit in panel of {panel.n_rows} rows"
        )
    window = copy.copy(panel)
    window.__dict__.pop("dates", None)  # a dates tuple that copy.copy carried from ``panel``
    window.ordinals = panel.ordinals[start : end_index + 1]
    window.prices = panel.prices[start : end_index + 1]
    window.prices.flags.writeable = False
    # set, not inherited: copy.copy carries over a returns block already built on ``panel``
    window.__dict__["returns"] = panel.returns[:, start:end_index]
    return window
