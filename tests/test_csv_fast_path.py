"""The whole-text CSV parse against the ``csv.reader`` route.

A file is read by one of two routes: straight from its bytes, or through
``csv.reader``. Generated files mix the common shape with the ways out of
it: quotes, CRLF, a byte-order mark, padded fields, blank and trailing
lines, extra and reordered columns, dates that are not ``YYYY-MM-DD`` or
not a real day, values that Python's ``float`` reads (or refuses) in odd
ways, and fields at and over ``csv.field_size_limit()``; about half of them
write every value with one ``%.{k}f``. For every file, loading it must give bitwise the same day
ordinals and values as the ``csv.reader`` route alone, sorted as a series
is, or raise the same error class with the same message and line. The byte route and the date
digits are also checked in bulk against ``float()`` and ``datetime.date``.
A whole universe, whose files share one date column, all but one of its
dates, its dates in another order or only its dates and not their bytes,
must load as its files loaded one at a time and aligned.
"""

from __future__ import annotations

import csv
import datetime as dt
import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fracparity import data
from fracparity.data import AssetSpec
from fracparity.errors import DataError
from fracparity.runconfig import load_run_settings, load_universe_panel

FIRST_DAY = dt.date(2011, 12, 1).toordinal()
LIMIT = csv.field_size_limit()
DATED = {"date": "date", "price": "adj_close"}
UNDATED = {"value": "value"}

ODD_DATES = [
    "2010-01", "20100104", "0000-01-01", "2010-02-30", "2011-02-29", "2012-02-29",
    "2010-13-01", "2010-00-10", "2010-01-00", "0001-01-01", "9999-12-31", "2010-W01-1",
    " 2010-01-04", "2010-01-04\t", '"2010-01-04"', "2010/01/04", "２010-01-04", "",
    "2010-01-0:", "2010-1/-15", "2010-01-041", "2010-01-04T00",
]
ODD_VALUES = [
    "1_000", "nan", "inf", "-inf", "1e999", "0", "-0.0", "-1.5", " 2.5 ", '"3.5"',
    "١٢٣", "７", "abc", "", "1,5", "0x10",
]
# the prices of test_which_files_take_the_fast_path that the byte route reads
# after a first row of 100.0: digits.digits, one digit after the point, at most 15
BYTE_ROUTE = {"101.0", "12345678901234.5", "99999999999999.9", "00000000000101.0"}
ODD_EXTRAS = ["", "x y", '"a,b"', '"say ""hi"""', "x" * LIMIT, "x" * (LIMIT + 1), "\0"]


def outcome(load):
    """Bytes of the (ordinals, values) a loader returns, or its error's class, message, line."""
    try:
        days, values = load()
    except DataError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return (None if days is None else (days.dtype.str, days.tobytes()),
            values.dtype.str, values.tobytes())


def route(text, names):
    """The route that reads ``text``: "bytes" (common shape, real days) or "csv.reader"."""
    columns = data._fast_columns(text, names)
    if columns is None or (columns[0] is not None and data._day_ordinals(columns[0]) is None):
        return "csv.reader"
    return "bytes"


def both_routes(path, names):
    """Outcome of the loader as shipped, outcome of the csv.reader route alone.

    A dated file is loaded by ``load_price_csv`` and an undated one by
    ``load_series_csv``; the rows of ``_row_columns`` are sorted as the
    loader sorts a series.
    """
    def shipped():
        if "date" not in names:
            return None, data.load_series_csv(path, names["value"])
        series = data.load_price_csv(path, "AAA", names["date"], names["price"])
        return series.ordinals, series.closes

    def rows():
        days, values = data._row_columns(path, data.read_text(path), names, "AAA")
        if days is None:
            return None, values
        series, _ = data._sorted_series("AAA", days, values)
        return series.ordinals, series.closes

    return outcome(shipped), outcome(rows)


@st.composite
def csv_files(draw):
    """(file text, column names) of a dated or undated CSV with up to three odd parts."""
    names = draw(st.sampled_from([DATED, UNDATED]))
    extras = draw(st.lists(st.sampled_from(["volume", "note"]), unique=True, max_size=2))
    header = draw(st.permutations([*names.values(), *extras]))
    n = draw(st.integers(0, 6))
    value = st.floats(1e-3, 1e6) if names is DATED else st.floats(-1e6, 1e6)
    fixed = draw(st.integers(1, 9)) if draw(st.booleans()) else None  # one %.{k}f for all
    rows = []
    for _ in range(n):
        day = dt.date.fromordinal(FIRST_DAY + draw(st.integers(0, 3000))).isoformat()
        x = draw(value)
        formats = [f"{x:.{fixed}f}"] if fixed else [repr(x), f"{x:.6f}", f"{x:e}"]
        row = {"date": day,
               "adj_close": draw(st.sampled_from(formats)),
               "volume": draw(st.sampled_from(["", "7"])), "note": "n"}
        row["value"] = row["adj_close"]
        rows.append([row[name] for name in header])

    odd_parts = {name: ODD_EXTRAS for name in extras}
    odd_parts[names.get("date", "")] = ODD_DATES
    odd_parts[names.get("price", "value")] = ODD_VALUES
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3])) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        name = draw(st.sampled_from([name for name in header if name in odd_parts]))
        rows[i][header.index(name)] = draw(st.sampled_from(odd_parts[name]))

    if rows and draw(st.sampled_from([False] * 5 + [True])):  # a short row
        rows[draw(st.integers(0, len(rows) - 1))].pop()

    pad = draw(st.sampled_from(["", "", "", " "]))
    lines = [",".join(pad + name for name in header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1]))):  # a blank line
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n"] * 5 + ["\r\n"]))
    trailing = draw(st.sampled_from(["", newline, newline, newline, newline, newline * 2]))
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))
    return bom + newline.join(lines) + trailing, names


@given(csv_files())
@settings(max_examples=400, deadline=None)
def test_fast_path_agrees_with_csv_reader(tmp_path_factory, case):
    text, names = case
    path = str(tmp_path_factory.getbasetemp() / "fast_path_case.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    event(route(data.read_text(path), names))
    shipped, rows = both_routes(path, names)
    assert shipped == rows


# how a file of a universe takes its dates from the shared calendar: the same
# date bytes, all but one date, another row order, the same dates but one field
# quoted (the csv.reader route), or dates of its own
CALENDAR_KINDS = ("same", "same", "same", "one_off", "shuffled", "descending", "quoted", "own")
PANEL_BAD_KINDS = ("price", "non_positive", "date", "duplicate")


@st.composite
def universes(draw):
    """(tickers, CSV texts) of 1-5 files, most on one calendar; at most one bad row or date."""
    n = draw(st.integers(2, 24))
    calendar = sorted(draw(st.sets(st.integers(0, 60), min_size=n, max_size=n)))
    if draw(st.sampled_from([False] * 7 + [True])):  # a date the calendar repeats
        i = draw(st.integers(1, n - 1))
        calendar[i] = calendar[i - 1]
    files = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(CALENDAR_KINDS))
        event(kind)
        days = list(calendar)
        if kind == "one_off":
            i = draw(st.integers(0, n - 1))
            days[i] = draw(st.integers(0, 90).filter(lambda d: d not in calendar))
        elif kind == "shuffled":
            days = draw(st.permutations(days))
        elif kind == "descending":
            days.reverse()
        elif kind == "own":
            size = draw(st.integers(2, 24))
            days = sorted(draw(st.sets(st.integers(0, 60), min_size=size, max_size=size)))
        k = draw(st.integers(1, 6))
        rows = [[dt.date.fromordinal(FIRST_DAY + d).isoformat(),
                 f"{draw(st.floats(1.0, 1e6)):.{k}f}"] for d in days]
        if kind == "quoted":
            i = draw(st.integers(0, len(rows) - 1))
            rows[i][1] = f'"{rows[i][1]}"'
        files.append(rows)

    bad = draw(st.sampled_from([None] * 4 + list(PANEL_BAD_KINDS)))
    if bad is not None:
        rows = draw(st.sampled_from(files))
        i = draw(st.integers(0, len(rows) - 1))
        if bad == "price":
            rows[i][1] = "abc"
        elif bad == "non_positive":
            rows[i][1] = "0.0"
        elif bad == "date":
            rows[i][0] = "2016-02-30"
        else:
            rows[i][0] = rows[(i + 1) % len(rows)][0]
    texts = ["date,adj_close\n" + "".join(f"{d},{p}\n" for d, p in rows) for rows in files]
    return [f"T{j}" for j in range(len(files))], texts


def failure(exc):
    """The class, message and line of a loader's error."""
    return type(exc).__name__, str(exc), getattr(exc, "line", None)


@given(universes())
@settings(max_examples=300, deadline=None)
def test_universe_loads_as_its_files_loaded_alone(tmp_path_factory, case):
    tickers, texts = case
    folder = tmp_path_factory.getbasetemp() / "universe_case"
    folder.mkdir(exist_ok=True)
    entries = []
    for ticker, text in zip(tickers, texts):
        (folder / f"{ticker}.csv").write_text(text, encoding="utf-8")
        entries.append(f"  - {{ticker: {ticker}, csv: {ticker}.csv}}")
    config = folder / "universe.yaml"
    config.write_text("universe:\n" + "\n".join(entries) + f"\nbenchmark: {tickers[-1]}\n")

    # the reference: each file loaded by itself, then the series aligned
    try:
        alone = [data.load_price_csv(str(folder / f"{t}.csv"), t) for t in tickers]
        expected = data.align_panel(alone, [AssetSpec(t) for t in tickers])
    except DataError as exc:
        expected = failure(exc)
    try:
        panel = load_universe_panel(load_run_settings(config))
    except DataError as exc:
        event(f"error {type(exc).__name__}")
        assert failure(exc) == expected
    else:
        assert not isinstance(expected, tuple), expected
        assert panel.tickers == tuple(tickers)
        assert panel.dates == expected.dates
        assert panel.prices.tobytes() == expected.prices.tobytes()


# plain: a common-shape file whose every price float() reads as finite and
# positive; the byte route takes it when the prices are also in BYTE_ROUTE
@pytest.mark.parametrize(
    "date, price, plain",
    [
        ("2016-01-05", "101.0", True),
        ("0001-01-01", "101.0", True),
        ("9999-12-31", "101.0", True),
        ("2012-02-29", "101.0", True),
        ("2016-01-05", "1_000", True),
        ("2016-01-05", " 2.5 ", True),
        ("2010-01", "101.0", False),
        ("20100104", "101.0", False),
        ("0000-01-01", "101.0", False),
        ("2010-02-30", "101.0", False),
        ("2011-02-29", "101.0", False),
        (" 2016-01-05", "101.0", False),
        ("2016-01-0:", "101.0", False),
        ("2016-1/-05", "101.0", False),
        ("2016-00-05", "101.0", False),
        ("2016-13-05", "101.0", False),
        ("2016-01-00", "101.0", False),
        ("2016-01-051", "101.0", False),
        ("2016-01-05", "nan", False),
        ("2016-01-05", "inf", False),
        ("2016-01-05", "0", False),
        ("2016-01-05", "١٢٣", False),
        ("2016-01-05", '"101.0"', False),
        # the byte route: every value digits.digits, one fraction width, at most 15 digits
        ("2016-01-05", "12345678901234.5", True),
        ("2016-01-05", "99999999999999.9", True),
        ("2016-01-05", "00000000000101.0", True),
        ("2016-01-05", "123456789012345.6", True),
        ("2016-01-05", "000000000000101.0", True),
        ("2016-01-05", "+101.0", True),
        ("2016-01-05", "-101.0", False),
        ("2016-01-05", "101.", True),
        ("2016-01-05", ".5", True),
        ("2016-01-05", "1e5", True),
        ("2016-01-05", "101.00", True),
        ("2016-01-05", "101", True),
        ("2016-01-05", "1.0.1", False),
    ],
)
def test_which_files_take_the_fast_path(tmp_path, date, price, plain):
    text = f"date,adj_close\n2016-01-04,100.0\n{date},{price}\n"
    path = tmp_path / "a.csv"
    path.write_text(text, encoding="utf-8")
    expected = "bytes" if plain and price in BYTE_ROUTE else "csv.reader"
    assert route(text, DATED) == expected
    shipped, rows = both_routes(str(path), DATED)
    assert shipped == rows


@pytest.mark.parametrize("length, fast", [(LIMIT, True), (LIMIT + 1, False)])
@pytest.mark.parametrize("in_header", [False, True])
def test_field_size_limit(tmp_path, length, fast, in_header):
    long = "x" * length
    text = f"date,adj_close,{long if in_header else 'note'}\n" + "".join(
        f"2016-01-0{d},100.0,{'n' if in_header else long}\n" for d in (4, 5)
    )
    path = tmp_path / "a.csv"
    path.write_text(text, encoding="utf-8")
    assert (data._fast_columns(text, DATED) is not None) == fast
    shipped, rows = both_routes(str(path), DATED)
    assert shipped == rows


@pytest.mark.parametrize(
    "text",
    [
        "date,adj_close\r\n2016-01-04,100.0\r\n2016-01-05,101.0\r\n",
        "date,adj_close\n2016-01-04,100.0\n\n2016-01-05,101.0\n",
        "date,adj_close\n2016-01-04,100.0\n2016-01-05,101.0\n\n",
        "date,adj_close\n2016-01-04,100.0\n",
        "date,adj_close\n2016-01-04,100.0,7\n2016-01-05,101.0\n",
        'date,adj_close\n2016-01-04,100.0\n2016-01-05,"101.0"\n',
        "date,adj_close\n2016-01-04,100.0\n2016-01-05,101.0\0\n",
        'note,date,adj_close\n"x,2016-01-04,100.0\ny",2016-01-05,101.0\nz,2016-01-06,102.0\n',
        'note,date,adj_close\n"a\nb",2016-01-04,100.0\nc,2016-01-05,101.0\n',
        "value,note\n1\n2\n3,a\n4,b\n",
        "value,note\n1\n2,3,4\n5,6\n",
        "value\n1\n\n2\n",
    ],
)
def test_other_shapes_go_through_csv_reader(text):
    names = UNDATED if text.startswith("value") else DATED
    assert data._fast_columns(text, names) is None


def test_empty_header_line_goes_through_csv_reader():
    # csv.reader reads it as no column at all, not as one column named ""
    assert data._fast_columns("\n1\n2\n", {"value": ""}) is None


def test_undated_values_may_be_negative(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("value,note\n-1.5,a\n0,b\n2.5,c", encoding="utf-8")
    assert data.load_series_csv(str(path), "value").tolist() == [-1.5, 0.0, 2.5]
    # a sign leaves the byte route to csv.reader
    assert route("value\n1.5\n2.5\n", UNDATED) == "bytes"
    assert route("value\n1.5\n-2.5\n", UNDATED) == "csv.reader"
    assert route("value\n1.5\n+2.5\n", UNDATED) == "csv.reader"


def test_dated_ordinals_are_day_numbers(tmp_path):
    dates = [dt.date(1, 1, 1), dt.date(1900, 3, 1), dt.date(2000, 2, 29), dt.date(9999, 12, 31)]
    text = "date,adj_close\n" + "".join(f"{d.isoformat()},1.0\n" for d in dates)
    assert route(text, DATED) == "bytes"
    path = tmp_path / "a.csv"
    path.write_text(text, encoding="utf-8")
    series = data.load_price_csv(str(path), "A")
    assert series.ordinals.tolist() == [d.toordinal() for d in dates]


def field_columns(fields):
    """The bytes of ``fields`` one a line, and the end and length of each."""
    buf = np.frombuffer("".join(f + "\n" for f in fields).encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    return buf, ends, np.diff(ends, prepend=-1) - 1


def decimal_fields(rng, n_digits, k, count):
    """``count`` fields of ``n_digits`` digits, ``k`` after the point: random, zeros, nines."""
    fields = ["".join(rng.choices("0123456789", k=n_digits)) for _ in range(count - 3)]
    fields += ["0" * n_digits, "9" * n_digits, "0" * (n_digits - 1) + "1"]
    return [f[: n_digits - k] + "." + f[n_digits - k :] for f in fields]


@pytest.mark.parametrize("k", range(1, 15))
def test_byte_route_is_float_bit_for_bit(k):
    # every digit count from k + 1 (one before the point) to 15, 1000 fields each
    rng = random.Random(k)
    fields = [f for n in range(k + 1, 16) for f in decimal_fields(rng, n, k, 1000)]
    rng.shuffle(fields)
    expected = np.fromiter(map(float, fields), float, len(fields))
    assert data._decimal_values(*field_columns(fields)).tobytes() == expected.tobytes()

    # the narrowest field first: the right-aligned gather starts before the buffer
    fields.sort(key=len)
    assert data._decimal_values(*field_columns(fields)).tobytes() == (
        np.fromiter(map(float, fields), float, len(fields)).tobytes()
    )

    # the same fields at 16 digits, or just one of them
    padded = ["".join(rng.choices("0123456789", k=17 - len(f))) + f for f in fields]
    assert data._decimal_values(*field_columns(padded)) is None
    fields[rng.randrange(len(fields))] = padded[0]
    assert data._decimal_values(*field_columns(fields)) is None


@pytest.mark.parametrize(
    "text",
    [
        "value\n1.5\n12.5\n123.5\n",
        # the windows of the first two fields both start before the buffer
        "value\n1.0\n2.0\n12345678901.5\n",
        "value,note\n1.25,a\n100.25,b\n",
    ],
)
def test_a_first_field_narrower_than_its_window_loads_as_csv_reader_reads_it(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text, encoding="utf-8")
    assert route(text, UNDATED) == "bytes"
    shipped, rows = both_routes(str(path), UNDATED)
    assert shipped == rows
    assert data.load_series_csv(str(path), "value").tolist() == [
        float(line.split(",")[0]) for line in text.splitlines()[1:]
    ]


@pytest.mark.parametrize("note", ["x y", "+1", "#", "a\tb"])
@pytest.mark.parametrize("price", ["101.0", "-101.0", "abc"])
def test_a_note_with_a_byte_below_the_comma_goes_through_csv_reader(tmp_path, note, price):
    text = f"date,adj_close,note\n2016-01-04,100.0,a\n2016-01-05,{price},{note}\n"
    path = tmp_path / "a.csv"
    path.write_text(text, encoding="utf-8")
    assert route(text, DATED) == "csv.reader"
    assert route(text.replace(note, "n"), DATED) == ("bytes" if price == "101.0" else "csv.reader")
    shipped, rows = both_routes(str(path), DATED)
    assert shipped == rows


# leap and common years at every rule of the Gregorian calendar, and both ends
ORACLE_YEARS = [1, 4, 100, 400, 1600, 1900, 2000, 2023, 2024, 9999]


def day_ordinals(dates):
    """:func:`data._day_ordinals` of ISO date strings."""
    buf = np.frombuffer("".join(dates).encode("ascii"), dtype=np.uint8)
    return data._day_ordinals(buf.reshape(len(dates), 10))


def test_day_ordinals_of_every_real_day():
    dates = [
        dt.date.fromordinal(n).isoformat()
        for year in ORACLE_YEARS
        for n in range(dt.date(year, 1, 1).toordinal(), dt.date(year, 12, 31).toordinal() + 1)
    ]
    assert day_ordinals(dates).tolist() == [dt.date.fromisoformat(s).toordinal() for s in dates]


def test_day_ordinals_refuse_every_impossible_day():
    bad = []
    for year in ORACLE_YEARS:
        y = f"{year:04d}"
        bad += [f"{y}-00-15", f"{y}-13-15", f"{y}-04-31"]
        bad += [f"{y}-{month:02d}-{day}" for month in range(1, 13) for day in ("00", "32")]
        if year % 4 or (year % 100 == 0 and year % 400):
            bad.append(f"{y}-02-29")
    assert "1900-02-29" in bad and "2000-02-29" not in bad
    for date in bad:
        with pytest.raises(ValueError):
            dt.date.fromisoformat(date)
        assert day_ordinals(["2024-02-29", date]) is None
        assert day_ordinals([date]) is None
