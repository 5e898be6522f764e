"""The whole-text CSV parse against the ``csv.reader`` route.

A file is read by one of two routes: straight from its bytes, or through
``csv.reader``. Generated files mix the common shape with the ways out of
it: quotes, CRLF, a byte-order mark, padded fields, blank and trailing
lines, extra and reordered columns, dates that are not ``YYYY-MM-DD`` or
not a real day, values that Python's ``float`` reads (or refuses) in odd
ways, and fields at and over ``csv.field_size_limit()``; about half of them
write every value with one ``%.{k}f``. For every file, loading it must give bitwise the same day
ordinals and values as the ``csv.reader`` route alone, or raise the same
error class with the same message and line. The byte route and the date
digits are also checked in bulk against ``float()`` and ``datetime.date``.
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
from fracparity.errors import DataError

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
    """The route that reads ``text``: "bytes" or "csv.reader"."""
    return "csv.reader" if data._fast_columns(text, names) is None else "bytes"


def both_routes(path, names):
    """Outcome of the loader as shipped, outcome of the csv.reader route alone."""
    shipped = outcome(lambda: data._read_columns(path, names, "AAA"))
    rows = outcome(lambda: data._row_columns(path, data.read_text(path), names, "AAA"))
    return shipped, rows


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


def test_dated_ordinals_are_day_numbers():
    dates = [dt.date(1, 1, 1), dt.date(1900, 3, 1), dt.date(2000, 2, 29), dt.date(9999, 12, 31)]
    text = "date,adj_close\n" + "".join(f"{d.isoformat()},1.0\n" for d in dates)
    days, _ = data._fast_columns(text, DATED)
    assert days.tolist() == [d.toordinal() for d in dates]


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


# leap and common years at every rule of the Gregorian calendar, and both ends
ORACLE_YEARS = [1, 4, 100, 400, 1600, 1900, 2000, 2023, 2024, 9999]


def day_ordinals(dates):
    """:func:`data._day_ordinals` of ISO date strings, comma-separated in one buffer."""
    buf = np.frombuffer(",".join(dates).encode("ascii"), dtype=np.uint8)
    return data._day_ordinals(buf, np.arange(len(dates)) * 11)


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
