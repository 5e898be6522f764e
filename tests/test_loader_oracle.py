"""The column-wise CSV loader and the ordinal aligner against plain-Python references.

Generated price files carry shuffled dates, extra and reordered columns,
padded and quoted fields, blank lines and up to two injected bad rows of
any kind, so that the first bad line in file order decides the error.
For every file the package must return bitwise the same dates and closes as
:func:`oracles.load_price_rows`, or raise the same error class with the
same message and line.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracparity.data import AssetSpec, PriceSeries, align_panel, load_price_csv
from fracparity.errors import DataError

FIRST_DAY = dt.date(2015, 12, 28).toordinal()
BAD_KINDS = ("width", "date", "price", "non_finite", "non_positive", "duplicate")


def quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


@st.composite
def price_files(draw):
    """(csv text, date column, price column) with up to two injected bad rows."""
    n = draw(st.integers(min_value=0, max_value=12))
    days = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    prices = draw(st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n))
    date_col, price_col = draw(st.sampled_from([("date", "adj_close"), ("dt", "px")]))
    extras = draw(st.lists(st.sampled_from(["volume", "note", "open"]), unique=True, max_size=2))
    header = draw(st.permutations([date_col, price_col, *extras]))
    fields = st.sampled_from(["", "7", "a,b", 'say "hi"', " x "])

    rows = []
    for day, price in zip(days, prices):
        iso = dt.date.fromordinal(FIRST_DAY + day).isoformat()
        date_text = draw(st.sampled_from([iso, f" {iso}", f"{iso}\t", quoted(f" {iso} ")]))
        price_text = draw(st.sampled_from([repr(price), f"{price:.6f}", f" {price!r} ",
                                           quoted(repr(price)), f"{price:e}"]))
        row = {date_col: date_text, price_col: price_text}
        for name in extras:
            value = draw(fields)
            row[name] = quoted(value) if "," in value or '"' in value else value
        rows.append([row[name] for name in header])

    d, p = header.index(date_col), header.index(price_col)
    bads = draw(st.lists(st.sampled_from(BAD_KINDS), max_size=2)) if rows else []
    for bad in sorted(bads, key=lambda kind: kind == "width"):  # a short row last
        i = draw(st.integers(0, len(rows) - 1))
        if bad == "width":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else [*rows[i], "extra"]
        elif bad == "date":
            rows[i][d] = draw(st.sampled_from(["2016-02-30", "not-a-date", "", "2016/01/04"]))
        elif bad == "price":
            rows[i][p] = draw(st.sampled_from(["abc", "", quoted("1,5"), "1.0.0"]))
        elif bad == "non_finite":
            rows[i][p] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999", " NaN "]))
        elif bad == "non_positive":
            rows[i][p] = draw(st.sampled_from(["0", "0.0", "-1.5", "-0.0", "-1e-300"]))
        elif len(rows) > 1:
            rows[i][d] = rows[(i + 1) % len(rows)][d]

    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    trailing = draw(st.sampled_from(["", newline]))
    return newline.join(lines) + trailing, date_col, price_col


@given(price_files())
@settings(max_examples=400, deadline=None)
def test_loader_matches_reference(tmp_path_factory, case):
    text, date_col, price_col = case
    path = str(tmp_path_factory.getbasetemp() / "loader_case.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    try:
        dates, closes = oracles.load_price_rows(path, "AAA", date_col, price_col)
    except oracles.Rejected as expected:
        try:
            load_price_csv(path, "AAA", date_column=date_col, price_column=price_col)
        except DataError as exc:
            assert type(exc).__name__ == expected.kind
            assert str(exc) == expected.message
            assert getattr(exc, "line", None) == expected.line
        else:
            raise AssertionError(f"loader accepted a file the reference rejects: {expected}")
    else:
        series = load_price_csv(path, "AAA", date_column=date_col, price_column=price_col)
        assert list(series.dates) == dates
        assert series.closes.tobytes() == np.array(closes, dtype=float).tobytes()


@st.composite
def ragged_series(draw):
    """(calendar, series): each series on dates of its own ("ragged"), or all on one
    calendar, given as one ordinals array ("shared") or as equal arrays ("equal")."""
    calendar = draw(st.sampled_from(["ragged", "ragged", "shared", "equal"]))
    k = draw(st.integers(1, 5))
    out = []
    for j in range(k):
        if calendar == "ragged" or j == 0:
            days = sorted(draw(st.sets(st.integers(0, 30), min_size=2, max_size=25)))
        closes = draw(st.lists(st.floats(1e-3, 1e6), min_size=len(days), max_size=len(days)))
        dates = [dt.date.fromordinal(FIRST_DAY + d) for d in days]
        out.append((f"T{j}", dates, closes))
    return calendar, draw(st.permutations(out))


@given(ragged_series(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_align_matches_reference(case, rng):
    calendar, series = case
    tickers = [t for t, _, _ in series]
    rng.shuffle(tickers)
    specs = [AssetSpec(t) for t in tickers]
    shared = np.array([x.toordinal() for x in series[0][1]])
    price_series = [
        PriceSeries(t, shared if calendar == "shared" else [x.toordinal() for x in d], np.array(c))
        for t, d, c in series
    ]
    if calendar == "shared":
        assert all(s.ordinals is shared for s in price_series)
    try:
        dates, rows = oracles.align_rows(series, tickers)
    except oracles.Rejected as expected:
        try:
            align_panel(price_series, specs)
        except DataError as exc:
            assert type(exc).__name__ == expected.kind
            assert str(exc) == expected.message
        else:
            raise AssertionError(f"aligner accepted series the reference rejects: {expected}")
    else:
        panel = align_panel(price_series, specs)
        assert list(panel.dates) == dates
        assert panel.tickers == tuple(tickers)
        assert panel.prices.tobytes() == np.array(rows, dtype=float).tobytes()
