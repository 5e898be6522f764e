from __future__ import annotations

import csv
import datetime as dt
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import synthetic_panel
from fracparity import data
from fracparity.cli import main
from fracparity.data import (
    AlignedPanel,
    AssetSpec,
    PriceSeries,
    align_panel,
    load_price_csv,
    load_series_csv,
    log_returns,
    slice_window,
)
from fracparity.errors import (
    ConfigError,
    DataError,
    DuplicateDate,
    EmptyIntersection,
    MalformedRow,
    NonPositivePrice,
    OutOfRange,
    TickerMismatch,
    TooShort,
)
from fracparity.runconfig import load_run_settings, load_universe_panel


def write_csv(tmp_path, name, rows, header="date,adj_close"):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return str(path)


def count_day_ordinals(monkeypatch):
    """The row count of every :func:`data._day_ordinals` call from now on, in a list."""
    calls = []
    real = data._day_ordinals

    def counting(chars):
        calls.append(len(chars))
        return real(chars)

    monkeypatch.setattr(data, "_day_ordinals", counting)
    return calls


def series(ticker, start, closes):
    ordinals = start.toordinal() + np.arange(len(closes))
    return PriceSeries(ticker=ticker, ordinals=ordinals, closes=np.array(closes, dtype=float))


class TestLoadPriceCsv:
    def test_two_rows(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", ["2016-01-04,100.0", "2016-01-05,101.0"])
        s = load_price_csv(path, "AAA")
        assert len(s) == 2
        assert s.dates == (dt.date(2016, 1, 4), dt.date(2016, 1, 5))
        assert s.closes.tolist() == [100.0, 101.0]

    def test_rows_sorted_by_date(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", ["2016-01-05,101.0", "2016-01-04,100.0"])
        s = load_price_csv(path, "AAA")
        assert s.dates[0] < s.dates[1]
        assert s.closes.tolist() == [100.0, 101.0]

    def test_zero_price_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", ["2016-01-04,100.0", "2016-01-05,0.0"])
        with pytest.raises(NonPositivePrice):
            load_price_csv(path, "AAA")

    def test_unparseable_date_is_error_not_skip(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", ["2016-01-04,100.0", "not-a-date,101.0"])
        with pytest.raises(MalformedRow) as info:
            load_price_csv(path, "AAA")
        assert info.value.line == 3

    @pytest.mark.parametrize("day", ["20160105", "2016W011", "2016-W01-1"])
    def test_only_the_dashed_date_form(self, tmp_path, day):
        # Python 3.11's date.fromisoformat reads each of these, Python 3.10's none
        path = write_csv(tmp_path, "a.csv", ["2016-01-04,100.0", f"{day},101.0"])
        message = f"{path}:3: unparseable date {day!r}"
        with pytest.raises(MalformedRow) as info:
            load_price_csv(path, "AAA")
        assert (str(info.value), info.value.line) == (message, 3)
        with pytest.raises(oracles.Rejected) as reference:
            oracles.load_price_rows(path, "AAA")
        assert (reference.value.message, reference.value.line) == (message, 3)

    def test_unparseable_price(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", ["2016-01-04,abc", "2016-01-05,101.0"])
        with pytest.raises(MalformedRow):
            load_price_csv(path, "AAA")

    def test_first_bad_line_wins_over_a_later_oversized_field(self, tmp_path):
        big = "9" * (csv.field_size_limit() + 1)
        rows = ["2016-01-04,100.0", "2016-01-05,abc", f"2016-01-06,{big}"]
        path = write_csv(tmp_path, "a.csv", rows)
        with pytest.raises(oracles.Rejected) as expected:
            oracles.load_price_rows(path, "AAA")
        with pytest.raises(MalformedRow) as info:
            load_price_csv(path, "AAA")
        assert str(info.value) == expected.value.message == f"{path}:3: unparseable price 'abc'"
        assert main(["hurst", path, "--column", "adj_close"]) == 3

    def test_wrong_field_count(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", ["2016-01-04,100.0,extra"])
        with pytest.raises(MalformedRow):
            load_price_csv(path, "AAA")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", ["2016-01-04,100.0"], header="date,close")
        with pytest.raises(MalformedRow):
            load_price_csv(path, "AAA")

    def test_custom_columns(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", ["2016-01-04,100.0", "2016-01-05,101.0"], header="dt,px")
        s = load_price_csv(path, "AAA", date_column="dt", price_column="px")
        assert len(s) == 2

    def test_duplicate_date(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", ["2016-01-04,100.0", "2016-01-04,101.0"])
        with pytest.raises(DuplicateDate):
            load_price_csv(path, "AAA")

    def test_single_row_too_short(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", ["2016-01-04,100.0"])
        with pytest.raises(TooShort, match="^AAA: need at least 2 rows, got 1$"):
            load_price_csv(path, "AAA")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("")
        with pytest.raises(MalformedRow, match=f"^{re.escape(str(path))}:1: empty file$"):
            load_price_csv(str(path), "AAA")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_price_csv(str(tmp_path / "nope.csv"), "AAA")

    def test_day_numbers_computed_once(self, tmp_path, monkeypatch):
        calls = count_day_ordinals(monkeypatch)
        rows = ["2016-01-05,101.0", "2016-01-04,100.0", "2016-01-06,102.0"]
        s = load_price_csv(write_csv(tmp_path, "a.csv", rows), "AAA")
        assert calls == [3]  # from the digits, and not again for the sort or the series
        assert s.ordinals.tolist() == [d.toordinal() for d in s.dates]

    def test_day_numbers_computed_once_per_calendar_of_a_load(
        self, tmp_path, monkeypatch, panel_config_path
    ):
        calls = count_day_ordinals(monkeypatch)
        panel = load_universe_panel(load_run_settings(panel_config_path))
        assert calls == [panel.n_rows]  # five files on one calendar

        # the series of one calendar share its ordinals, which no one may write
        calendars = {}
        eqt, bnd = (
            load_price_csv(str(panel_config_path.parent / f"{name}.csv"), name, calendars=calendars)
            for name in ("eqt", "bnd")
        )
        assert bnd.ordinals is eqt.ordinals and not eqt.ordinals.flags.writeable
        assert (eqt.ticker, bnd.ticker) == ("eqt", "bnd")
        assert bnd.closes.tolist() == panel.column("BND").tolist()

        # every file on dates of its own: one parse each
        calls.clear()
        universe = []
        for j, ticker in enumerate(["AAA", "BBB", "BMK"]):
            rows = [f"2016-01-{day:02d},{100.0 + day:.1f}" for day in range(4 + j, 12)]
            write_csv(tmp_path, f"{ticker}.csv", rows)
            universe.append(f"  - {{ticker: {ticker}, csv: {ticker}.csv}}")
        config = tmp_path / "universe.yaml"
        config.write_text("universe:\n" + "\n".join(universe) + "\nbenchmark: BMK\n")
        panel = load_universe_panel(load_run_settings(config))
        assert calls == [8, 7, 6]
        assert panel.n_rows == 6


class TestPriceSeries:
    def test_dates_built_from_day_numbers_on_read(self):
        s = series("AAA", dt.date(2016, 1, 4), [100.0, 101.0, 102.0])
        assert "dates" not in vars(s)
        assert s.dates == (dt.date(2016, 1, 4), dt.date(2016, 1, 5), dt.date(2016, 1, 6))

    def test_given_day_numbers_are_checked(self):
        with pytest.raises(MalformedRow):
            PriceSeries("AAA", np.array([1]), [100.0, 101.0])
        with pytest.raises(DuplicateDate):
            PriceSeries("AAA", np.array([7, 7]), [100.0, 101.0])
        with pytest.raises(MalformedRow):
            PriceSeries("AAA", np.array([8, 7]), [100.0, 101.0])


class TestLoadSeriesCsv:
    def test_reads_in_file_order(self, tmp_path):
        path = write_csv(tmp_path, "s.csv", ["3.0", "1.0", "2.0"], header="value")
        assert load_series_csv(path, "value").tolist() == [3.0, 1.0, 2.0]

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "s.csv", ["3.0"], header="value")
        with pytest.raises(MalformedRow):
            load_series_csv(path, "other")

    def test_values_need_not_be_positive(self, tmp_path):
        path = write_csv(tmp_path, "s.csv", ["-1.5,a", "0,b", " 2.5 ,c"], header="value,note")
        assert load_series_csv(path, "value").tolist() == [-1.5, 0.0, 2.5]

    @pytest.mark.parametrize(
        "bad, detail",
        [("1.0,2.0", "expected 1 fields, got 2"), ("x", "unparseable value 'x'"),
         ("inf", "non-finite value 'inf'"), ("", "expected 1 fields, got 0")],
    )
    def test_first_bad_line_is_named(self, tmp_path, bad, detail):
        path = write_csv(tmp_path, "s.csv", ["1.0", bad, "-2.0", "nan", "y"], header="value")
        with pytest.raises(MalformedRow) as info:
            load_series_csv(path, "value")
        assert info.value.line == 3
        assert str(info.value) == f"{path}:3: {detail}"


class TestAlignPanel:
    def test_intersection(self):
        d = dt.date(2020, 1, 1)
        s1 = series("A", d, [1.0, 2.0, 3.0])
        s2 = series("B", d + dt.timedelta(days=1), [10.0, 20.0, 30.0])
        panel = align_panel([s1, s2], [AssetSpec("A"), AssetSpec("B")])
        assert panel.dates == (d + dt.timedelta(days=1), d + dt.timedelta(days=2))
        assert panel.column("A").tolist() == [2.0, 3.0]
        assert panel.column("B").tolist() == [10.0, 20.0]

    def test_one_calendar_is_handed_over_as_day_numbers(self, panel_config_path):
        calendars = {}
        series = [
            load_price_csv(str(panel_config_path.parent / f"{name}.csv"), name, calendars=calendars)
            for name in ("eqt", "bnd")
        ]
        panel = align_panel(series, [AssetSpec("eqt"), AssetSpec("bnd")])
        # the series' read-only day numbers, not a copy, and no date object until dates is read
        assert panel.ordinals is series[0].ordinals and not panel.ordinals.flags.writeable
        assert "dates" not in vars(panel) and "dates" not in vars(series[0])
        assert panel.dates == series[0].dates

    def test_counted_days_are_read_only(self):
        d = dt.date(2020, 1, 1)
        panel = align_panel(
            [series("A", d, [1.0, 2.0, 3.0]), series("B", d, [1.0, 2.0])],
            [AssetSpec("A"), AssetSpec("B")],
        )
        assert panel.ordinals.tolist() == [d.toordinal(), d.toordinal() + 1]
        assert not panel.ordinals.flags.writeable and "dates" not in vars(panel)

    def test_single_series_identity(self):
        s = series("A", dt.date(2020, 1, 1), [1.0, 2.0, 3.0])
        panel = align_panel([s], [AssetSpec("A")])
        assert panel.dates == s.dates
        assert panel.column("A").tolist() == s.closes.tolist()

    def test_disjoint_ranges(self):
        s1 = series("A", dt.date(2020, 1, 1), [1.0, 2.0])
        s2 = series("B", dt.date(2021, 1, 1), [1.0, 2.0])
        with pytest.raises(EmptyIntersection):
            align_panel([s1, s2], [AssetSpec("A"), AssetSpec("B")])
        with pytest.raises(EmptyIntersection, match="no price series supplied"):
            align_panel([], [])

    def test_ticker_mismatch(self):
        s = series("A", dt.date(2020, 1, 1), [1.0, 2.0])
        with pytest.raises(TickerMismatch):
            align_panel([s], [AssetSpec("B")])

    def test_duplicate_spec_tickers(self):
        s = series("A", dt.date(2020, 1, 1), [1.0, 2.0])
        with pytest.raises(TickerMismatch):
            align_panel([s, s], [AssetSpec("A"), AssetSpec("A")])

    def test_idempotent(self):
        panel = synthetic_panel(seed=1, n_rows=30, n_assets=3)
        again = align_panel(
            [
                PriceSeries(a.ticker, [d.toordinal() for d in panel.dates], panel.column(a.ticker))
                for a in panel.assets
            ],
            list(panel.assets),
        )
        assert again.dates == panel.dates
        assert np.array_equal(again.prices, panel.prices)


class TestAlignedPanel:
    def test_index_of(self):
        panel = synthetic_panel(seed=6, n_rows=10, n_assets=3)
        assert [panel.index_of(t) for t in panel.tickers] == list(range(len(panel.assets)))
        with pytest.raises(TickerMismatch):
            panel.index_of("NOPE")

    def test_duplicate_tickers_rejected(self):
        with pytest.raises(TickerMismatch):
            AlignedPanel(
                ordinals=(dt.date(2020, 1, 1).toordinal(), dt.date(2020, 1, 2).toordinal()),
                assets=(AssetSpec("A"), AssetSpec("A")),
                prices=np.ones((2, 2)),
            )

    @pytest.mark.parametrize(
        ("change", "error", "message"),
        [
            ("shape", ValueError, "panel shape (2, 2) does not match 3 dates x 2 assets"),
            (0.0, NonPositivePrice, "B: non-positive price 0.0 on 2020-01-02"),
            (-1.0, NonPositivePrice, "B: non-positive price -1.0 on 2020-01-02"),
            (math.nan, DataError, "B: non-finite price nan on 2020-01-02"),
            (math.inf, DataError, "B: non-finite price inf on 2020-01-02"),
            ("repeated date", DuplicateDate, "<panel>: duplicate date 2020-01-02"),
            pytest.param("out-of-order date", MalformedRow, "<panel>:0: dates not sorted ascending",
                         id="out-of-order date-MalformedRow"),
        ],
    )
    def test_bad_panel_rejected(self, change, error, message):
        days = [dt.date(2020, 1, d).toordinal() for d in (1, 2, 3)]
        prices = np.ones((3, 2))
        if change == "shape":
            prices = prices[:2]
        elif change == "repeated date":
            days[2] = days[1]
        elif change == "out-of-order date":
            days[1], days[2] = days[2], days[1]
        else:
            # the first bad price by date, then by column, is the one named
            prices[1, 1], prices[2, 0] = change, -5.0
        with pytest.raises(error, match=re.escape(message)):
            AlignedPanel(ordinals=days, assets=(AssetSpec("A"), AssetSpec("B")), prices=prices)
        if change in ("repeated date", "out-of-order date"):
            # a series on the same days is judged by the same rule, with the same detail
            with pytest.raises(error, match=re.escape(message.replace("<panel>", "S"))):
                PriceSeries("S", days, prices[:, 0])


class TestReturnsBlock:
    """The panel's percent log returns, built once and viewed by every window."""

    def test_log_returns_of_the_portfolio_columns(self):
        panel = synthetic_panel(seed=7, n_rows=50, n_assets=3)
        expected = log_returns(panel.prices.T[panel.portfolio_columns])
        assert panel.returns.shape == (3, 49)
        assert panel.returns.tobytes() == expected.tobytes()
        assert panel.returns is panel.returns
        assert not panel.returns.flags.writeable

    @pytest.mark.parametrize("built", [False, True])
    def test_windows_view_their_own_rows(self, built):
        panel = synthetic_panel(seed=8, n_rows=60, n_assets=3)
        if built:
            panel.returns
        win = slice_window(panel, end_index=45, length=30)
        inner = slice_window(win, end_index=20, length=12)  # a window of a window
        for w in (win, inner):
            expected = log_returns(w.prices.T[w.portfolio_columns])
            assert w.returns.tobytes() == expected.tobytes()
            assert np.shares_memory(w.returns, panel.returns)
            assert not w.returns.flags.writeable
        with pytest.raises(ValueError):
            inner.returns[0, 0] = 0.0

    def test_one_row_panel_slices(self):
        panel = synthetic_panel(seed=9, n_rows=1, n_assets=2)
        win = slice_window(panel, end_index=0, length=1)
        assert win.n_rows == 1
        assert win.returns.shape == panel.returns.shape == (2, 0)


class TestSliceWindow:
    def test_basic_window(self):
        panel = synthetic_panel(seed=2, n_rows=504, n_assets=2)
        win = slice_window(panel, end_index=251, length=252)
        assert win.n_rows == 252
        assert win.dates == panel.dates[:252]
        assert np.array_equal(win.prices, panel.prices[:252])

    def test_a_window_has_its_own_dates(self):
        panel = synthetic_panel(seed=2, n_rows=60, n_assets=2)
        assert len(panel.dates) == 60  # read before the cut: copy.copy carries the tuple over
        win = slice_window(panel, end_index=45, length=20)
        assert win.ordinals.tolist() == panel.ordinals[26:46].tolist()
        assert win.dates == panel.dates[26:46]

    def test_whole_panel(self):
        panel = synthetic_panel(seed=3, n_rows=40, n_assets=2)
        win = slice_window(panel, end_index=39, length=40)
        assert np.array_equal(win.prices, panel.prices)

    def test_out_of_range(self):
        panel = synthetic_panel(seed=4, n_rows=40, n_assets=2)
        with pytest.raises(OutOfRange):
            slice_window(panel, end_index=39, length=41)
        with pytest.raises(OutOfRange):
            slice_window(panel, end_index=40, length=10)
        with pytest.raises(OutOfRange, match="window length must be >= 1, got 0"):
            slice_window(panel, end_index=39, length=0)

    def test_slice_of_slice_is_identity(self):
        panel = synthetic_panel(seed=5, n_rows=60, n_assets=2)
        win = slice_window(panel, end_index=45, length=20)
        again = slice_window(win, end_index=19, length=20)
        assert again.dates == win.dates
        assert np.array_equal(again.prices, win.prices)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_cells_strictly_positive(self, seed):
        panel = synthetic_panel(seed=seed, n_rows=50, n_assets=3)
        win = slice_window(panel, end_index=49, length=25)
        assert np.all(win.prices > 0.0)


class TestAssetSpec:
    def test_expense_ratio_bounds(self):
        bounds = r"^A: expense_ratio must be in \[0, 100\), got -0.1$"
        with pytest.raises(ConfigError, match=bounds):
            AssetSpec("A", expense_ratio=-0.1)
        with pytest.raises(ConfigError):
            AssetSpec("A", expense_ratio=100.0)

    @pytest.mark.parametrize("ratio", ["0.1", None, True, math.nan, math.inf])
    def test_expense_ratio_must_be_a_finite_number(self, ratio):
        # one number rule with the engine's other settings: a string is not compared
        with pytest.raises(ConfigError, match=r"^A: expense_ratio must be in \[0, 100\)"):
            AssetSpec("A", expense_ratio=ratio)

    def test_bad_role(self):
        with pytest.raises(ConfigError, match="^A: unknown role 'index'$"):
            AssetSpec("A", role="index")

    def test_empty_ticker(self):
        with pytest.raises(ConfigError, match="^empty ticker in asset spec$"):
            AssetSpec("")
