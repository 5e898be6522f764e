"""Closes with spikes anywhere from 1e-300 to 1e300 give a finite report or one error line.

Hypothesis writes small panels of ordinary random-walk closes, overwrites
runs of rows with log-uniform spikes written as ``repr(float)`` and runs
``fracparity backtest`` on them in process, with every warning an error.
Each run must exit 0, 2, 3 or 4, print exactly one stderr line when it
fails, and on success write only finite numbers to ``report.json`` and the
three CSVs, except the two documented NaNs (Sharpe at zero deviation and
Treynor at a beta of 0), written as ``null``.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import business_days
from fracparity.cli import main

N = 40  # the shortest common horizon whose lookback fractal_biased can fit
TICKERS = ("A0", "A1", "BMK")  # two portfolio assets and the benchmark
DATES = [d.isoformat() for d in business_days(dt.date(2012, 1, 2), 4 * N)]
# the statistics that may be NaN, and so null, in report.json
DOCUMENTED_NANS = {"sharpe", "treynor_x001"}

SPIKES = st.lists(
    st.tuples(
        st.integers(0, len(TICKERS) - 1),  # column
        st.integers(0, 4 * N - 1),  # first row
        st.integers(1, 2 * N),  # rows overwritten
        st.floats(-300.0, 300.0),  # log10 of the spike
    ),
    min_size=1,
    max_size=4,
)


def write_panel(tmp: Path, seed: int, n_rows: int, spikes, mode: str) -> Path:
    """Random-walk closes of TICKERS over ``n_rows`` days with ``spikes`` written over them."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0005, 0.01, (len(TICKERS), n_rows))
    closes = [list(map(repr, row)) for row in (100.0 * np.exp(np.cumsum(steps, axis=1))).tolist()]
    for column, first, length, exponent in spikes:
        stop = min(first + length, n_rows)
        closes[column][first:stop] = [repr(10.0**exponent)] * (stop - first)
    lines = ["universe:"]
    for ticker, column in zip(TICKERS, closes):
        rows = [f"{d},{c}" for d, c in zip(DATES, column)]
        (tmp / f"{ticker}.csv").write_text("\n".join(["date,adj_close", *rows]) + "\n")
        role = "benchmark" if ticker == "BMK" else "portfolio_asset"
        lines.append(f"  - {{ticker: {ticker}, csv: {ticker}.csv, role: {role}}}")
    lines += ["benchmark: BMK", f"horizon: {N}", f"compounding: {mode}",
              "variants: [fractal_biased, standard_biased, naive_risk_parity]"]
    config = tmp / "run.yaml"
    config.write_text("\n".join(lines) + "\n")
    return config


def numbers(doc, key=None):
    """Every ``(key, value)`` leaf of a parsed report.json, lists under their own key."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from numbers(v, k)
    elif isinstance(doc, list):
        for v in doc:
            yield from numbers(v, key)
    elif not isinstance(doc, str):
        yield key, doc


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), extra_rows=st.integers(0, N), spikes=SPIKES,
       mode=st.sampled_from(["fixed_capital", "reinvest"]))
# the benchmark at 1e-150 then 1e150 returns a finite 1e302%, whose square overflows
@example(seed=0, extra_rows=0, spikes=[(2, 0, 2 * N, -150.0), (2, 2 * N, 2 * N, 150.0)],
         mode="fixed_capital")
# a portfolio asset at 1e300 through a lookback falls to its ordinary closes after it
@example(seed=1, extra_rows=N, spikes=[(0, 0, N, 300.0)], mode="reinvest")
def test_spiked_closes_end_cleanly(seed, extra_rows, spikes, mode):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = write_panel(tmp, seed, 3 * N + extra_rows, spikes, mode)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(["backtest", "--config", str(config), "--out", str(tmp / "out")])
            except Exception:
                traceback.print_exc()
                code = 1
        err = err.getvalue()
        assert code in (0, 2, 3, 4), err
        if code:
            assert err.count("\n") == 1 and err.startswith("error: "), err
            return
        assert err == ""
        report = json.loads((tmp / "out" / "report.json").read_text())
        for key, value in numbers(report):
            assert (value is None and key in DOCUMENTED_NANS) or math.isfinite(value), (key, value)
        for name, labels in (("period_returns.csv", 3), ("cumulated_returns.csv", 1),
                             ("difference.csv", 1)):
            with open(tmp / "out" / name, newline="") as fh:
                _, *rows = csv.reader(fh)
            cells = [float(cell) for row in rows for cell in row[labels:]]
            assert cells and all(map(math.isfinite, cells)), name
