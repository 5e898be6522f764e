"""Span tracing of fracparity layers, installed from outside the package.

Every traced call goes through a name that some fracparity module binds,
for example ``fracparity.backtest.compute_weights`` or
``fracparity.cli.run_walk_forward``. :meth:`Tracer.install` replaces each such
binding with a wrapper that records a span (name, start, end, parent) and,
where the layer has one, a count taken from the call's arguments or return
value. Nothing under ``src/`` is changed: the wrappers live only in the
process that installed them, for the rest of its life.

A layer's self time is its span's duration minus the durations of its
direct child spans. :meth:`Tracer.fold` turns the recorded spans into
per-name totals, which can be summed across processes with
:func:`merge` and turned into the benchmark's per-layer metrics with
:func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, bound name, span name). A span name appears once per module that
# binds the callable, because each binding is its own call path.
TRACED = [
    ("fracparity.cli", "cmd_backtest", "cli.cmd_backtest"),
    ("fracparity.cli", "load_run_settings", "runconfig.load_run_settings"),
    ("fracparity.cli", "load_universe_panel", "runconfig.load_universe_panel"),
    ("fracparity.cli", "run_benchmark", "backtest.run_benchmark"),
    ("fracparity.cli", "run_walk_forward", "backtest.run_walk_forward"),
    ("fracparity.cli", "build_report", "metrics.build_report"),
    ("fracparity.runconfig", "load_run_settings", "runconfig.load_run_settings"),
    ("fracparity.runconfig", "load_universe_panel", "runconfig.load_universe_panel"),
    ("fracparity.runconfig", "load_price_csv", "data.load_price_csv"),
    ("fracparity.runconfig", "align_panel", "data.align_panel"),
    ("fracparity.backtest", "run_benchmark", "backtest.run_benchmark"),
    ("fracparity.backtest", "run_walk_forward", "backtest.run_walk_forward"),
    ("fracparity.backtest", "slice_window", "data.slice_window"),
    ("fracparity.backtest", "compute_weights", "allocation.compute_weights"),
    ("fracparity.backtest", "execute_rebalance", "backtest.execute_rebalance"),
    ("fracparity.backtest", "period_return", "backtest.period_return"),
    ("fracparity.metrics", "build_report", "metrics.build_report"),
    ("fracparity.allocation", "log_returns", "riskstats.log_returns"),
    ("fracparity.allocation", "mean_return", "riskstats.mean_return"),
    ("fracparity.allocation", "unbiased_std", "riskstats.unbiased_std"),
    ("fracparity.allocation", "build_path", "fractal.build_path"),
    ("fracparity.allocation", "estimate_hurst", "fractal.estimate_hurst"),
    ("fracparity.fractal", "stable_cdf_with_error", "fractal.stable_cdf"),
    ("fracparity.fractal", "_cdf_quad_split", "fractal.cdf_split"),
    ("fracparity.fractal", "integrate.quad", "fractal.quad"),
]


def _count_price_csv(counts, args, kwargs, result):
    counts["data.rows_read"] += len(result)


def _count_align(counts, args, kwargs, result):
    series = args[0] if args else kwargs["series"]
    counts["data.rows_aligned"] += result.n_rows
    counts["data.rows_longest_series"] += max(len(s) for s in series)


def _count_hurst(counts, args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    h_min, h_max = (0.1, 1.0) if config is None else (config.h_min, config.h_max)
    counts["fractal.hurst_clamped"] += result.h <= h_min or result.h >= h_max


def _count_weights(counts, args, kwargs, result):
    counts["allocation.assets_active"] += int((result.weights > 0.0).sum())
    counts["allocation.assets_seen"] += len(result.tickers)
    counts["allocation.all_cash_periods"] += result.cash == 1.0


def _count_walk_forward(counts, args, kwargs, result):
    periods = result[0]
    counts["backtest.periods"] += len(periods)
    counts["backtest.trades"] += sum(len(p.trades) for p in periods)


COUNTERS = {
    "data.load_price_csv": _count_price_csv,
    "data.align_panel": _count_align,
    "fractal.estimate_hurst": _count_hurst,
    "allocation.compute_weights": _count_weights,
    "backtest.run_walk_forward": _count_walk_forward,
}


class Tracer:
    """Collects spans from the wrappers and folds them into totals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.open: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.totals: dict[str, dict[str, float]] = {}

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.open[-1] if self.open else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.open.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in TRACED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), span_name))

    def fold(self) -> dict:
        """Add the recorded spans to the running totals and drop them."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            t = self.totals.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            t["total_s"] += end - start
            t["self_s"] += end - start - child[i]
            t["calls"] += 1
        self.spans.clear()
        return self.summary()

    def reset(self) -> None:
        """Forget the totals and counts folded so far."""
        self.totals.clear()
        self.counts.clear()

    def summary(self) -> dict:
        return {"spans": self.totals, "counts": dict(self.counts)}


def merge(summaries: list[dict]) -> dict:
    """Sum span totals and counts of several processes or runs."""
    spans: dict[str, dict[str, float]] = {}
    counts: defaultdict[str, float] = defaultdict(float)
    for s in summaries:
        for name, t in s["spans"].items():
            acc = spans.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += t[key]
        for key, value in s["counts"].items():
            counts[key] += value
    return {"spans": spans, "counts": dict(counts)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, iterations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per timed iteration, as ``name -> (value, unit)``.

    Layers the workload never reaches report zero.
    """
    spans, counts = summary["spans"], summary["counts"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0) / iterations

    def count(name: str) -> float:
        return counts.get(name, 0.0) / iterations

    def total_calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    metrics = {
        "cli.cmd_backtest_s": (span("cli.cmd_backtest", "total_s"), "s"),
        "cli.self_s": (span("cli.cmd_backtest", "self_s"), "s"),
        "runconfig.load_run_settings_s": (span("runconfig.load_run_settings", "total_s"), "s"),
        "runconfig.load_universe_panel_self_s": (
            span("runconfig.load_universe_panel", "self_s"), "s"),
        "data.load_price_csv_s": (span("data.load_price_csv", "total_s"), "s"),
        "data.load_price_csv.calls": (span("data.load_price_csv", "calls"), "count"),
        "data.rows_read": (count("data.rows_read"), "count"),
        "data.align_panel_s": (span("data.align_panel", "total_s"), "s"),
        "data.rows_aligned": (count("data.rows_aligned"), "count"),
        "data.rows_kept_ratio": (
            _ratio(counts.get("data.rows_aligned", 0.0),
                   counts.get("data.rows_longest_series", 0.0)), "ratio"),
        "data.slice_window_s": (span("data.slice_window", "total_s"), "s"),
        "data.slice_window.calls": (span("data.slice_window", "calls"), "count"),
    }
    for name in ("log_returns", "mean_return", "unbiased_std"):
        metrics[f"riskstats.{name}_s"] = (span(f"riskstats.{name}", "total_s"), "s")
        metrics[f"riskstats.{name}.calls"] = (span(f"riskstats.{name}", "calls"), "count")
    metrics.update({
        "fractal.build_path_s": (span("fractal.build_path", "total_s"), "s"),
        "fractal.estimate_hurst_s": (span("fractal.estimate_hurst", "total_s"), "s"),
        "fractal.estimate_hurst.calls": (span("fractal.estimate_hurst", "calls"), "count"),
        "fractal.hurst_clamped_ratio": (
            _ratio(counts.get("fractal.hurst_clamped", 0.0),
                   total_calls("fractal.estimate_hurst")), "ratio"),
        "fractal.stable_cdf_s": (span("fractal.stable_cdf", "total_s"), "s"),
        "fractal.stable_cdf.calls": (span("fractal.stable_cdf", "calls"), "count"),
        "fractal.cdf_split_ratio": (
            _ratio(total_calls("fractal.cdf_split"), total_calls("fractal.stable_cdf")), "ratio"),
        "fractal.quad_calls": (span("fractal.quad", "calls"), "count"),
        "allocation.compute_weights_self_s": (
            span("allocation.compute_weights", "self_s"), "s"),
        "allocation.compute_weights.calls": (
            span("allocation.compute_weights", "calls"), "count"),
        "allocation.active_ratio": (
            _ratio(counts.get("allocation.assets_active", 0.0),
                   counts.get("allocation.assets_seen", 0.0)), "ratio"),
        "allocation.all_cash_periods": (count("allocation.all_cash_periods"), "count"),
        "backtest.run_walk_forward_self_s": (span("backtest.run_walk_forward", "self_s"), "s"),
        "backtest.execute_rebalance_s": (span("backtest.execute_rebalance", "total_s"), "s"),
        "backtest.period_return_s": (span("backtest.period_return", "total_s"), "s"),
        "backtest.run_benchmark_s": (span("backtest.run_benchmark", "total_s"), "s"),
        "backtest.periods": (count("backtest.periods"), "count"),
        "backtest.trades": (count("backtest.trades"), "count"),
        "metrics.build_report_s": (span("metrics.build_report", "total_s"), "s"),
    })
    return metrics
