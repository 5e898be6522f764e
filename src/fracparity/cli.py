"""Command-line front door: backtest, hurst, stable-cdf.

Exit codes: 0 success, 2 configuration error, 3 data error (including an
input or output path that cannot be used), 4 numeric error. All numeric
file output uses fixed 6-decimal precision, so repeated runs over
identical inputs produce byte-identical artifacts (the manifest's
timestamp is the only permitted difference).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import gc
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import BENCHMARK_LABEL, run_strategies
# perfbench/tracing.py wraps these bindings
from .backtest import run_benchmark, run_walk_forward  # noqa: F401
from .data import load_series_csv, log_returns
from .errors import ConfigError, DataError, NonPositivePrice, NumericError
from .fractal import HurstConfig, StableParams, build_path, estimate_hurst, stable_cdf_with_error
from .metrics import PerformanceReport, build_report
from .runconfig import RunSettings, load_run_settings, load_universe_panel


def _fmt(x: float) -> str:
    """``x`` to 6 decimals; a value that rounds to zero prints without a sign."""
    text = f"{x:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _print_error(category: str, exc: BaseException) -> None:
    print(f"error: {category}: {type(exc).__name__}: {exc}", file=sys.stderr)


# --- backtest artifacts -----------------------------------------------------


# report.txt's metric columns, each a (header, PerformanceReport field) pair
REPORT_COLUMNS = (
    ("Sharpe", "sharpe"),
    ("Treynor x 0.01", "treynor_x001"),
    ("Return, %", "avg_annual_return"),
    ("Protection, %", "protection"),
    ("STD, %", "annualized_std"),
    ("beta", "beta"),
)


def _report_table(reports: dict[str, PerformanceReport], benchmark_ticker: str) -> str:
    """The comparison table: a row per strategy, each REPORT_COLUMNS field to 2 decimals."""
    rows = [["", *(header for header, _ in REPORT_COLUMNS)]]
    for name, rep in reports.items():
        label = f"{BENCHMARK_LABEL} ({benchmark_ticker})" if name == BENCHMARK_LABEL else name
        rows.append([label, *(f"{getattr(rep, field):.2f}" for _, field in REPORT_COLUMNS)])
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(
        "  ".join([r[0].ljust(widths[0]), *map(str.rjust, r[1:], widths[1:])]) + "\n" for r in rows
    )


def _round6(doc: dict) -> dict:
    """``doc`` with each float, and each float of a list value, rounded to 6 decimals."""

    def rounded(x):
        return round(x, 6) if isinstance(x, float) else x

    return {
        k: list(map(rounded, v)) if isinstance(v, list) else rounded(v) for k, v in doc.items()
    }


def _write_report_json(path: Path, reports: dict[str, PerformanceReport], settings: RunSettings):
    doc = {
        "horizon_n": settings.horizon_n,
        "mode": settings.compounding,
        "risk_free_rate": settings.risk_free_rate,
        "benchmark": settings.benchmark,
        "reports": {name: _round6(rep.to_dict()) for name, rep in reports.items()},
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(path: Path, settings: RunSettings, outputs: list[Path]):
    paths = [settings.config_path, *(e.csv_path for e in settings.universe)]
    inputs = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    doc = {
        "engine_version": __version__,
        "timestamp": dt.datetime.now(dt.timezone.utc).isoformat(),
        "config": {
            "benchmark": settings.benchmark,
            "horizon_n": settings.horizon_n,
            "variants": [v.value for v in settings.variants],
            "initial_capital": settings.initial_capital,
            "compounding": settings.compounding,
            "risk_free_rate": settings.risk_free_rate,
            "commission": dataclasses.asdict(settings.commission),
            "hurst": dataclasses.asdict(settings.hurst),
            "figure_pair": list(settings.difference_pair()),
            "columns": {"date": settings.date_column, "price": settings.price_column},
            "universe": [
                {
                    "ticker": e.spec.ticker,
                    "expense_ratio": e.spec.expense_ratio,
                    "role": e.spec.role,
                    "csv": str(e.csv_path),
                }
                for e in settings.universe
            ],
        },
        "inputs": inputs,
        "outputs": [p.name for p in outputs],
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_backtest(args) -> int:
    settings = load_run_settings(args.config, args.horizon, args.variant)
    a, b = settings.difference_pair()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before any CSV is read
    panel = load_universe_panel(settings)

    strategies = [*(v.value for v in settings.variants), BENCHMARK_LABEL]
    runs = run_strategies(panel, settings.base_config(), strategies)
    periods, equity = runs[BENCHMARK_LABEL]  # every run shares these dates
    reports = {}
    for name, (results, curve) in runs.items():
        try:
            reports[name] = build_report(
                results, curve, periods, settings.horizon_n,
                mode=settings.compounding, risk_free_rate=settings.risk_free_rate,
            )
        except NumericError as exc:
            raise type(exc)(f"{name}: {exc}") from None
    cumulated = {name: 100.0 * (c.values / c.values[0] - 1.0) for name, (_, c) in runs.items()}
    dates = [d.isoformat() for d in equity.dates]

    table = _report_table(reports, settings.benchmark)
    names = ("report.json", "report.txt", "period_returns.csv", "cumulated_returns.csv",
             "difference.csv")
    outputs = [out_dir / name for name in names]
    report_json, report_txt, period_csv, cumulated_csv, difference_csv = outputs
    _write_report_json(report_json, reports, settings)
    report_txt.write_text(table)
    _write_csv(
        period_csv,
        ["period", "start_date", "end_date", *runs],
        (
            [i, p.start_date.isoformat(), p.end_date.isoformat(),
             *(_fmt(rep.period_returns[i]) for rep in reports.values())]
            for i, p in enumerate(periods)
        ),
    )
    _write_csv(
        cumulated_csv,
        ["date", *runs],
        ([d, *map(_fmt, cums)] for d, *cums in zip(dates, *cumulated.values())),
    )
    _write_csv(
        difference_csv,
        ["date", f"{a}_minus_{b}"],
        ([d, _fmt(x)] for d, x in zip(dates, cumulated[a] - cumulated[b])),
    )
    _write_manifest(out_dir / "manifest.json", settings, outputs)

    print(table, end="")
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_hurst(args) -> int:
    values = load_series_csv(args.csv, args.column)
    if args.prices:
        bad = np.flatnonzero(values <= 0.0)
        if bad.size:  # the header is line 1
            i = int(bad[0])
            raise NonPositivePrice(args.csv, f"line {i + 2}", float(values[i]))
        path = build_path(log_returns(values))
    else:
        path = np.asarray(values, dtype=float)
    config = HurstConfig(
        h_min=args.h_min,
        h_max=args.h_max,
        min_windows=args.min_windows,
        max_rungs=args.max_rungs,
    )
    fit = estimate_hurst(path, config)
    print(f"h,{_fmt(fit.h[0])}")
    print(f"mu_index,{_fmt(fit.mu_index[0])}")
    print(f"r_squared,{_fmt(fit.r_squared[0])}")
    print("delta,variation")
    for scale, variation in zip(fit.scales, fit.variations[0]):
        print(f"{scale},{_fmt(variation)}")
    return 0


def cmd_stable_cdf(args) -> int:
    params = StableParams(alpha=args.alpha, beta=args.beta, sigma=args.sigma, mu_loc=args.mu)
    value, err = stable_cdf_with_error(args.r, params)
    print(f"cdf,{_fmt(value)}")
    print(f"error_estimate,{err:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracparity",
        description="Risk parity backtesting with a fractal volatility model",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bt = sub.add_parser("backtest", help="run a walk-forward backtest from a config file")
    p_bt.add_argument("--config", required=True, help="YAML run configuration")
    p_bt.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_bt.add_argument("--horizon", type=int, default=None, help="override horizon in trading days")
    p_bt.add_argument(
        "--variant",
        action="append",
        default=None,
        help="strategy variant to run (repeatable; overrides config)",
    )
    p_bt.set_defaults(func=cmd_backtest)

    p_h = sub.add_parser("hurst", help="estimate the Hurst exponent of a CSV series")
    p_h.add_argument("csv", help="input CSV path")
    p_h.add_argument("--column", default="value", help="column to read (default: value)")
    p_h.add_argument(
        "--prices",
        action="store_true",
        help="treat the column as prices: estimate on the cumulative log-return path",
    )
    hurst = HurstConfig()
    p_h.add_argument(
        "--min-windows", type=int, default=hurst.min_windows, help="windows per scale, >= 2"
    )
    p_h.add_argument("--max-rungs", type=int, default=hurst.max_rungs)
    p_h.add_argument("--h-min", type=float, default=hurst.h_min)
    p_h.add_argument("--h-max", type=float, default=hurst.h_max)
    p_h.set_defaults(func=cmd_hurst)

    p_s = sub.add_parser("stable-cdf", help="evaluate the stable distribution function")
    p_s.add_argument("r", type=float, help="point of evaluation")
    p_s.add_argument("--alpha", type=float, required=True, help="stability index in (0, 2]")
    p_s.add_argument("--beta", type=float, default=0.0, help="skewness in [-1, 1]")
    p_s.add_argument("--sigma", type=float, default=1.0, help="scale, positive")
    p_s.add_argument("--mu", type=float, default=0.0, help="location")
    p_s.set_defaults(func=cmd_stable_cdf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _print_error("config", exc)
        return 2
    except (DataError, OSError) as exc:
        _print_error("data", exc)
        return 3
    except NumericError as exc:
        _print_error("numeric", exc)
        return 4


def console_main() -> int:
    """The process entry of the ``fracparity`` script and of ``python -m fracparity.cli``.

    What the imports built lives until the process exits, so ``gc.freeze``
    leaves it out of every later collection, the ones at exit included.
    ``main`` itself freezes nothing: it also runs inside other processes.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
