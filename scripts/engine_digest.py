#!/usr/bin/env python3
"""Print one sha256 per engine run, to check that a rewrite is bit-identical.

    PYTHONPATH=src python scripts/engine_digest.py --config PATH [--horizons 42,63,126]

Loads the configuration's panel twice. For each compounding mode and
horizon it walks the configured variants and the benchmark in one
``run_strategies`` call over the first panel, and again one at a time
through ``run_walk_forward`` and ``run_benchmark`` over the second.
``run_strategies`` keeps the lookback statistics of each horizon walked
over a panel, so each route builds its own and the later walks of a route
reuse them; every walk builds its own Hurst fit and weights plans.
It prints ``mode horizon strategy sha256`` per strategy, hashing the bytes
of the weights, every diagnostic vector, the trades, the period returns,
the capital and the equity curve. Without ``--horizons`` it walks each of
42, 63, 126 and 252 days that the panel can hold (a lookback and two
holding periods). It exits 1 if the two routes disagree, and 2 if a horizon
cannot run. Diff the output of two checkouts to compare them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys

import numpy as np

from fracparity.backtest import (
    BENCHMARK_LABEL,
    FIXED_CAPITAL,
    REINVEST,
    run_benchmark,
    run_strategies,
    run_walk_forward,
)
from fracparity.errors import FracparityError
from fracparity.runconfig import load_run_settings, load_universe_panel


def _feed(digest, value) -> None:
    """Add ``value`` to ``digest``: a dataclass field by field, numbers by their bytes."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            digest.update(f.name.encode())
            _feed(digest, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed(digest, item)
    elif isinstance(value, (np.ndarray, np.generic, int, float)):
        array = np.ascontiguousarray(value)
        digest.update(f"{array.dtype}{array.shape}".encode() + array.tobytes())
    else:  # a ticker, a date or None
        digest.update(repr(value).encode())


def run_digest(run) -> str:
    """sha256 of a strategy's period results and equity curve."""
    digest = hashlib.sha256()
    _feed(digest, run)
    return digest.hexdigest()


DEFAULT_HORIZONS = (42, 63, 126, 252)


def digests(config: str, horizons: list[int] | None = None):
    """``(mode, horizon, strategy, sha256 walked together, sha256 walked alone)`` per run.

    ``horizons`` defaults to those of :data:`DEFAULT_HORIZONS` the panel can walk.
    """
    settings = load_run_settings(config)
    panel, alone_panel = load_universe_panel(settings), load_universe_panel(settings)
    if horizons is None:  # run_strategies needs a lookback and two holding periods
        horizons = [n for n in DEFAULT_HORIZONS if panel.n_rows >= 3 * n]
    for mode in (FIXED_CAPITAL, REINVEST):
        settings.compounding = mode
        for n in horizons:
            settings.horizon_n = n
            base = settings.base_config()
            names = [*(v.value for v in settings.variants), BENCHMARK_LABEL]
            for name, run in run_strategies(panel, base, names).items():
                if name == BENCHMARK_LABEL:
                    alone = run_benchmark(alone_panel, base)
                else:
                    alone = run_walk_forward(alone_panel, dataclasses.replace(base, variant=name))
                yield mode, n, name, run_digest(run), run_digest(alone)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--horizons", default=None,
                        help="comma-separated horizons in days (default: each of "
                        "42,63,126,252 that the panel can walk)")
    args = parser.parse_args(argv)
    horizons = [int(h) for h in args.horizons.split(",")] if args.horizons else None
    status = 0
    try:
        for mode, n, name, together, alone in digests(args.config, horizons):
            print(mode, n, name, together)
            if alone != together:
                print(f"error: {mode} N={n} {name}: the run alone differs", file=sys.stderr)
                status = 1
    except FracparityError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
