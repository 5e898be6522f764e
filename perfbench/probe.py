"""Set-up probe: import a workload's entry module and make one warm-up call.

Usage: ``probe.py WORKLOAD TINY_CONFIG OUT_DIR``. ``run.py`` times this
script from process start to exit in a fresh interpreter, which is the
set-up cost every CLI invocation pays, and runs it under ``python -X
importtime`` for the import metrics. Imports stay inside the branches so
that each workload imports only what its entry point does.
"""

import sys


def main(workload: str, config: str, out: str) -> int:
    if workload in ("fixture_cli", "ragged_history"):
        import contextlib
        import os

        from fracparity import cli

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(["backtest", "--config", config, "--out", out])
    if workload == "horizon_sweep":
        from fracparity import backtest, metrics, runconfig

        settings = runconfig.load_run_settings(config)
        panel = runconfig.load_universe_panel(settings)
        base = settings.base_config()
        bench, _ = backtest.run_benchmark(panel, base)
        results, equity = backtest.run_walk_forward(panel, base)
        metrics.build_report(results, equity, bench, base.horizon_n, mode=base.compounding)
        return 0
    if workload == "stable_grid":
        from fracparity import fractal

        fractal.stable_cdf_with_error(0.5, fractal.StableParams(alpha=1.5, beta=0.5))
        return 0
    raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
