from __future__ import annotations

import csv
import dataclasses
import gc
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import oracles
from conftest import synthetic_panel
from fracparity import backtest, cli, data, runconfig
from fracparity.backtest import run_benchmark, run_walk_forward
from fracparity.cli import main
from fracparity.data import log_returns
from fracparity.fractal import HurstConfig

PANEL_CONFIG = Path(__file__).parent / "fixtures" / "panel4" / "universe.yaml"
SERIES_DIR = Path(__file__).parent / "fixtures" / "series"
EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "etf_universe.yaml"

ARTIFACTS = [
    "report.json",
    "report.txt",
    "period_returns.csv",
    "cumulated_returns.csv",
    "difference.csv",
    "manifest.json",
]


def read_csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def dump_panel_config(panel, tmp_path: Path, horizon: int, extra: str = "") -> Path:
    lines = ["universe:"]
    for spec in panel.assets:
        csv_path = tmp_path / f"{spec.ticker.lower()}.csv"
        rows = ["date,adj_close"] + [
            f"{d.isoformat()},{p:.6f}"
            for d, p in zip(panel.dates, panel.column(spec.ticker))
        ]
        csv_path.write_text("\n".join(rows) + "\n")
        lines.append(
            f"  - {{ticker: {spec.ticker}, csv: {csv_path.name}, "
            f"expense_ratio: {spec.expense_ratio}, role: {spec.role}}}"
        )
    lines += [
        "benchmark: BMK",
        f"horizon: {horizon}",
        "variants: [fractal_biased, standard_biased, naive_risk_parity]",
    ]
    if extra:
        lines.append(extra)
    config = tmp_path / "run.yaml"
    config.write_text("\n".join(lines) + "\n")
    return config


class TestBacktestCommand:
    def test_fixture_run_produces_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(PANEL_CONFIG), "--out", str(out)]) == 0
        for name in ARTIFACTS:
            assert (out / name).exists(), name
        rows = read_csv_rows(out / "period_returns.csv")
        assert len(rows) == 5
        assert set(rows[0]) == {
            "period",
            "start_date",
            "end_date",
            "fractal_biased",
            "standard_biased",
            "naive_risk_parity",
            "benchmark",
        }

    def test_five_block_panel_gives_four_periods(self, tmp_path):
        n = 63
        panel = synthetic_panel(seed=51, n_rows=5 * n, n_assets=3)
        config = dump_panel_config(panel, tmp_path, horizon=n)
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(config), "--out", str(out)]) == 0
        assert len(read_csv_rows(out / "period_returns.csv")) == 4

    def test_pinned_hurst_makes_variants_equal(self, tmp_path):
        n = 63
        panel = synthetic_panel(seed=53, n_rows=5 * n, n_assets=3)
        config = dump_panel_config(
            panel, tmp_path, horizon=n, extra="hurst: {h_min: 0.5, h_max: 0.5}"
        )
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(config), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["reports"]["fractal_biased"] == doc["reports"]["standard_biased"]

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text(
            "universe:\n"
            "  - {ticker: AAA, csv: missing.csv, expense_ratio: 0.1, role: portfolio_asset}\n"
            "benchmark: AAA\n"
            "horizon: 63\n"
        )
        assert main(["backtest", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
        assert "FileNotFound" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text("universe: []\nbenchmark: AAA\n")
        assert main(["backtest", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "config" in capsys.readouterr().err

    def test_unknown_variant_exits_2(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "backtest",
                "--config",
                str(PANEL_CONFIG),
                "--out",
                str(out),
                "--variant",
                "mystery",
            ]
        )
        assert code == 2

    def test_each_lookback_returns_computed_once(self, tmp_path, monkeypatch):
        # three variants and five periods share one log_returns call over the panel
        calls = []

        def counted(prices):
            calls.append(prices.shape)
            return log_returns(prices)

        monkeypatch.setattr(data, "log_returns", counted)
        assert main(["backtest", "--config", str(PANEL_CONFIG), "--out", str(tmp_path)]) == 0
        assert calls == [(4, 378)]  # four portfolio assets over the panel's 378 rows

    def test_horizon_override(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["backtest", "--config", str(PANEL_CONFIG), "--out", str(out), "--horizon", "126"]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["horizon_n"] == 126
        # 378 rows at N=126 tile into two out-of-sample periods
        assert len(read_csv_rows(out / "period_returns.csv")) == 2

    def test_a_single_period_is_insufficient_history(self, tmp_path, capsys, monkeypatch):
        # 378 rows at N=180 tile into one period, and every report needs two
        def no_stats(window, n):
            raise AssertionError("lookback statistics computed for a walk too short to report")

        monkeypatch.setattr(backtest, "lookback_stats", no_stats)
        argv = ["backtest", "--config", str(PANEL_CONFIG), "--out", str(tmp_path), "--horizon",
                "180"]
        assert main(argv) == 3
        detail = "panel of 378 rows at horizon 180: a lookback and two holding periods need 540"
        assert capsys.readouterr().err == f"error: data: InsufficientHistory: {detail} rows\n"

    def test_deterministic_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["backtest", "--config", str(PANEL_CONFIG), "--out", str(out1)]) == 0
        assert main(["backtest", "--config", str(PANEL_CONFIG), "--out", str(out2)]) == 0
        for name in ARTIFACTS:
            if name == "manifest.json":
                a = json.loads((out1 / name).read_text())
                b = json.loads((out2 / name).read_text())
                a.pop("timestamp"), b.pop("timestamp")
                assert a == b
            else:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_artifacts_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(PANEL_CONFIG), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["reports"]) == {
            "fractal_biased",
            "standard_biased",
            "naive_risk_parity",
            "benchmark",
        }
        for rows_name in ("period_returns.csv", "cumulated_returns.csv", "difference.csv"):
            rows = read_csv_rows(out / rows_name)
            assert rows, rows_name
            for row in rows:
                for key, value in row.items():
                    if key not in ("start_date", "end_date", "date", "period"):
                        float(value)  # every numeric cell parses back
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ARTIFACTS[:-1]
        assert all(len(d) == 64 for d in manifest["inputs"].values())

    @pytest.mark.parametrize(("extra", "h_max"), [("", 1.0), ("hurst: {h_max: 0.9}\n", 0.9)],
                             ids=["panel4", "h_max"])
    def test_manifest_lists_the_settings_in_force(self, tmp_path, extra, h_max):
        text = PANEL_CONFIG.read_text().replace("csv: ", f"csv: {PANEL_CONFIG.parent}/")
        config = tmp_path / "run.yaml"
        config.write_text(text + extra)
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(config), "--out", str(out)]) == 0
        written = json.loads((out / "manifest.json").read_text())["config"]
        # each estimator setting, the ones the document leaves out at their defaults
        hurst = {"h_min": 0.1, "h_max": h_max, "min_windows": 4, "max_rungs": 4, "min_scales": 3}
        assert written["hurst"] == hurst
        # the pair that names difference.csv's column, and the columns read from each CSV
        assert written["figure_pair"] == ["fractal_biased", "standard_biased"]
        assert written["columns"] == {"date": "date", "price": "adj_close"}

    def test_difference_column_names_pair(self, tmp_path):
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(PANEL_CONFIG), "--out", str(out)]) == 0
        rows = read_csv_rows(out / "difference.csv")
        assert set(rows[0]) == {"date", "fractal_biased_minus_standard_biased"}

    def test_difference_column_falls_back_to_first_two_variants(self, tmp_path):
        # no figure_pair and no fractal_biased: the first two variants, in their order
        out = tmp_path / "out"
        argv = ["backtest", "--config", str(PANEL_CONFIG), "--out", str(out),
                "--variant", "standard_biased", "--variant", "naive_risk_parity"]
        assert main(argv) == 0
        rows = read_csv_rows(out / "difference.csv")
        assert set(rows[0]) == {"date", "standard_biased_minus_naive_risk_parity"}

    def test_benchmark_row_identity(self, tmp_path):
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(PANEL_CONFIG), "--out", str(out)]) == 0
        bench = json.loads((out / "report.json").read_text())["reports"]["benchmark"]
        assert bench["beta"] == pytest.approx(1.0, abs=1e-9)
        assert bench["protection"] == pytest.approx(64.0, abs=1e-9)


class TestArtifactCells:
    """Every cell of the CSV artifacts is ``_fmt`` of a number the engine returned."""

    @pytest.mark.parametrize("pair", [None, ("benchmark", "naive_risk_parity")])
    @pytest.mark.parametrize("mode", ["fixed_capital", "reinvest"])
    def test_csv_cells_match_engine(self, tmp_path, mode, pair):
        text = PANEL_CONFIG.read_text().replace("fixed_capital", mode)  # the compounding key
        text = text.replace("csv: ", f"csv: {PANEL_CONFIG.parent}/")
        if pair:
            text += f"figure_pair: [{pair[0]}, {pair[1]}]\n"
        config = tmp_path / "run.yaml"
        config.write_text(text)
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(config), "--out", str(out)]) == 0

        settings = runconfig.load_run_settings(config)
        panel = runconfig.load_universe_panel(settings)
        runs = {v.value: run_walk_forward(panel, c) for v, c in settings.variant_configs().items()}
        runs["benchmark"] = run_benchmark(panel, settings.base_config())
        names = ["fractal_biased", "standard_biased", "naive_risk_parity", "benchmark"]
        assert list(runs) == names
        periods, equity = runs["benchmark"]
        for results, curve in runs.values():
            assert [(p.start_date, p.end_date) for p in results] == [
                (p.start_date, p.end_date) for p in periods
            ]
            assert curve.dates == equity.dates

        def cells(name):
            with open(out / name, newline="") as fh:
                return list(csv.reader(fh))

        fmt = cli._fmt
        assert cells("period_returns.csv") == [["period", "start_date", "end_date", *names]] + [
            [str(i), p.start_date.isoformat(), p.end_date.isoformat(),
             *(fmt(runs[n][0][i].net_return) for n in names)]
            for i, p in enumerate(periods)
        ]
        cum = {n: 100 * (curve.values / curve.values[0] - 1) for n, (_, curve) in runs.items()}
        dates = [d.isoformat() for d in equity.dates]
        assert cells("cumulated_returns.csv") == [["date", *names]] + [
            [d, *(fmt(cum[n][i]) for n in names)] for i, d in enumerate(dates)
        ]
        a, b = pair or ("fractal_biased", "standard_biased")
        assert cells("difference.csv") == [["date", f"{a}_minus_{b}"]] + [
            [d, fmt(cum[a][i] - cum[b][i])] for i, d in enumerate(dates)
        ]


class TestConfigErrors:
    """Bad configs end with exit 2 and one ``error: config:`` line, before any CSV is read."""

    @staticmethod
    def config_without_data(tmp_path: Path, extra: str, horizon: int = 63) -> Path:
        # the CSVs do not exist: reading them first would end as a data error (exit 3)
        config = tmp_path / "run.yaml"
        config.write_text(
            "universe:\n"
            "  - {ticker: AAA, csv: missing_a.csv}\n"
            "  - {ticker: BMK, csv: missing_b.csv, role: benchmark}\n"
            "benchmark: BMK\n"
            f"horizon: {horizon}\n"
            f"{extra}\n"
        )
        return config

    def assert_config_error(self, argv, capsys) -> str:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "extra",
        [
            "hurst: {bogus: 1}",
            "initial_capital: lots",
            "risk_free_rate: [1]",
            "variants: fractal_biased",
            "hurst: {h_min: 0.9, h_max: 0.2}",
            "figure_pair: [bogus, benchmark]",
            "initial_capital: .inf",
            "risk_free_rate: .nan",
            # a misspelt key would leave its default in force
            "horzion: 252",
            "columns: {dat: date}",
            # YAML 1.1 reads yes, on and true as True, which is not a number
            "initial_capital: yes",
            "risk_free_rate: on",
            "commission: {per_share: true}",
            "hurst: {min_windows: yes}",
            # a strategy named twice would run once, or be compared with itself
            "variants: [naive_risk_parity, naive_risk_parity]",
            "figure_pair: [benchmark, benchmark]",
        ],
    )
    def test_bad_value(self, tmp_path, capsys, extra):
        config = self.config_without_data(tmp_path, extra)
        self.assert_config_error(["backtest", "--config", str(config), "--out", str(tmp_path)], capsys)

    @pytest.mark.parametrize(
        ("old", "new", "message"),
        [
            ("horizon: 63", "horzion: 252", "unknown key 'horzion'"),
            ("csv: missing_a.csv}", "csv: missing_a.csv, expnse_ratio: 0.09}",
             "universe[0]: unknown key 'expnse_ratio'"),
            ("horizon: 63", "columns: {date: date, prise: close}", "columns: unknown key 'prise'"),
            ("horizon: 63", "commission: {fee: 1}", "commission: unknown key 'fee'"),
            ("horizon: 63", "hurst: {h_mni: 0.2}", "hurst: unknown key 'h_mni'"),
            ("horizon: 63", "hurst: {1: 2}", "hurst: unknown key 1"),
        ],
    )
    def test_unknown_key_is_named(self, tmp_path, capsys, old, new, message):
        config = self.config_without_data(tmp_path, "")
        config.write_text(config.read_text().replace(old, new))
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path / "out")]
        err = self.assert_config_error(argv, capsys)
        assert f"error: config: ConfigError: {config}: {message}" in err

    @pytest.mark.parametrize(
        ("old", "new", "message"),
        [
            ("benchmark: BMK", "benchmark: CCC", "benchmark 'CCC' is not in the universe"),
            ("ticker: BMK", "ticker: AAA", "duplicate tickers in universe: ['AAA', 'AAA']"),
            ("horizon: 63", "variants: []", "variants must not be empty"),
            (None, "[universe]", "top level must be a mapping"),  # the whole document
            ("{ticker: AAA, csv: missing_a.csv}", "AAA", "universe[0] must be a mapping"),
            # AssetSpec's own rules, named with the entry
            ("role: benchmark", "role: bogus", "universe[1]: BMK: unknown role 'bogus'"),
            ("csv: missing_a.csv}", "csv: missing_a.csv, expense_ratio: 150}",
             "universe[0]: AAA: expense_ratio must be in [0, 100), got 150.0"),
            ("horizon: 63", "commission: 5", "commission must be a mapping"),
            ("horizon: 63", "hurst: 5", "hurst must be a mapping"),
            ("horizon: 63", "columns: [date, close]", "columns must be a mapping"),
            ("horizon: 63", "figure_pair: [fractal_biased]",
             "figure_pair must list exactly two strategy names"),
            # one CSV column cannot hold both the dates and the prices
            ("horizon: 63", "columns: {date: adj_close}",
             "columns: date and price both name column 'adj_close'"),
            ("horizon: 63", "columns: {date: close, price: close}",
             "columns: date and price both name column 'close'"),
        ],
    )
    def test_document_rule_is_named(self, tmp_path, capsys, old, new, message):
        config = self.config_without_data(tmp_path, "")
        config.write_text(config.read_text().replace(old, new) if old else new)
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path / "out")]
        err = self.assert_config_error(argv, capsys)
        assert err == f"error: config: ConfigError: {config}: {message}\n"

    @pytest.mark.parametrize(
        ("old", "new", "key"),
        [
            # YAML 1.1 reads ON as True, null as None and 0700 as the octal 448
            ("ticker: AAA", "ticker: ON", "universe[0]: ticker"),
            ("ticker: AAA", "ticker: null", "universe[0]: ticker"),
            ("ticker: AAA", "ticker: ''", "universe[0]: ticker"),
            ("ticker: AAA", "ticker: 0700", "universe[0]: ticker"),
            ("csv: missing_a.csv", "csv: null", "universe[0]: csv"),
            ("role: benchmark", "role: 1", "universe[1]: role"),
            ("benchmark: BMK", "benchmark: [BMK]", "benchmark"),
            ("horizon: 63", "figure_pair: [fractal_biased, 1]", "figure_pair[1]"),
            ("horizon: 63", "columns: {date: 0}", "columns: date"),
            ("horizon: 63", "columns: {price: null}", "columns: price"),
        ],
    )
    def test_text_field_must_be_a_string(self, tmp_path, capsys, old, new, key):
        config = self.config_without_data(tmp_path, "")
        config.write_text(config.read_text().replace(old, new))
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path / "out")]
        err = self.assert_config_error(argv, capsys)
        assert f"error: config: ConfigError: {config}: {key} must be a non-empty string" in err

    def test_unknown_variant_override_names_the_config(self, tmp_path, capsys):
        config = self.config_without_data(tmp_path, "")
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path), "--variant", "bogus"]
        err = self.assert_config_error(argv, capsys)
        assert f"{config}: 'bogus' is not a valid StrategyVariant" in err

    def test_variant_override_named_twice(self, tmp_path, capsys):
        config = self.config_without_data(tmp_path, "")
        twice = ["--variant", "naive_risk_parity"] * 2
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path), *twice]
        err = self.assert_config_error(argv, capsys)
        assert f"{config}: variants: 'naive_risk_parity' is named twice" in err

    def test_universe_without_portfolio_asset(self, tmp_path, capsys):
        config = self.config_without_data(tmp_path, "")
        text = config.read_text().replace("missing_a.csv}", "missing_a.csv, role: benchmark}")
        config.write_text(text)
        self.assert_config_error(["backtest", "--config", str(config), "--out", str(tmp_path)], capsys)

    @pytest.mark.parametrize("variants", ["[fractal_biased]", "[standard_biased, fractal_biased]"])
    def test_fractal_clamp_above_one(self, tmp_path, capsys, variants):
        extra = f"variants: {variants}\nhurst: {{h_min: 1.2, h_max: 1.5}}"
        config = self.config_without_data(tmp_path, extra)
        self.assert_config_error(["backtest", "--config", str(config), "--out", str(tmp_path)], capsys)

    @pytest.mark.parametrize("variants", ["[fractal_biased]", "[standard_biased]"])
    def test_one_window_per_scale(self, tmp_path, capsys, variants):
        # checked with the other estimator knobs, whether or not a variant fits h
        extra = f"variants: {variants}\nhurst: {{min_windows: 1}}"
        config = self.config_without_data(tmp_path, extra)
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path)]
        err = self.assert_config_error(argv, capsys)
        detail = "need min_windows >= 2 and min_scales >= 2"
        assert err == f"error: config: InvalidHurst: {config}: {detail}\n"

    def test_uncapped_ladder_is_an_integer_cap(self, tmp_path, capsys):
        # max_rungs is an integer, never null: a cap at least the ladder's length keeps
        # every scale
        for src in PANEL_CONFIG.parent.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        config = tmp_path / PANEL_CONFIG.name
        config.write_text(PANEL_CONFIG.read_text() + "hurst: {max_rungs: null}\n")
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path / "out")]
        err = self.assert_config_error(argv, capsys)
        detail = "min_windows, min_scales and max_rungs must be integers"
        assert err == f"error: config: InvalidHurst: {config}: {detail}\n"

    def test_yaml_horizon_below_hurst_ladder(self, tmp_path, capsys):
        config = self.config_without_data(tmp_path, "variants: [fractal_biased]", horizon=16)
        self.assert_config_error(["backtest", "--config", str(config), "--out", str(tmp_path)], capsys)

    def test_cli_horizon_below_hurst_ladder(self, tmp_path, capsys):
        config = self.config_without_data(tmp_path, "variants: [fractal_biased]")
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path), "--horizon", "16"]
        self.assert_config_error(argv, capsys)

    def test_figure_pair_checked_after_variant_override(self, tmp_path, capsys):
        config = self.config_without_data(tmp_path, "figure_pair: [fractal_biased, benchmark]")
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path / "out"),
                "--variant", "naive_risk_parity"]
        self.assert_config_error(argv, capsys)
        assert not (tmp_path / "out").exists()

    def test_short_horizon_is_fine_without_fractal_variant(self, tmp_path):
        out = tmp_path / "out"
        argv = ["backtest", "--config", str(PANEL_CONFIG), "--out", str(out), "--horizon", "16",
                "--variant", "standard_biased"]
        assert main(argv) == 0


class TestNumericErrors:
    def test_capital_beyond_int64_shares_exits_4(self, tmp_path, capsys):
        text = PANEL_CONFIG.read_text().replace("capital: 1000000", "capital: 1.0e+30")
        config = tmp_path / "run.yaml"
        config.write_text(text.replace("csv: ", f"csv: {PANEL_CONFIG.parent}/"))
        assert main(["backtest", "--config", str(config), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: NumericError: fractal_biased: EQT: target of ")
        assert err.count("\n") == 1
        assert "int64" in err

    # the mark row of period 0 of panel4's walk (378 rows at N = 63); the cases below
    # rewrite closes of a panel4 copy around it
    MARK = oracles.period_rows(378, 63)[0][2]

    def backtest_copy(self, tmp_path, csv_name, close) -> tuple[int, list[str]]:
        """Exit code of a backtest of panel4 with ``close(row, old close)`` in ``csv_name``.

        Also returns the copy's dates.
        """
        panel = shutil.copytree(PANEL_CONFIG.parent, tmp_path / "panel4")
        header, *lines = (panel / csv_name).read_text().splitlines()
        dates, closes = zip(*(line.split(",") for line in lines))
        closes = [close(row, old) for row, old in enumerate(closes)]
        (panel / csv_name).write_text("\n".join([header, *map(",".join, zip(dates, closes))]))
        argv = ["backtest", "--config", str(panel / "universe.yaml"), "--out", str(tmp_path / "o")]
        return main(argv), dates

    def test_a_benchmark_that_loses_everything_exits_4(self, tmp_path, capsys):
        # panel4's benchmark at 1e300 before period 0's mark row and at 1e-300 from it on:
        # a change of -100%
        status, dates = self.backtest_copy(
            tmp_path, "bmk.csv", lambda row, _: "1e300" if row < self.MARK else "1e-300"
        )
        assert status == 4
        detail = (f"benchmark: period ending {dates[self.MARK]} returns -100.00%, "
                  "wiping out its capital")
        assert capsys.readouterr().err == f"error: numeric: InsufficientCapital: {detail}\n"

    def test_a_benchmark_that_overflows_exits_4(self, tmp_path, capsys):
        # the other way round: a change of 1e600-fold overflows to inf
        status, dates = self.backtest_copy(
            tmp_path, "bmk.csv", lambda row, _: "1e-300" if row < self.MARK else "1e300"
        )
        assert status == 4
        detail = f"benchmark: period ending {dates[self.MARK]} returns inf%, which is not finite"
        assert capsys.readouterr().err == f"error: numeric: NumericError: {detail}\n"

    def test_a_flat_benchmark_exits_4_under_its_own_class(self, tmp_path, capsys):
        # a benchmark that never moves has zero variance, so no report has a beta; the
        # line names the first strategy reported and keeps the error's class
        status, _ = self.backtest_copy(tmp_path, "bmk.csv", lambda row, _: "100.0")
        assert status == 4
        detail = "fractal_biased: benchmark returns have zero variance"
        assert capsys.readouterr().err == f"error: numeric: DegenerateBenchmark: {detail}\n"

    def test_a_finite_but_huge_return_exits_4(self, tmp_path, capsys):
        # a change of 1e300-fold: period 0 returns a finite 1e302%, whose square
        # overflows the benchmark's variance; the first strategy reported raises
        status, _ = self.backtest_copy(
            tmp_path, "bmk.csv", lambda row, _: "1e-150" if row < self.MARK else "1e150"
        )
        assert status == 4
        detail = "fractal_biased: benchmark variance is inf, which is not finite"
        assert capsys.readouterr().err == f"error: numeric: NumericError: {detail}\n"

    def test_a_marked_value_that_overflows_exits_4(self, tmp_path, capsys):
        # EQT at 1e307 from row 100 through period 0's mark row: its thousands of shares
        # are worth more than a float holds, in every variant; the first named raises
        status, dates = self.backtest_copy(
            tmp_path, "eqt.csv", lambda row, old: "1e307" if 100 <= row <= self.MARK else old
        )
        assert status == 4
        detail = (f"fractal_biased: period ending {dates[self.MARK]} marks EQT at inf, "
                  "which is not finite")
        assert capsys.readouterr().err == f"error: numeric: NumericError: {detail}\n"


class TestHurstCommand:
    RAMP = "h,1.000000\nmu_index,0.000000\nr_squared,1.000000\ndelta,variation\n"

    def test_ramp_prints_exactly_one(self, capsys):
        for prices, variation in (([], "64.000000"), (["--prices"], "200.148000")):
            assert main(["hurst", str(SERIES_DIR / "ramp.csv"), *prices]) == 0
            # the slope's sign is rounding noise, so mu_index prints unsigned
            table = "".join(f"{delta},{variation}\n" for delta in (4, 8, 16, 32))
            assert capsys.readouterr().out == self.RAMP + table
        assert cli._fmt(-0.0) == cli._fmt(-4e-7) == "0.000000"

    def test_random_walk_fixture_in_band(self, capsys):
        assert main(["hurst", str(SERIES_DIR / "randwalk.csv")]) == 0
        out = capsys.readouterr().out
        assert out == (
            "h,0.498445\nmu_index,0.501555\nr_squared,0.995969\ndelta,variation\n"
            "16,190.115554\n32,139.621731\n64,100.017988\n128,66.685604\n"
        )
        assert 0.35 <= float(out.splitlines()[0].split(",")[1]) <= 0.65

    def test_overflowing_amplitude_exits_4(self, tmp_path, capsys):
        # finite values whose max - min overflows: a numeric error, not an inf table
        values = ["1.0"] * 40
        values[10:12] = "1e308", "-1e308"
        path = tmp_path / "overflow.csv"
        path.write_text("value\n" + "\n".join(values) + "\n")
        assert main(["hurst", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        detail = "variation at scale 2 is not finite: the amplitude overflows"
        assert captured.err == f"error: numeric: NumericError: {detail}\n"

    def test_too_short_exits_3(self, capsys):
        assert main(["hurst", str(SERIES_DIR / "tooshort.csv")]) == 3
        assert "TooShort" in capsys.readouterr().err

    def test_too_short_prices_named_by_the_ladder(self, capsys):
        # 5 prices give a path of 5 points: the scale ladder is the one length rule
        assert main(["hurst", str(SERIES_DIR / "tooshort.csv"), "--prices"]) == 3
        detail = "path of 5 points affords 0 scales, need 3"
        assert capsys.readouterr().err == f"error: data: TooShort: {detail}\n"

    def test_one_window_per_scale_exits_2(self, capsys):
        assert main(["hurst", str(SERIES_DIR / "ramp.csv"), "--min-windows", "1"]) == 2
        detail = "need min_windows >= 2 and min_scales >= 2"
        assert capsys.readouterr().err == f"error: config: InvalidHurst: {detail}\n"

    def test_empty_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["hurst", str(path)]) == 3
        assert capsys.readouterr().err == f"error: data: MalformedRow: {path}:1: empty file\n"

    def test_prices_mode_names_first_non_positive_line(self, capsys):
        path = SERIES_DIR / "randwalk.csv"  # line 3 holds the first value at or below zero
        assert main(["hurst", str(path), "--prices"]) == 3
        err = capsys.readouterr().err
        detail = f"{path}: non-positive price -1.251575 on line 3"
        assert err == f"error: data: NonPositivePrice: {detail}\n"

    def test_parser_defaults_are_hurst_config_defaults(self):
        args = cli.build_parser().parse_args(["hurst", str(SERIES_DIR / "ramp.csv")])
        defaults = HurstConfig()
        for name in ("h_min", "h_max", "min_windows", "max_rungs"):
            assert getattr(args, name) == getattr(defaults, name), name

    def test_prices_mode(self, tmp_path, capsys):
        # exponential growth at a constant rate is a linear log-price path
        path = tmp_path / "exp.csv"
        path.write_text("value\n" + "\n".join(f"{1.01**k:.9f}" for k in range(129)) + "\n")
        assert main(["hurst", str(path), "--prices"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "h,1.000000"


class TestStableCdfCommand:
    def test_center(self, capsys):
        assert main(["stable-cdf", "0.0", "--alpha", "2.0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "cdf,0.500000"

    def test_cauchy_point(self, capsys):
        assert main(["stable-cdf", "1.0", "--alpha", "1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "cdf,0.750000"
        assert lines[1].startswith("error_estimate,")

    def test_cauchy_tail_point(self, capsys):
        assert main(["stable-cdf", "--alpha", "1", "--", "200"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "cdf,0.998408"

    def test_invalid_alpha_exits_2(self, capsys):
        assert main(["stable-cdf", "1.0", "--alpha", "2.5"]) == 2
        assert "InvalidStableParams" in capsys.readouterr().err


class TestInputOutputErrors:
    """Unreadable inputs and an unusable --out end with exit 3 and one ``error: data:`` line."""

    def assert_data_error(self, argv, capsys, detail: str):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ")
        assert err.count("\n") == 1
        assert detail in err

    def fixture_copy(self, tmp_path: Path) -> Path:
        for src in PANEL_CONFIG.parent.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        return tmp_path / PANEL_CONFIG.name

    def test_non_utf8_price_csv(self, tmp_path, capsys):
        config = self.fixture_copy(tmp_path)
        lines = (tmp_path / "eqt.csv").read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"-", b"\xff", 1)
        (tmp_path / "eqt.csv").write_bytes(b"\n".join(lines))
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path / "out")]
        self.assert_data_error(argv, capsys, "eqt.csv:3: not UTF-8")

    def test_non_utf8_config(self, tmp_path, capsys):
        config = self.fixture_copy(tmp_path)
        config.write_bytes(b"# \xe9t\xe9\n" + config.read_bytes())
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path / "out")]
        self.assert_data_error(argv, capsys, "universe.yaml:1: not UTF-8")

    def test_byte_order_marks_are_accepted(self, tmp_path):
        config = self.fixture_copy(tmp_path)
        for path in (config, tmp_path / "bnd.csv"):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out = tmp_path / "out"
        assert main(["backtest", "--config", str(config), "--out", str(out)]) == 0
        expected = tmp_path / "expected"
        assert main(["backtest", "--config", str(PANEL_CONFIG), "--out", str(expected)]) == 0
        for name in ARTIFACTS[:-1]:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    @pytest.mark.parametrize("day", ["20100105", "2010W012", "2010-W01-2"])
    def test_date_outside_the_one_form(self, tmp_path, capsys, day):
        config = self.fixture_copy(tmp_path)
        text = (tmp_path / "bnd.csv").read_text()
        (tmp_path / "bnd.csv").write_text(text.replace("\n2010-01-05,", f"\n{day},"))
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path / "out")]
        self.assert_data_error(argv, capsys, f"bnd.csv:3: unparseable date {day!r}")

    def test_price_csv_is_a_directory(self, tmp_path, capsys):
        config = self.fixture_copy(tmp_path)
        (tmp_path / "rei.csv").unlink()
        (tmp_path / "rei.csv").mkdir()
        argv = ["backtest", "--config", str(config), "--out", str(tmp_path / "out")]
        self.assert_data_error(argv, capsys, "IsADirectoryError")

    def test_hurst_csv_is_a_directory(self, tmp_path, capsys):
        self.assert_data_error(["hurst", str(tmp_path)], capsys, "IsADirectoryError")

    def test_config_is_a_directory(self, tmp_path, capsys):
        argv = ["backtest", "--config", str(tmp_path), "--out", str(tmp_path / "out")]
        self.assert_data_error(argv, capsys, "IsADirectoryError")

    def test_oversized_csv_field(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("value\n1.0\n" + '"' + "9" * 200_000 + '"\n')
        detail = "big.csv:3: field larger than field limit"
        self.assert_data_error(["hurst", str(path)], capsys, detail)

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        argv = ["backtest", "--config", str(PANEL_CONFIG), "--out", str(out)]
        self.assert_data_error(argv, capsys, "FileExistsError")

    def test_unusable_out_fails_before_any_csv_is_read(self, tmp_path, capsys, monkeypatch):
        def no_load(settings):
            raise AssertionError("the price CSVs were read")

        monkeypatch.setattr(cli, "load_universe_panel", no_load)
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        argv = ["backtest", "--config", str(PANEL_CONFIG), "--out", str(out / "run")]
        self.assert_data_error(argv, capsys, "NotADirectoryError")
        self.assert_data_error(argv[:-1] + [str(out)], capsys, "FileExistsError")


# every key that takes a float, in the exponent form YAML 1.1 would leave a string
EXPONENT_FORMS = {
    "initial_capital": ("initial_capital: 1e6", 1e6),
    "risk_free_rate": ("risk_free_rate: 1e-2", 0.01),
    "expense_ratio": ("", 0.9),  # written into the first universe entry
    "per_share": ("commission: {per_share: 35e-4, min_per_order: 35e-2, max_pct_of_value: 1e0}",
                  0.0035),
    "min_per_order": ("commission: {min_per_order: 35e-2}", 0.35),
    "max_pct_of_value": ("commission: {max_pct_of_value: 0.1e1}", 1.0),
    "h_min": ("hurst: {h_min: 1e-1, h_max: 1e0}", 0.1),
    "h_max": ("hurst: {h_max: 0.9e0}", 0.9),
}


class TestConfigNumbers:
    """A float key reads every YAML number, exponent forms too; a quoted number is a string."""

    @staticmethod
    def config(tmp_path: Path, key: str, line: str, expense: str = "9e-1") -> Path:
        text = PANEL_CONFIG.read_text().replace("csv: ", f"csv: {PANEL_CONFIG.parent}/")
        text = text.replace("expense_ratio: 0.09", f"expense_ratio: {expense}", 1)
        # ``line`` replaces panel4's own lines for its keys, as a key written twice is an error
        keys = {added.split(":")[0] for added in line.splitlines()}
        text = "".join(kept for kept in text.splitlines(keepends=True)
                       if kept.split(":")[0] not in keys)
        config = tmp_path / "run.yaml"
        config.write_text(text + line + "\n")
        return config

    @staticmethod
    def value(settings, key):
        if key == "expense_ratio":
            return settings.universe[0].spec.expense_ratio
        if key in ("h_min", "h_max"):
            return getattr(settings.base_config().hurst, key)
        if key in ("per_share", "min_per_order", "max_pct_of_value"):
            return getattr(settings.commission, key)
        return getattr(settings, key)

    @pytest.mark.parametrize("key", list(EXPONENT_FORMS))
    def test_exponent_forms_are_floats(self, tmp_path, key):
        line, want = EXPONENT_FORMS[key]
        settings = runconfig.load_run_settings(self.config(tmp_path, key, line))
        assert self.value(settings, key) == want

    def test_a_run_with_exponent_forms(self, tmp_path):
        lines = "\n".join(line for line, _ in EXPONENT_FORMS.values() if line.startswith(
            ("initial_capital", "risk_free_rate", "commission: {per_share", "hurst: {h_min")))
        config = self.config(tmp_path, "all", lines)
        assert main(["backtest", "--config", str(config), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("key", list(EXPONENT_FORMS))
    def test_a_quoted_number_is_a_config_error_naming_its_key(self, tmp_path, capsys, key):
        line, _ = EXPONENT_FORMS[key]
        expense = "9e-1"
        if key == "expense_ratio":
            expense = '"0.9"'
        else:  # the key's own value, quoted
            line = re.sub(rf"({key}): ([^,}}]+)", r'\1: "\2"', line)
        config = self.config(tmp_path, key, line, expense)
        assert main(["backtest", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1
        assert key in err and "Traceback" not in err


class TestYamlLoader:
    """The run YAML goes through libyaml when PyYAML has it, with the same result."""

    def test_libyaml_is_used_when_available(self):
        if yaml.__with_libyaml__:
            assert runconfig.YAML_LOADER is yaml.CSafeLoader
        else:
            assert runconfig.YAML_LOADER is yaml.SafeLoader

    def test_panel4_settings_unchanged(self, monkeypatch):
        fast = dataclasses.asdict(runconfig.load_run_settings(PANEL_CONFIG))
        monkeypatch.setattr(runconfig, "YAML_LOADER", yaml.SafeLoader)
        assert dataclasses.asdict(runconfig.load_run_settings(PANEL_CONFIG)) == fast
        assert fast["horizon_n"] == 63 and len(fast["universe"]) == 5

    @pytest.mark.parametrize("loader", ["default", "SafeLoader"])
    def test_invalid_yaml_exits_2(self, tmp_path, capsys, monkeypatch, loader):
        if loader != "default":
            monkeypatch.setattr(runconfig, "YAML_LOADER", getattr(yaml, loader))
        config = tmp_path / "run.yaml"
        config.write_text("universe: [{ticker: AAA, csv: a.csv}\nbenchmark: AAA\n")
        assert main(["backtest", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ConfigError: ")
        assert "invalid YAML" in err
        assert err.count("\n") == 1

    # a key written twice at each level: the top, a universe entry, commission, hurst, columns
    @pytest.mark.parametrize("key, edit", [
        ("horizon", ("", "horizon: 126\n")),
        ("csv", ("csv: eqt.csv,", "csv: eqt.csv, csv: bnd.csv,")),
        ("per_share", ("per_share: 0.0035,", "per_share: 0.0035, per_share: 0.01,")),
        ("h_min", ("", "hurst: {h_min: 0.1, h_min: 0.2}\n")),
        ("date", ("", "columns: {date: date, date: day}\n")),
    ])
    @pytest.mark.parametrize("loader", ["default", "SafeLoader"])
    def test_a_repeated_key_exits_2_at_its_mark(self, tmp_path, capsys, monkeypatch, loader,
                                                key, edit):
        if loader != "default":
            monkeypatch.setattr(runconfig, "YAML_LOADER", getattr(yaml, loader))
        old, new = edit
        text = PANEL_CONFIG.read_text()
        text = text.replace(old, new, 1) if old else text + new
        at = text.index(f"{key}:", text.index(f"{key}:") + 1)
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        # panel4's csv paths name no file beside this copy, so reading a CSV would exit 3
        config = tmp_path / "run.yaml"
        config.write_text(text)
        assert main(["backtest", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: config: ConfigError: {config}: invalid YAML at line {line}, "
            f"column {column}: found duplicate key {key!r}\n"
        )

    @pytest.mark.parametrize("loader", ["default", "SafeLoader"])
    def test_an_unhashable_key_exits_2(self, tmp_path, capsys, monkeypatch, loader):
        if loader != "default":
            monkeypatch.setattr(runconfig, "YAML_LOADER", getattr(yaml, loader))
        config = tmp_path / "run.yaml"
        config.write_text(PANEL_CONFIG.read_text() + "? [a, b]\n: 1\n")
        assert main(["backtest", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ConfigError: ") and err.count("\n") == 1
        assert err.endswith("found unhashable key\n")

    @pytest.mark.parametrize("base", ["CSafeLoader", "SafeLoader"])
    def test_a_merged_key_may_be_overridden(self, base):
        if not hasattr(yaml, base):
            pytest.skip("PyYAML built without libyaml")
        text = "base: &base {h_min: 0.1, h_max: 1.0}\nhurst: {<<: *base, h_max: 0.9}\n"
        raw = yaml.load(text, Loader=runconfig._loader(getattr(yaml, base)))
        assert raw["hurst"] == {"h_min": 0.1, "h_max": 0.9}


def test_example_config_loads():
    # the README's example; loading checks every key and value but reads no CSV
    settings = runconfig.load_run_settings(EXAMPLE_CONFIG)
    assert settings.horizon_n == 126
    assert settings.figure_pair == ("fractal_biased", "standard_biased")


def test_a_document_of_universe_and_benchmark_loads_the_defaults(tmp_path):
    # every other key takes the engine's default, which BacktestConfig declares; no CSV is read
    config = tmp_path / "run.yaml"
    config.write_text(
        "universe:\n"
        "  - {ticker: AAA, csv: missing_a.csv}\n"
        "  - {ticker: BMK, csv: missing_b.csv, role: benchmark}\n"
        "benchmark: BMK\n"
    )
    settings = runconfig.load_run_settings(config)
    assert settings.base_config() == backtest.BacktestConfig(benchmark="BMK")
    assert settings.risk_free_rate == 0.0
    assert (settings.date_column, settings.price_column) == ("date", "adj_close")


class TestStableCdfNonFinitePoint:
    @pytest.mark.parametrize("r", ["nan", "inf", "-inf"])
    def test_exits_2(self, capsys, r):
        assert main(["stable-cdf", "--alpha", "1.5", "--", r]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config: InvalidStableParams: ")
        assert captured.err.count("\n") == 1


class TestStableCdfHugePoint:
    """A huge finite |r| evaluates to the limit the closed forms give: no node overflows."""

    @pytest.mark.parametrize("argv, cdf", [
        (["--alpha", "2", "--", "1e300"], "1.000000"),
        (["--alpha", "2", "--", "1e305"], "1.000000"),
        (["--alpha", "2", "--", "-1e308"], "0.000000"),
        (["--alpha", "1", "--beta", "0.5", "--", "1e308"], "1.000000"),
        (["--alpha", "1.5", "--beta", "0.5", "--", "1e308"], "1.000000"),
    ])
    def test_exits_0(self, capsys, argv, cdf):
        assert main(["stable-cdf", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == f"cdf,{cdf}"
        assert captured.err == ""


def _scipy_modules_after(argv) -> list[str]:
    """The ``scipy*`` modules loaded once ``main(argv)`` returns 0, in a fresh process."""
    code = (
        "import sys\n"
        "from fracparity.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_backtest_does_not_import_scipy(tmp_path):
    argv = ["backtest", "--config", str(PANEL_CONFIG), "--out", str(tmp_path)]
    assert _scipy_modules_after(argv)[-1] == "[]"


def test_stable_cdf_does_not_import_scipy():
    # the CDF's rules are numpy tables; the Levy law at r = 1 is erfc(1/2)
    lines = _scipy_modules_after(["stable-cdf", "--alpha", "0.5", "--beta", "1", "--", "1.0"])
    assert (lines[0], lines[-1]) == ("cdf,0.479500", "[]")


def test_module_entry_writes_what_main_writes(tmp_path):
    # python -m fracparity.cli enters through console_main, which freezes the heap the
    # imports built before it calls main: the same artifacts, bar the manifest timestamp
    argv = ["backtest", "--config", str(PANEL_CONFIG), "--out"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "fracparity.cli", *argv, str(tmp_path / "module")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert main([*argv, str(tmp_path / "main")]) == 0
    for name in ARTIFACTS:
        module, here = (
            re.sub(rb'"timestamp": "[^"]*"', b"", (tmp_path / run / name).read_bytes())
            for run in ("module", "main")
        )
        assert module == here, name


def test_main_in_process_freezes_nothing(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["backtest", "--config", str(PANEL_CONFIG), "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == frozen


def test_engine_digest_is_stable():
    # scripts/engine_digest.py hashes every run; two checkouts are compared by its output
    root = Path(__file__).resolve().parent.parent
    argv = [sys.executable, str(root / "scripts" / "engine_digest.py"),
            "--config", str(PANEL_CONFIG), "--horizons", "63"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    runs = [subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
            for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    strategies = ["fractal_biased", "standard_biased", "naive_risk_parity", "benchmark"]
    assert [line.split()[:3] for line in lines] == [
        [mode, "63", name] for mode in ("fixed_capital", "reinvest") for name in strategies
    ]
    assert len({line.split()[3] for line in lines}) == 8


def test_engine_digest_defaults_to_the_horizons_the_panel_holds():
    # panel4's 378 rows hold N = 42, 63 and 126 (3N rows each), not 252
    root = Path(__file__).resolve().parent.parent
    argv = [sys.executable, str(root / "scripts" / "engine_digest.py"),
            "--config", str(PANEL_CONFIG)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [line.split()[:2] for line in done.stdout.splitlines()[::4]] == [
        [mode, n] for mode in ("fixed_capital", "reinvest") for n in ("42", "63", "126")
    ]
