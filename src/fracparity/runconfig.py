"""Run configuration: one YAML document describing a whole backtest.

The document lists the universe (ticker, csv path, expense ratio, role),
the benchmark ticker, horizon, variants to run, capital, compounding mode,
commission plan, estimator knobs, figure pair and CSV columns. CSV paths are
resolved relative to the config file so committed fixtures stay relocatable.
Loading checks the document's shape (a key it does not know, or one
written twice in a mapping, is an error), the universe (which must hold at
least one ``portfolio_asset``), the benchmark and the figure pair, which it
resolves once into ``RunSettings.figure_pair``. Every other value is checked
by the class that holds it: ``Columns`` here (the date and the price are two
different columns), and the engine's classes for the rest. ``RunSettings``'s
fields are the whole of what a run records in its manifest.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .allocation import StrategyVariant
from .backtest import BENCHMARK_LABEL, BacktestConfig, CommissionPlan
from .data import (
    DEFAULT_DATE_COLUMN,
    DEFAULT_PRICE_COLUMN,
    ROLE_PORTFOLIO,
    AlignedPanel,
    AssetSpec,
    align_panel,
    load_price_csv,
    read_text,
)
from .errors import ConfigError, finite_number
from .fractal import HurstConfig

# libyaml's parser when PyYAML was built with it; both build the same objects
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# the exponent forms YAML 1.1 leaves as strings: no point (1e6, 35e-4) or an unsigned exponent
EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$")
TOP_KEYS = ("universe", "benchmark", "horizon", "variants", "initial_capital", "compounding",
            "commission", "hurst", "risk_free_rate", "figure_pair", "columns")
ENTRY_KEYS = ("ticker", "csv", "expense_ratio", "role")


@dataclass(frozen=True)
class Columns:
    """The header names of the date and the price column of every universe CSV."""

    date: str = DEFAULT_DATE_COLUMN
    price: str = DEFAULT_PRICE_COLUMN

    def __post_init__(self):
        for name in ("date", "price"):
            _text(getattr(self, name), name)
        if self.date == self.price:
            raise ConfigError(f"date and price both name column {self.date!r}")


@dataclass(frozen=True)
class UniverseEntry:
    spec: AssetSpec
    csv_path: Path


@dataclass(eq=False)
class RunSettings:
    universe: list[UniverseEntry]
    benchmark: str
    horizon_n: int
    variants: list[StrategyVariant]
    initial_capital: float
    compounding: str
    commission: CommissionPlan
    hurst: HurstConfig
    risk_free_rate: float
    figure_pair: tuple[str, str]  # the two runs that difference.csv compares
    columns: Columns
    config_path: Path

    def base_config(self) -> BacktestConfig:
        """Engine config of the first selected variant; raises ConfigError if it cannot run."""
        return BacktestConfig(
            horizon_n=self.horizon_n,
            variant=self.variants[0],
            initial_capital=self.initial_capital,
            commission=self.commission,
            compounding=self.compounding,
            benchmark=self.benchmark,
            hurst=self.hurst,
        )


def _difference_pair(pair: tuple[str, str] | None, names: list[str]) -> tuple[str, str]:
    """The two runs that ``difference.csv`` compares; raises ConfigError for unknown names.

    ``pair`` (the document's ``figure_pair``) when given, else fractal vs
    standard biased when both of the variants ``names`` run, else the first
    two variants, else the one variant vs the benchmark.
    """
    if pair is None:
        preferred = (StrategyVariant.FRACTAL_BIASED.value, StrategyVariant.STANDARD_BIASED.value)
        return preferred if set(preferred) <= set(names) else (*names, BENCHMARK_LABEL)[:2]
    known = {*names, BENCHMARK_LABEL}
    if not known.issuperset(pair):
        raise ConfigError(f"figure_pair {pair} not among {sorted(known)}")
    return pair


def _known_keys(mapping: dict, keys: tuple[str, ...], context: str) -> None:
    unknown = [key for key in mapping if key not in keys]
    if unknown:
        raise ConfigError(f"{context}: unknown key {unknown[0]!r}")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _text(value, context: str) -> str:
    """``value`` if it is a non-empty string, which YAML's ``ON``, ``null`` or ``0700`` is not."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{context} must be a non-empty string, got {value!r}")
    return value


@functools.cache
def _loader(base: type) -> type:
    """``base`` that also reads the exponent forms as floats, as YAML 1.2 does.

    It also refuses a key written twice in one mapping, which ``base`` would
    read as its last value, with a ``ConstructorError`` at the second one.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":  # ``<<: *base``'s keys may be overridden
                continue
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in seen
            except TypeError:  # an unhashable key, which ``base`` refuses
                continue
            if repeated:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark,
                )
            seen.add(key)
        return base.construct_mapping(self, node, deep)

    loader = type("ConfigLoader", (base,), {"construct_mapping": construct_mapping})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", EXPONENT_FLOAT, list("+-.0123456789"))
    return loader


def _options(raw: dict, key: str, cls: type, path: Path, where: str):
    """``cls`` built from the mapping ``raw[key]`` (empty when absent).

    An error of ``cls`` keeps its class, with ``where`` put before its message.
    """
    options = raw.get(key, {})
    if not isinstance(options, dict):
        raise ConfigError(f"{path}: {key} must be a mapping")
    _known_keys(options, tuple(f.name for f in dataclasses.fields(cls)), f"{path}: {key}")
    try:
        return cls(**options)
    except ConfigError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _number(raw: dict, key: str, default: float, context: str) -> float:
    """``raw[key]`` as a float; only a YAML number is one, not a string or YAML's yes and on."""
    value = raw.get(key, default)
    if not finite_number(value):
        raise ConfigError(f"{context}: {key} must be a finite number, got {value!r}")
    return float(value)


def load_run_settings(
    path: str | Path, horizon: int | None = None, variants: list[str] | None = None
) -> RunSettings:
    """Parse and validate a YAML run configuration.

    ``horizon`` and ``variants`` (names), when given, replace the document's
    values. Every selected variant's engine config is then checked, and the
    figure pair resolved, before any CSV is read, so the result can run.
    """
    path = Path(path)
    text = read_text(path)
    try:
        raw = yaml.load(text, Loader=_loader(YAML_LOADER))
    except yaml.YAMLError as exc:  # PyYAML's message spans lines; the error line may not
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise ConfigError(f"{path}: invalid YAML{where}: {problem}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _known_keys(raw, TOP_KEYS, str(path))

    universe_raw = _require(raw, "universe", str(path))
    if not isinstance(universe_raw, list) or not universe_raw:
        raise ConfigError(f"{path}: universe must be a non-empty list")
    universe: list[UniverseEntry] = []
    for i, entry in enumerate(universe_raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: universe[{i}] must be a mapping")
        where = f"{path}: universe[{i}]"
        _known_keys(entry, ENTRY_KEYS, where)
        ticker = _text(_require(entry, "ticker", where), f"{where}: ticker")
        csv_rel = _text(_require(entry, "csv", where), f"{where}: csv")
        if "\0" in csv_rel:  # no file system takes it, and open() would raise ValueError
            raise ConfigError(f"{where}: csv path contains a NUL character")
        expense_ratio = _number(entry, "expense_ratio", 0.0, where)
        role = _text(entry.get("role", ROLE_PORTFOLIO), f"{where}: role")
        try:
            spec = AssetSpec(ticker=ticker, expense_ratio=expense_ratio, role=role)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        universe.append(UniverseEntry(spec=spec, csv_path=path.parent / csv_rel))

    tickers = [u.spec.ticker for u in universe]
    if len(set(tickers)) != len(tickers):
        raise ConfigError(f"{path}: duplicate tickers in universe: {tickers}")

    benchmark = _text(_require(raw, "benchmark", str(path)), f"{path}: benchmark")
    if benchmark not in tickers:
        raise ConfigError(f"{path}: benchmark {benchmark!r} is not in the universe")
    if all(u.spec.role != ROLE_PORTFOLIO for u in universe):
        raise ConfigError(f"{path}: universe has no {ROLE_PORTFOLIO!r} entry to trade")

    if variants is None:
        variants = raw.get("variants", [v.value for v in StrategyVariant])
    if not isinstance(variants, list):
        raise ConfigError(f"{path}: variants must be a list, got {variants!r}")
    try:
        variants = [StrategyVariant(v) for v in variants]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not variants:
        raise ConfigError(f"{path}: variants must not be empty")
    repeated = [v.value for i, v in enumerate(variants) if v in variants[:i]]
    if repeated:  # it would run once, and a figure pair of it would compare it with itself
        raise ConfigError(f"{path}: variants: {repeated[0]!r} is named twice")

    commission = _options(raw, "commission", CommissionPlan, path, f"{path}: commission")
    hurst = _options(raw, "hurst", HurstConfig, path, str(path))  # its errors name their keys

    figure_pair = None
    if "figure_pair" in raw:
        pair = raw["figure_pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}: figure_pair must list exactly two strategy names")
        figure_pair = tuple(_text(p, f"{path}: figure_pair[{j}]") for j, p in enumerate(pair))
        if figure_pair[0] == figure_pair[1]:
            raise ConfigError(f"{path}: figure_pair: {figure_pair[0]!r} is named twice")

    columns = _options(raw, "columns", Columns, path, f"{path}: columns")

    settings = RunSettings(
        universe=universe,
        benchmark=benchmark,
        # the engine's defaults: a dataclass field's default is its class attribute
        horizon_n=raw.get("horizon", BacktestConfig.horizon_n) if horizon is None else horizon,
        variants=variants,
        initial_capital=_number(raw, "initial_capital", BacktestConfig.initial_capital, str(path)),
        compounding=str(raw.get("compounding", BacktestConfig.compounding)),
        commission=commission,
        hurst=hurst,
        risk_free_rate=_number(raw, "risk_free_rate", 0.0, str(path)),
        figure_pair=figure_pair,  # the document's, resolved below
        columns=columns,
        config_path=path,
    )
    try:
        base = settings.base_config()
        for v in variants:
            dataclasses.replace(base, variant=v)
        settings.figure_pair = _difference_pair(figure_pair, [v.value for v in variants])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return settings


def load_universe_panel(settings: RunSettings) -> AlignedPanel:
    """Load every universe CSV and align the series into one panel.

    The files of the load share one ``calendars`` dict (see
    :func:`load_price_csv`), so each distinct date column is parsed, sorted
    and checked once, and the series of one calendar share its ordinals,
    which :func:`align_panel` then stacks without counting days.
    """
    calendars: dict = {}
    series = [
        load_price_csv(
            str(entry.csv_path),
            entry.spec.ticker,
            date_column=settings.columns.date,
            price_column=settings.columns.price,
            calendars=calendars,
        )
        for entry in settings.universe
    ]
    specs = [entry.spec for entry in settings.universe]
    return align_panel(series, specs)
