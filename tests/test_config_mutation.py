"""Mutated panel4 run configurations end cleanly.

Hypothesis replaces or deletes keys and values of the panel4 YAML (CSV
paths made absolute) with non-finite, huge, wrong-type and missing values.
Every run of ``fracparity backtest`` on the result must exit 0, 2, 3 or 4,
print exactly one ``error:`` line when it fails, and never a traceback.
"""

from __future__ import annotations

import copy
import io
import math
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracparity.cli import main

PANEL_CONFIG = Path(__file__).parent / "fixtures" / "panel4" / "universe.yaml"
MAX_EXAMPLES = 60  # about 5 s on a 2-vCPU machine

BASE = yaml.safe_load(PANEL_CONFIG.read_text())
for _entry in BASE["universe"]:
    _entry["csv"] = str(PANEL_CONFIG.parent / _entry["csv"])
# the defaults written out, so that a mutation of one of their keys reaches the loader
BASE.update(hurst={"h_min": 0.1, "h_max": 1.0, "min_windows": 4, "max_rungs": 4},
            columns={"date": "date", "price": "adj_close"})

DELETE = object()
PATHS = [
    ("universe",), ("benchmark",), ("horizon",), ("variants",), ("initial_capital",),
    ("compounding",), ("commission",), ("risk_free_rate",), ("hurst",), ("figure_pair",),
    ("columns",), ("variants", 0), ("variants", 1), ("figure_pair", 0), ("figure_pair", 1),
    *(("commission", key) for key in ("per_share", "min_per_order", "max_pct_of_value")),
    *(("hurst", key) for key in ("h_min", "h_max", "min_windows", "max_rungs", "min_scales")),
    *(("universe", i, key) for i in (0, 4) for key in ("ticker", "csv", "expense_ratio", "role")),
    ("universe", 2), ("columns", "date"), ("columns", "price"),
    # keys the loader does not know
    ("horzion",), ("universe", 0, "expnse_ratio"), ("columns", "dat"), ("commission", "fee"),
    ("hurst", "hmin"),
]
VALUES = st.one_of(
    st.sampled_from([
        math.inf, -math.inf, math.nan, 1e30, -1e30, 1e308, 10**400, -(10**400), 5e-324,
        0, -1, 1, 2.5, 8, 40, 126, 189, True, None, "", "x", "benchmark", "fractal_biased",
        "reinvest", "BMK", [], {}, [1, 2], ["benchmark", "benchmark"], {"h_min": 0.5},
    ]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(PATHS), st.one_of(st.just(DELETE), VALUES)), min_size=1, max_size=3
)


def _holds(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def mutate(doc: dict, mutations) -> dict:
    """A copy of ``doc`` with each ``(path, value)`` set, or deleted for ``DELETE``."""
    doc = copy.deepcopy(doc)
    for (*parents, last), value in mutations:
        node = doc
        for key in parents:
            node = node[key] if _holds(node, key) else None
        if value is DELETE:
            if _holds(node, last):
                del node[last]
        elif isinstance(node, dict) or _holds(node, last):
            node[last] = value
    return doc


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process run; an escaped exception gives 1 and a traceback."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


@settings(max_examples=MAX_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations=MUTATIONS)
@example(mutations=[(("initial_capital",), math.inf)])
@example(mutations=[(("initial_capital",), 1e30)])
@example(mutations=[(("risk_free_rate",), math.nan)])
@example(mutations=[(("figure_pair",), ["bogus", "benchmark"])])
@example(mutations=[(("commission", "per_share"), math.nan)])
@example(mutations=[(("hurst", "max_rungs"), 3.5)])
@example(mutations=[(("universe", 4, "csv"), "\x00")])
@example(mutations=[(("commission", "per_share"), 2**63)])
@example(mutations=[(("variants", 1), "fractal_biased")])
@example(mutations=[(("figure_pair",), ["benchmark", "x"]), (("figure_pair", 1), "benchmark")])
def test_mutated_config_ends_cleanly(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.yaml"
        config.write_text(yaml.safe_dump(mutate(BASE, mutations)))
        code, err = run_cli(["backtest", "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert "Traceback" not in err, err
    assert code in (0, 2, 3, 4), err
    error_lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(error_lines) == (0 if code == 0 else 1), err
