"""Output checks of the benchmark.

Each check returns its failure messages, none when the output is correct.
The checks use invariants of the program's outputs, never pinned numbers,
so they stay valid when the engine's conventions change: the metric
identities of a report, the presence and byte-stability of the CLI
artifacts, and the closed forms and symmetry of the stable law.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ARTIFACTS = (
    "report.json",
    "report.txt",
    "period_returns.csv",
    "cumulated_returns.csv",
    "difference.csv",
    "manifest.json",
)
# every artifact but the manifest, whose timestamp changes from run to run
NUMERIC_ARTIFACTS = ARTIFACTS[:-1]

HALF_ULP_6 = 5e-7  # largest error of a value rounded to 6 decimals
GAUSSIAN_TOL = 1e-4
CAUCHY_TOL = 1e-6
SYMMETRY_TOL = 1e-8


def _quotient_tol(num: float, den: float) -> float:
    """Bound on |num/den - q| when num, den and q are each rounded to 6 decimals."""
    return HALF_ULP_6 + (HALF_ULP_6 + abs(num / den) * HALF_ULP_6) / abs(den) + 1e-12


def report_identities(name: str, report: dict, risk_free_rate: float) -> list[str]:
    """``sharpe == (return - rf) / std`` and ``treynor_x001 == 0.01 (return - rf) / beta``."""
    fields = ("sharpe", "treynor_x001", "avg_annual_return", "annualized_std", "beta")
    if any(not isinstance(report.get(f), (int, float)) for f in fields):
        return [f"{name}: report has a missing or undefined metric: {report}"]
    excess = report["avg_annual_return"] - risk_free_rate
    failures = []
    std, beta = report["annualized_std"], report["beta"]
    if abs(report["sharpe"] - excess / std) > _quotient_tol(excess, std):
        failures.append(f"{name}: sharpe {report['sharpe']} != return/std {excess / std}")
    want = 0.01 * excess / beta
    if abs(report["treynor_x001"] - want) > 0.01 * _quotient_tol(excess, beta) + HALF_ULP_6:
        failures.append(f"{name}: treynor_x001 {report['treynor_x001']} != 0.01 return/beta {want}")
    return failures


def round6(report: dict) -> dict:
    """A report's fields as the CLI writes them to report.json."""
    return {
        k: round(v, 6) if isinstance(v, float) else v
        for k, v in report.items()
        if k != "period_returns"
    }


def cli_artifacts(out_dir: Path, exit_code: int) -> tuple[list[str], str]:
    """Check one ``backtest`` run; return its failures and the digest of its numeric artifacts."""
    if exit_code != 0:
        return [f"backtest exited with code {exit_code}"], ""
    missing = [name for name in ARTIFACTS if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"], ""
    doc = json.loads((out_dir / "report.json").read_text())
    failures = []
    for name, report in doc["reports"].items():
        failures += report_identities(name, report, doc["risk_free_rate"])
    digest = hashlib.sha256()
    for name in NUMERIC_ARTIFACTS:
        digest.update((out_dir / name).read_bytes())
    return failures, digest.hexdigest()


def same_as_first(first: str | None, digest: str) -> list[str]:
    """Numeric outputs must not change between the iterations of one run."""
    if first is not None and digest != first:
        return ["numeric outputs differ from the first iteration of this run"]
    return []


def gaussian_cdf(z: float) -> float:
    """CDF of the alpha = 2 stable law, a normal with variance two."""
    return 0.5 * math.erfc(-z / 2.0)


def cauchy_cdf(z: float) -> float:
    return 0.5 + math.atan(z) / math.pi


def stable_point(r: float, alpha: float, beta: float, value: float, mirror: float | None) -> str:
    """Range, closed forms and ``F(z; a, b) + F(-z; a, -b) = 1`` at one point; "" when all hold."""
    if not 0.0 <= value <= 1.0:
        return f"F({r}; {alpha}, {beta}) = {value} outside [0, 1]"
    if alpha == 2.0 and abs(value - gaussian_cdf(r)) > GAUSSIAN_TOL:
        return f"Gaussian anchor at {r}: {value} vs {gaussian_cdf(r)}"
    if alpha == 1.0 and beta == 0.0 and abs(value - cauchy_cdf(r)) > CAUCHY_TOL:
        return f"Cauchy anchor at {r}: {value} vs {cauchy_cdf(r)}"
    if mirror is not None and abs(value + mirror - 1.0) > SYMMETRY_TOL:
        return f"symmetry at ({r}, {alpha}, {beta}): {value} + {mirror} != 1"
    return ""
