"""Run one benchmark workload for a fixed time in this process.

Usage: ``worker.py WORKLOAD INPUT WORK_DIR SECONDS TRACE RESULT_JSON``.

``run.py`` starts this script as a child process with one-thread numeric
libraries and ``src`` on the import path, so that its peak memory belongs to
one workload. One warm-up iteration runs first and is checked but not
timed; then iterations repeat until ``SECONDS`` have passed (at least one
runs). Each iteration is timed in segments, with the calibration kernel of
:mod:`calibrate` timed between them, and its outputs are checked after it,
outside the timed region. With ``TRACE`` set to 1 the fracparity layers are
wrapped by :mod:`tracing` first and the per-layer totals go into the result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks

HERE = Path(__file__).resolve().parent
SWEEP_HORIZONS = (42, 63, 126, 252)
GRID_CHUNK = 1000  # stable-law points timed between two kernel samples
CLI_TIMEOUT_S = 120


@dataclasses.dataclass
class Iteration:
    """One iteration: wall and calibrated seconds, calibrated operation times, checks."""

    wall: float
    seconds: float
    ops_ms: list[float]
    factor: float
    failures: list[str] = dataclasses.field(default_factory=list)
    attempted: int = 1
    failed: int = 0

    def checked(self, failures: list[str], attempted: int = 1, failed: int | None = None):
        """Attach the output checks; by default any failure fails the whole iteration."""
        self.failures, self.attempted = failures, attempted
        self.failed = (attempted if failures else 0) if failed is None else failed
        if not self.ops_ms:  # the iteration is the operation
            self.ops_ms = [1e3 * self.seconds]
        return self


class Clock:
    """Times an iteration in segments, with the calibration kernel between them."""

    def __init__(self, kernel):
        self.kernel = kernel
        kernel()  # the first call runs cold; keep it out of the samples
        self.kernel_s = [calibrate.timed_kernel(kernel)]
        self.segments: list[tuple[float, list[float]]] = []  # (wall s, ops ms)
        self.first = 0
        self.t0 = 0.0

    def start(self) -> None:
        self.first = len(self.segments)
        self.t0 = time.perf_counter()

    def lap(self, ops_ms: list[float] = ()) -> None:
        """Close a segment and its operations, time the kernel, open the next segment."""
        self.segments.append((time.perf_counter() - self.t0, list(ops_ms)))
        self.kernel_s.append(calibrate.timed_kernel(self.kernel))
        self.t0 = time.perf_counter()

    def stop(self, ops_ms: list[float] = ()) -> Iteration:
        """Close the iteration; its times are calibrated segment by segment."""
        self.lap(ops_ms)
        segments = self.segments[self.first:]
        factors = calibrate.factors(self.kernel, self.kernel_s[-len(segments) - 1:])
        return Iteration(
            wall=sum(s for s, _ in segments),
            seconds=sum(s * f for (s, _), f in zip(segments, factors)),
            ops_ms=[ms * f for (_, ops), f in zip(segments, factors) for ms in ops],
            factor=statistics.median(factors),
        )


class CliWorkload:
    """``fracparity backtest`` in a fresh interpreter per iteration (``fixture_cli``)."""

    kernel = staticmethod(calibrate.process_kernel)

    def __init__(self, config: Path, work: Path, trace: bool):
        self.config, self.work, self.trace = config, work, trace
        self.first_digest: str | None = None
        self.summaries: list[dict] = []

    def backtest(self, out: Path) -> int:
        argv = ["backtest", "--config", str(self.config), "--out", str(out)]
        summary = self.work / "trace.json"
        if self.trace:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(summary), *argv]
        else:
            cmd = [sys.executable, "-m", "fracparity.cli", *argv]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
        if self.trace and summary.is_file():
            self.summaries.append(json.loads(summary.read_text()))
            summary.unlink()
        return proc.returncode

    def iteration(self, clock: Clock) -> Iteration:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        clock.start()
        code = self.backtest(out)
        it = clock.stop()
        failures, digest = checks.cli_artifacts(out, code)
        failures += checks.same_as_first(self.first_digest, digest)
        self.first_digest = self.first_digest or digest
        return it.checked(failures)


class InProcessCliWorkload(CliWorkload):
    """``cli.main(["backtest", ...])`` inside this process (``ragged_history``)."""

    kernel = staticmethod(calibrate.compute_kernel)

    def backtest(self, out: Path) -> int:
        from fracparity import cli

        argv = ["backtest", "--config", str(self.config), "--out", str(out)]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(argv)


class SweepWorkload:
    """Load a panel, then benchmark, three variants and reports at every horizon."""

    kernel = staticmethod(calibrate.compute_kernel)

    def __init__(self, config: Path, work: Path, trace: bool):
        self.config = config
        self.first_digest: str | None = None

    def iteration(self, clock: Clock) -> Iteration:
        from fracparity import backtest, metrics, runconfig

        clock.start()
        settings = runconfig.load_run_settings(self.config)
        panel = runconfig.load_universe_panel(settings)
        reports = {}
        for n in SWEEP_HORIZONS:
            clock.lap()
            settings.horizon_n = n
            base = settings.base_config()
            bench, bench_equity = backtest.run_benchmark(panel, base)
            runs = {"benchmark": (bench, bench_equity)}
            for variant in settings.variants:
                cfg = dataclasses.replace(base, variant=variant)
                runs[variant.value] = backtest.run_walk_forward(panel, cfg)
            for name, (results, equity) in runs.items():
                reports[f"{name}@{n}"] = metrics.build_report(
                    results, equity, bench, n,
                    mode=settings.compounding, risk_free_rate=settings.risk_free_rate,
                ).to_dict()
        it = clock.stop()

        failures = []
        for name, report in reports.items():
            failures += checks.report_identities(
                name, checks.round6(report), settings.risk_free_rate
            )
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
        failures += checks.same_as_first(self.first_digest, digest)
        self.first_digest = self.first_digest or digest
        return it.checked(failures)


class StableGridWorkload:
    """One pass of ``stable_cdf_with_error`` over the seeded grid per iteration."""

    kernel = staticmethod(calibrate.compute_kernel)

    def __init__(self, grid: Path, work: Path, trace: bool):
        doc = json.loads(grid.read_text())
        self.points = [tuple(p) for p in doc["points"]]
        self.mirror = {int(i): j for i, j in doc["mirror"].items()}
        self.first_values: list | None = None

    def iteration(self, clock: Clock) -> Iteration:
        from fracparity import errors, fractal

        values, ops_ms, failures = [], [], []
        bad = set()
        clock.start()
        for i, (r, alpha, beta) in enumerate(self.points):
            if i and i % GRID_CHUNK == 0:
                clock.lap(ops_ms)
                ops_ms = []
            t = time.perf_counter()
            try:
                value = fractal.stable_cdf_with_error(r, fractal.StableParams(alpha, beta))[0]
            except errors.FracparityError as exc:
                value = None
                bad.add(i)
                failures.append(f"F({r}; {alpha}, {beta}) raised {exc!r}")
            ops_ms.append(1e3 * (time.perf_counter() - t))
            values.append(value)
        it = clock.stop(ops_ms)

        for i, ((r, alpha, beta), value) in enumerate(zip(self.points, values)):
            if i in bad:
                continue
            j = self.mirror.get(i)
            message = checks.stable_point(
                r, alpha, beta, value, None if j is None or j in bad else values[j]
            )
            if self.first_values is not None and value != self.first_values[i]:
                message = message or f"F({r}; {alpha}, {beta}) changed between iterations"
            if message:
                bad.add(i)
                failures.append(message)
        self.first_values = self.first_values or values
        return it.checked(failures, attempted=len(self.points), failed=len(bad))


WORKLOADS = {
    "fixture_cli": CliWorkload,
    "horizon_sweep": SweepWorkload,
    "ragged_history": InProcessCliWorkload,
    "stable_grid": StableGridWorkload,
}


def main(argv: list[str]) -> int:
    name, input_path, work, seconds, trace, result_path = argv
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[name](Path(input_path), Path(work), tracer is not None)
    clock = Clock(workload.kernel)

    checked: list[Iteration] = []  # the warm-up iteration, then the timed ones
    failures: list[str] = []
    crashed = 0
    deadline = None
    while deadline is None or time.perf_counter() < deadline:
        try:
            it = workload.iteration(clock)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            failures.append(f"{type(exc).__name__}: {exc}")
            crashed = 1
            break
        checked.append(it)
        failures += it.failures
        if tracer is not None:
            tracer.fold()  # keeps the span list to one iteration
        if deadline is None:
            deadline = time.perf_counter() + float(seconds)
            if tracer is not None:  # per-layer totals leave the warm-up out too
                tracer.reset()
                getattr(workload, "summaries", []).clear()

    runs = checked[1:]
    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result = {
        "iterations": [r.seconds for r in runs],
        "raw_iterations": [r.wall for r in runs],
        "ops_ms": [ms for r in runs for ms in r.ops_ms],
        "factor": statistics.median(r.factor for r in runs) if runs else 1.0,
        "attempted": sum(r.attempted for r in checked) + crashed,
        "failed": sum(r.failed for r in checked) + crashed,
        "failures": failures[:20],
        "peak_rss_mb": max(usage) / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    if tracer is not None:
        summaries = [tracer.summary(), *getattr(workload, "summaries", [])]
        result["trace"] = tracing.merge(summaries)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
