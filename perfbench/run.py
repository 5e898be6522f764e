#!/usr/bin/env python3
"""fracparity benchmark: one workload per run, or every workload with ``all``.

    python3 perfbench/run.py --workload horizon_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from anywhere inside a checkout of the repository; the program under
test is imported from the checkout's ``src`` directory. Each run

1. writes the workload's inputs, made from ``--seed``, under
   ``.perfbench_work/`` in the checkout (outside every timed region);
2. times ``PROBES`` fresh interpreters that import the workload's entry
   module and make one warm-up call on a tiny input (``setup_s``), or with
   ``--trace 1`` runs them under ``python -X importtime`` instead;
3. runs the workload in a child process (``worker.py``): one untimed
   warm-up iteration, then iterations for ``--seconds``, with the numeric
   libraries held to one thread;
4. prints every metric with its unit and sample count, then one JSON line
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics. Every time is in calibrated seconds (see ``calibrate.py``). With ``--workload all`` every workload runs both ways and the
tracing overhead (traced minus untraced ``run_s.p50``) is printed too. The
exit code is 1 when any output check failed and 2 when the checkout cannot
be benchmarked.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE_CONFIG = ROOT / "tests" / "fixtures" / "panel4" / "universe.yaml"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("fixture_cli", "horizon_sweep", "ragged_history", "stable_grid")

PROBES = 5  # timed set-up probes per run; setup_s is their median
TRACE_PROBES = 3  # import-time probes per traced run
WORKER_GRACE_S = 120  # time a worker may take beyond --seconds before it is killed

# Workload sizes (see README.md for why each was chosen).
SWEEP_ASSETS, SWEEP_ROWS = 200, 2520
RAGGED_ASSETS, RAGGED_ROWS, RAGGED_HORIZON, RAGGED_DROP = 50, 7560, 252, 0.003
GRID_RANDOM, GRID_MIRROR, GRID_ANCHOR = 4000, 200, 100
TINY_ASSETS, TINY_ROWS, TINY_HORIZON = 4, 160, 40


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # fresh interpreters load cached bytecode, as from an installed package,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment() -> dict:
    """What a result was measured on: code version, interpreter, libraries, cores."""
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # stay in the checkout
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def make_inputs(workload: str, seed: int, work: Path) -> Path:
    """Write the tiny set-up input and the workload's input; return the latter."""
    import inputs

    inputs.write_panel(work / "tiny", seed, TINY_ASSETS, TINY_ROWS, TINY_HORIZON)
    if workload == "horizon_sweep":
        return inputs.write_panel(work / "panel", seed, SWEEP_ASSETS, SWEEP_ROWS, 63)
    if workload == "ragged_history":
        return inputs.write_panel(
            work / "panel", seed, RAGGED_ASSETS, RAGGED_ROWS, RAGGED_HORIZON,
            start=dt.date(1995, 1, 2), drop_fraction=RAGGED_DROP,
        )
    if workload == "stable_grid":
        points, mirror = inputs.stable_grid(seed, GRID_RANDOM, GRID_MIRROR, GRID_ANCHOR)
        grid = work / "grid.json"
        grid.write_text(json.dumps({"points": points, "mirror": mirror}))
        return grid
    return FIXTURE_CONFIG


def probe(workload: str, work: Path, env: dict, importtime: bool) -> tuple[float, str]:
    """One fresh-interpreter set-up; returns its wall seconds and its stderr."""
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, str(HERE / "probe.py"), workload,
           str(work / "tiny" / "universe.yaml"), str(work / "tiny_out")]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=WORKER_GRACE_S)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return seconds, proc.stderr


def import_metrics(stderr: str) -> dict[str, float]:
    """Seconds of module bodies by package, from ``-X importtime`` output."""
    self_us: dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        self_us[name.strip()] = self_us.get(name.strip(), 0) + int(own)

    def package(pkg: str) -> float:
        return sum(us for mod, us in self_us.items()
                   if mod == pkg or mod.startswith(pkg + ".")) / 1e6

    return {
        "import.total_s": sum(self_us.values()) / 1e6,
        "import.numpy_s": package("numpy"),
        "import.scipy_s": package("scipy"),
        "import.yaml_s": package("yaml"),
        "import.fracparity_self_s": package("fracparity"),
    }


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload once; return metrics as ``name -> (value, unit, samples)``.

    Times are calibrated seconds (see :mod:`calibrate`); ``raw`` keeps the
    uncalibrated wall seconds of the timing metrics and the two factors.
    """
    import calibrate
    import tracing

    work = WORK_ROOT / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    try:
        config = make_inputs(workload, seed, work)
        calibrate.process_kernel()  # the first call runs cold
        probes, kernel_s = [], [calibrate.timed_kernel(calibrate.process_kernel)]
        for _ in range(TRACE_PROBES if trace else PROBES):
            probes.append(probe(workload, work, env, importtime=trace))
            kernel_s.append(calibrate.timed_kernel(calibrate.process_kernel))

        result_file = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), workload, str(config), str(work),
               str(seconds), str(int(trace)), str(result_file)]
        proc = subprocess.run(cmd, env=env, timeout=seconds + WORKER_GRACE_S)
        if proc.returncode != 0 or not result_file.is_file():
            raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
        res = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    iters, ops = res["iterations"], res["ops_ms"]
    setup_factors = calibrate.factors(calibrate.process_kernel, kernel_s)
    out = {"attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"],
           "metrics": {}, "raw": {}}
    if not iters:
        return out
    run_p50 = (statistics.median(iters), "s", len(iters))
    out["raw"] = {
        "setup_factor": statistics.median(setup_factors),
        "run_factor": res["factor"],
        "run_s.p50": statistics.median(res["raw_iterations"]),
    }
    if trace:
        imports = [import_metrics(stderr) for _, stderr in probes]
        metrics = {
            name: (statistics.median(f * v[name] for f, v in zip(setup_factors, imports)),
                   "s", len(probes))
            for name in imports[0]
        }
        layers = tracing.layer_metrics(res["trace"], len(iters))
        for name, (value, unit) in layers.items():
            metrics[name] = (res["factor"] * value if unit == "s" else value, unit, len(iters))
        metrics["traced.run_s.p50"] = run_p50
    else:
        setups = [f * wall for f, (wall, _) in zip(setup_factors, probes)]
        out["raw"]["setup_s"] = statistics.median(wall for wall, _ in probes)
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(probes)),
            "run_s.p50": run_p50,
            "op_ms.p50": (statistics.median(ops), "ms", len(ops)),
            "op_ms.p99": (quantile(ops, 0.99), "ms", len(ops)),
            "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
            "success_ratio": (1.0 - res["failed"] / res["attempted"], "ratio", res["attempted"]),
        }
    out["metrics"] = metrics
    return out


def print_run(workload: str, trace: bool, res: dict) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== {workload} ({mode}): attempted {res['attempted']}, failed {res['failed']}, "
          f"error_ratio {res['failed'] / max(res['attempted'], 1):.6g}")
    for name, (value, unit, samples) in res["metrics"].items():
        print(f"{workload:>15} {name:<40} {value:>16.6f} {unit:<6} n={samples}")
    raw = " ".join(f"{name}={value:.6g}" for name, value in res["raw"].items())
    print(f"{workload:>15} uncalibrated: {raw}")
    for failure in res["failures"]:
        print(f"{workload:>15} FAILED CHECK: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [SRC / "fracparity" / "__init__.py", FIXTURE_CONFIG]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a fracparity checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    env_info = environment()
    print("environment " + json.dumps(env_info, sort_keys=True))
    if args.workload == "all":
        ok = True
        for workload in WORKLOADS:
            plain = run_workload(workload, args.seed, args.seconds, trace=False)
            traced = run_workload(workload, args.seed, args.seconds, trace=True)
            print_run(workload, False, plain)
            print_run(workload, True, traced)
            if plain["metrics"] and traced["metrics"]:
                overhead = traced["metrics"]["traced.run_s.p50"][0] - plain["metrics"]["run_s.p50"][0]
                print(f"{workload:>15} {'trace.overhead_s':<40} {overhead:>16.6f} s")
            ok = ok and not plain["failed"] and not traced["failed"] and bool(plain["metrics"])
        return 0 if ok else 1

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(args.workload, bool(args.trace), res)
    correct = res["failed"] == 0 and bool(res["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in res["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
