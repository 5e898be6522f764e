"""The benchmark's entry points still resolve against the package.

``perfbench/run.py`` fails a workload when its set-up probe or its worker
exits non-zero, which happens as soon as a name that the probe, the worker
or ``tracing.TRACED`` binds stops resolving. These checks read ``perfbench/``
as it is: every traced binding is looked up without installing the tracer,
and ``probe.py`` runs each workload once on a tiny generated panel.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("fixture_cli", "horizon_sweep", "ragged_history", "stable_grid")


def perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    for module_name, attr, _ in perfbench_module("tracing").TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory) -> Path:
    # the set-up input of perfbench/run.py: 4 assets, 160 rows, horizon 40
    return perfbench_module("inputs").write_panel(tmp_path_factory.mktemp("tiny"), 1, 4, 160, 40)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_probe_runs_every_workload(tmp_path, tiny_config, workload):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(PERFBENCH / "probe.py"), workload, str(tiny_config),
            str(tmp_path / "out")]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
