"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes, which would swamp the differences between two versions of
the program. Each run therefore also times a fixed kernel that does not
touch fracparity before and after each of its own measurements. A
measurement's wall time is scaled by the kernel's nominal time over the
median of the kernel times nearest to it, so it reads as seconds on a
machine where the kernel takes its nominal time. The uncalibrated wall times are
printed next to the calibrated ones.

Work inside one process is calibrated by :func:`compute_kernel`.
Measurements that start a fresh interpreter (the set-up probes and the
``fixture_cli`` runs) spend much of their time in process start, page
faults and loading shared libraries, which drift differently, so they are
calibrated by :func:`process_kernel`.
"""

from __future__ import annotations

import datetime as dt
import mmap
import statistics
import subprocess
import sys
import time

import numpy as np

PAGE_TOUCH_BYTES = 32 * 2**20


def compute_kernel(rounds: int = 2000) -> None:
    """Interpreter work, small NumPy calls and CSV-style parsing."""
    a = np.arange(1.0, 65.0)
    acc = 0.0
    for i in range(rounds):
        acc += float(np.std(np.diff(np.log(a + i)), ddof=1))
        date, price = f"2010-01-{i % 28 + 1:02d},{100.0 + i:.6f}".split(",")
        acc += float(price) + dt.date.fromisoformat(date).toordinal() * 1e-9
        acc += sum({j: j * i for j in range(10)}.values()) * 1e-12


def process_kernel() -> None:
    """:func:`compute_kernel` plus page faults on fresh memory and a bare interpreter start."""
    compute_kernel()
    for _ in range(4):
        m = mmap.mmap(-1, PAGE_TOUCH_BYTES)
        pages = np.frombuffer(m, dtype=np.uint8)
        pages[:: mmap.PAGESIZE] = 1
        del pages
        m.close()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


# kernel -> nominal seconds, close to its time on the 2-vCPU machine the benchmark was sized on
KERNELS = {compute_kernel: 0.05, process_kernel: 0.15}


def timed_kernel(kernel) -> float:
    """Wall seconds of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factors(kernel, samples: list[float]) -> list[float]:
    """Calibration factor of each measurement taken between two kernel samples.

    Measurement ``i`` ran between ``samples[i]`` and ``samples[i + 1]``;
    multiplying its wall time by the returned factor gives calibrated
    seconds. The factor uses the median of the four nearest samples, so one
    noisy kernel time does not throw a measurement off.
    """
    return [
        KERNELS[kernel] / statistics.median(samples[max(i - 1, 0): i + 3])
        for i in range(len(samples) - 1)
    ]
