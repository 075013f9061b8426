"""Host-noise probe: tells a slower host apart from a slower program.

Everything here only reads: a fixed calibration loop timed in this process,
CPU steal from ``/proc/stat`` and the load average from ``/proc/loadavg``,
and the BLAS thread count of the loaded OpenBLAS.
"""

from __future__ import annotations

import ctypes
import math
import os
import statistics
import time

import numpy as np

CALIB_REPS = 5


def _calib_once() -> float:
    """One fixed mix of interpreter work and short numpy calls, like a refresh loop."""
    t0 = time.perf_counter()
    acc = 0.0
    vec = np.arange(64, dtype=np.float64)
    for i in range(20_000):
        acc += float(np.cumsum(vec * vec)[-1]) * 1e-9 + math.sqrt(i)
    return (time.perf_counter() - t0) * 1000.0


def calib_ms() -> float:
    """Median wall time of the calibration loop, in ms."""
    return statistics.median(_calib_once() for _ in range(CALIB_REPS))


def cpu_times() -> list[int] | None:
    """Aggregate CPU jiffies from /proc/stat (user .. steal), or None if unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(v) for v in fields[1:9]]


def steal_share(before: list[int] | None, after: list[int] | None) -> float:
    """Share of CPU time stolen by the hypervisor between two readings; -1 if unknown."""
    if before is None or after is None:
        return -1.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def loadavg_1m() -> float:
    """One-minute load average; -1 if unreadable."""
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return -1.0


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use; -1 if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


class HostProbe:
    """Readings taken before and after a workload."""

    def __init__(self):
        self.calib_before = calib_ms()
        self.load_before = loadavg_1m()
        self._cpu_before = cpu_times()
        self.calib_after = self.load_after = self.steal = None

    def finish(self) -> None:
        self.steal = steal_share(self._cpu_before, cpu_times())
        self.load_after = loadavg_1m()
        self.calib_after = calib_ms()

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "host.calib_ms": (statistics.mean([self.calib_before, self.calib_after]), "ms"),
            "host.steal_share": (self.steal, "ratio"),
            "host.loadavg_1m": (max(self.load_before, self.load_after), "load"),
        }

    def line(self) -> str:
        return (f"host: calib {self.calib_before:.2f} -> {self.calib_after:.2f} ms, "
                f"steal share {self.steal:.4f}, load {self.load_before:.2f} -> {self.load_after:.2f}, "
                f"blas threads {blas_threads()}, cpus {os.cpu_count()}")
