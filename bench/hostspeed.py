"""A fixed calibration kernel that tracks how fast the host runs right now.

The development host's speed swings by up to 2x in phases lasting seconds,
and the CPU-bound workloads swing with it. The kernel mixes what the
program spends its time on (small Python objects and calls, small numpy
array operations and conversions back to Python) and never calls the
program, so no change to the program can move it. The workloads run it
between units of work, a slice of about 0.1 ms at a time, and a unit's
figures are scaled by REFERENCE_NS / (CPU time per slice around it).
"""
from __future__ import annotations

import time

import numpy as np

# The scale: about one slice's CPU time on the development host in its fast
# phases. Normalised figures read as if the whole run had gone at that speed.
REFERENCE_NS = 100_000
# Calibrations within this distance of a unit of work count for it.
MARGIN_NS = 50_000_000

_ROWS = np.linspace(-0.5, 0.5, 136).reshape(34, 4)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _kernel() -> float:
    """One slice."""
    acc = 0.0
    keep = []
    for i in range(96):
        p = _Pair(i, (i, i + 1.0))
        keep.append(p)
        acc += p.b[1]
        if i % 7 == 0:
            keep = []
    for _ in range(6):
        x = _ROWS * 1.0001
        w = np.sqrt(np.clip(1.0 - (x[:, :3] ** 2).sum(axis=1), 0.0, None))
        acc += float(w[0]) + len(tuple(x.tolist()))
    return acc


def calibrate(slices: int = 1) -> int:
    """CPU nanoseconds per slice this thread spent running `slices` slices."""
    t0 = time.thread_time_ns()
    for _ in range(slices):
        _kernel()
    return (time.thread_time_ns() - t0) // slices


def speed_factors(calib, starts_ns, ends_ns) -> np.ndarray:
    """REFERENCE_NS over the mean CPU time per slice of the calibrations
    taken within MARGIN_NS of each [start, end] interval, or of the nearest
    calibration when none is. `calib` holds (time, CPU ns per slice)."""
    times = np.array([t for t, _ in calib], dtype=np.int64)
    per_slice = np.array([v for _, v in calib], dtype=np.float64)
    starts = np.asarray(starts_ns, dtype=np.int64)
    ends = np.asarray(ends_ns, dtype=np.int64)
    lo = np.searchsorted(times, starts - MARGIN_NS, side="left")
    hi = np.searchsorted(times, ends + MARGIN_NS, side="right")
    sums = np.concatenate([[0.0], np.cumsum(per_slice)])
    count = hi - lo
    after = np.clip(np.searchsorted(times, starts), 0, len(times) - 1)
    before = np.clip(after - 1, 0, len(times) - 1)
    nearest = np.where(starts - times[before] <= np.abs(times[after] - ends), before, after)
    mean = np.where(count > 0, (sums[hi] - sums[lo]) / np.maximum(count, 1), per_slice[nearest])
    return REFERENCE_NS / mean
