"""In-memory span recorder, self-time arithmetic and percentile helpers.

Spans are recorded from the benchmark's own files around each call into a
layer's public function; nothing inside the program is instrumented. A
span's name is "<layer>.<operation>", and its layer is the part before the
first dot.
"""
from __future__ import annotations

import os
import platform
import sys
import time
from collections import defaultdict

import numpy as np

# Percentiles a run may report, highest first.
_PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
# A percentile is supported when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def supported_percentile(n: int) -> float | None:
    """Highest percentile on the ladder with at least ten samples beyond it.

    With n samples, n * (100 - p) / 100 lie beyond the p-th percentile.
    None when even the median has fewer than ten samples beyond it.
    """
    for p in _PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:  # 100 - 99.9 is inexact
            return p
    return None


def tail(samples, wanted: float = 99.0) -> tuple[float, str, int]:
    """Value at the wanted percentile, or at the highest one the sample
    supports when it is lower, or the maximum when none is supported.

    Returns (value, label, sample count); the label names what was taken.
    """
    arr = np.asarray(samples, dtype=np.float64)
    n = int(arr.size)
    if n == 0:
        raise ValueError("no samples")
    p = supported_percentile(n)
    if p is None:
        return float(arr.max()), "max", n
    p = min(p, wanted)
    return float(np.percentile(arr, p)), f"p{p:g}", n


class Tracer:
    """Records spans (name, start, end, parent, root) and named counts.

    Times are monotonic nanoseconds. A span opened while another is open is
    that span's child; the root span's index identifies one generator step,
    which every span below it shares.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else i)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(time.monotonic_ns())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.monotonic_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            i = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def durations_by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = defaultdict(list)
        for name, s, e in zip(self.names, self.starts, self.ends):
            out[name].append(e - s)
        return out

    def self_by_layer(self) -> dict[str, int]:
        """Total self time per layer, nanoseconds."""
        out: dict[str, int] = defaultdict(int)
        for name, t in zip(self.names, self_times(self.starts, self.ends, self.parents)):
            out[name.split(".", 1)[0]] += t
        return out

    def to_json_dict(self) -> dict:
        return {
            "names": self.names,
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
            "root": self.roots,
            "counts": dict(self.counts),
        }


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another; their union is what is subtracted,
    clipped to the parent's own interval.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], s), min(ends[c], e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(e - s - covered)
    return out


def host_facts() -> dict:
    """What a reader needs to place a run's numbers."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "kernel": platform.release(),
        "machine": platform.machine(),
    }
