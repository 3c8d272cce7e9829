"""dancegraph benchmark: one workload per run, or all of them.

    python3 bench/run.py --workload relay_stream --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                      # every workload, default settings

Run from anywhere inside a checkout: the program is imported from the
checkout's own `src/`. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run measures half its
time untraced and half traced and reports the per-layer metrics plus the
tracing overhead. A full report of each run (host facts, seed, raw values)
is written under `.bench_out/` at the checkout root.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import REFERENCE_NS, calibrate, speed_factors
from tracing import Tracer, host_facts, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("relay_stream", "session_receive", "corrective")
# setup_s is the median of this many set-ups: some before the measurement
# and the rest after it, so that they fall in different host phases.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2


def frame_cpu_ns(phase) -> float:
    """Generator CPU per frame, each stretch between marks scaled by the
    host speed around it."""
    marks = np.asarray(phase.marks, dtype=np.int64)
    factor = speed_factors(phase.calib, marks[:-1, 0], marks[1:, 0]) if phase.calib else 1.0
    return float((np.diff(marks[:, 1]) * factor).sum()) / max(1, int(marks[-1, 2] - marks[0, 2]))


def end_to_end(phase, setup_times, extra_cpu_ns: int, peak_rss_kb: int):
    """The end-to-end metrics, normalised to the reference host speed.

    The host's speed swings by up to 2x in phases lasting seconds. Each unit
    of work's latency, and the generator CPU between consecutive marks, is
    scaled by the hostspeed factor measured around it (see hostspeed.py);
    the raw whole-run figures go into the notes.
    """
    lat = np.asarray(phase.latencies_ns, dtype=np.float64)
    starts = np.asarray(phase.times_ns, dtype=np.int64)
    # Without calibrations (the generator never had a spare moment) the raw
    # figures stand.
    factor = speed_factors(phase.calib, starts, starts + lat.astype(np.int64)) if phase.calib else 1.0
    norm = lat * factor
    cpu_ns = frame_cpu_ns(phase)
    p50 = float(np.median(norm))
    # The tail is reported, not gated: on a shared host a run's p99 follows
    # the scheduler's wake-up delays, and between runs of the same code it
    # moved by as much as its own median.
    p99, p99_label, _ = tail(lat, 99.0)
    metrics = {
        "latency_p50_ms": (p50 / 1e6, "ms"),
        "on_time_ratio": (phase.on_time / max(1, phase.units), "ratio"),
        "frame_cpu_us": (cpu_ns / 1e3, "us"),
        "total_cpu_us": ((cpu_ns + extra_cpu_ns / max(1, phase.frames)) / 1e3, "us"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    notes = {
        "latency_units": len(lat),
        "raw_latency_p99_ms": p99 / 1e6,
        "raw_latency_p99_taken_as": f"{p99_label} of {len(lat)} units",
        "calibrations": len(phase.calib),
        "mean_speed_factor": float(np.mean(factor)),
        "raw_latency_p50_ms": float(np.median(lat)) / 1e6,
        "raw_frame_cpu_us": phase.cpu_ns / max(1, phase.frames) / 1e3,
    }
    return metrics, notes


def per_layer(phase, tracer, untraced, workload) -> dict:
    """Per-layer metrics from the traced phase; zero where a layer does not
    run in this workload."""
    from dancegraph.harness import StageStats

    durations = tracer.durations_by_name()
    frames = max(1, phase.frames)
    extra = phase.extra

    def median_us(name):
        d = durations.get(name)
        return float(np.median(d)) / 1e3 if d else 0.0

    def per_packet_us(span, count):
        d = durations.get(span)
        n = tracer.counts.get(count, 0)
        return float(sum(d)) / n / 1e3 if d and n else 0.0

    def per_frame_ms(name):
        d = durations.get(name)
        return float(sum(d)) / frames / 1e6 if d else 0.0

    server = getattr(workload, "server_stats", None) or {}
    received = server.get("received", 0)
    relayed = server.get("relayed", 0)
    wire = StageStats.from_samples(extra.get("wire_us", []))
    ring_wait = StageStats.from_samples([t // 1000 for t in extra.get("ring_wait_ns", [])])
    m = {
        "codec.encode_us": (median_us("codec.encode"), "us"),
        "codec.decode_us": (median_us("codec.decode"), "us"),
        "codec.clamped_components": (extra.get("clamped_components", 0), "count"),
        "transport.send_us": (median_us("transport.send"), "us"),
        "transport.ingest_us": (median_us("transport.ingest"), "us"),
        "transport.wire_p50_us": (wire.p50_us, "us"),
        "transport.wire_p99_us": (wire.p99_us, "us"),
        "transport.stale_dropped": (extra.get("stale_dropped", 0), "count"),
        "server.received": (received, "count"),
        "server.relayed": (relayed, "count"),
        "server.dropped_stale": (server.get("dropped_stale", 0), "count"),
        "server.dropped_corrupt": (server.get("dropped_corrupt", 0), "count"),
        "server.unknown_sender": (server.get("unknown_sender", 0), "count"),
        "server.spoofed": (server.get("spoofed", 0), "count"),
        "server.relay_ratio": (relayed / received if received else 0.0, "ratio"),
        # The relay is not traced, so its CPU over both halves counts.
        "server.cpu_us_per_pkt": (
            (extra.get("server_cpu_ns", 0) + untraced.extra.get("server_cpu_ns", 0))
            / relayed / 1e3 if relayed else 0.0, "us"),
        "router.poll_every_us": (per_packet_us("router.poll_every", "router.polled_every"), "us"),
        "router.poll_latest_us": (per_packet_us("router.poll_latest", "router.polled_latest"), "us"),
        "router.ring_wait_us": (ring_wait.p50_us, "us"),
        "router.lost": (extra.get("router_lost", 0), "count"),
        "router.skipped": (extra.get("router_skipped", 0), "count"),
        "recording.load_ms": (per_frame_ms("recording.load"), "ms"),
        "recording.save_ms": (per_frame_ms("recording.save"), "ms"),
        "rhythm.pipeline_ms": (per_frame_ms("rhythm.pipeline"), "ms"),
        "rhythm.amplify_ms": (per_frame_ms("rhythm.amplify"), "ms"),
        "rhythm.windows": (extra.get("windows", 0), "count"),
        "harness.send_late_p99_us": (extra.get("send_late_p99_us", 0.0), "us"),
        "harness.busy_ratio": (phase.cpu_ns / phase.wall_ns if phase.wall_ns else 0.0, "ratio"),
    }
    self_ns = tracer.self_by_layer()
    for layer in ("harness", "codec", "transport", "router", "recording", "rhythm"):
        m[f"{layer}.self_us_per_frame"] = (self_ns.get(layer, 0) / frames / 1e3, "us")
    # Each half reduced the same way as frame_cpu_us.
    base, traced = frame_cpu_ns(untraced), frame_cpu_ns(phase)
    m["trace.overhead_us"] = ((traced - base) / 1e3, "us")
    m["trace.overhead_pct"] = (100.0 * (traced - base) / base if base else 0.0, "%")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    setup_times, raw_setup_times = [], []

    def set_up():
        before = calibrate(10)
        t0 = time.perf_counter()
        workload = cls(seed, SRC, OUT)
        elapsed = time.perf_counter() - t0
        raw_setup_times.append(elapsed)
        setup_times.append(elapsed * REFERENCE_NS * 2 / (before + calibrate(10)))
        return workload

    for _ in range(SETUPS_BEFORE - 1):
        set_up().close()
    workload = set_up()
    # The inputs and references built in set-up live for the whole run; keep
    # the cyclic collector from walking them on every full collection.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if trace else None
    try:
        if trace:
            untraced = workload.run(seconds / 2, None)
            phase = workload.run(seconds / 2, tracer)
            phases = [untraced, phase]
        else:
            phase = workload.run(seconds, None)
            phases = [phase]
    finally:
        workload.close()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb += getattr(workload, "server_peak_kb", 0)
    for _ in range(SETUPS_AFTER):
        set_up().close()

    extra_cpu = phase.extra.get("server_cpu_ns", 0)
    if trace:
        metrics = per_layer(phase, tracer, untraced, workload)
        notes = {}
    else:
        metrics, notes = end_to_end(phase, setup_times, extra_cpu, peak_kb)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    behind = any(p.extra.get("generator_behind") for p in phases)

    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_facts(),
        "network": "loopback only (127.0.0.1); no real link was crossed"
        if name == "relay_stream" else "none",
        "setup_s_each": setup_times,
        "setup_s_each_raw": raw_setup_times,
        "generator_behind": behind,
        "server_stats": getattr(workload, "server_stats", None),
        "notes": notes,
        "phases": [
            {
                "seconds": p.seconds, "units": p.units, "frames": p.frames,
                "attempted": p.attempted, "failed": p.failed, "on_time": p.on_time,
                "cpu_ns": p.cpu_ns, "wall_ns": p.wall_ns,
                "latencies_ns": p.latencies_ns,
                "times_ns": p.times_ns,
                "marks": p.marks,
                "calib": p.calib,
                "extra": p.extra,
            }
            for p in phases
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(report))
    if trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json_dict()))

    for key, (value, unit) in metrics.items():
        print(f"{name:16s} {key:28s} {value:14.4f} {unit}")
    for key, value in notes.items():
        print(f"{name:16s} {key:28s} {value}")
    if behind:
        print(f"WARNING {name}: the generator fell behind its schedule; latency "
              "includes its own lateness (see harness.send_late_p99_us)", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "dancegraph" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'dancegraph'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dancegraph

    if Path(dancegraph.__file__).resolve().parent != (SRC / "dancegraph").resolve():
        print(f"error: imported dancegraph from {dancegraph.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
