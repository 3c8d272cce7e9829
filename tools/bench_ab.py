"""Paired benchmark runs of two checkouts, written to one JSON file.

    git clone --quiet . /tmp/parent && git -C /tmp/parent checkout --quiet HEAD~1
    python3 tools/bench_ab.py /tmp/parent . --workload corrective \\
        --workload relay_stream --seed 7 --pairs 10 --seconds 10 --out BENCH.json

Each side runs its own checkout's `bench/run.py` (which imports that
checkout's own `src/`) as a child process, one run at a time. Each pair
runs every `--workload` in the order given, both sides on one workload
before the next; pairs alternate which side goes first: the parent in odd
pairs, the change in even ones. Every run of a workload gets the same seed
and length.

The file keeps every run's workload, metrics block, verdict and
`mean_speed_factor` (the host-speed scaling `bench/run.py` applied). Per
workload and end-to-end metric of `BENCHMARK.json` (read from the change's
checkout) it holds both medians, the parent's interquartile range, the
ratio of the medians (change / parent), the pairs the change won (lower, or
higher for a metric where higher is better) and the metric's bound. It also
holds host facts (cores, Python, numpy, the CPU time stolen by the
hypervisor over the whole measurement, read from /proc/stat), both
checkouts' git revisions and the seed, and each side's deterministic work
counts from `tools/layer_ab.py` (`PoseFrame`s built and rows slerped per
frame of its corrective chain, power iterations per block of reference
windows and windows that fell back to eigh), taken in this process before
the first run. A checkout whose tracked files differ from its commit also
gets the sha256 of its `git diff HEAD --binary`, which names the
uncommitted change that was measured. It changes no workload, bound or
seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from layer_ab import work_counts

SIDES = ("parent", "change")
SCHEMA = 4
METRIC_KEYS = (
    "unit", "better", "bound", "parent_median", "change_median", "parent_iqr", "ratio", "wins",
    "pairs",
)
RUN_KEYS = ("workload", "pair", "side", "order", "correct", "attempted", "failed",
            "mean_speed_factor", "metrics")
REVISION_KEYS = ("commit", "dirty", "diff_sha256")
COUNT_KEYS = ("PoseFrames/frame", "slerped rows/frame", "power iterations/block", "eigh windows")


def cpu_ticks() -> dict | None:
    """The host's total and stolen CPU ticks from /proc/stat's `cpu` line,
    or None where there is no such file."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice; the
    # guest ticks are already counted in user and nice.
    return {"total": sum(ticks[:8]), "steal": ticks[7] if len(ticks) > 7 else 0}


def revision(tree: Path) -> dict:
    """The checkout's git commit, whether its tracked files differ from it,
    and the sha256 of `git diff HEAD --binary` when they do (None when they
    do not); all None for a directory that is not a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return dict.fromkeys(REVISION_KEYS)
    diff = git("diff", "HEAD", "--binary").stdout
    return {
        "commit": head.stdout.decode().strip(),
        "dirty": diff != b"",
        "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `tree`: its JSON verdict line, plus the
    mean_speed_factor it printed among its notes."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, timeout=600 + 4 * seconds,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree / 'bench' / 'run.py'} exited {proc.returncode}")
    result = json.loads(lines[-1])
    speed = None
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[:2] == [workload, "mean_speed_factor"]:
            speed = float(parts[2])
    result["mean_speed_factor"] = speed
    return result


def counts(tree: Path, side: str) -> dict:
    """The layer_ab work counts of the checkout's `src/`, by COUNT_KEYS."""
    by_layer = work_counts(tree / "src", f"dancegraph_{side}")
    flat = {**by_layer["corrective chain"], **by_layer["reference windows"]}
    return {key: flat[key] for key in COUNT_KEYS}


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per-metric medians, parent IQR, ratio, wins and bound over the pairs
    of one workload's runs."""
    out = {}
    pairs = max(run["pair"] for run in runs)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        by_pair = {side: [None] * pairs for side in SIDES}
        for run in runs:
            by_pair[run["side"]][run["pair"] - 1] = run["metrics"][name]["value"]
        parent, change = by_pair["parent"], by_pair["change"]
        lower = metric["better"] == "lower"
        q1, q3 = np.percentile(parent, [25, 75])
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": float(q3 - q1),
            "ratio": change_median / parent_median if parent_median else None,
            "wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
            "pairs": pairs,
        }
    return out


def schema_problems(doc: dict) -> list[str]:
    """What a bench_ab file lacks: missing keys, runs or metrics, or another
    schema."""
    problems = [f"missing {key}" for key in (
        "schema", "workloads", "seed", "pairs", "seconds", "revisions", "host", "work_counts",
        "runs", "metrics",
    ) if key not in doc]
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(f"schema {doc['schema']}, not {SCHEMA}")
    problems += [f"missing host.{key}" for key in (
        "cores", "python", "numpy", "steal_ticks", "total_ticks"
    ) if key not in doc["host"]]
    for side in SIDES:
        rev = doc["revisions"].get(side)
        if rev is None:
            problems.append(f"missing revisions.{side}")
            continue
        problems += [f"missing revisions.{side}.{key}" for key in REVISION_KEYS if key not in rev]
        if rev.get("dirty") and not isinstance(rev.get("diff_sha256"), str):
            problems.append(f"revisions.{side} is dirty but names no diff")
        side_counts = doc["work_counts"].get(side)
        if side_counts is None:
            problems.append(f"missing work_counts.{side}")
            continue
        problems += [f"missing work_counts.{side}.{key}"
                     for key in COUNT_KEYS if key not in side_counts]
    if not doc["workloads"]:
        problems.append("no workloads")
    for workload in doc["workloads"]:
        runs = [run for run in doc["runs"] if run.get("workload") == workload]
        if len(runs) != 2 * doc["pairs"]:
            problems.append(f"{len(runs)} {workload} runs for {doc['pairs']} pairs")
        metrics = doc["metrics"].get(workload)
        if not metrics:
            problems.append(f"no {workload} metrics")
            continue
        for name, row in metrics.items():
            problems += [f"{workload} metric {name} missing {key}"
                         for key in METRIC_KEYS if key not in row]
    if len(doc["runs"]) != 2 * doc["pairs"] * len(doc["workloads"]):
        problems.append(f"{len(doc['runs'])} runs for {doc['pairs']} pairs "
                        f"of {len(doc['workloads'])} workloads")
    for i, run in enumerate(doc["runs"]):
        problems += [f"run {i} missing {key}" for key in RUN_KEYS if key not in run]
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", dest="workloads", action="append", required=True,
                        help="a workload of bench/run.py; repeat it for several")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if len(set(args.workloads)) != len(args.workloads):
        parser.error("each --workload may be given once")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    side_counts = {side: counts(tree, side) for side, tree in trees.items()}

    runs = []
    before = cpu_ticks()
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for workload in args.workloads:
            for position, side in enumerate(order):
                result = run_once(trees[side], workload, args.seed, args.seconds)
                runs.append(
                    {"workload": workload, "pair": pair, "side": side, "order": position, **result}
                )
                value = result["metrics"].get("frame_cpu_us", {}).get("value")
                print(f"pair {pair} {workload} {side:6s} correct={result['correct']} "
                      f"frame_cpu_us={value}", flush=True)
    after = cpu_ticks()

    doc = {
        "schema": SCHEMA,
        "workloads": args.workloads,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "revisions": {side: revision(tree) for side, tree in trees.items()},
        "host": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "steal_ticks": None if before is None else after["steal"] - before["steal"],
            "total_ticks": None if before is None else after["total"] - before["total"],
        },
        "work_counts": side_counts,
        "runs": runs,
        "metrics": {
            workload: summarize([run for run in runs if run["workload"] == workload], spec)
            for workload in args.workloads
        },
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for key in COUNT_KEYS:
        print(f"{key:22s} parent {side_counts['parent'][key]:8.3f}"
              f"  change {side_counts['change'][key]:8.3f}")
    for workload, metrics in doc["metrics"].items():
        print(workload)
        for name, row in metrics.items():
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
            print(f"  {name:16s} parent {row['parent_median']:10.4f}"
                  f"  change {row['change_median']:10.4f}  ratio {ratio}"
                  f"  parent IQR {row['parent_iqr']:.4f}"
                  f"  change better in {row['wins']}/{row['pairs']}")


if __name__ == "__main__":
    main()
