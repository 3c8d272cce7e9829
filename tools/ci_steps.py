"""The CI workflow's scripted steps, runnable from a checkout without CI.

    python3 tools/ci_steps.py relay        # `dancegraph server` starts and stops on SIGINT
    python3 tools/ci_steps.py session      # live record/replay through a real relay
    python3 tools/ci_steps.py corrective   # `dancegraph correct` on a synthesized take
    python3 tools/ci_steps.py smoke        # 2 s benchmark run; its JSON verdict must pass
    python3 tools/ci_steps.py latency      # relay latency scenarios keep every stage, swarm no gap
    python3 tools/ci_steps.py bench-ab     # tools/bench_ab.py writes a complete file
    python3 tools/ci_steps.py all          # every step after Install, with PYTHONPATH=src

`.github/workflows/tests.yml` calls the subcommands; each exits 0 only if
its step passes. `all` needs no install: it runs the workflow's steps in
its order from the checkout root with `src/` on PYTHONPATH, each under the
time limit CI gives it, and exits 1 if any step failed. The files a step
writes go to a temporary directory, except `latency`, which keeps
`swarm.json` and `loopback_relay.json` in the working directory for CI to
upload (under `all`, they too go to the temporary directory).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = [sys.executable, "-u", "-m", "dancegraph.cli"]
LATENCY_STAGES = {"produce_to_consume", "enqueue_to_client_in", "client_in_to_consume"}


def first_line(proc: subprocess.Popen, prefix: str) -> str:
    """The process's first output line, which must start with `prefix`
    within 10 s; otherwise the process is killed and the step fails."""
    ready, _, _ = select.select([proc.stdout], [], [], 10.0)
    line = proc.stdout.readline() if ready else ""
    print(line.strip())
    if not line.startswith(prefix):
        proc.kill()
        sys.exit(f"no {prefix!r} line within 10 s")
    return line


def relay() -> bool:
    """Start the real `dancegraph server`, wait for it to listen and stop it
    with SIGINT as an operator would: it must exit 0 and print its counters."""
    proc = subprocess.Popen(
        [*CLI, "server", "--bind", "127.0.0.1:0"], stdout=subprocess.PIPE, text=True
    )
    first_line(proc, "relay listening")
    proc.send_signal(signal.SIGINT)
    out, _ = proc.communicate(timeout=10)
    print(out.strip())
    return proc.returncode == 0 and "server stats:" in out


def session(work: Path) -> bool:
    """`record` and `replay` drive their client's receive() from their own
    loops (record_sink and replay_stream), which no benchmark workload runs:
    a 3 s take goes through a real `dancegraph server`, the recording must
    hold at least 90% of the replayed frames, and replay, which drops a
    datagram its socket refuses, must report 0 send errors on this healthy
    loopback session."""
    from dancegraph.recording import load_recording

    (work / "corpus").mkdir()
    take, bounds, out = work / "corpus" / "take.dgrc", work / "bounds.json", work / "out.dgrc"
    subprocess.run([*CLI, "synth", "--out", str(take), "--seconds", "3"], check=True)
    subprocess.run(
        [*CLI, "bounds", "--corpus", str(work / "corpus"), "--out", str(bounds)], check=True
    )
    server = subprocess.Popen(
        [*CLI, "server", "--bind", "127.0.0.1:0"], stdout=subprocess.PIPE, text=True
    )
    recorder = None
    try:
        addr = first_line(server, "relay listening").split()[-1]
        recorder = subprocess.Popen(
            [*CLI, "record", "--out", str(out), "--server", addr, "--bounds", str(bounds),
             "--duration", "6"],
            stdout=subprocess.PIPE, text=True,
        )
        first_line(recorder, "recording")
        replayed_out = subprocess.run(
            [*CLI, "replay", "--file", str(take), "--server", addr, "--bounds", str(bounds)],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        print(replayed_out.strip())
        print(recorder.communicate(timeout=30)[0].strip())
        server.send_signal(signal.SIGINT)
        print(server.communicate(timeout=10)[0].strip())
    finally:
        # A failed step must not leave the relay or the recorder running.
        for proc in (server, recorder):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
    replayed, recorded = len(load_recording(take).frames), len(load_recording(out).frames)
    print(f"recorded {recorded} of {replayed} replayed frames")
    return (
        recorder.returncode == 0 and server.returncode == 0 and recorded >= 0.9 * replayed
        and "send errors 0," in replayed_out
    )


def corrective(work: Path) -> bool:
    """No other step runs `dancegraph correct`: a synthesized 12 s take is
    beat-aligned and stylized (hips 2.0, hands 0.5) on the beat grid, whose
    warp does not land within the take, and on a grid shifted by 150 ms,
    whose warp converges after the take's last extremum. Each run must exit
    0, its corrected file must load with the take's frame count, and its
    --json report must be applied, count each of the take's 24 extrema once,
    report a convergence only for the shifted grid, and give the hips'
    amplitude ratio within 2 +- 0.05. A malformed --config (an unknown
    zone, zone_gains not an object, a phase beyond any float, a misspelt
    `zone_gain`, a fixed setting such as `window_frames`, and a list bpm,
    a list gain or a null phase, whose stderr must name the key) must
    exit 2 before anything is written, and so must a 2-joint take. The same
    settings at a 1.001 ms phase, once as flags and once as a --config, must
    write the same report and the same corrected file: both round the phase
    to whole microseconds."""
    from dancegraph.core import BodyZone, Skeleton, default_skeleton
    from dancegraph.harness import synthesize_sway_recording
    from dancegraph.recording import load_recording, save_recording

    hips = default_skeleton().joints_in_zone(BodyZone.HIPS)
    take = work / "take.dgrc"
    subprocess.run([*CLI, "synth", "--out", str(take), "--seconds", "12"], check=True)
    taken = len(load_recording(take).frames)
    ok = True
    for phase_ms in ("0", "150"):
        out, report = work / f"fixed-{phase_ms}.dgrc", work / f"report-{phase_ms}.json"
        corrected = subprocess.run(
            [*CLI, "correct", "--in", str(take), "--out", str(out), "--bpm", "120",
             "--phase-ms", phase_ms, "--gains", "hips=2.0", "hands=0.5", "--json", str(report)],
        )
        fixed = len(load_recording(out).frames) if out.exists() else 0
        doc = json.loads(report.read_text()) if report.exists() else {}
        ratio, converged = doc.get("amplitude_ratio"), doc.get("convergence_us")
        print(f"correct --phase-ms {phase_ms} exited {corrected.returncode}: {fixed} frames out "
              f"of {taken} in, applied {doc.get('applied')}, joint {doc.get('measured_joint')} "
              f"amplitude ratio {ratio}, {doc.get('extrema_pre')} extrema, "
              f"converged at {converged} us")
        ok &= (
            corrected.returncode == 0 and fixed == taken and doc.get("applied") is True
            and doc.get("measured_joint") in hips and ratio is not None and abs(ratio - 2.0) <= 0.05
            and doc.get("extrema_pre") == 24 and (converged is None) == (phase_ms == "0")
        )
    # (fields, the key the refusal must name on stderr, or None)
    bad = {
        "an unknown zone": ({"zone_gains": {"hipz": 2.0}}, None),
        "zone_gains a list": ({"zone_gains": ["hips"]}, None),
        "phase_offset_ms 1e306": ({"phase_offset_ms": 1e306}, None),
        "zone_gain for zone_gains": ({"zone_gain": {"hips": 2.0}}, None),
        "the fixed window_frames": ({"window_frames": 256}, None),
        "a list bpm": ({"bpm": [120]}, "bpm"),
        "a list gain": ({"zone_gains": {"hips": [2.0]}}, "zone_gains.hips"),
        "a null phase": ({"phase_offset_ms": None}, "phase_offset_ms"),
    }
    for name, (fields, key) in bad.items():
        config, out = work / "bad-config.json", work / "fixed-bad-config.dgrc"
        config.write_text(json.dumps({"bpm": 120, **fields}))
        refused = subprocess.run(
            [*CLI, "correct", "--in", str(take), "--out", str(out), "--config", str(config)],
            stderr=subprocess.PIPE, text=True,
        )
        said = refused.stderr.strip().splitlines()[-1:]
        named = key is None or any(key in line for line in said)
        print(f"correct with {name} in --config exited {refused.returncode}, "
              f"wrote --out: {out.exists()}, said {said}")
        ok &= refused.returncode == 2 and not out.exists() and named
    pair, out = work / "two-joints.dgrc", work / "fixed-two-joints.dgrc"
    rig = Skeleton(("hips", "hand"), {0: BodyZone.HIPS, 1: BodyZone.HANDS})
    save_recording(synthesize_sway_recording(rig, duration_s=12.0), pair)
    refused = subprocess.run([*CLI, "correct", "--in", str(pair), "--out", str(out)])
    print(f"correct on a 2-joint take exited {refused.returncode}, wrote --out: {out.exists()}")
    ok &= refused.returncode == 2 and not out.exists()
    config = work / "config.json"
    config.write_text(json.dumps(
        {"bpm": 120, "phase_offset_ms": 1.001, "zone_gains": {"hips": 2.0, "hands": 0.5}}
    ))
    settings = {
        "flags": ["--bpm", "120", "--phase-ms", "1.001", "--gains", "hips=2.0", "hands=0.5"],
        "config": ["--config", str(config)],
    }
    written = {}
    for name, argv in settings.items():
        out, report = work / f"fixed-{name}.dgrc", work / f"report-{name}.json"
        run = subprocess.run(
            [*CLI, "correct", "--in", str(take), "--out", str(out), "--json", str(report), *argv]
        )
        written[name] = (run.returncode, out.read_bytes() if out.exists() else None,
                         report.read_text() if report.exists() else None)
    same = written["flags"] == written["config"] and written["flags"][0] == 0
    print(f"--phase-ms 1.001 as flags and as --config: exit codes "
          f"{[w[0] for w in written.values()]}, same report and file: {same}")
    return ok and same


def smoke() -> bool:
    """bench/run.py exits 0 even when its output checks fail, so the verdict
    is read from the JSON summary on its last line."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--seconds", "2"],
        stdout=subprocess.PIPE, text=True,
    )
    print(run.stdout, end="")
    lines = run.stdout.strip().splitlines()
    if not lines:
        return False
    verdict = json.loads(lines[-1])
    print("correct:", verdict["correct"], "failed:", verdict["failed"])
    return verdict["correct"] is True and verdict["failed"] == 0


def latency(out_dir: Path) -> bool:
    """Each relay latency scenario runs for at most 120 s, and its JSON must
    report the per-hop p50/p99 of every stage. The 30-client swarm drains
    every peer stream through the router's poll, which must lose no packet
    to ring overwrite: its `extras.router_gaps` must be 0."""
    files = []
    for scenario, extra in (("swarm", ["--clients", "30"]), ("loopback_relay", [])):
        path = out_dir / f"{scenario}.json"
        subprocess.run(
            [sys.executable, "-m", "dancegraph.cli", "bench", "--scenario", scenario, *extra,
             "--duration", "5", "--json", str(path)],
            check=True, timeout=120,
        )
        files.append(path)
    reports = [json.loads(p.read_text()) for p in files]
    missing = [str(p) for p, r in zip(files, reports) if not LATENCY_STAGES <= set(r["stages"])]
    gaps = reports[0]["extras"]["router_gaps"]
    print("missing stages:", missing, "swarm router gaps:", gaps)
    return not missing and gaps == 0


def bench_ab(work: Path) -> bool:
    """tools/bench_ab.py runs this checkout against itself, 2 pairs of 2 s
    of `corrective` and of `session_receive` into one file, which must hold
    every key, and each workload's runs and metrics, that its schema names,
    with each side's diff hash the sha256 of this checkout's `git diff HEAD
    --binary` (None on a clean checkout), and with both sides' layer_ab work
    counts present and equal, as they must be for one tree."""
    from bench_ab import schema_problems

    out = work / "bench_ab.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_ab.py"), str(ROOT), str(ROOT),
         "--workload", "corrective", "--workload", "session_receive", "--pairs", "2",
         "--seconds", "2", "--out", str(out)],
    )
    if run.returncode != 0:
        return False
    doc = json.loads(out.read_text())
    problems = schema_problems(doc)
    print("schema problems:", problems)
    diff = subprocess.run(
        ["git", "-C", str(ROOT), "diff", "HEAD", "--binary"], capture_output=True
    ).stdout
    want = hashlib.sha256(diff).hexdigest() if diff else None
    got = [doc["revisions"][side].get("diff_sha256") for side in ("parent", "change")]
    print("diff sha256:", got, "expected:", want)
    work = doc.get("work_counts", {})
    same_counts = bool(work.get("parent")) and work.get("parent") == work.get("change")
    print("work counts:", work)
    return not problems and got == [want, want] and same_counts


# Every step after Install, in the workflow's order: (name, command, time
# limit in seconds or None). The workflow gives `session` and `corrective`
# 120 s each; `latency` bounds each of its scenarios itself.
def all_steps(tmp: Path) -> list[tuple[str, list[str], float | None]]:
    own = [sys.executable, str(Path(__file__).resolve())]
    return [
        ("Tier-1 tests",
         [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"], None),
        ("Benchmark tests", [sys.executable, "-m", "pytest", "-q", "bench/test_bench.py"], None),
        ("Benchmark smoke run", [*own, "smoke"], None),
        ("Relay entry point", [*own, "relay"], None),
        ("Live session over the loop-driven client", [*own, "session"], 120),
        ("Corrective CLI", [*own, "corrective"], 120),
        ("Layer timing tool",
         [sys.executable, "tools/layer_ab.py", "src", "src", "--rounds", "1"], None),
        ("Paired benchmark tool", [*own, "bench-ab"], None),
        ("Relay latency scenarios", [*own, "latency", "--out-dir", str(tmp)], None),
    ]


def run_all() -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, limit in all_steps(Path(tmp)):
            print(f"== {name}", flush=True)
            start = time.monotonic()
            # Its own process group, so a step that times out takes the
            # relays and clients it started down with it.
            proc = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
            try:
                ok = proc.wait(timeout=limit) == 0
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                print(f"timed out after {limit} s")
                ok = False
            results.append((name, ok, time.monotonic() - start))
    print("== summary")
    for name, ok, seconds in results:
        print(f"{'pass' if ok else 'FAIL'}  {seconds:6.1f} s  {name}")
    return all(ok for _, ok, _ in results)


def in_temp_dir(step) -> bool:
    with tempfile.TemporaryDirectory() as work:
        return step(Path(work))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "step",
        choices=["relay", "session", "corrective", "smoke", "latency", "bench-ab", "all"],
    )
    parser.add_argument(
        "--out-dir", type=Path, default=Path("."), help="where `latency` writes its JSON files"
    )
    args = parser.parse_args()
    steps = {
        "relay": relay,
        "session": lambda: in_temp_dir(session),
        "corrective": lambda: in_temp_dir(corrective),
        "smoke": smoke,
        "latency": lambda: latency(args.out_dir),
        "bench-ab": lambda: in_temp_dir(bench_ab),
        "all": run_all,
    }
    sys.exit(0 if steps[args.step]() else 1)


if __name__ == "__main__":
    main()
