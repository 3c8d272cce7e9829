"""Command-line entry points.

    dancegraph server  --bind 0.0.0.0:31415 --max-clients 64 --timeout-ms 5000
    dancegraph replay  --file take.dgrc --server host:port --fps 30 --loop
    dancegraph record  --out take.dgrc --select pose:any:network --server host:port
    dancegraph bench   --scenario loopback_relay --duration 60 --json out.json
    dancegraph correct --in take.dgrc --bpm 120 --phase-ms 0 --gains hips=2.0 --out fixed.dgrc
    dancegraph bounds  --corpus recordings/ --bits 16 --margin 0.1 --out bounds.json
    dancegraph synth   --out sway.dgrc --seconds 30 --hz 1.0
"""
from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import threading
from importlib import import_module
from operator import attrgetter
from pathlib import Path

from .packet import SignalType
from .router import Origin, SignalSelector, _check_capacity
from .transport import RelayServer, ServerConfig, client_connect


def _deferred(module: str, name: str):
    """`name` (dotted) from a numpy-backed `module`, imported on first call:
    the relay path (`server`) runs on packet, router and transport alone."""
    def call(*args, **kwargs):
        return attrgetter(name)(import_module(f".{module}", __package__))(*args, **kwargs)
    return call


_check_bits = _deferred("codec", "_check_bits")
_check_margin = _deferred("codec", "_check_margin")
analyze_bounds = _deferred("codec", "analyze_bounds")
BodyZone = _deferred("core", "BodyZone")
default_skeleton = _deferred("core", "default_skeleton")
BenchParams = _deferred("harness", "BenchParams")
_check_session_clients = _deferred("harness", "_check_session_clients")
corrective_experiment = _deferred("harness", "corrective_experiment")
record_sink = _deferred("harness", "record_sink")
SinkStats = _deferred("harness", "SinkStats")
replay_stream = _deferred("harness", "replay_stream")
run_latency_experiment = _deferred("harness", "run_latency_experiment")
synthesize_sway_recording = _deferred("harness", "synthesize_sway_recording")
load_recording = _deferred("recording", "load_recording")
save_recording = _deferred("recording", "save_recording")
CorrectiveParams = _deferred("rhythm", "CorrectiveParams")
corrective_settings = _deferred("rhythm", "corrective_settings")
load_corrective_config = _deferred("rhythm", "load_corrective_config")
_phase_us = _deferred("rhythm", "_phase_us")


def _on_interrupt(stop: threading.Event) -> None:
    """Install a SIGINT/SIGTERM handler when possible (main thread only)."""
    try:
        signal.signal(signal.SIGINT, lambda *a: stop.set())
        signal.signal(signal.SIGTERM, lambda *a: stop.set())
    except ValueError:
        pass  # not the main thread (e.g. driven programmatically)


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host:
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    port = int(port_text)
    if not 0 <= port <= 0xFFFF:
        raise argparse.ArgumentTypeError(f"port must be in [0, 65535], got {text!r}")
    return host, port


def _checked(parse, check):
    """An argparse `type=` that parses the text and hands the value to
    `check`, which raises ValueError outside the range. The range's owner
    does the checking, and a bad value (or unreadable file) becomes a usage
    error (exit status 2) before any relay child, socket or take is opened."""
    def convert(text: str):
        try:
            value = parse(text)
            check(value)
        except (ValueError, OverflowError, OSError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return convert


def _check_fps(fps: float) -> None:
    if not 0.0 < fps < math.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")


def _check_finite(value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {value}")


def _check_seconds(seconds: float) -> None:
    if not 0.0 <= seconds < math.inf:
        raise ValueError(f"seconds must be finite and >= 0, got {seconds}")


def _zone_gain(text: str) -> tuple[BodyZone, float]:
    name, _, value = text.partition("=")
    return BodyZone(name.lower()), float(value)


_parse_max_clients = _checked(int, lambda n: ServerConfig(max_clients=n))
_parse_timeout_ms = _checked(int, lambda ms: ServerConfig(client_timeout_us=ms * 1000))
_parse_capacity = _checked(int, _check_capacity)
_parse_bpm = _checked(float, corrective_settings)
_parse_gain = _checked(_zone_gain, lambda pair: CorrectiveParams(zone_gains=dict([pair])))
_parse_bits = _checked(int, _check_bits)
_parse_fps = _checked(float, _check_fps)
_parse_seconds = _checked(float, _check_seconds)
_parse_clients = _checked(int, _check_session_clients)
_parse_margin = _checked(float, _check_margin)
_parse_finite = _checked(float, _check_finite)
_parse_phase_ms = _checked(float, _phase_us)
_parse_config = _checked(load_corrective_config, lambda config: None)
_parse_bounds = _checked(_deferred("codec", "BoundsTable.from_json"), lambda table: None)
_parse_take = _checked(load_recording, lambda recording: None)


def _parse_selector(text: str) -> SignalSelector:
    try:
        type_name, user, origin = text.lower().split(":")
        return SignalSelector(
            SignalType[type_name.upper()],
            None if user in ("any", "*") else int(user),
            None if origin in ("any", "*") else Origin(origin),
        )
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(
            f"selector must look like pose:any:network, got {text!r}"
        ) from None


def _joint_names(joint_count: int):
    """The default skeleton's joint names for its joint count, else None."""
    skeleton = default_skeleton()
    return skeleton.joint_names if joint_count == skeleton.joint_count else None


def _cmd_server(args) -> int:
    host, port = args.bind
    config = ServerConfig(
        host=host,
        port=port,
        max_clients=args.max_clients,
        client_timeout_us=args.timeout_ms * 1000,
    )
    server = RelayServer(config)
    stop = threading.Event()
    _on_interrupt(stop)  # before the line below: a supervisor may signal at once
    print(f"relay listening on {server.address[0]}:{server.port}", flush=True)
    server.start()
    try:
        while not stop.wait(0.2):
            pass
    finally:
        server.stop()
        print(f"server stats: {vars(server.stats)}")
    return 0


def _cmd_replay(args) -> int:
    table = args.bounds
    if table is None:
        # No table supplied: derive one from the take itself, which by
        # construction never clamps on replay of that same take.
        names = _joint_names(args.take.joint_count)
        table = analyze_bounds([args.take.frames], margin=0.1, bits=16, joint_names=names)
    if table.joint_count != args.take.joint_count:
        print("bounds table joint count does not match the take", file=sys.stderr)
        return 2
    client = client_connect(args.server)
    print(f"connected as user {client.user_id}; replaying {len(args.take.frames)} frames")
    stop = threading.Event()
    _on_interrupt(stop)
    try:
        stats = replay_stream(
            client, args.take, table, fps=args.fps, loop=args.loop, stop=stop
        )
        print(f"emitted {stats.emitted} packets, p99 timer lateness "
              f"{stats.jitter_percentile_us(99)}us")
    finally:
        client.close()
    return 0


def _cmd_record(args) -> int:
    skeleton = default_skeleton()
    if args.bounds.joint_count != skeleton.joint_count:
        print("bounds table joint count does not match the default skeleton", file=sys.stderr)
        return 2
    client = client_connect(args.server)
    stop = threading.Event()
    _on_interrupt(stop)
    print(f"recording {args.select} to {args.out} (ctrl-c to stop)")
    skipped = SinkStats()
    try:
        written = record_sink(
            client,
            args.select,
            args.out,
            args.bounds,
            skeleton,
            nominal_fps=args.fps,
            stop=stop,
            duration_s=args.duration,
            stats=skipped,
        )
        print(f"wrote {written} frames")
        print(f"skipped {skipped.wrong_length} wrong-length and {skipped.non_finite_root} "
              f"non-finite-root payloads; the writer refused {skipped.refused} frames")
    finally:
        client.close()
    return 0


def _cmd_bench(args) -> int:
    params = BenchParams(
        duration_s=args.duration,
        fps=args.fps,
        clients=args.clients,
        ring_capacity=args.capacity,
    )
    try:
        report = run_latency_experiment(args.scenario, params)
    except ValueError as exc:
        # --duration, --fps and --clients are each in range, but not together.
        print(f"dancegraph bench: error: {exc}", file=sys.stderr)
        return 2
    print(report.to_text())
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_json_dict(), indent=2))
        print(f"wrote {args.json}")
    return 0


def _cmd_correct(args) -> int:
    if args.take.joint_count != default_skeleton().joint_count:
        print("take joint count does not match the default skeleton", file=sys.stderr)
        return 2
    grid, params = args.config or corrective_settings(args.bpm, args.phase_ms, dict(args.gains))
    corrected, report = corrective_experiment(
        args.take, grid, params, output_path=args.out
    )
    print(report.to_text())
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_json_dict(), indent=2))
    print(f"wrote {args.out} ({len(corrected.frames)} frames)")
    return 0


def _cmd_bounds(args) -> int:
    corpus_dir = Path(args.corpus)
    files = sorted(corpus_dir.glob("*.dgrc"))
    if not files:
        print(f"no .dgrc recordings under {corpus_dir}", file=sys.stderr)
        return 2
    takes = []
    try:
        for f in files:
            takes.append(load_recording(f))
    except (ValueError, OSError) as exc:
        print(f"dancegraph bounds: error: {f}: {exc}", file=sys.stderr)
        return 2
    names = _joint_names(takes[0].joint_count)
    streams = [t.frames for t in takes]
    table = analyze_bounds(streams, margin=args.margin, bits=args.bits, joint_names=names)
    table.to_json(args.out)
    print(f"analyzed {len(files)} recordings -> {args.out} "
          f"({table.joint_count} joints, {table.bits} bits)")
    return 0


def _cmd_synth(args) -> int:
    try:
        recording = synthesize_sway_recording(
            duration_s=args.seconds,
            fps=args.fps,
            frequency_hz=args.hz,
            amplitude_rad=args.amplitude,
            phase_rad=args.phase,
        )
    except ValueError as exc:
        # --seconds, --fps and --hz are each in range, but not together.
        print(f"dancegraph synth: error: {exc}", file=sys.stderr)
        return 2
    save_recording(recording, args.out)
    print(f"wrote {args.out}: {len(recording.frames)} frames at {args.fps} fps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dancegraph")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("server", help="run a relay server")
    p.add_argument("--bind", type=_parse_addr, default=("0.0.0.0", 31415))
    p.add_argument("--max-clients", type=_parse_max_clients, default=64)
    p.add_argument("--timeout-ms", type=_parse_timeout_ms, default=5000)
    p.set_defaults(func=_cmd_server)

    p = sub.add_parser("replay", help="stream a recording to a server")
    p.add_argument("--file", dest="take", type=_parse_take, required=True)
    p.add_argument("--server", type=_parse_addr, required=True)
    p.add_argument("--fps", type=_parse_fps, default=None)
    p.add_argument("--loop", action="store_true")
    p.add_argument("--bounds", type=_parse_bounds, default=None,
                   help="bounds table JSON (default: derive from the recording)")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("record", help="record incoming streams to a file")
    p.add_argument("--out", required=True)
    p.add_argument("--select", type=_parse_selector, default="pose:any:network")
    p.add_argument("--server", type=_parse_addr, required=True)
    p.add_argument("--bounds", type=_parse_bounds, required=True)
    p.add_argument("--fps", type=_parse_fps, default=30.0)
    p.add_argument("--duration", type=_parse_seconds, default=None)
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("bench", help="run a latency experiment")
    p.add_argument("--scenario", choices=("local_direct", "loopback_relay", "swarm"), required=True)
    p.add_argument("--duration", type=_parse_seconds, default=60.0)
    p.add_argument("--fps", type=_parse_fps, default=30.0)
    p.add_argument("--clients", type=_parse_clients, default=30)
    p.add_argument("--capacity", type=_parse_capacity, default=64)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("correct", help="beat-align and stylize a recording")
    p.add_argument("--in", dest="take", type=_parse_take, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bpm", type=_parse_bpm, default=120.0)
    p.add_argument("--phase-ms", type=_parse_phase_ms, default=0.0)
    p.add_argument("--gains", type=_parse_gain, nargs="*", default=[], metavar="zone=gain")
    p.add_argument("--config", type=_parse_config, help="corrective config JSON overriding the flags")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("bounds", help="analyze a corpus into a bounds table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--bits", type=_parse_bits, default=16)
    p.add_argument("--margin", type=_parse_margin, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("synth", help="write a synthetic sway recording")
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=_parse_seconds, default=30.0)
    p.add_argument("--fps", type=_parse_fps, default=30.0)
    p.add_argument("--hz", type=_parse_finite, default=1.0)
    p.add_argument("--amplitude", type=_parse_finite, default=0.35)
    p.add_argument("--phase", type=_parse_finite, default=0.0)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
