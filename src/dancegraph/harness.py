"""Replay producers, recording sinks, latency experiments, and the
dancer-swarm simulator.

All latency runs keep every party on one host so a single monotonic clock
covers every probe stage; the interesting cross-machine numbers from real
deployments depend on camera SDKs and engines that are out of scope here.
`loopback_relay` is a 2-dancer session and `swarm` an N-dancer one; both run
every client in the calling thread against a relay child process and report
the same three per-hop stages. `local_direct` keeps a producer thread,
because the thread handoff is what it measures.
"""
from __future__ import annotations

import math
import multiprocessing as mp
import os
import selectors
import struct
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import (
    BoundsTable,
    CorruptFrameError,
    EncodedFrame,
    analyze_bounds,
    decode_frame,
    encode_frame,
)
from .core import (
    BodyZone, FrameBlock, PoseFrame, Skeleton, _stack_frames, default_skeleton,
    rows_from_axis_angle,
)
from .packet import SignalPacket, SignalType
from .recording import Recording, RecordingFormatError, RecordingWriter, save_recording
from .rhythm import (
    _COMPONENT_INDEX,
    BeatGrid,
    CorrectiveParams,
    PipelineResult,
    amplify_zones,
    run_corrective_pipeline,
)
from .router import Mode, Origin, SignalDescriptor, SignalRouter, SignalSelector
from .transport import Client, RelayServer, ServerConfig, client_connect, mono_us

__all__ = [
    "synthesize_sway_recording",
    "synthesize_noise_recording",
    "replay_stream",
    "ReplayStats",
    "record_sink",
    "StageStats",
    "FlowStats",
    "LatencyReport",
    "BenchParams",
    "run_latency_experiment",
    "AlignmentReport",
    "corrective_experiment",
]

_TS_PATCH = struct.Struct("<Q")
_SINK_POLL_INTERVAL_S = 0.005  # record_sink's longest wait on an empty ring
_RELAY_SPARE_SLOTS = 2  # relay slots beyond a session's dancers
_MAX_TAKE_BYTES = 1 << 30  # largest block a synthesizer or a session preallocates


# ---------------------------------------------------------------------------
# Synthetic motion
# ---------------------------------------------------------------------------

def _frame_times_us(frame_count: int, fps: float, start_us: int) -> np.ndarray:
    """Timestamps of frames at `fps` from `start_us`, rounded to the microsecond."""
    return start_us + np.rint(np.arange(frame_count) * (1e6 / fps)).astype(np.int64)


def synthesize_sway_recording(
    skeleton: Skeleton | None = None,
    duration_s: float = 30.0,
    fps: float = 30.0,
    frequency_hz: float = 1.0,
    amplitude_rad: float = 0.35,
    phase_rad: float = 0.0,
    axis: tuple[float, float, float] = (1.0, 0.0, 0.0),
    sway_joints: Sequence[int] | None = None,
    root_amplitude_m: float = 0.05,
    start_us: int = 0,
) -> Recording:
    """Build a hip-sway test recording: selected joints rotate about `axis`
    by amplitude * sin(2*pi*f*t + phase); the root sways laterally in step.
    All other joints hold the identity pose. A take whose rotation block
    would exceed 1 GiB, or whose sway phase would overflow, raises
    ValueError before anything is allocated."""
    skeleton = skeleton or default_skeleton()
    if sway_joints is None:
        sway_joints = skeleton.joints_in_zone(BodyZone.HIPS) or [0]
    frame_count = int(round(duration_s * fps))
    if frame_count * skeleton.joint_count * 4 * 8 > _MAX_TAKE_BYTES:
        raise ValueError(f"{frame_count} frames of {skeleton.joint_count} joints exceed 1 GiB")
    # Bounds every |2 pi f t + phase| below, for t up to the last frame.
    phase_bound = abs(2.0 * math.pi * frequency_hz) * (frame_count / fps) + abs(phase_rad)
    if frame_count and not math.isfinite(phase_bound):
        raise ValueError(f"sway phase at {frequency_hz} Hz over {duration_s} s is not finite")
    rotations = np.zeros((frame_count, skeleton.joint_count, 4))
    rotations[:, :, 3] = 1.0
    sway = np.array([
        math.sin(2.0 * math.pi * frequency_hz * (i / fps) + phase_rad) for i in range(frame_count)
    ])
    axes = np.broadcast_to(axis, (frame_count, 3))
    quats = rows_from_axis_angle(axes, amplitude_rad * sway)
    rotations[:, list(set(sway_joints))] = quats[:, None]
    roots = np.zeros((frame_count, 3))
    roots[:, 0], roots[:, 1] = root_amplitude_m * sway, 1.0
    frames = FrameBlock(_frame_times_us(frame_count, fps, start_us), roots, rotations)
    return Recording(skeleton.joint_count, fps, frames)


def synthesize_noise_recording(
    skeleton: Skeleton | None = None,
    duration_s: float = 15.0,
    fps: float = 30.0,
    amplitude_rad: float = 0.2,
    seed: int = 0,
    start_us: int = 0,
) -> Recording:
    """Aperiodic jitter recording: every joint gets an independent white
    random rotation each frame. Nothing here should ever read as rhythm."""
    skeleton = skeleton or default_skeleton()
    rng = np.random.default_rng(seed)
    frame_count = int(round(duration_s * fps))
    joints = skeleton.joint_count
    angles = np.empty((frame_count, joints))
    axes = np.empty((frame_count, joints, 3))
    for i in range(frame_count):
        angles[i] = rng.uniform(-amplitude_rad, amplitude_rad, size=joints)
        axes[i] = rng.normal(size=(joints, 3))
    roots = np.zeros((frame_count, 3))
    roots[:, 1] = 1.0
    frames = FrameBlock(
        _frame_times_us(frame_count, fps, start_us), roots, rows_from_axis_angle(axes, angles)
    )
    return Recording(skeleton.joint_count, fps, frames)


# ---------------------------------------------------------------------------
# Replay and record
# ---------------------------------------------------------------------------

@dataclass
class ReplayStats:
    emitted: int = 0
    late_us: list[int] = field(default_factory=list)

    def jitter_percentile_us(self, pct: float) -> int:
        if not self.late_us:
            return 0
        return int(np.percentile(np.asarray(self.late_us), pct, method="nearest"))


def encode_recording_payloads(recording: Recording, table: BoundsTable) -> list[bytes]:
    """Pre-encode every frame once; latency runs patch timestamps in place."""
    return [encode_frame(f, table).to_bytes() for f in recording.frames]


def replay_stream(
    client: Client,
    recording: Recording,
    table: BoundsTable,
    *,
    fps: float | None = None,
    loop: bool = False,
    stop: threading.Event | None = None,
    max_packets: int | None = None,
) -> ReplayStats:
    """Emit a recording as pose packets on a steady timer.

    Frames are encoded up front; emission only hands the datagram to the
    client, then its `receive()` hears a restarted relay's LEAVE and sends
    keepalives. fps overrides the recording's nominal rate without
    resampling: every frame is still sent, just faster or slower.
    """
    stats = ReplayStats()
    payloads = encode_recording_payloads(recording, table)
    if not payloads:
        return stats
    rate = fps if fps is not None else recording.nominal_fps
    interval = 1.0 / rate
    start = time.monotonic()
    k = 0
    while not (stop is not None and stop.is_set()):
        if max_packets is not None and stats.emitted >= max_packets:
            break
        idx = k % len(payloads)
        if idx == 0 and k > 0 and not loop:
            break
        target = start + k * interval
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        client.send(payloads[idx], SignalType.POSE)
        stats.emitted += 1
        stats.late_us.append(max(0, int((time.monotonic() - target) * 1e6)))
        client.receive()
        k += 1
    return stats


def record_sink(
    client: Client,
    selector: SignalSelector,
    path: str | Path,
    table: BoundsTable,
    skeleton: Skeleton,
    *,
    nominal_fps: float = 30.0,
    stop: threading.Event | None = None,
    duration_s: float | None = None,
) -> int:
    """Record what the client's router delivers in Every mode, driving `receive()`.

    Runs until `stop` is set or `duration_s` elapses, then drains what is
    left in the ring; the file is truncated to the last complete frame on
    close. Payloads that do not decode for this table (a wrong length or a
    non-finite root), and frames the writer refuses (a timestamp that does
    not advance, as when a looping replay wraps around, or one past the
    file's range), are skipped. Returns the number of frames written.
    """
    consumer = client.router.subscribe(selector, Mode.EVERY)
    deadline = None if duration_s is None else time.monotonic() + duration_s
    with RecordingWriter(path, skeleton.joint_count, nominal_fps) as writer, \
            selectors.DefaultSelector() as readable:
        readable.register(client.sock, selectors.EVENT_READ)
        while True:
            stopping = (stop is not None and stop.is_set()) or (
                deadline is not None and time.monotonic() > deadline
            )
            client.receive()
            polled = consumer.poll(max_packets=256)
            for packet in polled.packets:
                try:
                    enc = EncodedFrame.from_bytes(packet.payload, table)
                    writer.write_frame(decode_frame(enc, table, skeleton))
                except (CorruptFrameError, RecordingFormatError):
                    continue
            if not polled.packets:
                if stopping:
                    break
                readable.select(_SINK_POLL_INTERVAL_S)
        written = writer.frames_written
    client.router.unsubscribe(consumer)
    return written


# ---------------------------------------------------------------------------
# Latency reports
# ---------------------------------------------------------------------------

@dataclass
class StageStats:
    count: int
    p50_us: int
    p95_us: int
    p99_us: int
    max_us: int

    @classmethod
    def from_samples(cls, samples: Sequence[int]) -> "StageStats":
        arr = np.asarray(samples, dtype=np.int64)
        if arr.size == 0:
            return cls(0, 0, 0, 0, 0)
        p50, p95, p99 = (
            int(np.percentile(arr, p, method="nearest")) for p in (50, 95, 99)
        )
        return cls(int(arr.size), p50, p95, p99, int(arr.max()))


@dataclass
class FlowStats:
    user_id: int
    sent: int
    received: int
    dropped: int


@dataclass
class LatencyReport:
    scenario: str
    stages: dict[str, StageStats]
    flows: list[FlowStats]
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for name, s in self.stages.items():
            lines.append(
                f"  {name}: n={s.count} p50={s.p50_us}us p95={s.p95_us}us "
                f"p99={s.p99_us}us max={s.max_us}us"
            )
        for f in self.flows:
            lines.append(
                f"  flow user={f.user_id}: sent={f.sent} received={f.received} "
                f"dropped={f.dropped}"
            )
        for key, value in self.extras.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


@dataclass
class BenchParams:
    duration_s: float = 60.0
    fps: float = 30.0
    clients: int = 30
    ring_capacity: int = 64


def _check_session_clients(clients: int) -> None:
    """Range of `--clients`: 2 or more, seated with _RELAY_SPARE_SLOTS spares in one relay."""
    if clients < 2:
        raise ValueError(f"a session needs at least 2 clients, got {clients}")
    ServerConfig(max_clients=clients + _RELAY_SPARE_SLOTS)


def _bench_payload(params: BenchParams) -> tuple[Recording, BoundsTable]:
    recording = synthesize_sway_recording(duration_s=4.0, fps=params.fps)
    table = analyze_bounds([recording.frames], margin=0.1, bits=16)
    return recording, table


def _proc_cpu_seconds(pid: int) -> float | None:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        utime, stime = int(fields[11]), int(fields[12])
        return (utime + stime) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _server_process(conn, max_clients: int, timeout_us: int) -> None:
    server = RelayServer(ServerConfig(
        host="127.0.0.1", port=0, max_clients=max_clients, client_timeout_us=timeout_us
    )).start()
    conn.send(server.port)
    conn.recv()  # stop request
    stats = vars(server.stats).copy()
    server.stop()
    conn.send(stats)
    conn.close()


def _start_server(max_clients: int):
    parent, child = mp.Pipe()
    proc = mp.Process(
        target=_server_process,
        args=(child, max_clients, 30_000_000),
        daemon=True,
    )
    proc.start()
    # Only the child holds its end now, so a child that dies before
    # announcing its port ends the wait with EOFError.
    child.close()
    try:
        port = parent.recv()
    except EOFError:
        proc.join()
        raise
    return proc, parent, ("127.0.0.1", port)


def _stop_server(proc, conn) -> tuple[dict, float | None]:
    cpu = _proc_cpu_seconds(proc.pid)
    conn.send("stop")
    stats = conn.recv()
    proc.join(timeout=2.0)
    if proc.is_alive():
        proc.terminate()
    return stats, cpu


def _run_local_direct(params: BenchParams) -> LatencyReport:
    router = SignalRouter()
    desc = SignalDescriptor(SignalType.POSE, 1, Origin.LOCAL)
    producer = router.register_producer(desc, params.ring_capacity)
    consumer = router.subscribe(
        SignalSelector(SignalType.POSE, 1, Origin.LOCAL), Mode.EVERY
    )
    recording, table = _bench_payload(params)
    payloads = [bytearray(p) for p in encode_recording_payloads(recording, table)]
    total = int(params.duration_s * params.fps)
    stop = threading.Event()

    def produce() -> None:
        interval = 1.0 / params.fps
        start = time.monotonic()
        for k in range(total):
            if stop.is_set():
                break
            delay = start + k * interval - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            payload = payloads[k % len(payloads)]
            now = mono_us()
            _TS_PATCH.pack_into(payload, 0, now)
            producer.publish(SignalPacket(
                signal_type=SignalType.POSE,
                user_id=1,
                seq=k + 1,
                send_timestamp_us=now,
                payload=payload,
            ))

    thread = threading.Thread(target=produce, daemon=True)
    thread.start()
    deltas: list[int] = []
    while True:
        polled = consumer.poll(max_packets=64)
        now = mono_us()
        for packet in polled.packets:
            (t_produce,) = _TS_PATCH.unpack_from(packet.payload, 0)
            deltas.append(now - t_produce)
        if not polled.packets:
            if not thread.is_alive():
                break
            time.sleep(0)  # yield; this path is the latency being measured
    thread.join()
    return LatencyReport(
        scenario="local_direct",
        stages={"produce_to_consume": StageStats.from_samples(deltas)},
        flows=[FlowStats(1, total, len(deltas), 0)],
        extras={"router_lost": consumer.lost_total},
    )


def _run_session(scenario: str, params: BenchParams, clients: int) -> LatencyReport:
    """`clients` dancers through one relay child, all in the calling thread.

    Every client sends one pose per tick. One `select` waits until the next
    tick is due; every ready client drains its socket with `Client.receive()`,
    and then the consumers of those clients are polled (no other consumer can
    have anything new). Each delivery's produce, enqueue, client_in and
    consume marks fill one row of a preallocated array. The run ends when
    every expected delivery has been consumed, or 1 s after the last send.
    A session whose marks would exceed 1 GiB raises ValueError before the
    relay child starts.
    """
    ticks = int(params.duration_s * params.fps)
    if ticks * clients * (clients - 1) * 4 * 8 > _MAX_TAKE_BYTES:
        raise ValueError(f"{ticks} ticks of {clients} clients need over 1 GiB of marks")
    server_proc, server_conn, addr = _start_server(clients + _RELAY_SPARE_SLOTS)
    recording, table = _bench_payload(params)
    payloads = [bytearray(p) for p in encode_recording_payloads(recording, table)]
    members = [
        client_connect(addr, peer_ring_capacity=params.ring_capacity) for _ in range(clients)
    ]
    consumers = [
        c.router.subscribe(SignalSelector(SignalType.POSE, None, Origin.NETWORK), Mode.EVERY)
        for c in members
    ]
    selector = selectors.DefaultSelector()
    for client, consumer in zip(members, consumers):
        selector.register(client.sock, selectors.EVENT_READ, (client, consumer))
    marks = np.empty((ticks * clients * (clients - 1), 4), dtype=np.int64)
    received = dict.fromkeys((c.user_id for c in members), 0)
    consumed = 0
    expected = 0
    interval = 1.0 / params.fps
    start = time.monotonic()
    end = math.inf
    tick = 0
    while True:
        now = time.monotonic()
        if tick < ticks:
            wake = start + tick * interval
            if now >= wake:
                payload = payloads[tick % len(payloads)]
                _TS_PATCH.pack_into(payload, 0, mono_us())
                blob = bytes(payload)
                for client in members:
                    try:
                        client.send(blob, SignalType.POSE)
                    except OSError:
                        pass
                tick += 1
                if tick == ticks:
                    end = time.monotonic() + 1.0
                    expected = sum(c.session.stats.sent for c in members) * (clients - 1)
                continue
        elif consumed >= expected or now >= end:
            break
        else:
            wake = end
        ready = [key.data for key, _ in selector.select(wake - now)]
        for client, _ in ready:
            client.receive()
        for _, consumer in ready:
            while packets := consumer.poll(max_packets=256).packets:
                t_out = mono_us()
                rows = [
                    (_TS_PATCH.unpack_from(p.payload)[0], p.send_timestamp_us,
                     p.recv_timestamp_us, t_out)
                    for p in packets
                ]
                marks[consumed:consumed + len(rows)] = rows
                consumed += len(rows)
                for p in packets:
                    received[p.user_id] += 1
    server_stats, server_cpu = _stop_server(server_proc, server_conn)
    selector.close()
    for client in members:
        client.close()

    produce, enqueue, client_in, consume = marks[:consumed].T
    total_sent = sum(c.session.stats.sent for c in members)
    flows = []
    for client in members:
        sent = client.session.stats.sent
        got = received[client.user_id]
        flows.append(FlowStats(client.user_id, sent, got, sent * (clients - 1) - got))
    return LatencyReport(
        scenario=scenario,
        stages={
            "produce_to_consume": StageStats.from_samples(consume - produce),
            "enqueue_to_client_in": StageStats.from_samples(client_in - enqueue),
            "client_in_to_consume": StageStats.from_samples(consume - client_in),
        },
        flows=flows,
        extras={
            "clients": clients,
            "total_sent": total_sent,
            "expected_deliveries": expected,
            "total_received": consumed,
            "delivery_ratio": consumed / expected if expected else 1.0,
            "router_gaps": sum(c.lost_total for c in consumers),
            "non_monotonic_probes": int(
                ((enqueue < produce) | (client_in < enqueue) | (consume < client_in)).sum()
            ),
            "server": server_stats,
            "server_cpu_s": server_cpu,
        },
    )


def run_latency_experiment(scenario: str, params: BenchParams | None = None) -> LatencyReport:
    """Run one of the built-in latency scenarios.

    local_direct: producer to consumer through the in-process router only.
    loopback_relay: two dancers relayed to each other across localhost UDP.
    swarm: `params.clients` dancers all relayed through one server.
    """
    params = params or BenchParams()
    if scenario == "local_direct":
        return _run_local_direct(params)
    if scenario == "loopback_relay":
        return _run_session(scenario, params, clients=2)
    if scenario == "swarm":
        return _run_session(scenario, params, params.clients)
    raise ValueError(f"unknown scenario {scenario!r}")


# ---------------------------------------------------------------------------
# Corrective experiment
# ---------------------------------------------------------------------------

_EXTREMUM_MIN_PROMINENCE = 0.25  # of the peak deviation


def find_extremum_times_us(
    frames: Sequence[PoseFrame],
    joint: int,
    component: str,
) -> list[float]:
    """Times of local extrema of one joint component, parabola-refined.

    Small wiggles below `_EXTREMUM_MIN_PROMINENCE` of the peak deviation are
    ignored so measurement noise does not read as extra extrema.
    """
    ts, _, rotations = _stack_frames(frames)
    return _extremum_times_us(ts, rotations[:, joint, _COMPONENT_INDEX[component]])


def _extremum_times_us(ts: np.ndarray, x: np.ndarray) -> list[float]:
    """find_extremum_times_us on a take's timestamps and one track of it."""
    ts = ts.astype(np.float64)
    x = x - x.mean()
    scale = np.abs(x).max()
    if scale <= 0:
        return []
    d = np.diff(x)
    d1, d2 = d[:-1], d[1:]  # into and out of each interior sample
    # Strict on the way in: of a flat top's equal samples only the first turns.
    turns = ((d1 > 0.0) & (d2 <= 0.0)) | ((d1 < 0.0) & (d2 >= 0.0))
    prominent = np.abs(x[1:-1]) >= _EXTREMUM_MIN_PROMINENCE * scale
    i = np.flatnonzero(turns & prominent) + 1
    denom = x[i - 1] - 2.0 * x[i] + x[i + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.clip(np.where(denom == 0.0, 0.0, 0.5 * (x[i - 1] - x[i + 1]) / denom), -0.5, 0.5)
    dt = np.where(delta >= 0, ts[i + 1] - ts[i], ts[i] - ts[i - 1])
    return (ts[i] + delta * dt).tolist()


def _beat_errors_us(times_us: Sequence[float], grid: BeatGrid) -> np.ndarray:
    times = np.asarray(times_us, dtype=np.float64)
    period = grid.beat_period_us
    offsets = (times - grid.phase_offset_us) % period
    return np.minimum(offsets, period - offsets)


@dataclass
class AlignmentReport:
    applied: bool
    reason: str | None
    no_dominant_period: bool
    detected_period_us: int | None = None
    rate: float = 1.0
    measured_joint: int | None = None
    measured_component: str | None = None
    pre_error_ms: float | None = None
    post_error_ms: float | None = None
    convergence_us: int | None = None
    extrema_pre: int = 0
    extrema_post: int = 0
    amplitude_ratio: float | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        if self.no_dominant_period:
            if self.reason and "window" in self.reason:
                return f"{self.reason}; input copied through"
            return "no dominant period detected; input copied through"
        lines = [
            f"applied: {self.applied}" + (f" ({self.reason})" if self.reason else ""),
            f"detected period: {self.detected_period_us} us, playback rate {self.rate:.4f}",
        ]
        if self.pre_error_ms is not None:
            # No extremum may follow a late convergence or count without one.
            post = "n/a" if self.post_error_ms is None else f"{self.post_error_ms:.1f} ms"
            lines.append(
                f"beat alignment error: pre {self.pre_error_ms:.1f} ms "
                f"({self.extrema_pre} extrema), post {post} "
                f"({self.extrema_post} extrema, after convergence)"
            )
        if self.convergence_us is not None:
            lines.append(f"warp converged at {self.convergence_us / 1e6:.2f} s")
        elif self.applied:
            lines.append("warp did not converge within the take")
        if self.amplitude_ratio is not None:
            lines.append(f"sway amplitude ratio post/pre: {self.amplitude_ratio:.3f}")
        return "\n".join(lines)


def _amplify_window_frames(result: PipelineResult, params: CorrectiveParams, fps: float) -> int:
    """Trailing-reference length for amplification: whole detected periods.

    An integer number of periods keeps the rolling reference stationary for
    periodic motion, so the gain applies cleanly to the sway amplitude.
    """
    detected = result.detected
    if detected is None:
        return params.window_frames
    period_frames = detected.period_us * fps / 1e6
    if period_frames <= 0:
        return params.window_frames
    whole = max(1, int(params.window_frames / period_frames))
    return max(2, int(round(whole * period_frames)))


def corrective_experiment(
    recording: Recording,
    grid: BeatGrid,
    params: CorrectiveParams,
    *,
    output_path: str | Path | None = None,
) -> tuple[Recording, AlignmentReport]:
    """Run the rhythm correctives over a recording of the default skeleton
    as a live pipeline would (windowed, causal); report pre/post alignment.

    Post-alignment error is measured from warp convergence onwards; the
    slewed correction needs |phase shift| / max_warp_slew seconds to land,
    so a warp that lands after the take ends reports neither.
    """
    skeleton = default_skeleton()
    if recording.joint_count != skeleton.joint_count:
        raise ValueError(f"{recording.joint_count} recorded joints, not {skeleton.joint_count}")
    result = run_corrective_pipeline(recording.frames, skeleton, grid, params)
    frames = result.frames

    gains_active = any(g != 1.0 for g in params.zone_gains.values())
    amp_window = None
    if gains_active:
        amp_window = _amplify_window_frames(result, params, recording.nominal_fps)
        frames = amplify_zones(frames, skeleton, params, amp_window)

    corrected = Recording(recording.joint_count, recording.nominal_fps, frames)
    if output_path is not None:
        save_recording(corrected, output_path)
    if result.detected is None:
        return corrected, AlignmentReport(
            applied=False, reason=result.reason, no_dominant_period=True
        )

    # The measured component is the detected joint's widest-swinging one.
    joint = result.detected.joint
    pre_ts, _, pre_rot = _stack_frames(recording.frames)
    post_ts, _, post_rot = _stack_frames(corrected.frames)
    idx = int(np.argmax(np.ptp(pre_rot[:, joint, :3], axis=0)))
    component = "xyz"[idx]
    pre_times = _extremum_times_us(pre_ts, pre_rot[:, joint, idx])
    post_times = _extremum_times_us(post_ts, post_rot[:, joint, idx])
    convergence = result.convergence_us()
    post_after = [] if convergence is None else [t for t in post_times if t >= convergence]

    pre_err = _beat_errors_us(pre_times, grid) if pre_times else np.array([])
    post_err = _beat_errors_us(post_after, grid) if post_after else np.array([])

    amplitude_ratio = None
    if gains_active:
        start = min(amp_window, len(pre_ts) - 1)
        pre_amp, post_amp = (np.ptp(rot[start:, joint, idx]) for rot in (pre_rot, post_rot))
        if pre_amp > 0:
            amplitude_ratio = float(post_amp / pre_amp)

    report = AlignmentReport(
        applied=result.applied,
        reason=result.reason,
        no_dominant_period=False,
        detected_period_us=result.detected.period_us,
        rate=result.rate,
        measured_joint=joint,
        measured_component=component,
        pre_error_ms=float(pre_err.mean() / 1000.0) if pre_err.size else None,
        post_error_ms=float(post_err.mean() / 1000.0) if post_err.size else None,
        convergence_us=convergence,
        extrema_pre=len(pre_times),
        extrema_post=len(post_after),
        amplitude_ratio=amplitude_ratio,
    )
    return corrected, report
