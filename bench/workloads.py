"""The three workloads: relay_stream, session_receive and corrective.

Each workload class sets itself up in its constructor (the part `setup_s`
times), measures in `run(seconds, tracer)` and releases what it holds in
`close()`. `run` may be called more than once; a traced run calls it once
untraced and once traced. Calls into the program go through local names
so that a traced run can swap in recording wrappers without changing the
loop.

The generator is this one process with one thread; relay_stream adds the
relay child process and two client sockets, the other workloads open at
most one socket and never use it.
"""
from __future__ import annotations

import dataclasses
import json
import os
import select
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dancegraph.codec import EncodedFrame, EncoderStats, decode_frame, encode_frame
from dancegraph.core import BodyZone, PoseFrame, default_skeleton
from dancegraph.harness import find_extremum_times_us
from dancegraph.packet import SignalType
from dancegraph.recording import Recording, load_recording, save_recording
from dancegraph.rhythm import BeatGrid, CorrectiveParams, amplify_zones, run_corrective_pipeline
from dancegraph.router import Mode, Origin, SignalRouter, SignalSelector
from dancegraph.transport import Client, client_connect

from hostspeed import calibrate
from inputs import BPM, FPS, RECEIVER_ID, bounds_for, dancer_clip, session_inputs

FRAME_PERIOD_NS = 1e9 / FPS  # a pose is on time when usable within this
CALIBRATE_EVERY_NS = 100_000_000  # closed loops run 10 hostspeed slices this often
RELAY_CALIBRATE_EVERY_NS = 10_000_000  # relay_stream runs one slice this often, when idle
_SEQ = struct.Struct("<I")
_SEQ_OFFSET = 6  # packet header: magic(2) version(1) type(1) user(2) seq(4)
_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Phase:
    """What one call to `run` measured."""

    seconds: float
    latencies_ns: list[int] = field(default_factory=list)  # one per unit of work
    times_ns: list[int] = field(default_factory=list)  # when each unit was due
    # (time, generator CPU so far, frames so far), taken as the run goes
    marks: list[tuple[int, int, int]] = field(default_factory=list)
    # (time, CPU ns per hostspeed slice), taken between units of work
    calib: list[tuple[int, int]] = field(default_factory=list)
    units: int = 0  # units of work attempted: poses, ticks or passes
    on_time: int = 0  # units completed intact within their deadline
    frames: int = 0  # pose frames completed (the frame_cpu_us denominator)
    attempted: int = 0  # operations checked
    failed: int = 0  # operations whose check failed
    cpu_ns: int = 0  # generator CPU spent on the work
    wall_ns: int = 0
    extra: dict = field(default_factory=dict)


def same_frame(a: PoseFrame, b: PoseFrame) -> bool:
    return (
        a.timestamp_us == b.timestamp_us
        and tuple(a.root_translation) == tuple(b.root_translation)
        and np.array_equal(a.rotation_array(), b.rotation_array())
    )


# ---------------------------------------------------------------------------
# relay_stream
# ---------------------------------------------------------------------------

class RelayChecker:
    """Remembers each sent payload by sequence number and checks what the
    receiver consumes against it, byte for byte."""

    def __init__(self) -> None:
        self.pending: dict[int, tuple[int, bytes]] = {}
        self.latencies_ns: list[int] = []
        self.times_ns: list[int] = []
        self.corrupt = 0

    def sent(self, seq: int, due_ns: int, payload: bytes) -> None:
        self.pending[seq] = (due_ns, payload)

    def consumed(self, seq: int, payload: bytes, t_ns: int) -> bool:
        entry = self.pending.pop(seq, None)
        if entry is None or entry[1] != payload:
            self.corrupt += 1
            return False
        self.times_ns.append(entry[0])
        self.latencies_ns.append(t_ns - entry[0])
        return True

    @property
    def lost(self) -> int:
        return len(self.pending)


class RelayStream:
    """Open loop at 900 poses/s through a relay child process on loopback."""

    name = "relay_stream"
    RATE = 900.0  # poses/s: the inbound rate of a 30-dancer session at 30 fps
    CLIP_SECONDS = 10.0
    DRAIN_NS = 500_000_000  # after the last send, wait this long for stragglers
    CLIENT_TIMEOUT_US = 3_600_000_000  # the receiver never sends; it must outlast the run

    def __init__(self, seed: int, src: Path, out_dir: Path):
        take = dancer_clip(seed, self.CLIP_SECONDS)
        self.clip = take.frames
        self.table = bounds_for([take])
        self.server_stats: dict | None = None
        self.server_peak_kb = 0
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("relay_child.py")), str(src),
             str(self.CLIENT_TIMEOUT_US)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.sender = self.receiver = None
        try:
            # The child prints its port within a second; never wait forever.
            ready, _, _ = select.select([self._proc.stdout], [], [], 30.0)
            line = self._proc.stdout.readline() if ready else ""
            if not line.strip().isdigit():
                raise RuntimeError(f"relay child did not report a port: {line!r}")
            addr = ("127.0.0.1", int(line))
            self.sender = client_connect(addr, start_receiver=False, keepalive_interval_s=None)
            self.receiver = client_connect(addr, start_receiver=False, keepalive_interval_s=None)
        except BaseException:
            self.close()
            raise
        self.consumer = self.receiver.router.subscribe(
            SignalSelector(SignalType.POSE, self.sender.user_id, Origin.NETWORK), Mode.EVERY
        )
        self.encoder_stats = EncoderStats()
        self._k = 0  # poses sent so far, across runs

    def server_cpu_ns(self) -> int:
        """Relay process CPU (user + system) from /proc, read only."""
        with open(f"/proc/{self._proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks * 1_000_000_000 // _CLK_TCK

    def run(self, seconds: float, tracer=None) -> Phase:
        table, stats, clip = self.table, self.encoder_stats, self.clip
        sock = self.receiver.sock

        def encode(frame):
            return encode_frame(frame, table, stats).to_bytes()

        send, recv, ingest = self.sender.send, sock.recv, self.receiver.ingest
        poll = self.consumer.poll
        if tracer is not None:
            encode = tracer.wrap("codec.encode", encode)
            send = tracer.wrap("transport.send", send)
            recv = tracer.wrap("transport.recv", recv)
            ingest = tracer.wrap("transport.ingest", ingest)
            poll = tracer.wrap("router.poll_every", poll)
        mono = time.monotonic_ns
        checker = RelayChecker()
        late_ns: list[int] = []
        wire_us: list[int] = []
        ring_wait_ns: list[int] = []
        ingest_done: dict[int, int] = {}
        lost_ring = 0
        stale0 = self.receiver.session.stats.dropped_stale

        def pump() -> int:
            nonlocal lost_ring
            got = 0
            while True:
                try:
                    data = recv(2048)
                except BlockingIOError:
                    break
                now_us = mono() // 1000
                ingest(data, now_us)
                if tracer is not None:
                    ingest_done[now_us] = mono()
                got += 1
            while got:
                polled = poll(64)
                t = mono()
                for pkt in polled.packets:
                    checker.consumed(pkt.seq, pkt.payload, t)
                    if tracer is not None:
                        wire_us.append(pkt.recv_timestamp_us - pkt.send_timestamp_us)
                        done = ingest_done.pop(pkt.recv_timestamp_us, None)
                        if done is not None:
                            ring_wait_ns.append(t - done)
                lost_ring += polled.lost
                if tracer is not None:
                    tracer.count("router.polled_every", len(polled.packets))
                if len(polled.packets) < 64:
                    break
            return got

        n = max(1, round(seconds * self.RATE))
        period = 1e9 / self.RATE
        k0 = self._k
        srv0 = self.server_cpu_ns()
        cpu0 = time.process_time_ns()
        start = mono() + 2_000_000
        drain_until = start + int(n * period) + self.DRAIN_NS
        k = 0
        marks = [(start, 0, 0)]
        calib: list[tuple[int, int]] = []
        calib_cpu = 0  # generator CPU spent calibrating, not counted as work
        next_calibration = start
        while True:
            step = tracer.open("harness.step") if tracer is not None else -1
            now = mono()
            if k < n:
                due = start + int(k * period)
                if now >= due:
                    late_ns.append(now - due)
                    frame = dataclasses.replace(
                        clip[(k0 + k) % len(clip)], timestamp_us=now // 1000
                    )
                    payload = encode(frame)
                    checker.sent(send(payload), due, payload)
                    k += 1
                    if k % 90 == 0:
                        marks.append((now, time.process_time_ns() - cpu0 - calib_cpu,
                                      len(checker.latencies_ns)))
            got = pump()
            if tracer is not None:
                tracer.close(step)
            now = mono()
            if k >= n and (not checker.pending or now >= drain_until):
                break
            if got:
                continue
            wake = start + int(k * period) if k < n else drain_until
            # A slice takes about 0.1 ms; run it only when nothing is in
            # flight and the next send is well ahead, so no pose waits on it.
            if not checker.pending and now >= next_calibration and wake - now > 400_000:
                c = time.process_time_ns()
                calib.append((now, calibrate()))
                calib_cpu += time.process_time_ns() - c
                next_calibration = now + RELAY_CALIBRATE_EVERY_NS
                now = mono()
            if wake > now:
                select.select([sock], [], [], (wake - now) / 1e9)
        wall = mono() - start
        cpu = time.process_time_ns() - cpu0 - calib_cpu
        srv = self.server_cpu_ns() - srv0
        self._k = k0 + k

        consumed = len(checker.latencies_ns)
        phase = Phase(
            seconds=seconds,
            latencies_ns=checker.latencies_ns,
            times_ns=checker.times_ns,
            marks=marks,
            calib=calib,
            units=n,
            on_time=sum(1 for x in checker.latencies_ns if x <= FRAME_PERIOD_NS),
            frames=consumed,
            attempted=n,
            failed=checker.corrupt + checker.lost,
            cpu_ns=cpu,
            wall_ns=wall,
        )
        late_us = np.asarray(late_ns) / 1e3
        phase.extra = {
            "server_cpu_ns": srv,
            "corrupt": checker.corrupt,
            "lost": checker.lost,
            "send_late_p99_us": float(np.percentile(late_us, 99)),
            "send_late_max_us": float(late_us.max()),
            # The generator fell behind when it sent 1% of poses later than
            # one send interval; its latency is then partly its own.
            "generator_behind": bool(np.percentile(late_us, 99) > period / 1e3),
            "router_lost": lost_ring,
            "stale_dropped": self.receiver.session.stats.dropped_stale - stale0,
            "clamped_components": stats.clamped_components,
            "wire_us": wire_us,
            "ring_wait_ns": ring_wait_ns,
        }
        return phase

    def close(self) -> None:
        for client in (self.sender, self.receiver):
            if client is not None:
                client.close()
        proc = self._proc
        if proc.poll() is None:
            try:
                out, _ = proc.communicate("stop\n", timeout=10)
                last = out.strip().splitlines()[-1] if out.strip() else ""
                if last.startswith("{"):
                    doc = json.loads(last)
                    self.server_stats = doc["stats"]
                    self.server_peak_kb = doc["peak_rss_kb"]
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        proc.wait()


# ---------------------------------------------------------------------------
# session_receive
# ---------------------------------------------------------------------------

def check_tick(decoded, expected: dict[int, int], lap_base: int, refs) -> int:
    """Failures in one tick's renderer output.

    `decoded` holds (peer id, sequence number, decoded frame) for each pose
    the latest-wins poll returned. Each expected peer must appear once with
    the expected frame, equal to its reference decode; a missing, extra or
    different pose is one failure each.
    """
    failures = 0
    seen = set()
    for peer, seq, frame in decoded:
        index = seq - lap_base - 1
        if expected.get(peer) != index or peer in seen or not same_frame(frame, refs[(peer, index)]):
            failures += 1
        seen.add(peer)
    return failures + len(set(expected) - seen)


def stale_failures(observed: int, injected: int) -> int:
    """Every injected swap must cost exactly one stale drop."""
    return abs(observed - injected)


class SessionReceive:
    """Closed loop, one thread, no sockets in use: replays what one client of
    a 30-dancer session receives and renders."""

    name = "session_receive"

    def __init__(self, seed: int, src: Path, out_dir: Path):
        self.inputs = session_inputs(seed)
        self.skeleton = default_skeleton()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.client = Client(
            self._sock, ("127.0.0.1", 9), RECEIVER_ID, SignalRouter(),
            start_receiver=False, keepalive_interval_s=None,
        )
        self.consumer = self.client.router.subscribe(
            SignalSelector(SignalType.POSE, None, Origin.NETWORK), Mode.LATEST_WINS
        )
        self._buffers = [
            [(bytearray(d), _SEQ.unpack_from(d, _SEQ_OFFSET)[0]) for d in tick]
            for tick in self.inputs.ticks
        ]
        self._tick = 0  # ticks replayed so far, across runs

    def run(self, seconds: float, tracer=None) -> Phase:
        ins, skeleton = self.inputs, self.skeleton
        table = ins.table
        n_ticks = len(ins.ticks)

        def decode(payload):
            return decode_frame(EncodedFrame.from_bytes(payload, table), table, skeleton)

        ingest, poll = self.client.ingest, self.consumer.poll
        if tracer is not None:
            decode = tracer.wrap("codec.decode", decode)
            ingest = tracer.wrap("transport.ingest", ingest)
            poll = tracer.wrap("router.poll_latest", poll)
        mono, cpu_now = time.monotonic_ns, time.process_time_ns
        phase = Phase(seconds=seconds)
        skipped = 0
        injected = 0
        stale0 = self.client.session.stats.dropped_stale
        end = mono() + int(seconds * 1e9)
        phase.marks.append((mono(), 0, 0))
        next_calibration = 0
        while mono() < end:
            if mono() >= next_calibration:
                phase.calib.append((mono(), calibrate(10)))
                next_calibration = mono() + CALIBRATE_EVERY_NS
            t_idx = self._tick % n_ticks
            lap_base = (self._tick // n_ticks) * n_ticks
            grams = []
            for buf, seq in self._buffers[t_idx]:
                # Later laps replay the session with sequence numbers that
                # keep rising, as a long session's would.
                _SEQ.pack_into(buf, _SEQ_OFFSET, lap_base + seq)
                grams.append(bytes(buf))

            c0, w0 = cpu_now(), mono()
            step = tracer.open("harness.step") if tracer is not None else -1
            for data in grams:
                ingest(data, mono() // 1000)
            polled = poll(64)
            decoded = [(p.user_id, p.seq, decode(p.payload)) for p in polled.packets]
            if tracer is not None:
                tracer.close(step)
                tracer.count("router.polled_latest", len(polled.packets))
            w1, c1 = mono(), cpu_now()

            failures = check_tick(decoded, ins.expected[t_idx], lap_base, ins.refs)
            phase.latencies_ns.append(w1 - w0)
            phase.times_ns.append(w0)
            phase.cpu_ns += c1 - c0
            phase.wall_ns += w1 - w0
            phase.units += 1
            phase.frames += len(grams)
            phase.marks.append((w1, phase.cpu_ns, phase.frames))
            phase.attempted += len(grams)
            phase.failed += failures
            phase.on_time += failures == 0 and (w1 - w0) <= FRAME_PERIOD_NS
            skipped += polled.lost
            injected += ins.stale_at[t_idx]
            self._tick += 1
        phase.calib.append((mono(), calibrate(10)))
        observed = self.client.session.stats.dropped_stale - stale0
        phase.failed += stale_failures(observed, injected)
        phase.extra = {"stale_dropped": observed, "stale_injected": injected, "router_skipped": skipped}
        return phase

    def close(self) -> None:
        self.client.close()


# ---------------------------------------------------------------------------
# corrective
# ---------------------------------------------------------------------------

def amplify_window(result, params: CorrectiveParams) -> int:
    """Trailing reference length that `dancegraph correct` uses: the whole
    detected periods that fit in the analysis window."""
    detected = result.detected
    if detected is None or detected.period_us <= 0:
        return params.window_frames
    period_frames = detected.period_us * FPS / 1e6
    whole = max(1, int(params.window_frames / period_frames))
    return max(2, int(round(whole * period_frames)))


@dataclass
class CorrectiveCheck:
    frames_match: bool
    beat_error_ms: float | None  # mean |extremum - nearest beat| after convergence
    amplitude_ratio: float | None

    @property
    def ok(self) -> bool:
        return (
            self.frames_match
            and self.beat_error_ms is not None
            and self.beat_error_ms < 1000.0 / FPS
            and self.amplitude_ratio is not None
            and abs(self.amplitude_ratio - 2.0) <= 0.05  # 2x within 2.5%
        )


class Corrective:
    """Closed loop, one thread: the offline correction `dancegraph correct`
    performs, file in, file out."""

    name = "corrective"
    CLIP_SECONDS = 24.0
    GAINS = {BodyZone.HIPS: 2.0, BodyZone.HANDS: 0.5}
    HIP = 0  # pelvis

    def __init__(self, seed: int, src: Path, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / f"take-{seed}.dgrc"
        self.out_path = out_dir / f"corrected-{seed}.dgrc"
        self.take = dancer_clip(seed, self.CLIP_SECONDS)
        save_recording(self.take, self.path)
        self.skeleton = default_skeleton()
        self.grid = BeatGrid(bpm=BPM)
        self.params = CorrectiveParams(zone_gains=self.GAINS)
        rot = np.stack([f.rotation_array()[self.HIP, :3] for f in self.take.frames])
        self.component = int(np.argmax(rot.max(axis=0) - rot.min(axis=0)))

    def check(self, result, window: int) -> CorrectiveCheck:
        out = load_recording(self.out_path)
        frames_match = len(out.frames) == len(self.take.frames)
        beat_error = None
        convergence = result.convergence_us()
        if result.applied and convergence is not None:
            times = find_extremum_times_us(out.frames, self.HIP, "xyz"[self.component])
            errors = [abs(t - self.grid.nearest_beat_us(t)) for t in times if t >= convergence]
            if len(errors) >= 4:
                beat_error = float(np.mean(errors)) / 1000.0
        ratio = None
        if frames_match:
            pre = np.array([f.rotation_array()[self.HIP, self.component] for f in self.take.frames[window:]])
            post = np.array([f.rotation_array()[self.HIP, self.component] for f in out.frames[window:]])
            if pre.size and np.ptp(pre) > 0:
                ratio = float(np.ptp(post) / np.ptp(pre))
        return CorrectiveCheck(frames_match, beat_error, ratio)

    def run(self, seconds: float, tracer=None) -> Phase:
        skeleton, grid, params = self.skeleton, self.grid, self.params
        load, pipeline, amplify, save = (
            load_recording, run_corrective_pipeline, amplify_zones, save_recording
        )
        if tracer is not None:
            load = tracer.wrap("recording.load", load)
            pipeline = tracer.wrap("rhythm.pipeline", pipeline)
            amplify = tracer.wrap("rhythm.amplify", amplify)
            save = tracer.wrap("recording.save", save)
        mono, cpu_now = time.monotonic_ns, time.process_time_ns
        phase = Phase(seconds=seconds)
        windows = []
        checks = []
        end = mono() + int(seconds * 1e9)
        phase.marks.append((mono(), 0, 0))
        while phase.units == 0 or mono() < end:
            phase.calib.append((mono(), calibrate(10)))
            c0, w0 = cpu_now(), mono()
            step = tracer.open("harness.step") if tracer is not None else -1
            take = load(self.path)
            result = pipeline(take.frames, skeleton, grid, params)
            window = amplify_window(result, params)
            frames = amplify(result.frames, skeleton, params, window)
            save(Recording(take.joint_count, take.nominal_fps, frames), self.out_path)
            if tracer is not None:
                tracer.close(step)
            w1, c1 = mono(), cpu_now()

            check = self.check(result, window)
            n = len(take.frames)
            phase.latencies_ns.append(w1 - w0)
            phase.times_ns.append(w0)
            phase.cpu_ns += c1 - c0
            phase.wall_ns += w1 - w0
            phase.units += 1
            phase.frames += n
            phase.marks.append((w1, phase.cpu_ns, phase.frames))
            phase.attempted += 1
            phase.failed += not check.ok
            # On time: the correction keeps up with playback, one frame per period.
            phase.on_time += check.ok and (w1 - w0) <= n * FRAME_PERIOD_NS
            windows.append(len(result.estimates))
            checks.append(dataclasses.asdict(check))
        phase.calib.append((mono(), calibrate(10)))
        phase.extra = {"windows": float(np.mean(windows)), "checks": checks}
        return phase

    def close(self) -> None:
        for path in (self.path, self.out_path):
            path.unlink(missing_ok=True)


WORKLOADS = {cls.name: cls for cls in (RelayStream, SessionReceive, Corrective)}
