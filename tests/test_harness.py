import json
import math
import multiprocessing
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dancegraph.cli import build_parser, main as cli_main
from dancegraph.codec import analyze_bounds, encode_frame, max_angular_error
from dancegraph.core import (
    InvalidQuaternionError,
    PoseFrame,
    Skeleton,
    default_skeleton,
)
from dancegraph.harness import (
    AlignmentReport,
    BenchParams,
    FlowStats,
    LatencyReport,
    StageStats,
    _start_server,
    corrective_experiment,
    find_extremum_times_us,
    SinkStats,
    record_sink,
    replay_stream,
    run_latency_experiment,
    synthesize_noise_recording,
    synthesize_sway_recording,
)
from dancegraph.recording import (
    Recording,
    RecordingFormatError,
    RecordingWriter,
    load_recording,
    save_recording,
)
from dancegraph.rhythm import BeatGrid, BodyZone, CorrectiveParams
from dancegraph.router import Mode, Origin, SignalDescriptor, SignalRouter, SignalSelector
from dancegraph.packet import SignalPacket, SignalType
from dancegraph.transport import Client, RelayServer, ServerConfig, client_connect

from conftest import MALFORMED_TABLE_IDS, MALFORMED_TABLES, scalar_from_axis_angle

TWO_PI = 2.0 * math.pi


def geodesic_rows(a, b):
    # normalize first: float32 storage perturbs the norm, which is not a
    # rotation difference but reads as one through acos near 1.0
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    dot = np.abs((a * b).sum(axis=1))
    return 2.0 * np.arccos(np.clip(dot, -1.0, 1.0))


def scalar_sway_recording(
    skeleton=None, duration_s=30.0, fps=30.0, frequency_hz=1.0, amplitude_rad=0.35,
    phase_rad=0.0, axis=(1.0, 0.0, 0.0), sway_joints=None, root_amplitude_m=0.05, start_us=0,
):
    """synthesize_sway_recording as it was before takes were built as
    arrays: one pure-Python scalar_from_axis_angle per frame. The oracle."""
    skeleton = skeleton or default_skeleton()
    if sway_joints is None:
        sway_joints = skeleton.joints_in_zone(BodyZone.HIPS) or [0]
    frame_count = int(round(duration_s * fps))
    dt_us = 1e6 / fps
    rotations = np.zeros((frame_count, skeleton.joint_count, 4))
    rotations[:, :, 3] = 1.0
    sway = [
        math.sin(2.0 * math.pi * frequency_hz * (i / fps) + phase_rad) for i in range(frame_count)
    ]
    quats = [scalar_from_axis_angle(axis, amplitude_rad * v) for v in sway]
    rotations[:, list(set(sway_joints))] = np.reshape(quats, (frame_count, 1, 4))
    frames = [
        (start_us + int(round(i * dt_us)), (root_amplitude_m * v, 1.0, 0.0), rotations[i])
        for i, v in enumerate(sway)
    ]
    return frames


def scalar_noise_recording(
    skeleton=None, duration_s=15.0, fps=30.0, amplitude_rad=0.2, seed=0, start_us=0
):
    """synthesize_noise_recording as it was before takes were built as
    arrays: one pure-Python scalar_from_axis_angle per joint per frame. The
    oracle."""
    skeleton = skeleton or default_skeleton()
    rng = np.random.default_rng(seed)
    frame_count = int(round(duration_s * fps))
    dt_us = 1e6 / fps
    joints = skeleton.joint_count
    angles = np.empty((frame_count, joints))
    axes = np.empty((frame_count, joints, 3))
    for i in range(frame_count):
        angles[i] = rng.uniform(-amplitude_rad, amplitude_rad, size=joints)
        axes[i] = rng.normal(size=(joints, 3))
    quats = [
        scalar_from_axis_angle(a, t)
        for a, t in zip(axes.reshape(-1, 3).tolist(), angles.ravel().tolist())
    ]
    rotations = np.reshape(quats, (frame_count, joints, 4))
    return [
        (start_us + int(round(i * dt_us)), (0.0, 1.0, 0.0), rotations[i])
        for i in range(frame_count)
    ]


def bare_client(router):
    """A Client around `router` whose socket nothing sends to."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    return Client(sock, ("127.0.0.1", 9), 1, router, keepalive_interval_s=None)


def sink_of(payloads, table, out, stats=None) -> int:
    """record_sink into `out` from a router that holds `payloads` as peer
    7's stream the moment the sink subscribes; returns once they are drained."""

    class PrimedRouter(SignalRouter):
        def subscribe(self, selector, mode=Mode.EVERY):
            handle = super().subscribe(selector, mode)
            producer = self.register_producer(
                SignalDescriptor(SignalType.POSE, 7, Origin.NETWORK), 64
            )
            for seq, payload in enumerate(payloads, start=1):
                producer.publish(SignalPacket(SignalType.POSE, 7, seq, seq, payload))
            return handle

    stop = threading.Event()
    stop.set()  # drain what is queued, then return
    with bare_client(PrimedRouter()) as client:
        return record_sink(
            client, SignalSelector(SignalType.POSE, None, Origin.NETWORK), out, table,
            default_skeleton(), stop=stop, stats=stats,
        )


TAKE_FAULTS = ["missing", "junk", "short_header", "zero_rotation", "nan_rotation", "inf_root"]
_FRAME_PATCHES = {  # (offset in the frame record, struct format, values)
    "zero_rotation": (20, "<4f", (0.0, 0.0, 0.0, 0.0)),
    "nan_rotation": (20, "<4f", (math.nan, 0.0, 0.0, 1.0)),
    "inf_rotation": (20, "<4f", (math.inf, 0.0, 0.0, 1.0)),
    "inf_root": (8, "<f", (math.inf,)),
    "nan_root": (8, "<f", (math.nan,)),
}


def damaged_take(path, fault):
    """Write a file at `path` that load_recording refuses: none at all
    (a dangling link), junk, a short header, or a 0.5 s take whose frame 2
    holds the patch named `fault`."""
    if fault == "missing":
        path.symlink_to(path.with_name("gone.dgrc"))
    elif fault == "junk":
        path.write_bytes(b"not a take, only words")
    elif fault == "short_header":
        path.write_bytes(b"DGRC\x01\x00")
    else:
        rec = synthesize_sway_recording(duration_s=0.5)
        save_recording(rec, path)
        data = bytearray(path.read_bytes())
        offset, fmt, values = _FRAME_PATCHES[fault]
        struct.pack_into(fmt, data, 12 + 2 * (20 + 16 * rec.joint_count) + offset, *values)
        path.write_bytes(bytes(data))


def assert_same_take(recording, oracle_frames):
    assert len(recording.frames) == len(oracle_frames)
    for frame, (ts, root, rot) in zip(recording.frames, oracle_frames):
        assert frame.timestamp_us == ts
        assert np.array(frame.root_translation).tobytes() == np.array(root).tobytes()
        assert frame.rotations.tobytes() == rot.tobytes()


class TestSynthesisMatchesScalarOracle:
    """The synthesizers build every quaternion of a take in one array call;
    the per-frame scalar bodies they replaced are the oracle, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 3, 17, 901])
    @pytest.mark.parametrize("duration_s,amplitude_rad", [
        (2.0, 0.03), (5.0, 0.2), (1.0, math.pi), (1.0, 3.0 * math.pi), (0.0, 0.2),
    ])
    def test_noise(self, seed, duration_s, amplitude_rad):
        kwargs = dict(duration_s=duration_s, amplitude_rad=amplitude_rad, seed=seed)
        assert_same_take(synthesize_noise_recording(**kwargs), scalar_noise_recording(**kwargs))

    def test_noise_on_a_small_rig_and_offset_clock(self):
        rig = Skeleton(("a", "b", "c"), {0: BodyZone.HIPS, 1: BodyZone.HANDS, 2: BodyZone.OTHER})
        kwargs = dict(duration_s=3.0, fps=24.0, seed=5, start_us=1_000_003)
        assert_same_take(
            synthesize_noise_recording(rig, **kwargs), scalar_noise_recording(rig, **kwargs)
        )

    @pytest.mark.parametrize("amplitude_rad", [0.2, 0.35, math.pi, 2.0 * math.pi, 3.5])
    @pytest.mark.parametrize("phase_rad", [0.0, math.pi / 2, 1.0])
    @pytest.mark.parametrize("duration_s", [0.0, 1.0, 7.0])
    def test_sway(self, amplitude_rad, phase_rad, duration_s):
        kwargs = dict(
            duration_s=duration_s, amplitude_rad=amplitude_rad, phase_rad=phase_rad,
            axis=(-1.0, 0.5, 0.0), frequency_hz=1.3, start_us=17,
        )
        assert_same_take(synthesize_sway_recording(**kwargs), scalar_sway_recording(**kwargs))

    def test_sway_through_a_half_turn_takes_the_tie_branch(self):
        # sin(pi/2) is exactly 1, so frame 0 turns by exactly pi and its w is
        # rounding noise that canonicalization must pin to 0.
        kwargs = dict(duration_s=2.0, amplitude_rad=math.pi, phase_rad=math.pi / 2,
                      axis=(-1.0, 0.0, 0.0), sway_joints=[0, 5])
        rec = synthesize_sway_recording(**kwargs)
        assert rec.frames[0].rotations[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert_same_take(rec, scalar_sway_recording(**kwargs))

    def test_zero_axis_raises_the_same_error(self):
        with pytest.raises(InvalidQuaternionError):
            scalar_sway_recording(duration_s=1.0, axis=(0.0, 0.0, 0.0))
        with pytest.raises(InvalidQuaternionError):
            synthesize_sway_recording(duration_s=1.0, axis=(0.0, 0.0, 0.0))


class TestRecordingFile:
    def test_round_trip(self, tmp_path):
        rec = synthesize_sway_recording(duration_s=2.0)
        path = tmp_path / "take.dgrc"
        save_recording(rec, path)
        loaded = load_recording(path)
        assert loaded.joint_count == rec.joint_count
        assert loaded.nominal_fps == pytest.approx(rec.nominal_fps)
        assert len(loaded.frames) == len(rec.frames)
        for a, b in zip(rec.frames, loaded.frames):
            assert a.timestamp_us == b.timestamp_us
            # storage is float32
            assert geodesic_rows(a.rotation_array(), b.rotation_array()).max() < 1e-6
            assert np.allclose(a.root_translation, b.root_translation, atol=1e-6)

    def test_reload_is_stable(self, tmp_path):
        rec = synthesize_sway_recording(duration_s=1.0)
        p1, p2 = tmp_path / "a.dgrc", tmp_path / "b.dgrc"
        save_recording(rec, p1)
        save_recording(load_recording(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trailing_partial_frame_dropped(self, tmp_path):
        rec = synthesize_sway_recording(duration_s=1.0)
        path = tmp_path / "take.dgrc"
        save_recording(rec, path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # chop mid-frame
        loaded = load_recording(path)
        assert len(loaded.frames) == len(rec.frames) - 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dgrc"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(RecordingFormatError):
            load_recording(path)

    def test_writer_requires_increasing_timestamps(self, tmp_path):
        writer = RecordingWriter(tmp_path / "x.dgrc", 1, 30.0)
        frame = PoseFrame(100, (0, 0, 0), ((0, 0, 0, 1),))
        writer.write_frame(frame)
        with pytest.raises(RecordingFormatError):
            writer.write_frame(frame)
        writer.close()

    def test_writer_truncates_to_frame_boundary(self, tmp_path):
        path = tmp_path / "x.dgrc"
        writer = RecordingWriter(path, 2, 30.0)
        rots = ((0, 0, 0, 1), (0, 0, 0, 1))
        writer.write_frame(PoseFrame(1, (0, 0, 0), rots))
        writer._fh.write(b"partial garbage")  # simulate an interrupted frame
        writer.close()
        loaded = load_recording(path)
        assert len(loaded.frames) == 1

    @pytest.mark.parametrize("fps", [math.nan, math.inf, 0.0])
    def test_header_fps_must_be_positive_and_finite(self, tmp_path, fps):
        # A take without a usable rate would be replayed at a NaN or zero
        # interval and windowed by int(nan) in the corrective.
        path = tmp_path / "bad_fps.dgrc"
        save_recording(synthesize_sway_recording(duration_s=0.5), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<f", data, 8, fps)
        path.write_bytes(bytes(data))
        with pytest.raises(RecordingFormatError, match="nominal_fps"):
            load_recording(path)
        with pytest.raises(RecordingFormatError, match="nominal_fps"):
            RecordingWriter(tmp_path / "never.dgrc", 34, fps)
        assert not (tmp_path / "never.dgrc").exists()

    @pytest.mark.parametrize(
        "fault", ["negative", "backwards", "joints", "ragged", "inf_root", "nan_root", "f32_root",
                  "zero_rot", "nan_rot", "f32_rot"]
    )
    def test_failed_save_leaves_the_old_file(self, tmp_path, fault):
        # Every check runs on the whole take before the file is opened.
        path = tmp_path / "take.dgrc"
        save_recording(synthesize_sway_recording(duration_s=0.5), path)
        before = path.read_bytes()
        frames = list(synthesize_sway_recording(duration_s=0.5, start_us=1000).frames)
        if fault == "negative":
            frames[0] = PoseFrame(-1, frames[0].root_translation, frames[0].rotations)
        elif fault == "backwards":
            frames[3], frames[4] = frames[4], frames[3]
        elif fault == "joints":
            frames = [PoseFrame(f.timestamp_us, (0, 0, 0), f.rotations[:2]) for f in frames]
        elif fault == "ragged":
            frames[5] = PoseFrame(frames[5].timestamp_us, (0, 0, 0), frames[5].rotations[:2])
        elif fault.endswith("_rot"):  # a rotation the loader cannot normalize as float32
            rot = np.array(frames[5].rotations)
            rot[3] = {"zero_rot": 0.0, "nan_rot": math.nan, "f32_rot": 1e-50}[fault]
            frames[5] = PoseFrame(frames[5].timestamp_us, frames[5].root_translation, rot)
        else:  # a root the file cannot hold as a finite float32
            x = {"inf_root": math.inf, "nan_root": math.nan, "f32_root": 1e39}[fault]
            frames[5] = PoseFrame(frames[5].timestamp_us, (x, 0.0, 0.0), frames[5].rotations)
        with pytest.raises(RecordingFormatError):
            save_recording(Recording(34, 30.0, frames), path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("scale", [1e20, 1e-25])
    def test_save_keeps_a_rotation_whose_float32_squares_overflow_or_underflow(
        self, tmp_path, scale
    ):
        # The loader normalizes such a row, so the writers must not refuse it.
        path = tmp_path / "take.dgrc"
        frames = list(synthesize_sway_recording(duration_s=0.2).frames)
        rot = np.array(frames[2].rotations)
        rot[7] *= scale
        frames[2] = PoseFrame(frames[2].timestamp_us, (0, 0, 0), rot)
        save_recording(Recording(34, 30.0, frames), path)
        loaded = load_recording(path).frames[2].rotations
        assert np.allclose(loaded[7], frames[2].rotations[7] / scale, atol=1e-6)

    @pytest.mark.parametrize("fill", [0.0, math.nan, math.inf])
    def test_writer_refuses_a_rotation_the_loader_refuses(self, tmp_path, fill):
        # The writer's message is the loader's, and the file keeps the frames
        # written before the refused one.
        path = tmp_path / "take.dgrc"
        frames = synthesize_sway_recording(duration_s=0.2).frames
        rot = np.array(frames[2].rotations)
        rot[7] = fill
        with RecordingWriter(path, 34, 30.0) as writer:
            writer.write_frame(frames[0])
            writer.write_frame(frames[1])
            with pytest.raises(RecordingFormatError, match="rotation has zero or non-finite norm"):
                writer.write_frame(PoseFrame(frames[2].timestamp_us, (0, 0, 0), rot))
            assert writer.frames_written == 2
        assert [f.timestamp_us for f in load_recording(path).frames] == [
            f.timestamp_us for f in frames[:2]
        ]

    def test_load_refuses_a_timestamp_past_int64(self, tmp_path):
        path = tmp_path / "take.dgrc"
        save_recording(synthesize_sway_recording(duration_s=0.1), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, len(data) - 564, 2**63)  # the last frame's timestamp
        path.write_bytes(bytes(data))
        with pytest.raises(RecordingFormatError, match="int64"):
            load_recording(path)

    @pytest.mark.parametrize("fault", [*TAKE_FAULTS[3:], "inf_rotation", "nan_root"])
    def test_load_names_the_frame_it_cannot_use(self, tmp_path, fault):
        # Not InvalidQuaternionError for a rotation, and no take with an
        # infinite root: a file is either loaded whole or refused in the
        # loader's own terms.
        path = tmp_path / "take.dgrc"
        damaged_take(path, fault)
        with pytest.raises(RecordingFormatError, match="frame 2 "):
            load_recording(path)

    def test_writer_refuses_a_negative_timestamp(self, tmp_path):
        with RecordingWriter(tmp_path / "x.dgrc", 1, 30.0) as writer:
            with pytest.raises(RecordingFormatError, match=">= 0"):
                writer.write_frame(PoseFrame(-5, (0, 0, 0), ((0, 0, 0, 1),)))
            writer.write_frame(PoseFrame(0, (0, 0, 0), ((0, 0, 0, 1),)))
            assert writer.frames_written == 1

    def test_header_only_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.dgrc"
        RecordingWriter(path, 34, 30.0).close()
        loaded = load_recording(path)
        assert loaded.frames == []
        assert loaded.joint_count == 34
        save_recording(loaded, tmp_path / "again.dgrc")
        assert (tmp_path / "again.dgrc").read_bytes() == path.read_bytes()

    def test_load_canonicalizes_hemisphere(self, tmp_path):
        # Another tool may store either sign of a rotation; loading puts
        # every quaternion on the w >= 0 hemisphere.
        q = scalar_from_axis_angle((1.0, 0.0, 0.0), 0.4)
        flipped = tuple(-c for c in q)
        path = tmp_path / "flipped.dgrc"
        with RecordingWriter(path, 2, 30.0) as writer:
            for i in range(3):
                writer.write_frame(PoseFrame(i, (0, 0, 0), (flipped, (0.0, 0.0, 0.0, -1.0))))
        loaded = load_recording(path)
        rot = np.stack([f.rotation_array() for f in loaded.frames])
        assert np.all(rot[:, :, 3] > 0.0)
        assert geodesic_rows(rot[:, 0], np.tile(q, (3, 1))).max() < 1e-6
        assert np.array_equal(rot[:, 1], np.tile([0.0, 0.0, 0.0, 1.0], (3, 1)))


class TestReplay:
    @pytest.fixture
    def relay(self):
        server = RelayServer(
            ServerConfig(host="127.0.0.1", client_timeout_us=60_000_000)
        ).start()
        yield server
        server.stop()

    def test_emits_every_frame_at_nominal_rate(self, relay):
        rec = synthesize_sway_recording(duration_s=1.0)
        table = analyze_bounds([rec.frames], margin=0.1, bits=16)
        with client_connect(("127.0.0.1", relay.port)) as client:
            t0 = time.monotonic()
            stats = replay_stream(client, rec, table)
            elapsed = time.monotonic() - t0
        assert stats.emitted == 30
        assert 0.85 < elapsed < 1.4
        assert stats.jitter_percentile_us(99) < 5_000

    def test_fps_override_changes_wall_time_not_frames(self, relay):
        rec = synthesize_sway_recording(duration_s=1.0)
        table = analyze_bounds([rec.frames], margin=0.1, bits=16)
        with client_connect(("127.0.0.1", relay.port)) as client:
            t0 = time.monotonic()
            stats = replay_stream(client, rec, table, fps=60.0)
            elapsed = time.monotonic() - t0
        assert stats.emitted == 30
        assert elapsed < 0.8

    def test_loop_flag_wraps(self, relay):
        rec = synthesize_sway_recording(duration_s=0.5)  # 15 frames
        table = analyze_bounds([rec.frames], margin=0.1, bits=16)
        with client_connect(("127.0.0.1", relay.port)) as client:
            stats = replay_stream(client, rec, table, loop=True, max_packets=40)
        assert stats.emitted == 40

    def test_replay_survives_a_relay_restart_on_the_same_port(self, tmp_path):
        # The restarted relay knows neither client. The replayer's next pose
        # draws a LEAVE, which only replay_stream's receive() hears; the
        # replayer re-joins, the listener's keepalive re-registers it, and
        # the second half of the take reaches the recording.
        rec = synthesize_sway_recording(duration_s=2.0)
        table = analyze_bounds([rec.frames], margin=0.1, bits=16)
        first, second = (
            Recording(rec.joint_count, rec.nominal_fps, rec.frames[i:i + 30]) for i in (0, 30)
        )
        srv = RelayServer(ServerConfig(host="127.0.0.1")).start()
        port = srv.port
        out = tmp_path / "heard.dgrc"
        stop = threading.Event()
        try:
            with client_connect(("127.0.0.1", port)) as replayer, client_connect(
                ("127.0.0.1", port), keepalive_interval_s=0.1
            ) as listener:
                sink = threading.Thread(
                    target=record_sink,
                    args=(listener, SignalSelector(SignalType.POSE, None, Origin.NETWORK), out,
                          table, default_skeleton()),
                    kwargs={"stop": stop},
                    daemon=True,
                )
                sink.start()
                try:
                    replay_stream(replayer, first, table)
                    srv.stop()
                    srv = RelayServer(ServerConfig(host="127.0.0.1", port=port)).start()
                    replay_stream(replayer, second, table)
                    time.sleep(0.3)
                finally:
                    stop.set()
                    sink.join(timeout=5)
                assert not sink.is_alive()
        finally:
            srv.stop()
        heard = [f.timestamp_us for f in load_recording(out).frames]
        restart_us = second.frames[0].timestamp_us
        assert any(t < restart_us for t in heard)
        assert sum(t >= restart_us for t in heard) >= 20

    def test_replay_payloads_are_deterministic(self):
        # two replays of one recording carry identical payload bytes
        # (emission timestamps live in the packet header, not the payload)
        from dancegraph.harness import encode_recording_payloads

        rec = synthesize_sway_recording(duration_s=1.0)
        table = analyze_bounds([rec.frames], margin=0.1, bits=16)
        first = encode_recording_payloads(rec, table)
        second = encode_recording_payloads(rec, table)
        assert first == second


class TestRecordSink:
    def test_record_of_replay_matches_source_within_codec_bound(self, tmp_path):
        # Closure: replaying a recording through the relay to a second
        # client on loopback and recording it there reproduces the source to
        # codec precision. Each client is driven by one thread: the replayer
        # by this one, the listener by the sink's.
        server = RelayServer(
            ServerConfig(host="127.0.0.1", client_timeout_us=60_000_000)
        ).start()
        try:
            rec = synthesize_sway_recording(duration_s=1.5)
            table = analyze_bounds([rec.frames], margin=0.1, bits=16)
            skeleton = default_skeleton()
            out = tmp_path / "loopback.dgrc"
            addr = ("127.0.0.1", server.port)
            with client_connect(addr) as replayer, client_connect(addr) as listener:
                selector = SignalSelector(SignalType.POSE, replayer.user_id, Origin.NETWORK)
                stop = threading.Event()
                sink = threading.Thread(
                    target=record_sink,
                    args=(listener, selector, out, table, skeleton),
                    kwargs={"nominal_fps": rec.nominal_fps, "stop": stop},
                    daemon=True,
                )
                sink.start()
                replay_stream(replayer, rec, table)
                time.sleep(0.3)
                stop.set()
                sink.join(timeout=5)
                assert not sink.is_alive()
            recorded = load_recording(out)
            assert len(recorded.frames) == len(rec.frames)
            bound = max_angular_error(table)
            for a, b in zip(rec.frames, recorded.frames):
                assert a.timestamp_us == b.timestamp_us
                err = geodesic_rows(a.rotation_array(), b.rotation_array())
                # one codec trip plus float32 recording storage
                assert err.max() <= bound + 1e-6
                assert np.allclose(a.root_translation, b.root_translation, atol=1e-5)
        finally:
            server.stop()

    def test_no_packets_gives_header_only_file(self, tmp_path):
        from dancegraph.router import SignalRouter

        router = SignalRouter()
        table = analyze_bounds(
            [synthesize_sway_recording(duration_s=0.5).frames], margin=0.1, bits=16
        )
        out = tmp_path / "empty.dgrc"
        with bare_client(router) as client:
            written = record_sink(
                client,
                SignalSelector(SignalType.POSE, None, Origin.NETWORK),
                out,
                table,
                default_skeleton(),
                duration_s=0.2,
            )
        assert written == 0
        assert load_recording(out).frames == []

    def test_corrupt_payload_is_skipped(self, tmp_path):
        rec = synthesize_sway_recording(duration_s=0.5)
        table = analyze_bounds([rec.frames], margin=0.1, bits=16)
        payloads = [encode_frame(f, table).to_bytes() for f in rec.frames]
        payloads.insert(5, b"\x00" * 10)  # a peer payload of the wrong size
        # A timestamp no file holds, then one that does not advance.
        payloads.insert(9, encode_frame(PoseFrame(2**64 - 1, (0, 0, 0), rec.frames[0].rotations),
                                        table).to_bytes())
        payloads.insert(12, payloads[3])
        # A root no file holds, at a timestamp between two frames.
        after = rec.frames[10]
        infinite = PoseFrame(after.timestamp_us + 1, (math.inf, 0.0, 0.0), after.rotations)
        payloads.insert(payloads.index(encode_frame(after, table).to_bytes()) + 1,
                        encode_frame(infinite, table).to_bytes())
        out = tmp_path / "sink.dgrc"
        stats = SinkStats()
        assert sink_of(payloads, table, out, stats) == len(rec.frames)
        recorded = load_recording(out)
        assert [f.timestamp_us for f in recorded.frames] == [f.timestamp_us for f in rec.frames]
        assert stats == SinkStats(wrong_length=1, non_finite_root=1, refused=2)

    def test_undecodable_payloads_are_counted_by_cause(self, tmp_path):
        rec = synthesize_sway_recording(duration_s=0.5)
        table = analyze_bounds([rec.frames], margin=0.1, bits=16)
        payloads = [encode_frame(f, table).to_bytes() for f in rec.frames]
        payloads.insert(4, payloads[4][:-1])  # one byte short
        # A NaN root at a timestamp the writer would take.
        after = rec.frames[7]
        nan_root = PoseFrame(after.timestamp_us + 1, (0.0, math.nan, 0.0), after.rotations)
        payloads.insert(payloads.index(encode_frame(after, table).to_bytes()) + 1,
                        encode_frame(nan_root, table).to_bytes())
        stats = SinkStats()
        assert sink_of(payloads, table, tmp_path / "sink.dgrc", stats) == len(rec.frames)
        assert (stats.wrong_length, stats.non_finite_root, stats.refused) == (1, 1, 0)

    def test_record_command_prints_the_skip_counts(self, tmp_path, monkeypatch, capsys):
        bounds = tmp_path / "bounds.json"
        analyze_bounds(
            [synthesize_sway_recording(duration_s=0.5).frames],
            joint_names=default_skeleton().joint_names,
        ).to_json(bounds)

        def fake_sink(*args, stats, **kwargs):
            stats.wrong_length, stats.non_finite_root, stats.refused = 1, 2, 3
            return 5

        monkeypatch.setattr("dancegraph.cli.client_connect", lambda *a, **k: bare_client(SignalRouter()))
        monkeypatch.setattr("dancegraph.cli.record_sink", fake_sink)
        assert cli_main(["record", "--out", str(tmp_path / "o.dgrc"), "--server", "127.0.0.1:9",
                         "--bounds", str(bounds)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "wrote 5 frames",
            "skipped 1 wrong-length and 2 non-finite-root payloads; the writer refused 3 frames",
        ]


class TestCorrectiveExperiment:
    def test_sway_aligns_to_grid(self, tmp_path):
        phase = math.pi / 2 - TWO_PI * 0.23
        rec = synthesize_sway_recording(duration_s=30.0, phase_rad=phase)
        out = tmp_path / "fixed.dgrc"
        corrected, report = corrective_experiment(
            rec, BeatGrid(bpm=120.0), CorrectiveParams(), output_path=out
        )
        assert report.applied
        assert report.pre_error_ms == pytest.approx(230.0, abs=15.0)
        assert report.post_error_ms < 33.0
        assert report.extrema_post >= 10
        assert len(corrected.frames) == len(rec.frames)
        assert load_recording(out).joint_count == rec.joint_count

    def test_noise_is_copied_through(self):
        rec = synthesize_noise_recording(duration_s=12.0, seed=11)
        corrected, report = corrective_experiment(
            rec, BeatGrid(bpm=120.0), CorrectiveParams()
        )
        assert report.no_dominant_period
        assert "no dominant period" in report.to_text()
        assert corrected.frames == rec.frames

    def test_hips_gain_doubles_amplitude(self):
        # amplitude ratio is measured on the quaternion component, which is
        # sin(angle/2): keep the sway moderate so doubling reads as ~2.0
        phase = math.pi / 2 - TWO_PI * 0.23
        rec = synthesize_sway_recording(duration_s=30.0, phase_rad=phase, amplitude_rad=0.2)
        gains = {z: 1.0 for z in BodyZone}
        gains[BodyZone.HIPS] = 2.0
        _, report = corrective_experiment(
            rec, BeatGrid(bpm=120.0), CorrectiveParams(zone_gains=gains)
        )
        assert report.amplitude_ratio == pytest.approx(2.0, abs=0.05)

    def test_text_of_a_warp_that_converges_after_the_last_extremum(self):
        # `correct --phase-ms 150` on a 12 s `synth` take: the warp lands at
        # 11.93 s, after the take's last extremum.
        report = AlignmentReport(
            applied=True, reason=None, no_dominant_period=False,
            detected_period_us=1_000_573, rate=1.000573, measured_joint=0,
            measured_component="x", pre_error_ms=100.0, post_error_ms=None,
            convergence_us=11_933_333, extrema_pre=24, extrema_post=0, amplitude_ratio=1.97,
        )
        text = report.to_text()
        assert "pre 100.0 ms (24 extrema), post n/a (0 extrema, after convergence)" in text
        assert "warp converged at 11.93 s" in text

    def test_a_warp_that_does_not_land_within_the_take_reports_no_convergence(self):
        # A 1 Hz sway on a 120 bpm grid has its extrema half a beat off: the
        # warp's -247.75 ms target at slew 0.03 needs 8.26 s from 8.53 s, so
        # it lands after the 12 s take ends and no extremum is "post".
        rec = synthesize_sway_recording(duration_s=12.0)
        _, report = corrective_experiment(rec, BeatGrid(bpm=120.0), CorrectiveParams())
        assert report.applied and report.pre_error_ms == pytest.approx(250.0, abs=1.0)
        assert (report.convergence_us, report.post_error_ms, report.extrema_post) == (None, None, 0)
        text = report.to_text()
        assert "warp did not converge within the take" in text
        assert "converged at" not in text

    def test_a_flat_topped_extremum_counts_once(self, tmp_path):
        # The 12 s take's 1 Hz peaks fall midway between two frames at
        # 30 fps, so a peak's two samples can be equal (in the stored
        # float32 take, every peak's are): 24 extrema, each counted once.
        rec = synthesize_sway_recording(duration_s=12.0)
        save_recording(rec, tmp_path / "take.dgrc")
        expected = [250_000.0 + 500_000.0 * k for k in range(24)]
        for take in (rec, load_recording(tmp_path / "take.dgrc")):
            times = find_extremum_times_us(take.frames, 0, "x")
            assert len(times) == len(set(times)) == 24
            assert times == pytest.approx(expected, abs=2_000)


def lossy_sway_take(path, lost=400):
    """A 30 s sway take with one frame missing, as a lossy `record` writes it."""
    rec = synthesize_sway_recording(duration_s=30.0, phase_rad=math.pi / 2 - TWO_PI * 0.23)
    frames = rec.frames[:lost] + rec.frames[lost + 1:]
    save_recording(Recording(rec.joint_count, rec.nominal_fps, frames), path)


class TestBench:
    def test_local_direct_smoke(self):
        report = run_latency_experiment("local_direct", BenchParams(duration_s=2.0))
        stage = report.stages["produce_to_consume"]
        assert stage.count == 60
        assert stage.p50_us < 1_000
        assert report.extras["router_lost"] == 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_latency_experiment("warp_drive")

    def test_report_json_schema(self):
        report = LatencyReport(
            scenario="local_direct",
            stages={"produce_to_consume": StageStats(3, 10, 20, 30, 40)},
            flows=[FlowStats(1, 3, 3, 0)],
        )
        doc = report.to_json_dict()
        assert doc["scenario"] == "local_direct"
        stage = doc["stages"]["produce_to_consume"]
        assert set(stage.keys()) == {"count", "p50_us", "p95_us", "p99_us", "max_us"}
        assert doc["flows"][0] == {"user_id": 1, "sent": 3, "received": 3, "dropped": 0}

    def test_percentiles_monotone(self):
        rng = np.random.default_rng(3)
        stats = StageStats.from_samples(rng.integers(0, 100_000, size=500).tolist())
        assert stats.p50_us <= stats.p95_us <= stats.p99_us <= stats.max_us
        assert stats.count == 500

    def test_loopback_relay_probe_sanity(self):
        # single-host run: stage marks never run backwards, so no stage
        # delta is negative and percentile sets come out monotone
        report = run_latency_experiment("loopback_relay", BenchParams(duration_s=3.0))
        assert report.extras["non_monotonic_probes"] == 0
        for stage in report.stages.values():
            assert 0 <= stage.p50_us <= stage.p95_us <= stage.p99_us <= stage.max_us
        flow = report.flows[0]
        assert flow.received == flow.sent - flow.dropped
        assert flow.received >= 0.9 * 3.0 * 30

    def test_relay_child_dying_before_its_port_raises(self):
        # ServerConfig rejects max_clients=1 in the child, which exits
        # without announcing a port: the wait ends with EOFError instead of
        # blocking forever. A thread keeps a regression from hanging the run.
        outcome = []

        def start():
            try:
                _start_server(max_clients=1)
            except EOFError as exc:
                outcome.append(exc)

        waiter = threading.Thread(target=start, daemon=True)
        began = time.monotonic()
        waiter.start()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive(), "_start_server still waiting after 10 s"
        assert outcome and time.monotonic() - began < 10.0


class TestCli:
    def test_synth_bounds_correct_pipeline(self, tmp_path):
        sway = tmp_path / "sway.dgrc"
        assert cli_main([
            "synth", "--out", str(sway), "--seconds", "20", "--hz", "1.0",
            "--phase", str(math.pi / 2 - TWO_PI * 0.23),
        ]) == 0

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "sway.dgrc").write_bytes(sway.read_bytes())
        bounds = tmp_path / "bounds.json"
        assert cli_main([
            "bounds", "--corpus", str(corpus), "--bits", "16",
            "--margin", "0.1", "--out", str(bounds),
        ]) == 0
        doc = json.loads(bounds.read_text())
        assert doc["bits"] == 16 and len(doc["joints"]) == 34

        fixed = tmp_path / "fixed.dgrc"
        report_json = tmp_path / "report.json"
        assert cli_main([
            "correct", "--in", str(sway), "--out", str(fixed),
            "--bpm", "120", "--gains", "hips=2.0", "--json", str(report_json),
        ]) == 0
        report = json.loads(report_json.read_text())
        assert report["applied"] is True
        assert report["amplitude_ratio"] == pytest.approx(2.0, abs=0.05)
        assert load_recording(fixed).joint_count == 34

    def test_correct_survives_a_lost_frame(self, tmp_path):
        take, fixed, report_json = (tmp_path / n for n in ("take.dgrc", "fixed.dgrc", "r.json"))
        lossy_sway_take(take)
        assert cli_main([
            "correct", "--in", str(take), "--out", str(fixed), "--bpm", "120",
            "--json", str(report_json),
        ]) == 0
        report = json.loads(report_json.read_text())
        assert report["applied"] is True and report["post_error_ms"] < 33.0
        assert len(load_recording(fixed).frames) == 899

    def test_correct_exits_zero_when_no_extremum_follows_convergence(self, tmp_path):
        take, fixed, report_json = (tmp_path / n for n in ("take.dgrc", "fixed.dgrc", "r.json"))
        assert cli_main(["synth", "--out", str(take), "--seconds", "12"]) == 0
        assert cli_main([
            "correct", "--in", str(take), "--out", str(fixed), "--bpm", "120",
            "--phase-ms", "150", "--gains", "hips=2.0", "hands=0.5", "--json", str(report_json),
        ]) == 0
        report = json.loads(report_json.read_text())
        assert report["applied"] is True
        assert (report["post_error_ms"], report["extrema_post"]) == (None, 0)
        assert report["amplitude_ratio"] == pytest.approx(2.0, abs=0.05)
        assert len(load_recording(fixed).frames) == 360

    @pytest.mark.parametrize("argv", [
        ["--hz", "1e308", "--seconds", "1"],
        ["--hz", "1e306", "--seconds", "100", "--fps", "1"],
        ["--phase", "1.7e308", "--hz", "1e307", "--seconds", "1"],
        ["--fps", "1000", "--seconds", "1e9"],  # about 1 PB of rotations
    ], ids=lambda v: "_".join(v))
    def test_synth_refuses_an_unbounded_take(self, tmp_path, capsys, argv):
        out = tmp_path / "o.dgrc"
        assert cli_main(["synth", "--out", str(out), *argv]) == 2
        assert "synth: error" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_take_limit_is_inclusive(self, tmp_path, monkeypatch):
        # The limit scaled down to 30 frames of the 34-joint rig.
        monkeypatch.setattr("dancegraph.harness._MAX_TAKE_BYTES", 30 * 34 * 4 * 8)
        out = tmp_path / "o.dgrc"
        assert cli_main(["synth", "--out", str(out), "--seconds", "1.0333"]) == 2
        assert not out.exists()
        assert cli_main(["synth", "--out", str(out), "--seconds", "1"]) == 0
        assert len(load_recording(out).frames) == 30

    @pytest.mark.parametrize("argv", [
        ["--clients", "1000", "--duration", "60"],  # about 57 GB of marks
        ["--clients", "2", "--duration", "1e9"],
    ], ids=lambda v: "_".join(v))
    def test_bench_refuses_an_unbounded_session_before_its_relay(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(
            "dancegraph.harness._start_server", lambda *a: pytest.fail("started the relay")
        )
        tracemalloc.start()
        try:
            code = cli_main(["bench", "--scenario", "swarm", *argv])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "bench: error" in capsys.readouterr().err
        assert peak < 1 << 20  # no marks array
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("select", ["bogus:any:network", "pose:someone:network",
                                        "pose:any:nowhere", "pose:any"])
    def test_bad_selector_exits_before_joining(self, tmp_path, monkeypatch, capsys, select):
        rec = synthesize_sway_recording(duration_s=1.0)
        bounds = tmp_path / "bounds.json"
        analyze_bounds([rec.frames], joint_names=default_skeleton().joint_names).to_json(bounds)
        monkeypatch.setattr(
            "dancegraph.cli.client_connect", lambda *a, **k: pytest.fail("joined the relay")
        )
        out = tmp_path / "take.dgrc"
        with pytest.raises(SystemExit) as exc:
            cli_main(["record", "--out", str(out), "--select", select,
                      "--server", "127.0.0.1:9", "--bounds", str(bounds)])
        assert exc.value.code == 2
        assert "pose:any:network" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gains", [["hipz=2"], ["hips=2", "hands=lots"], ["hips"],
                                       ["hips=-1"], ["hips=inf"], ["hands=nan"]])
    def test_bad_gain_exits_before_reading(self, tmp_path, monkeypatch, gains):
        take = tmp_path / "take.dgrc"
        save_recording(synthesize_sway_recording(duration_s=1.0), take)
        monkeypatch.setattr(
            "dancegraph.cli.corrective_experiment", lambda *a, **k: pytest.fail("ran the take")
        )
        fixed = tmp_path / "fixed.dgrc"
        with pytest.raises(SystemExit) as exc:
            cli_main(["correct", "--in", str(take), "--out", str(fixed), "--gains", *gains])
        assert exc.value.code == 2
        assert not fixed.exists()

    @pytest.mark.parametrize("config", [
        {"bpm": 120, "zone_gains": {"hipz": 2.0}},
        {"zone_gains": {"hips": 2.0}},
        {"bpm": 120, "window_frames": 100},
        None,  # no file
        {"bpm": 120, "zone_gains": ["hips"]},
        {"bpm": 120, "zone_gains": "hips"},
        {"bpm": 120, "zone_gains": None},
        {"bpm": 120, "phase_offset_ms": 1e306},
        {"bpm": 120, "window_frames": math.inf},
    ], ids=["unknown_zone", "no_bpm", "window_frames_100", "missing", "gains_list",
            "gains_string", "gains_null", "phase_1e306", "window_frames_inf"])
    def test_bad_config_exits_before_reading(self, tmp_path, monkeypatch, capsys, config):
        take, path = tmp_path / "take.dgrc", tmp_path / "config.json"
        save_recording(synthesize_sway_recording(duration_s=1.0), take)
        if config is not None:
            path.write_text(json.dumps(config))
        monkeypatch.setattr(
            "dancegraph.cli.corrective_experiment", lambda *a, **k: pytest.fail("ran the take")
        )
        fixed = tmp_path / "fixed.dgrc"
        with pytest.raises(SystemExit) as exc:
            cli_main(["correct", "--in", str(take), "--out", str(fixed), "--config", str(path)])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not fixed.exists()

    def test_config_overrides_the_flags(self, tmp_path):
        take, path, fixed, report_json = (
            tmp_path / n for n in ("take.dgrc", "config.json", "fixed.dgrc", "r.json")
        )
        assert cli_main(["synth", "--out", str(take), "--seconds", "12"]) == 0
        path.write_text(json.dumps({"bpm": 120, "zone_gains": {"hips": 2.0}}))
        assert cli_main([
            "correct", "--in", str(take), "--out", str(fixed), "--bpm", "60",
            "--config", str(path), "--json", str(report_json),
        ]) == 0
        report = json.loads(report_json.read_text())
        assert report["applied"] is True
        assert report["amplitude_ratio"] == pytest.approx(2.0, abs=0.05)

    def test_flag_and_config_phase_round_alike(self, tmp_path):
        # 1.001 ms is 1000.9999999999999 us: both ways round it to 1001 us.
        take, path = tmp_path / "take.dgrc", tmp_path / "config.json"
        assert cli_main(["synth", "--out", str(take), "--seconds", "12"]) == 0
        path.write_text(json.dumps(
            {"bpm": 120, "phase_offset_ms": 1.001, "zone_gains": {"hips": 2.0, "hands": 0.5}}
        ))
        runs = {
            "flags": ["--bpm", "120", "--phase-ms", "1.001", "--gains", "hips=2.0", "hands=0.5"],
            "config": ["--config", str(path)],
        }
        for name, argv in runs.items():
            assert cli_main([
                "correct", "--in", str(take), "--out", str(tmp_path / f"{name}.dgrc"),
                "--json", str(tmp_path / f"{name}.json"), *argv,
            ]) == 0
        assert (tmp_path / "flags.json").read_text() == (tmp_path / "config.json").read_text()
        assert (tmp_path / "flags.dgrc").read_bytes() == (tmp_path / "config.dgrc").read_bytes()

    def test_correct_refuses_a_take_of_another_joint_count(self, tmp_path, capsys):
        rig = Skeleton(("a", "b"), {0: BodyZone.HIPS, 1: BodyZone.HANDS})
        take, fixed = tmp_path / "take.dgrc", tmp_path / "fixed.dgrc"
        save_recording(synthesize_sway_recording(rig, duration_s=12.0), take)
        assert cli_main(["correct", "--in", str(take), "--out", str(fixed)]) == 2
        assert "joint count" in capsys.readouterr().err
        assert not fixed.exists()

    def test_replay_refuses_a_table_of_another_joint_count_before_joining(
        self, tmp_path, monkeypatch, capsys
    ):
        take, bounds = tmp_path / "take.dgrc", tmp_path / "bounds.json"
        save_recording(synthesize_sway_recording(duration_s=1.0), take)
        rig = Skeleton(("a", "b"), {0: BodyZone.HIPS, 1: BodyZone.HANDS})
        analyze_bounds([synthesize_sway_recording(rig, duration_s=1.0).frames]).to_json(bounds)
        monkeypatch.setattr(
            "dancegraph.cli.client_connect", lambda *a, **k: pytest.fail("joined the relay")
        )
        assert cli_main([
            "replay", "--file", str(take), "--server", "127.0.0.1:9", "--bounds", str(bounds),
        ]) == 2
        assert "joint count" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["record", "replay"])
    @pytest.mark.parametrize("doc", MALFORMED_TABLES, ids=MALFORMED_TABLE_IDS)
    def test_malformed_bounds_exits_before_opening(
        self, tmp_path, monkeypatch, capsys, command, doc
    ):
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps(doc))
        for opener in ("client_connect", "load_recording"):
            monkeypatch.setattr(
                f"dancegraph.cli.{opener}", lambda *a, _o=opener, **k: pytest.fail(f"called {_o}")
            )
        take, source = tmp_path / "take.dgrc", tmp_path / "source.dgrc"
        save_recording(synthesize_sway_recording(duration_s=1.0), source)
        target = ["--out", str(take)] if command == "record" else ["--file", str(source)]
        with pytest.raises(SystemExit) as exc:
            cli_main([command, *target, "--server", "127.0.0.1:9", "--bounds", str(bounds)])
        assert exc.value.code == 2
        assert "argument --bounds" in capsys.readouterr().err.splitlines()[-1]
        assert not take.exists()

    @pytest.mark.parametrize("command", ["correct", "replay", "bounds"])
    @pytest.mark.parametrize("fault", TAKE_FAULTS)
    def test_bad_take_exits_with_one_line_before_opening(
        self, tmp_path, monkeypatch, capsys, command, fault
    ):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        corpus.mkdir()
        save_recording(synthesize_sway_recording(duration_s=0.5), corpus / "a.dgrc")
        take = corpus / "b.dgrc"  # sorts after the good take
        damaged_take(take, fault)
        monkeypatch.setattr(
            "dancegraph.cli.client_connect", lambda *a, **k: pytest.fail("joined the relay")
        )
        argv, named_by = {
            "correct": (["--in", str(take), "--out", str(out)], "argument --in: "),
            "replay": (["--file", str(take), "--server", "127.0.0.1:9"], "argument --file: "),
            "bounds": (["--corpus", str(corpus), "--out", str(out)], f"{take}: "),
        }[command]
        try:
            code = cli_main([command, *argv])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        # argparse prints its usage first; bounds prints the one line alone.
        assert [line for line in err if ": error: " in line] == err[-1:]
        assert named_by in err[-1]
        assert command != "bounds" or len(err) == 1
        assert not out.exists()

    def test_bounds_accepts_non_canonical_file(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rec = synthesize_sway_recording(duration_s=1.0)
        with RecordingWriter(corpus / "flipped.dgrc", rec.joint_count, rec.nominal_fps) as writer:
            for f in rec.frames:
                flipped = PoseFrame(f.timestamp_us, f.root_translation, -f.rotation_array())
                writer.write_frame(flipped)
        bounds = tmp_path / "bounds.json"
        assert cli_main(["bounds", "--corpus", str(corpus), "--out", str(bounds)]) == 0
        assert len(json.loads(bounds.read_text())["joints"]) == 34

    def test_bounds_skips_header_only_first_file(self, tmp_path):
        # "a.dgrc" sorts first and holds a header but no frames; the joint
        # count comes from the header, not from a first frame.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rec = synthesize_sway_recording(duration_s=1.0)
        with RecordingWriter(corpus / "a.dgrc", rec.joint_count, rec.nominal_fps):
            pass
        save_recording(rec, corpus / "b.dgrc")
        bounds = tmp_path / "bounds.json"
        assert cli_main(["bounds", "--corpus", str(corpus), "--out", str(bounds)]) == 0
        assert len(json.loads(bounds.read_text())["joints"]) == 34

    def test_bench_cli_writes_json(self, tmp_path):
        out = tmp_path / "bench.json"
        assert cli_main([
            "bench", "--scenario", "local_direct", "--duration", "1", "--json", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["scenario"] == "local_direct"
        assert "produce_to_consume" in doc["stages"]

    @pytest.mark.parametrize("scenario", ["loopback_relay", "swarm"])
    def test_relay_bench_cli_writes_json(self, tmp_path, scenario):
        out = tmp_path / "bench.json"
        assert cli_main([
            "bench", "--scenario", scenario, "--clients", "4", "--duration", "2",
            "--json", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        extras = doc["extras"]
        clients = extras["clients"]
        assert doc["scenario"] == scenario
        assert clients == (2 if scenario == "loopback_relay" else 4)
        assert set(doc["stages"]) == {
            "produce_to_consume", "enqueue_to_client_in", "client_in_to_consume"
        }
        assert extras["non_monotonic_probes"] == 0
        assert extras["delivery_ratio"] >= 0.99
        assert len(doc["flows"]) == clients
        for flow in doc["flows"]:
            assert flow["received"] + flow["dropped"] == flow["sent"] * (clients - 1)

    @pytest.mark.parametrize("option", [
        ["--max-clients", "70000"], ["--max-clients", "1"], ["--max-clients", "some"],
        ["--bind", "127.0.0.1:70000"], ["--bind", "127.0.0.1:-1"],
        ["--timeout-ms", "0"], ["--timeout-ms", "-1"], ["--timeout-ms", "soon"],
    ], ids="=".join)
    def test_bad_server_option_exits_before_binding(self, monkeypatch, option):
        monkeypatch.setattr(
            "dancegraph.cli.RelayServer", lambda *a, **k: pytest.fail("opened a socket")
        )
        with pytest.raises(SystemExit) as exc:
            cli_main(["server", *option])
        assert exc.value.code == 2

    def test_server_option_bounds_are_inclusive(self):
        args = build_parser().parse_args(
            ["server", "--bind", "127.0.0.1:65535", "--max-clients", "65534", "--timeout-ms", "1"]
        )
        assert args.bind == ("127.0.0.1", 65535)
        assert args.max_clients == 0xFFFE and args.timeout_ms == 1
        args = build_parser().parse_args(["server", "--bind", "127.0.0.1:0", "--max-clients", "2"])
        assert args.bind == ("127.0.0.1", 0) and args.max_clients == 2

    @pytest.mark.parametrize("argv, opener", [
        (["bench", "--scenario", "loopback_relay", "--fps", "0"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--fps", "nan"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--capacity", "100"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--capacity", "1"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--capacity", "8192"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--clients", "-3"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--clients", "1"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--clients", "70000"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--clients", "65533"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--duration", "-1"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--duration", "nan"], "run_latency_experiment"),
        (["bench", "--scenario", "swarm", "--duration", "inf"], "run_latency_experiment"),
        (["correct", "--in", "take.dgrc", "--out", "o.dgrc", "--bpm", "0"], "load_recording"),
        (["correct", "--in", "take.dgrc", "--out", "o.dgrc", "--bpm", "nan"], "load_recording"),
        (["correct", "--in", "take.dgrc", "--out", "o.dgrc", "--bpm", "301"], "load_recording"),
        (["correct", "--in", "take.dgrc", "--out", "o.dgrc", "--phase-ms", "nan"], "load_recording"),
        (["correct", "--in", "take.dgrc", "--out", "o.dgrc", "--phase-ms", "inf"], "load_recording"),
        (["correct", "--in", "take.dgrc", "--out", "o.dgrc", "--phase-ms", "1e306"], "load_recording"),
        (["synth", "--out", "o.dgrc", "--fps", "0"], "save_recording"),
        (["synth", "--out", "o.dgrc", "--fps", "inf"], "save_recording"),
        (["synth", "--out", "o.dgrc", "--seconds", "-1"], "save_recording"),
        (["synth", "--out", "o.dgrc", "--hz", "nan"], "save_recording"),
        (["synth", "--out", "o.dgrc", "--amplitude", "inf"], "save_recording"),
        (["synth", "--out", "o.dgrc", "--amplitude", "-inf"], "save_recording"),
        (["synth", "--out", "o.dgrc", "--phase", "nan"], "save_recording"),
        (["bounds", "--corpus", ".", "--out", "b.json", "--bits", "0"], "load_recording"),
        (["bounds", "--corpus", ".", "--out", "b.json", "--bits", "40"], "load_recording"),
        (["bounds", "--corpus", ".", "--out", "b.json", "--margin", "0.9"], "load_recording"),
        (["bounds", "--corpus", ".", "--out", "b.json", "--margin", "-0.1"], "load_recording"),
        (["bounds", "--corpus", ".", "--out", "b.json", "--margin", "nan"], "load_recording"),
        (["replay", "--file", "take.dgrc", "--server", "127.0.0.1:9", "--fps", "0"],
         "load_recording"),
        (["record", "--out", "o.dgrc", "--server", "127.0.0.1:9", "--bounds", "b.json",
          "--fps", "-30"], "client_connect"),
        (["record", "--out", "o.dgrc", "--server", "127.0.0.1:9", "--bounds", "b.json",
          "--duration", "nan"], "client_connect"),
        (["record", "--out", "o.dgrc", "--server", "127.0.0.1:9", "--bounds", "b.json",
          "--duration", "-1"], "client_connect"),
    ], ids=lambda v: "=".join(v[-2:]) if isinstance(v, list) else v)
    def test_bad_numeric_option_exits_before_opening(
        self, tmp_path, monkeypatch, capsys, argv, opener
    ):
        monkeypatch.chdir(tmp_path)
        # A valid table and take, so that a refusal comes from the option under test.
        take = synthesize_sway_recording(duration_s=1.0)
        analyze_bounds([take.frames]).to_json("b.json")
        save_recording(take, "take.dgrc")
        monkeypatch.setattr(
            f"dancegraph.cli.{opener}", lambda *a, **k: pytest.fail(f"called {opener}")
        )
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err.splitlines()[-1]

    def test_numeric_option_bounds_are_inclusive(self, tmp_path):
        parse = build_parser().parse_args
        # --bounds loads the table while parsing, and --in the take.
        bounds, take = str(tmp_path / "b.json"), str(tmp_path / "take.dgrc")
        analyze_bounds([synthesize_sway_recording(duration_s=1.0).frames]).to_json(bounds)
        save_recording(synthesize_sway_recording(duration_s=1.0), take)
        for capacity in ("2", "4096"):
            args = parse(["bench", "--scenario", "swarm", "--capacity", capacity, "--fps", "0.5"])
            assert args.capacity == int(capacity) and args.fps == 0.5
        args = parse(["bench", "--scenario", "swarm", "--clients", "2", "--duration", "0"])
        assert args.clients == 2 and args.duration == 0.0
        assert parse(["bench", "--scenario", "swarm", "--clients", "65532"]).clients == 65532
        for margin in ("0", "0.5"):
            args = parse(["bounds", "--corpus", "c", "--out", "b", "--margin", margin])
            assert args.margin == float(margin)
        args = parse(["record", "--out", "o", "--server", "h:1", "--bounds", bounds, "--duration", "0"])
        assert args.duration == 0.0
        for bpm in ("30", "300"):
            assert parse(["correct", "--in", take, "--out", "b", "--bpm", bpm]).bpm == float(bpm)
        for bits in ("8", "24"):
            assert parse(["bounds", "--corpus", "c", "--out", "b", "--bits", bits]).bits == int(bits)
        assert parse(["synth", "--out", "o", "--seconds", "0"]).seconds == 0.0
        args = parse(["synth", "--out", "o", "--hz", "-2.5", "--amplitude", "0", "--phase=-1e300"])
        assert (args.hz, args.amplitude, args.phase) == (-2.5, 0.0, -1e300)
        assert parse(["correct", "--in", take, "--out", "b", "--phase-ms=-1e300"]).phase_ms == -1e300

    def test_replay_and_record_cli(self, tmp_path):
        server = RelayServer(
            ServerConfig(host="127.0.0.1", client_timeout_us=60_000_000)
        ).start()
        try:
            sway = tmp_path / "sway.dgrc"
            cli_main(["synth", "--out", str(sway), "--seconds", "1"])
            bounds = tmp_path / "bounds.json"
            corpus = tmp_path / "corpus"
            corpus.mkdir()
            (corpus / "s.dgrc").write_bytes(sway.read_bytes())
            cli_main(["bounds", "--corpus", str(corpus), "--out", str(bounds)])

            out = tmp_path / "recorded.dgrc"
            addr = f"127.0.0.1:{server.port}"
            recorder = threading.Thread(
                target=cli_main,
                args=([
                    "record", "--out", str(out), "--server", addr,
                    "--bounds", str(bounds), "--duration", "2.5",
                ],),
                daemon=True,
            )
            recorder.start()
            time.sleep(0.3)
            assert cli_main([
                "replay", "--file", str(sway), "--server", addr, "--bounds", str(bounds),
            ]) == 0
            recorder.join(timeout=10)
            recorded = load_recording(out)
            assert len(recorded.frames) == 30
        finally:
            server.stop()
