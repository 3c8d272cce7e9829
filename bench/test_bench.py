"""Tests of the benchmark itself: seeded inputs, percentile and self-time
arithmetic, and that broken outputs are counted as failures.

    python3 -m pytest bench/test_bench.py -q
"""
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import MARGIN_NS, REFERENCE_NS, speed_factors  # noqa: E402
from inputs import dancer_clip, session_inputs  # noqa: E402
from tracing import Tracer, self_times, supported_percentile, tail  # noqa: E402
from workloads import (  # noqa: E402
    CorrectiveCheck,
    RelayChecker,
    RelayStream,
    SessionReceive,
    check_tick,
    stale_failures,
)


def _arrays(recording):
    return np.stack([f.rotation_array() for f in recording.frames])


class TestSeededInputs:
    def test_same_seed_same_clip(self):
        a, b, c = dancer_clip(7, 2.0), dancer_clip(7, 2.0), dancer_clip(8, 2.0)
        assert np.array_equal(_arrays(a), _arrays(b))
        assert [f.root_translation for f in a.frames] == [f.root_translation for f in b.frames]
        assert not np.array_equal(_arrays(a), _arrays(c))

    def test_same_seed_same_datagrams(self):
        a = session_inputs(3, peers=4, seconds=2.0)
        b = session_inputs(3, peers=4, seconds=2.0)
        c = session_inputs(4, peers=4, seconds=2.0)
        assert a.ticks == b.ticks
        assert a.expected == b.expected and a.stale_at == b.stale_at
        assert a.ticks != c.ticks

    def test_each_swap_makes_one_stale_datagram(self):
        ins = session_inputs(5, peers=29, seconds=4.0)
        assert sum(ins.stale_at) > 0
        per_tick = [len(t) - len(e) for t, e in zip(ins.ticks, ins.expected)]
        assert per_tick == ins.stale_at


class TestPercentiles:
    @pytest.mark.parametrize(
        "n, expected",
        [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
         (199, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (19, None), (0, None)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert supported_percentile(n) == expected

    def test_tail_takes_lower_percentile_or_max(self):
        samples = np.arange(1, 2001, dtype=float)
        value, label, n = tail(samples, 99.0)
        assert (label, n) == ("p99", 2000)
        assert value == pytest.approx(np.percentile(samples, 99))
        value, label, _ = tail(samples[:150], 99.0)
        assert label == "p90" and value == pytest.approx(np.percentile(samples[:150], 90))
        assert tail([3.0, 9.0, 4.0], 99.0) == (9.0, "max", 3)


class TestSelfTime:
    def test_children_union_is_subtracted_and_clipped(self):
        # parent 0..100; children overlap (10..30, 20..50) and one runs past
        # the parent's end (90..120); a grandchild sits inside 20..50.
        starts = [0, 10, 20, 90, 25]
        ends = [100, 30, 50, 120, 35]
        parents = [-1, 0, 0, 0, 2]
        assert self_times(starts, ends, parents) == [100 - 40 - 10, 20, 30 - 10, 30, 10]

    def test_layer_self_times_add_up_to_the_root(self):
        tracer = Tracer()
        inner = tracer.wrap("codec.encode", lambda: sum(range(2000)))
        outer = tracer.wrap("transport.send", lambda: inner() + inner())
        root = tracer.open("harness.step")
        outer()
        tracer.close(root)
        by_layer = tracer.self_by_layer()
        assert set(by_layer) == {"harness", "transport", "codec"}
        assert sum(by_layer.values()) == tracer.ends[root] - tracer.starts[root]
        assert tracer.roots == [0, 0, 0, 0]


class TestHostSpeed:
    def test_factor_is_reference_over_nearby_calibrations(self):
        ms = 1_000_000
        calib = [(0, 2 * REFERENCE_NS), (100 * ms, REFERENCE_NS), (1000 * ms, 4 * REFERENCE_NS)]
        factors = speed_factors(
            calib,
            starts_ns=[10 * ms, 40 * ms, 400 * ms, 1000 * ms],
            ends_ns=[20 * ms, 60 * ms, 500 * ms, 1001 * ms],
        )
        # 10-20 ms sees only the first; 40-60 ms both of the first two;
        # 400-500 ms none within the margin, so the nearest (the second);
        # 1000 ms only the third.
        assert MARGIN_NS == 50 * ms
        assert factors.tolist() == pytest.approx([0.5, 1 / 1.5, 1.0, 0.25])


class TestFailuresAreCounted:
    def test_corrupt_or_unknown_payload_fails(self):
        checker = RelayChecker()
        checker.sent(1, 0, b"pose-1")
        checker.sent(2, 0, b"pose-2")
        checker.sent(3, 0, b"pose-3")
        assert checker.consumed(1, b"pose-1", 10)
        assert not checker.consumed(2, b"pose-X", 10)
        assert not checker.consumed(9, b"pose-9", 10)
        assert checker.corrupt == 2 and checker.lost == 1
        assert checker.latencies_ns == [10]

    def test_wrong_stale_count_fails(self):
        assert stale_failures(5, 5) == 0
        assert stale_failures(4, 5) == 1
        assert stale_failures(7, 5) == 2

    def test_wrong_missing_or_extra_pose_fails(self):
        ins = session_inputs(2, peers=2, seconds=1.0)
        t = next(i for i, e in enumerate(ins.expected) if len(e) == 2)
        good = [(p, i + 1, ins.refs[(p, i)]) for p, i in ins.expected[t].items()]
        assert check_tick(good, ins.expected[t], 0, ins.refs) == 0
        (p0, s0, _), (p1, s1, f1) = good
        other = ins.refs[(p0, (s0 % len(ins.ticks)))]  # another frame of peer p0
        assert check_tick([(p0, s0, other), (p1, s1, f1)], ins.expected[t], 0, ins.refs) == 1
        assert check_tick([(p1, s1, f1)], ins.expected[t], 0, ins.refs) == 1
        assert check_tick(good + [(p1, s1, f1)], ins.expected[t], 0, ins.refs) == 1

    def test_corrective_checks(self):
        assert CorrectiveCheck(True, 5.0, 1.99).ok
        assert not CorrectiveCheck(True, 5.0, 1.94).ok
        assert not CorrectiveCheck(True, 40.0, 2.0).ok
        assert not CorrectiveCheck(False, 5.0, 2.0).ok
        assert not CorrectiveCheck(True, None, 2.0).ok


class TestWorkloadsCountFailures:
    def test_session_receive_clean_then_corrupted(self, tmp_path):
        workload = SessionReceive(11, ROOT / "src", tmp_path)
        try:
            clean = workload.run(0.2)
            assert clean.failed == 0 and clean.attempted > 0
            # One flipped payload bit decodes to a frame unlike its reference.
            for tick in workload._buffers:
                tick[0][0][-1] ^= 0x01
            assert workload.run(0.2).failed > 0
        finally:
            workload.close()

    def test_session_receive_wrong_stale_count(self, tmp_path):
        workload = SessionReceive(12, ROOT / "src", tmp_path)
        try:
            workload.inputs.stale_at = [s + 1 for s in workload.inputs.stale_at]
            phase = workload.run(0.2)
            assert phase.failed >= phase.units
        finally:
            workload.close()

    def test_relay_stream_corrupted_on_the_way(self, tmp_path):
        workload = RelayStream(13, ROOT / "src", tmp_path)
        try:
            assert workload.run(0.3).failed == 0
            send = workload.sender.send
            workload.sender.send = lambda payload: send(payload[:-1] + bytes([payload[-1] ^ 1]))
            phase = workload.run(0.3)
            assert phase.failed == phase.attempted > 0
        finally:
            workload.close()
        assert workload.server_stats["relayed"] > 0


def test_fails_without_program_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "corrective",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
