import gc
import random
import threading
import time
import tracemalloc

import pytest

from dancegraph.packet import SignalPacket, SignalType
from dancegraph.router import (
    Mode,
    Origin,
    SequenceError,
    SignalDescriptor,
    SignalRouter,
    SignalSelector,
    StreamConflictError,
)

POSE = SignalType.POSE
LOCAL = Origin.LOCAL
NETWORK = Origin.NETWORK


def pkt(seq, user=1, payload=None):
    return SignalPacket(POSE, user, seq, seq * 1000, payload or seq.to_bytes(4, "little"))


@pytest.fixture
def router():
    return SignalRouter()


def lap_on_first_read(handle, seqs):
    """Make the stream's first slot read publish `seqs` before it reads: a
    producer that laps the ring between a poll's read of the publish count
    and its slot read."""
    class LappingSlots(list):
        lapped = False

        def __getitem__(self, index):
            if not self.lapped:
                self.lapped = True
                for s in seqs:
                    handle.publish(pkt(s))
            return super().__getitem__(index)

    handle.slots = LappingSlots(handle.slots)


def drain(consumer, max_packets=64):
    seqs, lost = [], 0
    while True:
        polled = consumer.poll(max_packets=max_packets)
        lost += polled.lost
        if not polled.packets:
            return seqs, lost
        seqs.extend(p.seq for p in polled.packets)


class TestRegistration:
    def test_duplicate_producer_conflicts(self, router):
        desc = SignalDescriptor(POSE, 1, LOCAL)
        router.register_producer(desc, 64)
        with pytest.raises(StreamConflictError):
            router.register_producer(desc, 64)

    @pytest.mark.parametrize("capacity", [0, 1, 3, 100, 8192])
    def test_capacity_must_be_power_of_two_in_range(self, router, capacity):
        with pytest.raises(ValueError):
            router.register_producer(SignalDescriptor(POSE, 1, LOCAL), capacity)

    def test_close_releases_descriptor(self, router):
        desc = SignalDescriptor(POSE, 1, LOCAL)
        handle = router.register_producer(desc, 64)
        handle.close()
        assert desc not in router.streams()
        with pytest.raises(StreamConflictError):
            handle.publish(pkt(1))
        # fresh registration starts a fresh ring and sequence space
        fresh = router.register_producer(desc, 64)
        assert fresh.publish(pkt(1)) == 0


class TestPublish:
    def test_zero_consumers_still_buffers(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        assert handle.publish(pkt(1)) == 0
        # a later subscriber only sees packets published after subscription
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        assert consumer.poll().packets == []
        handle.publish(pkt(2))
        seqs, _ = drain(consumer)
        assert seqs == [2]

    def test_non_monotonic_sequence_rejected_and_counted(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        handle.publish(pkt(5))
        with pytest.raises(SequenceError):
            handle.publish(pkt(5))
        with pytest.raises(SequenceError):
            handle.publish(pkt(4))
        assert handle.ordering_errors == 2
        assert handle.pub_count == 1

    def test_ring_overwrite_reports_gap(self, router):
        # Oracle: plain ring arithmetic; 100 into capacity 64 keeps the
        # newest 64 and drops the oldest 36.
        capacity, total = 64, 100
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), capacity)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        for s in range(1, total + 1):
            handle.publish(pkt(s))
        expected = list(range(total - capacity + 1, total + 1))
        seqs, lost = drain(consumer, max_packets=10)
        assert seqs == expected
        assert lost == total - capacity

    def test_sequence_wraps_at_u32(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        wrapped = [2**32 - 2, 2**32 - 1, 0, 1]
        for s in wrapped:
            handle.publish(pkt(s))
        seqs, lost = drain(consumer)
        assert seqs == wrapped and lost == 0
        with pytest.raises(SequenceError):
            handle.publish(pkt(2**32 - 1))  # before 1 in serial order
        assert handle.ordering_errors == 1

    def test_first_publish_may_use_any_sequence(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        handle.publish(pkt(2**31 + 5))
        assert handle.pub_count == 1

    def test_publish_returns_consumer_count(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        router.subscribe(SignalSelector(POSE, 1, LOCAL))
        router.subscribe(SignalSelector(POSE, None, None))
        assert handle.publish(pkt(1)) == 2


class TestPoll:
    def test_idle_poll_is_empty(self, router):
        router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        assert consumer.poll() == ([], 0)

    def test_max_packets_batches(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        for s in (1, 2, 3):
            handle.publish(pkt(s))
        first = consumer.poll(max_packets=2)
        assert [p.seq for p in first.packets] == [1, 2]
        second = consumer.poll(max_packets=2)
        assert [p.seq for p in second.packets] == [3]

    def test_overwrite_during_poll_recounts_lost(self, router):
        # A producer that laps the ring between the poll's read of the
        # publish count and its first slot read: the slot the poll wants is
        # already gone, so it recounts from the writer's trailing edge.
        capacity = 4
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), capacity)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        for s in range(1, capacity + 1):
            handle.publish(pkt(s))
        lap_on_first_read(handle, range(capacity + 1, 2 * capacity + 1))
        polled = consumer.poll()
        assert [p.seq for p in polled.packets] == list(range(capacity + 1, 2 * capacity + 1))
        assert polled.lost == capacity
        assert consumer.poll() == ([], 0)
        handle.publish(pkt(2 * capacity + 1))
        assert [p.seq for p in consumer.poll().packets] == [2 * capacity + 1]
        assert consumer.lost_total == capacity

    def test_budget_left_after_an_overwrite_recount_is_used(self, router):
        # The lap of the test above under a budget of 3: the poll that
        # counts the 4 lost entries also returns the next 3 survivors.
        capacity = 4
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), capacity)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        for s in range(1, capacity + 1):
            handle.publish(pkt(s))
        lap_on_first_read(handle, range(capacity + 1, 2 * capacity + 1))
        polled = consumer.poll(3)
        assert [p.seq for p in polled.packets] == [5, 6, 7]
        assert polled.lost == capacity
        assert [p.seq for p in consumer.poll(3).packets] == [8]
        assert consumer.lost_total == capacity

    def test_fanout_consumers_see_identical_sequences(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 128)
        a = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        b = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        for s in range(1, 101):
            handle.publish(pkt(s))
        sa, _ = drain(a)
        sb, _ = drain(b)
        assert sa == sb == list(range(1, 101))

    def test_no_loss_under_capacity_bulk(self, router):
        # Oracle: per-consumer checksum over sequence numbers.
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 1024)
        consumers = [router.subscribe(SignalSelector(POSE, 1, LOCAL)) for _ in range(3)]
        got = [[] for _ in consumers]
        seq = 0
        for _ in range(10):
            for _ in range(1000):
                seq += 1
                handle.publish(pkt(seq))
            for i, consumer in enumerate(consumers):
                seqs, lost = drain(consumer, max_packets=256)
                assert lost == 0
                got[i].extend(seqs)
        expected_sum = sum(range(1, 10_001))
        for seqs in got:
            assert len(seqs) == 10_000
            assert sum(seqs) == expected_sum
            assert seqs == sorted(seqs)

    def test_payload_bytes_round_trip(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        payload = bytes(range(256)) * 4
        handle.publish(pkt(1, payload=payload))
        polled = consumer.poll()
        assert polled.packets[0].payload == payload
        assert polled.packets[0].origin is LOCAL
        assert polled.packets[0].user_id == 1

    def test_mutated_publisher_buffer_polls_original_bytes(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        buf = bytearray(b"pose-one")
        handle.publish(pkt(1, payload=buf))
        buf[:] = b"pose-two"
        (polled,) = consumer.poll().packets
        assert polled.payload == b"pose-one"
        assert type(polled.payload) is bytes

    def test_stream_descriptor_stamped_and_shared(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 4, NETWORK), 64)
        a = router.subscribe(SignalSelector(POSE, 4, NETWORK))
        b = router.subscribe(SignalSelector(POSE, None, None))
        handle.publish(SignalPacket(POSE, 9, 1, 1000, b"abc", origin=None))
        (pa,) = a.poll().packets
        (pb,) = b.poll().packets
        assert (pa.signal_type, pa.user_id, pa.origin) == (POSE, 4, NETWORK)
        assert pa == pb


class TestLatestWins:
    def test_burst_returns_only_newest(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL), Mode.LATEST_WINS)
        for s in range(1, 11):
            handle.publish(pkt(s))
        polled = consumer.poll()
        assert [p.seq for p in polled.packets] == [10]
        assert polled.lost == 9
        assert consumer.poll() == ([], 0)

    def test_never_regresses(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL), Mode.LATEST_WINS)
        rng = random.Random(42)
        seq = 0
        seen = []
        for _ in range(300):
            for _ in range(rng.randrange(0, 5)):
                seq += 1
                handle.publish(pkt(seq))
            for p in consumer.poll().packets:
                seen.append(p.seq)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_lap_during_poll_returns_newest_and_counts_each_skip_once(self, router):
        # The writer laps the ring between the poll's read of the publish
        # count and its slot read: the slot then holds a newer entry, which
        # is the one to return. Entries 1-7 are each skipped exactly once
        # over this poll and the next.
        capacity = 4
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), capacity)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL), Mode.LATEST_WINS)
        for s in range(1, capacity + 1):
            handle.publish(pkt(s))
        lap_on_first_read(handle, range(capacity + 1, 2 * capacity + 1))
        first = consumer.poll()
        assert [p.seq for p in first.packets] == [2 * capacity]
        second = consumer.poll()
        assert second == ([], 0)
        assert first.lost + second.lost == consumer.lost_total == 2 * capacity - 1
        handle.publish(pkt(2 * capacity + 1))
        newest = consumer.poll()
        assert ([p.seq for p in newest.packets], newest.lost) == ([2 * capacity + 1], 0)

    def test_budget_bounds_the_streams_served(self, router):
        handles = [router.register_producer(SignalDescriptor(POSE, u, NETWORK), 8)
                   for u in (1, 2, 3)]
        consumer = router.subscribe(SignalSelector(POSE, None, NETWORK), Mode.LATEST_WINS)
        for h in handles:
            h.publish(pkt(1, user=0))
        assert [p.user_id for p in consumer.poll(2).packets] == [1, 2]
        assert [p.user_id for p in consumer.poll(2).packets] == [3]


class TestSelectors:
    def test_wildcard_auto_attaches_new_streams(self, router):
        consumer = router.subscribe(SignalSelector(POSE, None, NETWORK))
        for uid in (5, 6, 7, 8, 9):
            router.register_producer(SignalDescriptor(POSE, uid, NETWORK), 16)
        router.register_producer(SignalDescriptor(POSE, 77, LOCAL), 16)
        router.register_producer(SignalDescriptor(SignalType.TELEMETRY, 5, NETWORK), 16)
        attached = {(d.signal_type, d.user_id, d.origin) for d in consumer.attached}
        assert attached == {(POSE, uid, NETWORK) for uid in (5, 6, 7, 8, 9)}

    def test_wildcard_origin(self, router):
        consumer = router.subscribe(SignalSelector(POSE, 3, None))
        router.register_producer(SignalDescriptor(POSE, 3, LOCAL), 16)
        router.register_producer(SignalDescriptor(POSE, 3, NETWORK), 16)
        router.register_producer(SignalDescriptor(POSE, 4, NETWORK), 16)
        assert len(consumer.attached) == 2

    def test_unsubscribe_detaches(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        consumer = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        router.unsubscribe(consumer)
        handle.publish(pkt(1))
        assert handle.publish(pkt(2)) == 0
        assert consumer.attached == []

    def test_closed_stream_detaches_from_consumers(self, router):
        # A wildcard consumer of a flow that closes and re-registers 1,000
        # times (a peer that leaves and rejoins) walks one cursor, not 1,000.
        desc = SignalDescriptor(POSE, 1, NETWORK)
        consumer = router.subscribe(SignalSelector(POSE, None, NETWORK))
        for _ in range(1000):
            router.register_producer(desc, 4).close()
        handle = router.register_producer(desc, 4)
        assert [c.stream.descriptor for c in consumer._cursors] == [desc]
        assert consumer.attached == [desc]
        assert handle.publish(pkt(1)) == 1
        assert [p.seq for p in consumer.poll().packets] == [1]

    def test_close_and_unsubscribe_twice_keep_streams_and_counts(self, router):
        desc = SignalDescriptor(POSE, 1, LOCAL)
        old = router.register_producer(desc, 4)
        wide = router.subscribe(SignalSelector(POSE, None, LOCAL))
        narrow = router.subscribe(SignalSelector(POSE, 1, LOCAL))
        old.close()
        fresh = router.register_producer(desc, 4)
        old.close()  # must not unregister the fresh stream
        router.unsubscribe(wide)
        router.unsubscribe(wide)
        assert router.streams() == [desc]
        assert fresh.publish(pkt(1)) == 1
        assert [p.seq for p in narrow.poll().packets] == [1]


class TestZeroAllocationPublish:
    def test_no_retained_allocation_per_publish(self, router):
        # The ring is preallocated at registration: steady-state publishing
        # must not retain memory proportional to traffic. Python-level
        # transients (small ints) are freed immediately and excluded by
        # comparing gc-settled snapshots.
        payload = bytes(1024)
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        seq = 0
        for _ in range(100):  # warm-up
            seq += 1
            handle.publish(pkt(seq, payload=payload))
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(2000):
            seq += 1
            handle.publish(pkt(seq, payload=payload))
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        growth = sum(s.size_diff for s in after.compare_to(before, "filename"))
        # 2000 x 1KB payloads would be ~2MB if publish copied into new
        # buffers; allow generous slack for interpreter noise.
        assert growth < 64 * 1024

    def test_fresh_payloads_retain_only_the_ring(self, router):
        # Each publish brings a new 1 KB payload; only the newest `capacity`
        # stay referenced, so memory is bounded by the ring, not by traffic
        # (10,000 retained payloads would be ~10 MB).
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 64)
        seq = 0
        for _ in range(100):  # warm-up fills the ring
            seq += 1
            handle.publish(pkt(seq, payload=bytes(1024)))
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(10_000):
            seq += 1
            handle.publish(pkt(seq, payload=bytes(1024)))
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        growth = sum(s.size_diff for s in after.compare_to(before, "filename"))
        assert growth < 256 * 1024

    def test_slot_buffers_are_stable_objects(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 4)
        slots = handle.slots
        for s in range(1, 50):
            handle.publish(pkt(s, payload=b"x" * 100))
        assert handle.slots is slots
        assert len(slots) == 4


class TestConcurrency:
    def test_single_producer_concurrent_consumers(self, router):
        handle = router.register_producer(SignalDescriptor(POSE, 1, LOCAL), 1024)
        consumers = [router.subscribe(SignalSelector(POSE, 1, LOCAL)) for _ in range(2)]
        total = 20_000
        results = [[] for _ in consumers]
        stop = threading.Event()

        def consume(idx):
            while not stop.is_set() or True:
                polled = consumers[idx].poll(max_packets=256)
                results[idx].extend(p.seq for p in polled.packets)
                if stop.is_set() and not polled.packets:
                    break
                if not polled.packets:
                    time.sleep(0.0005)

        threads = [threading.Thread(target=consume, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        # Flow control: never run more than half a ring ahead of the slowest
        # consumer, so a stalled consumer thread cannot be lapped.
        deadline = time.monotonic() + 60
        for s in range(1, total + 1):
            while s - min(len(r) for r in results) > 1024 // 2:
                assert time.monotonic() < deadline, "consumers stopped polling"
                time.sleep(0.0005)
            handle.publish(pkt(s))
        stop.set()
        for t in threads:
            t.join(timeout=10)
        for seqs in results:
            assert seqs == list(range(1, total + 1))
