"""In-process signal manager connecting producers to consumers.

One exclusive publisher per stream, any number of polling consumers. A
stream is one object, the `ProducerHandle` that `register_producer`
returns, and every consumer's cursor points at it. Its ring of `capacity`
slots holds the published packets themselves: publish and poll copy
nothing, because payloads are immutable bytes. A slot is replaced in one
assignment, so a reader sees either the old entry or the new one, and the
publish count stored next to the packet tells it which. Overwrite drops
the oldest entries (a stale pose is worth less than a fresh one), and
Every-mode polls report how many entries were lost that way.

Registration, close and subscription take a coarse lock; publish and poll
run lock-free against the published counter. A closed stream leaves every
consumer's cursor list at once, so a poll only walks live streams.
"""
from __future__ import annotations

import threading
from enum import Enum
from typing import NamedTuple

from .packet import MAX_PAYLOAD, SignalPacket, SignalType, seq_newer

__all__ = [
    "Origin",
    "SignalType",
    "SignalDescriptor",
    "SignalSelector",
    "Mode",
    "StreamConflictError",
    "SequenceError",
    "SignalRouter",
    "ProducerHandle",
    "ConsumerHandle",
    "Polled",
]

_MIN_CAPACITY = 2
_MAX_CAPACITY = 4096


def _check_capacity(capacity: int) -> None:
    if capacity < _MIN_CAPACITY or capacity > _MAX_CAPACITY or capacity & (capacity - 1):
        raise ValueError(
            f"capacity must be a power of two in [{_MIN_CAPACITY}, {_MAX_CAPACITY}], "
            f"got {capacity}"
        )


class Origin(Enum):
    LOCAL = "local"
    NETWORK = "network"


class Mode(Enum):
    EVERY = "every"
    LATEST_WINS = "latest_wins"


class SignalDescriptor(NamedTuple):
    signal_type: SignalType
    user_id: int
    origin: Origin


class SignalSelector(NamedTuple):
    """Stream pattern: signal type is concrete, user and origin may be None
    to match any."""

    signal_type: SignalType
    user_id: int | None = None
    origin: Origin | None = None

    def matches(self, desc: SignalDescriptor) -> bool:
        if desc.signal_type is not self.signal_type:
            return False
        if self.user_id is not None and desc.user_id != self.user_id:
            return False
        if self.origin is not None and desc.origin is not self.origin:
            return False
        return True


class StreamConflictError(RuntimeError):
    """A producer is already registered for this descriptor."""


class SequenceError(RuntimeError):
    """Publish with a sequence number not after the previous one (u32 serial
    order, see `packet.seq_newer`)."""


class Polled(NamedTuple):
    packets: list[SignalPacket]
    lost: int


class _Cursor:
    __slots__ = ("stream", "next_count")

    def __init__(self, stream: ProducerHandle, next_count: int):
        self.stream = stream
        self.next_count = next_count


class ProducerHandle:
    """One descriptor's stream: its packet ring and the exclusive right to
    publish into it (only `SignalRouter.register_producer` makes one).

    `slots[count & mask]` holds `(count, packet)` for the newest publish
    that landed there; the ring keeps the last `mask + 1` packets alive and
    nothing more.
    """

    __slots__ = (
        "_router", "descriptor", "mask", "slots", "pub_count", "last_seq", "consumers",
        "ordering_errors", "closed",
    )

    def __init__(self, router: SignalRouter, desc: SignalDescriptor, capacity: int):
        self._router = router
        self.descriptor = desc
        self.mask = capacity - 1
        self.slots: list[tuple[int, SignalPacket | None]] = [(-1, None)] * capacity
        self.pub_count = 0
        self.last_seq: int | None = None  # the newest publish's; None before the first
        self.consumers = 0  # cursors attached; the cursors live in their handles
        self.ordering_errors = 0  # publishes refused with SequenceError
        self.closed = False

    def publish(self, packet: SignalPacket) -> int:
        """Store the packet in the ring; returns the consumer count.

        The router stamps the stream's signal type, user id and origin onto
        the packet, and a payload that is not `bytes` is copied to `bytes`.
        """
        desc = self.descriptor
        if self.closed:
            raise StreamConflictError(f"stream {desc} is closed")
        if not seq_newer(packet.seq, self.last_seq):
            self.ordering_errors += 1
            raise SequenceError(f"sequence {packet.seq} not after {self.last_seq} on {desc}")
        payload = packet.payload
        if not isinstance(payload, bytes):
            payload = bytes(payload)  # a reused publisher buffer must not leak in
        if len(payload) > MAX_PAYLOAD:
            raise ValueError(f"payload {len(payload)} exceeds {MAX_PAYLOAD} bytes")
        packet.payload = payload
        packet.signal_type = desc.signal_type
        packet.user_id = desc.user_id
        packet.origin = desc.origin
        count = self.pub_count
        self.slots[count & self.mask] = (count, packet)
        self.pub_count = count + 1  # release: consumers read this last value
        self.last_seq = packet.seq
        return self.consumers

    def _write_network(self, seq: int, send_ts: int, payload, now: int) -> int:
        """publish for a received datagram (`Client.ingest`), without a
        packet to check and restamp: the packet is built here with the
        stream's stamps and a `bytes` payload (copied only when it is not
        `bytes`), and stored as publish stores it. The caller guarantees
        the rest of publish's checks: the payload is within MAX_PAYLOAD (the
        header parse bounds it), and `seq` is after `last_seq` (ingest drops
        and counts a stale datagram instead of raising)."""
        if self.closed:
            raise StreamConflictError(f"stream {self.descriptor} is closed")
        signal_type, user_id, origin = self.descriptor
        count = self.pub_count
        self.slots[count & self.mask] = (count, SignalPacket(
            signal_type, user_id, seq, send_ts, bytes(payload), now, origin
        ))
        self.pub_count = count + 1  # release, as in publish
        self.last_seq = seq
        return self.consumers

    def close(self) -> None:
        """Unregister the stream and detach it from its consumers; a later
        re-register starts a fresh ring."""
        self._router._unregister(self)


class ConsumerHandle:
    """Cursors over every stream matching a selector, including streams
    registered after the subscription was made."""

    def __init__(self, router: "SignalRouter", selector: SignalSelector, mode: Mode):
        self._router = router
        self.selector = selector
        self.mode = mode
        self._cursors: list[_Cursor] = []
        self.lost_total = 0

    @property
    def attached(self) -> list[SignalDescriptor]:
        return [c.stream.descriptor for c in self._cursors]

    def _attach(self, stream: ProducerHandle) -> None:
        # copy-on-write so in-flight polls see a consistent list
        self._cursors = self._cursors + [_Cursor(stream, stream.pub_count)]
        stream.consumers += 1

    def poll(self, max_packets: int = 64) -> Polled:
        """Drain pending packets.

        Every mode returns up to `max_packets` in publish order per stream
        plus the count of packets lost to ring overwrite. Latest-wins
        returns at most the newest packet per attached stream; the entries
        it skipped are reported in the same counter.

        Polled packets are the objects the producer published, shared with
        every other consumer of the stream: treat them as read-only.
        """
        if max_packets < 1:
            raise ValueError("max_packets must be >= 1")
        packets: list[SignalPacket] = []
        lost = 0
        latest = self.mode is Mode.LATEST_WINS
        for cursor in self._cursors:
            if len(packets) >= max_packets:
                break
            stream = cursor.stream
            count = cursor.next_count
            if latest:
                end = stream.pub_count
                if end > count:
                    # The newest slot holds entry end - 1 or, if the writer
                    # lapped it since, a newer one: the newest either way.
                    tag, packet = stream.slots[(end - 1) & stream.mask]
                    packets.append(packet)
                    lost += tag - count
                    cursor.next_count = tag + 1
                continue
            while count < stream.pub_count and len(packets) < max_packets:
                tag, packet = stream.slots[count & stream.mask]
                if tag != count:
                    # overwritten: everything before the writer's trailing
                    # edge is gone
                    edge = max(count + 1, stream.pub_count - stream.mask - 1)
                    lost += edge - count
                    count = edge
                    continue
                packets.append(packet)
                count += 1
            cursor.next_count = count
        self.lost_total += lost
        return Polled(packets, lost)


class SignalRouter:
    """Routing table tying producer streams to subscribed consumers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._streams: dict[SignalDescriptor, ProducerHandle] = {}
        self._consumers: list[ConsumerHandle] = []

    def register_producer(self, desc: SignalDescriptor, capacity: int = 64) -> ProducerHandle:
        """Create a stream and grant exclusive publish rights to the caller.

        Capacity must be a power of two in [2, 4096]; the slot list is
        preallocated here, so publishing only replaces one slot.
        """
        _check_capacity(capacity)
        with self._lock:
            if desc in self._streams:
                raise StreamConflictError(f"producer already registered for {desc}")
            stream = ProducerHandle(self, desc, capacity)
            self._streams[desc] = stream
            for consumer in self._consumers:
                if consumer.selector.matches(desc):
                    consumer._attach(stream)
            return stream

    def subscribe(self, selector: SignalSelector, mode: Mode = Mode.EVERY) -> ConsumerHandle:
        """Attach to every current and future stream matching the selector.

        The consumer sees packets published after this call.
        """
        with self._lock:
            handle = ConsumerHandle(self, selector, mode)
            for desc, stream in self._streams.items():
                if selector.matches(desc):
                    handle._attach(stream)
            self._consumers.append(handle)
            return handle

    def unsubscribe(self, handle: ConsumerHandle) -> None:
        with self._lock:
            if handle in self._consumers:
                self._consumers.remove(handle)
            for cursor in handle._cursors:
                cursor.stream.consumers -= 1
            handle._cursors = []

    def _unregister(self, stream: ProducerHandle) -> None:
        with self._lock:
            if stream.closed:
                return
            stream.closed = True
            del self._streams[stream.descriptor]
            for consumer in self._consumers:  # copy-on-write, as in _attach
                consumer._cursors = [c for c in consumer._cursors if c.stream is not stream]

    def streams(self) -> list[SignalDescriptor]:
        with self._lock:
            return list(self._streams.keys())
