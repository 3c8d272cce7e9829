"""Datagram relay transport: every client sends its stream to the server,
which immediately fans each packet out to all other registered clients.

Design notes, all serving the lag-first goal:

* Unreliable datagrams with stale-drop and no retransmission. A pose that
  had to be resent would arrive after its successor and be discarded anyway.
  Sequence numbers are u32 serial numbers (RFC 1982, `packet.seq_newer`):
  they wrap from 2**32 - 1 to 0, and a flow's first packet is always new.
* The server never parses payloads. Per packet it checks the 18-byte header
  as `parse_packet` does, checks staleness, and forwards the original
  bytes, so relay cost is O(clients) socket writes, payloads arrive
  byte-identical, and no client gets a datagram it would drop as corrupt.
* Sends go to the socket the moment they are produced, and the same payload
  is simultaneously published to the local in-process router, so local
  consumers never wait on the network (the dual path).
* A client has no thread and its socket never blocks. Its owner's loop
  calls `Client.receive()`, which drains the socket and keeps the session
  alive, or feeds datagrams to `Client.ingest()` (the join does: it reads
  with `recvfrom` for the ACK's source address).

Control protocol (signal type = CONTROL):

* JOIN: empty payload, header user id 0xFFFF (unassigned). The same
  packet carrying the assigned id is a keepalive. An unassigned JOIN from
  an address that already has a session starts a new session there: the
  relay forgets its sequence numbers and sends the others a LEAVE for it.
* JOIN-ACK: payload is the assigned u16 id, and the header user id carries
  the same value; only the joining endpoint receives it. So an ACK for an id
  other than the client's own means the relay evicted its session and
  re-admitted it under a new id, which the client adopts.
* LEAVE: payload is the departed u16 id, header user id 0 (the reserved
  server id). The header/payload id mismatch is what distinguishes a LEAVE
  from an ACK without widening the payloads. A relay that gets any other
  packet from an address it has no session for (it restarted, or evicted
  the sender) answers that address with a LEAVE naming the header's user
  id, at most once per _LEAVE_REPLY_INTERVAL_US; a client that hears its
  own id leave re-joins unassigned at once and adopts the id in the ACK.
* Only the relay sends ACKs and LEAVEs: it drops and counts
  (`dropped_control`) a client's CONTROL packet that has a payload.

Timestamps are sender-local monotonic microseconds; no cross-host clock
sync is attempted, so absolute one-way latency is only meaningful when all
parties share one host.
"""
from __future__ import annotations

import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from ._mmsg import FanoutSender
from .packet import (
    HEADER_SIZE,
    SEQ_MASK,
    CorruptPacketError,
    SignalPacket,
    SignalType,
    _parse_header,
    frame_packet,
    seq_newer,
)
from .router import Origin, SignalDescriptor, SignalRouter, StreamConflictError

__all__ = [
    "ServerConfig",
    "ServerStats",
    "RelayServer",
    "SessionState",
    "SessionStats",
    "Client",
    "client_connect",
    "ConnectTimeoutError",
    "UNASSIGNED_ID",
    "SERVER_ID",
    "mono_us",
]

UNASSIGNED_ID = 0xFFFF
SERVER_ID = 0

_U16 = struct.Struct("<H")
_CONTROL = SignalType.CONTROL  # a global read costs less than the enum lookup

_RECV_BUFSIZE = HEADER_SIZE + 1472  # one full datagram with headroom
_LEAVE_REPLY_INTERVAL_US = 100_000  # per unregistered address
_LEAVE_REPLY_SLOTS = 1024  # unregistered addresses remembered at once
_CLIENT_RCVBUF = 1 << 20  # kernel receive buffer of a client socket


def mono_us() -> int:
    """Monotonic microsecond clock; comparable across processes on one host."""
    return time.monotonic_ns() // 1000


class ConnectTimeoutError(TimeoutError):
    """Server did not acknowledge the join within the retry budget."""


@dataclass
class ServerConfig:
    host: str = "0.0.0.0"
    port: int = 0
    max_clients: int = 64
    client_timeout_us: int = 5_000_000

    def __post_init__(self) -> None:
        # Ids run from 1 to max_clients; UNASSIGNED_ID itself is never handed out.
        if not 2 <= self.max_clients < UNASSIGNED_ID:
            raise ValueError(f"max_clients must be in [2, {UNASSIGNED_ID - 1}]")
        if self.client_timeout_us < 1:
            raise ValueError(f"client_timeout_us must be >= 1, got {self.client_timeout_us}")


@dataclass
class ServerStats:
    received: int = 0
    relayed: int = 0
    dropped_stale: int = 0
    dropped_corrupt: int = 0
    dropped_control: int = 0
    joins: int = 0
    evictions: int = 0
    unknown_sender: int = 0
    spoofed: int = 0
    rejected_full: int = 0


class _ClientRecord:
    __slots__ = ("user_id", "addr", "last_heard_us", "highest_seq")

    def __init__(self, user_id: int, addr, now_us: int):
        self.user_id = user_id
        self.addr = addr
        self.last_heard_us = now_us
        self.highest_seq: int | None = None


class RelayServer:
    """Single-threaded receive loop; fan-out happens inline on that path."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.stats = ServerStats()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4 << 20)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
        self._sock.bind((config.host, config.port))
        self._sock.settimeout(0.05)
        self._by_addr: dict[tuple, _ClientRecord] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._leave_seq = 0
        self._ack_seq = 0
        self._last_scan_us = 0
        self._leave_replies: dict[tuple, int] = {}  # unregistered addr -> last LEAVE sent
        # Every datagram the relay writes goes through a FanoutSender: per
        # member, the one to everyone else (see _others), rebuilt lazily
        # whenever membership changes.
        self._fanout: dict[int, FanoutSender] = {}

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def start(self) -> "RelayServer":
        self._thread = threading.Thread(target=self.run, name="relay-server", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        try:
            self._sock.close()
        except OSError:
            pass

    def run(self) -> None:
        """Serve until stop() is called. Per-packet errors are counted, never fatal."""
        sock = self._sock
        while not self._stop.is_set():
            try:
                data, addr = sock.recvfrom(_RECV_BUFSIZE)
            except socket.timeout:
                self._evict_scan(mono_us())
                continue
            except OSError:
                if self._stop.is_set():
                    break
                continue
            now = mono_us()
            self._handle(data, addr, now)
            if now - self._last_scan_us > 100_000:
                self._evict_scan(now)

    def _handle(self, data: bytes, addr, now: int) -> None:
        self.stats.received += 1
        try:
            sig_type, user_id, seq, _ = _parse_header(data)
        except CorruptPacketError:
            self.stats.dropped_corrupt += 1
            return

        if sig_type is SignalType.CONTROL:
            if len(data) == HEADER_SIZE:
                self._handle_join(addr, user_id, now)
            else:
                self.stats.dropped_control += 1
            return

        record = self._by_addr.get(addr)
        if record is None:
            self.stats.unknown_sender += 1
            self._reply_leave(addr, user_id, now)
            return
        if user_id != record.user_id:
            self.stats.spoofed += 1
            return
        record.last_heard_us = now
        if not seq_newer(seq, record.highest_seq):
            self.stats.dropped_stale += 1
            return
        record.highest_seq = seq
        self.stats.relayed += self._others(record).send(data)

    def _handle_join(self, addr, user_id: int, now: int) -> None:
        record = self._by_addr.get(addr)
        if record is None:
            if len(self._by_addr) >= self.config.max_clients:
                self.stats.rejected_full += 1
                return
            record = _ClientRecord(self._next_id(), addr, now)
            self._by_addr[addr] = record
            self._fanout.clear()
            self.stats.joins += 1
        else:
            # A keepalive carries the assigned id; an unassigned JOIN from a
            # known address is a new session there (a restarted client on the
            # same port), whose sequence numbers start over. Its peers hear a
            # LEAVE for the old session so they reset their filters too.
            record.last_heard_us = now
            if user_id == UNASSIGNED_ID and record.highest_seq is not None:
                record.highest_seq = None
                self._others(record).send(self._leave_packet(record.user_id))
        self._ack_seq += 1
        ack = frame_packet(
            SignalType.CONTROL, record.user_id, self._ack_seq, mono_us(),
            _U16.pack(record.user_id),
        )
        FanoutSender(self._sock, [addr]).send(ack)

    def _reply_leave(self, addr, user_id: int, now: int) -> None:
        """Tell an unregistered sender that the relay has no session for
        `user_id`, so it re-joins; rate-limited per address, and silent once
        _LEAVE_REPLY_SLOTS addresses are waiting out their interval."""
        last = self._leave_replies.get(addr)
        if last is None and len(self._leave_replies) >= _LEAVE_REPLY_SLOTS:
            return
        if last is not None and now - last < _LEAVE_REPLY_INTERVAL_US:
            return
        self._leave_replies[addr] = now
        FanoutSender(self._sock, [addr]).send(self._leave_packet(user_id))

    def _next_id(self) -> int:
        used = {rec.user_id for rec in self._by_addr.values()}
        uid = 1
        while uid in used:
            uid += 1
        return uid

    def _evict_scan(self, now: int) -> None:
        self._last_scan_us = now
        self._leave_replies = {
            addr: t for addr, t in self._leave_replies.items()
            if now - t < _LEAVE_REPLY_INTERVAL_US
        }
        timeout = self.config.client_timeout_us
        expired = [
            addr for addr, rec in self._by_addr.items()
            if now - rec.last_heard_us > timeout
        ]
        for addr in expired:
            record = self._by_addr.pop(addr)
            self._fanout.clear()
            self.stats.evictions += 1
            self._others(record).send(self._leave_packet(record.user_id))

    def _leave_packet(self, user_id: int) -> bytes:
        self._leave_seq += 1
        return frame_packet(
            SignalType.CONTROL, SERVER_ID, self._leave_seq, mono_us(), _U16.pack(user_id)
        )

    def _others(self, record: _ClientRecord) -> FanoutSender:
        """The sender to every member but `record`, built once per membership."""
        fanout = self._fanout.get(record.user_id)
        if fanout is None:
            others = [o.addr for o in self._by_addr.values() if o is not record]
            fanout = self._fanout[record.user_id] = FanoutSender(self._sock, others)
        return fanout


@dataclass
class SessionStats:
    sent: int = 0
    received: int = 0
    dropped_stale: int = 0
    dropped_corrupt: int = 0
    dropped_conflict: int = 0  # the local router already has a producer for the flow
    send_errors: int = 0
    relay_down: int = 0  # ConnectionRefusedError: the relay's port was closed


@dataclass
class SessionState:
    """Receiver-side view of one client's connection."""

    user_id: int
    stats: SessionStats = field(default_factory=SessionStats)


class Client:
    """Connected endpoint: sends the local stream, publishes inbound peers.

    Every relayed packet from peer P appears on the local router as stream
    (signal type, P, NETWORK); everything this client sends is echoed to
    (signal type, own id, LOCAL) at the same time it hits the socket.

    A client is used from one thread, its owner's, and its socket never
    blocks: the owner's loop calls `receive()`, which drains the socket and
    keeps the session registered, or hands the datagrams to `ingest()`.
    """

    def __init__(
        self,
        sock: socket.socket,
        server_addr: tuple[str, int],
        user_id: int,
        router: SignalRouter,
        peer_ring_capacity: int = 64,
        start_receiver: bool = False,
        keepalive_interval_s: float | None = 2.0,
    ):
        if start_receiver:  # the client owns the socket it is handed, even when it refuses
            sock.close()
            raise ValueError("a Client has no receive thread; call receive() from the owner's loop")
        self._sock = sock
        self._server_addr = server_addr
        self.router = router
        self.session = SessionState(user_id=user_id)
        self._peer_ring_capacity = peer_ring_capacity
        self._seq = 0
        self._echo_producers = {}
        self._peer_producers = {}
        self._keepalive_us = (
            None if keepalive_interval_s is None else int(keepalive_interval_s * 1e6)
        )
        self._last_tx_us = mono_us()
        self._join_seq = 0
        self._connected = False  # client_connect connects the socket to the relay
        self._sock.setblocking(False)

    @property
    def user_id(self) -> int:
        return self.session.user_id

    def send(self, payload: bytes, signal_type: SignalType = SignalType.POSE) -> int:
        """Frame and hand the datagram to the socket immediately; echo the
        same payload to the local router. Returns the sequence number used."""
        seq = self._seq = (self._seq + 1) & SEQ_MASK
        now = mono_us()
        user_id = self.session.user_id
        data = frame_packet(signal_type, user_id, seq, now, payload)
        try:
            if self._connected:
                self._sock.send(data)
            else:
                self._sock.sendto(data, self._server_addr)
        except BlockingIOError:
            # Kernel send buffer full: drop rather than stall, lag comes first.
            self.session.stats.send_errors += 1
            return seq
        except ConnectionRefusedError:
            # A connected socket's report that an earlier datagram found the
            # relay's port closed: it restarts or is gone, and keepalives
            # re-join once it is back. This datagram was dropped.
            self.session.stats.send_errors += 1
            self.session.stats.relay_down += 1
            return seq
        except OSError:
            self.session.stats.send_errors += 1
            raise
        self.session.stats.sent += 1
        self._last_tx_us = now
        echo = self._echo_producers.get((signal_type, user_id))
        if echo is None:
            echo = self._register_echo(signal_type, user_id)
        # positional, as in parse_packet
        echo.publish(SignalPacket(signal_type, user_id, seq, now, payload, now))
        return seq

    def _register_echo(self, signal_type: SignalType, user_id: int):
        # Echo streams under an id this client no longer holds (see
        # _handle_control) are closed here, on the next send under the new id.
        for key in [k for k in self._echo_producers if k[1] != user_id]:
            self._echo_producers.pop(key).close()
        desc = SignalDescriptor(signal_type, user_id, Origin.LOCAL)
        echo = self.router.register_producer(desc, self._peer_ring_capacity)
        self._echo_producers[(signal_type, user_id)] = echo
        return echo

    @property
    def sock(self) -> socket.socket:
        return self._sock

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- receive path -------------------------------------------------------

    def receive(self) -> int:
        """Ingest every queued datagram under one arrival time, then send a
        keepalive if one is due. Never blocks; returns the datagrams taken."""
        recv, ingest = self._sock.recv, self.ingest
        now = mono_us()
        taken = 0
        while True:
            try:
                data = recv(_RECV_BUFSIZE)
            except BlockingIOError:
                break
            except ConnectionRefusedError:  # as in send(): the relay is down
                self.session.stats.relay_down += 1
                continue
            ingest(data, now)
            taken += 1
        if self._keepalive_us is not None and now - self._last_tx_us > self._keepalive_us:
            self._send_keepalive(now)
        return taken

    def _send_keepalive(self, now: int, user_id: int | None = None) -> None:
        # A repeat JOIN doubles as the keepalive: the server refreshes the
        # sender's eviction deadline and re-acks. Keeps silent consumers
        # (recorders, watchers) registered without a second packet kind.
        # Under UNASSIGNED_ID it asks for a new session instead.
        self._join_seq += 1
        try:
            self._sock.sendto(
                frame_packet(
                    SignalType.CONTROL,
                    self.session.user_id if user_id is None else user_id,
                    self._join_seq,
                    now,
                ),
                self._server_addr,
            )
            self._last_tx_us = now
        except OSError:
            pass

    def ingest(self, data: bytes, now: int) -> None:
        """Process one inbound datagram: stale-filter it and publish it as
        the sending peer's stream. Hot path; per-packet errors only count.
        Each check is made once: the header is parsed once, a datagram is
        dropped before any packet is built for it, and the router builds the
        packet into the stream's ring without publish's second round of
        checks.
        Datagrams handed in here directly skip the source check that
        client_connect's connected socket makes in the kernel."""
        session = self.session
        try:
            signal_type, user_id, seq, send_ts = _parse_header(data)
        except CorruptPacketError:
            session.stats.dropped_corrupt += 1
            return
        if signal_type is _CONTROL:
            self._handle_control(user_id, data[HEADER_SIZE:])
            return
        flow = (user_id, signal_type)
        producer = self._peer_producers.get(flow)
        if producer is None:
            desc = SignalDescriptor(signal_type, user_id, Origin.NETWORK)
            try:
                producer = self.router.register_producer(desc, self._peer_ring_capacity)
            except StreamConflictError:  # the application produces this stream itself
                session.stats.dropped_conflict += 1
                return
            self._peer_producers[flow] = producer
        elif not seq_newer(seq, producer.last_seq):  # the flow's stream keeps its order
            session.stats.dropped_stale += 1
            return
        # The header parse bounded the payload and the order is checked
        # above: the rest of publish is the router's.
        producer._write_network(seq, send_ts, data[HEADER_SIZE:], now)
        session.stats.received += 1

    def _handle_control(self, sender_id: int, payload: bytes) -> None:
        if len(payload) != 2:
            return
        (subject,) = _U16.unpack(payload)
        if sender_id == subject:
            # A JOIN-ACK reaches only the joining endpoint: it names this
            # client's first id, or its new one after an eviction (the old
            # id may belong to another dancer now). The next send() closes
            # the echo streams under the old id.
            self.session.user_id = subject
            return
        if sender_id != SERVER_ID:
            return
        if subject == self.session.user_id:
            # The relay has no session for this client (it restarted or
            # evicted it): join afresh; the ACK brings the new id.
            self._send_keepalive(mono_us(), UNASSIGNED_ID)
        else:
            self._drop_peer(subject)

    def _drop_peer(self, peer_id: int) -> None:
        """Peer left: close its streams so a rejoining peer starts fresh."""
        for flow in [f for f in self._peer_producers if f[0] == peer_id]:
            self._peer_producers.pop(flow).close()


def client_connect(
    server_addr: tuple[str, int],
    *,
    retries: int = 3,
    retry_interval_s: float = 0.2,
    peer_ring_capacity: int = 64,
    start_receiver: bool = False,
    keepalive_interval_s: float | None = 2.0,
) -> Client:
    """Join a relay server the way a client re-joins after a LEAVE: send an
    unassigned JOIN and ingest replies until the ACK's id is adopted.

    Once the ACK arrives the socket is connected to the address it came
    from, so the kernel drops datagrams from any other address, send() uses
    `sock.send`, and a closed relay port reads as ConnectionRefusedError,
    which send() and receive() count as `relay_down` and ride out. That address, not the one the JOIN
    went to: a relay bound to a wildcard address answers from whichever
    address its route picks.

    Retries the JOIN `retries` times, `retry_interval_s` apart, then closes
    the client and raises ConnectTimeoutError. Starts no thread: the
    caller's loop calls `receive()`, which re-joins after every
    `keepalive_interval_s` of send silence, so consume-only clients stay registered.
    """
    # Resolved once: a bad host name fails here, not as a silent keepalive.
    server_addr = socket.getaddrinfo(*server_addr, socket.AF_INET, socket.SOCK_DGRAM)[0][4]
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _CLIENT_RCVBUF)
    client = Client(
        sock, server_addr, UNASSIGNED_ID, SignalRouter(),
        peer_ring_capacity=peer_ring_capacity,
        start_receiver=start_receiver,
        keepalive_interval_s=keepalive_interval_s,
    )
    try:
        with selectors.DefaultSelector() as readable:
            readable.register(sock, selectors.EVENT_READ)
            for _ in range(retries):
                client._send_keepalive(mono_us())
                deadline = time.monotonic() + retry_interval_s
                while client.user_id == UNASSIGNED_ID and time.monotonic() < deadline:
                    readable.select(deadline - time.monotonic())
                    try:
                        data, source = sock.recvfrom(_RECV_BUFSIZE)
                    except BlockingIOError:
                        continue
                    client.ingest(data, mono_us())
                if client.user_id != UNASSIGNED_ID:
                    sock.connect(source)
                    client._server_addr = source
                    client._connected = True
                    return client
        raise ConnectTimeoutError(
            f"no join acknowledgement from {server_addr} after {retries} attempts"
        )
    except BaseException:
        client.close()
        raise
