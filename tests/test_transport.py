import select
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dancegraph import _mmsg
from dancegraph._mmsg import FanoutSender
from dancegraph.codec import analyze_bounds, encode_frame
from dancegraph.harness import synthesize_sway_recording
from dancegraph.packet import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    CorruptPacketError,
    PayloadTooLargeError,
    SignalType,
    frame_packet,
    parse_packet,
    seq_newer,
)
from dancegraph.router import Origin, SignalDescriptor, SignalRouter, SignalSelector
from dancegraph.transport import (
    _LEAVE_REPLY_INTERVAL_US,
    _LEAVE_REPLY_SLOTS,
    SERVER_ID,
    Client,
    ConnectTimeoutError,
    RelayServer,
    UNASSIGNED_ID,
    ServerConfig,
    client_connect,
    mono_us,
)


@pytest.fixture
def server():
    srv = RelayServer(ServerConfig(host="127.0.0.1", client_timeout_us=60_000_000)).start()
    yield srv
    srv.stop()


def raw_join(addr, port=0):
    """A hand-rolled client socket on 127.0.0.1:`port`, joined; returns it
    with its assigned id."""
    raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    raw.bind(("127.0.0.1", port))
    raw.settimeout(1.0)
    raw.sendto(frame_packet(SignalType.CONTROL, 0xFFFF, 1, mono_us()), addr)
    return raw, parse_packet(raw.recv(2048)).user_id


@pytest.fixture
def fake_relay():
    """A raw UDP socket standing in for a relay. `start(answer)` serves it
    on a thread: the n-th datagram received is answered with one CONTROL
    packet per (header id, payload id) pair in `answer(n)`. Returns the
    address and the list of received header ids."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(0.05)
    stop = threading.Event()
    threads = []

    def start(answer):
        heard = []

        def serve():
            while not stop.is_set():
                try:
                    data, addr = sock.recvfrom(2048)
                except socket.timeout:
                    continue
                heard.append(parse_packet(data).user_id)
                for header_id, subject in answer(len(heard)):
                    reply = frame_packet(
                        SignalType.CONTROL, header_id, len(heard), mono_us(),
                        subject.to_bytes(2, "little"),
                    )
                    sock.sendto(reply, addr)

        threads.append(threading.Thread(target=serve, daemon=True))
        threads[-1].start()
        return sock.getsockname(), heard

    yield start
    stop.set()
    for thread in threads:
        thread.join(timeout=2.0)
        assert not thread.is_alive()
    sock.close()


def network_streams(client):
    return {tuple(d) for d in client.router.streams()}


def wait_until(predicate, *clients, timeout=3.0, interval=0.01):
    """Poll `predicate` until it holds or `timeout` passes. Between polls,
    wait up to `interval` for a datagram to any of `clients` and call each
    one's `receive()`, as the loop that owns them would."""
    socks = [client.sock for client in clients]
    deadline = time.monotonic() + timeout
    while (left := deadline - time.monotonic()) > 0:
        if predicate():
            return True
        select.select(socks, [], [], min(interval, left))
        for client in clients:
            client.receive()
    return predicate()


def pump(seconds, *clients):
    """Drive the clients' `receive()` for `seconds`."""
    wait_until(lambda: False, *clients, timeout=seconds)


class TestWireFormat:
    def test_empty_payload_is_header_only(self):
        data = frame_packet(SignalType.CONTROL, 0xFFFF, 1, 42)
        assert len(data) == HEADER_SIZE == 18
        assert data[:2] == MAGIC == b"\xda\x9c"

    def test_total_size_is_header_plus_payload(self):
        data = frame_packet(SignalType.POSE, 3, 9, 42, b"abcde")
        assert len(data) == 18 + 5

    def test_round_trip(self):
        data = frame_packet(SignalType.POSE, 513, 70000, 123456789, b"payload!")
        packet = parse_packet(data)
        assert packet.signal_type is SignalType.POSE
        assert packet.user_id == 513
        assert packet.seq == 70000
        assert packet.send_timestamp_us == 123456789
        assert packet.payload == b"payload!"
        assert packet.payload_len == 8
        assert packet.to_bytes() == data

    def test_oversize_payload_rejected(self):
        frame_packet(SignalType.POSE, 1, 1, 0, bytes(MAX_PAYLOAD))
        with pytest.raises(PayloadTooLargeError):
            frame_packet(SignalType.POSE, 1, 1, 0, bytes(MAX_PAYLOAD + 1))

    def test_corrupt_magic_rejected(self):
        data = bytearray(frame_packet(SignalType.POSE, 1, 1, 0, b"x"))
        data[0] ^= 0xFF
        with pytest.raises(CorruptPacketError):
            parse_packet(bytes(data))

    def test_short_buffer_rejected(self):
        data = frame_packet(SignalType.POSE, 1, 1, 0)
        with pytest.raises(CorruptPacketError):
            parse_packet(data[:17])

    def test_unknown_version_rejected(self):
        data = bytearray(frame_packet(SignalType.POSE, 1, 1, 0))
        data[2] = 9
        with pytest.raises(CorruptPacketError):
            parse_packet(bytes(data))

    def test_unknown_signal_type_rejected(self):
        data = bytearray(frame_packet(SignalType.POSE, 1, 1, 0))
        for bad in (0, 4, 200):
            data[3] = bad
            with pytest.raises(CorruptPacketError):
                parse_packet(bytes(data))

    def test_compressed_pose_packet_under_two_thirds_of_raw(self):
        # Oracle: arithmetic on both layouts over the same 18-byte header.
        recording = synthesize_sway_recording(duration_s=1.0)
        table = analyze_bounds([recording.frames], margin=0.1, bits=16)
        payload = encode_frame(recording.frames[0], table).to_bytes()
        compressed_wire = len(frame_packet(SignalType.POSE, 1, 1, 0, payload))
        raw_pose_bytes = 8 + 12 + 34 * 4 * 4
        raw_wire = HEADER_SIZE + raw_pose_bytes
        assert compressed_wire < (2 / 3) * raw_wire

    @given(st.binary(max_size=64))
    @settings(max_examples=300)
    def test_fuzz_never_crashes(self, blob):
        try:
            packet = parse_packet(blob)
        except CorruptPacketError:
            return
        assert packet.wire_size == len(blob)

    @given(st.binary(min_size=HEADER_SIZE, max_size=400))
    @settings(max_examples=300)
    def test_fuzz_headers_validated(self, blob):
        try:
            packet = parse_packet(blob)
        except CorruptPacketError:
            assert (
                blob[:2] != MAGIC
                or blob[2] != 1
                or blob[3] not in (1, 2, 3)
                or len(blob) - HEADER_SIZE > MAX_PAYLOAD
            )
        else:
            assert blob[:2] == MAGIC and blob[2] == 1 and blob[3] in (1, 2, 3)


def datagrams():
    """Buffers for parse_packet: random bytes, and headers whose magic,
    version and signal type are often valid, with a payload of up to four
    bytes past MAX_PAYLOAD."""
    header = st.builds(
        lambda magic, version, kind, rest: magic + bytes([version, kind]) + rest,
        st.one_of(st.just(MAGIC), st.binary(min_size=2, max_size=2)),
        st.one_of(st.just(1), st.integers(0, 255)),
        st.one_of(st.sampled_from([1, 2, 3]), st.integers(0, 255)),
        st.binary(min_size=HEADER_SIZE - 4, max_size=HEADER_SIZE - 4),
    )
    framed = st.builds(bytes.__add__, header, st.binary(max_size=MAX_PAYLOAD + 4))
    return st.one_of(framed, st.binary(max_size=HEADER_SIZE + 8))


@given(datagrams())
@settings(max_examples=300, deadline=None)
def test_property_any_datagram_parses_or_is_corrupt(blob):
    """parse_packet returns a packet that frames back to the same bytes, or
    raises CorruptPacketError."""
    try:
        packet = parse_packet(blob)
    except CorruptPacketError:
        return
    assert packet.to_bytes() == blob


class TestStaleDropFilter:
    def _bare_client(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        return Client(sock, ("127.0.0.1", 9), 42, SignalRouter())

    @given(
        st.lists(st.integers(1, 60), min_size=1, max_size=120),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_delivered_sequences_strictly_increase(self, seqs, rnd):
        """Under arbitrary duplication and reordering, the per-flow output
        of the receive filter is strictly increasing."""
        client = self._bare_client()
        try:
            consumer = client.router.subscribe(SignalSelector(SignalType.POSE, None, Origin.NETWORK))
            stream = list(seqs) + rnd.sample(seqs, k=min(len(seqs), 20))
            rnd.shuffle(stream)
            for seq in stream:
                client.ingest(frame_packet(SignalType.POSE, 7, seq, seq, b"p"), mono_us())
            delivered = [p.seq for p in consumer.poll(max_packets=4096).packets]
            assert delivered == sorted(set(delivered))
            assert all(b > a for a, b in zip(delivered, delivered[1:]))
        finally:
            client.close()

    def test_flows_filtered_independently(self):
        client = self._bare_client()
        try:
            consumer = client.router.subscribe(SignalSelector(SignalType.POSE, None, Origin.NETWORK))
            for user, seq in [(1, 1), (2, 1), (1, 2), (2, 1), (1, 2), (2, 2)]:
                client.ingest(frame_packet(SignalType.POSE, user, seq, 0, b"p"), mono_us())
            got = [(p.user_id, p.seq) for p in consumer.poll(max_packets=64).packets]
            assert sorted(got) == [(1, 1), (1, 2), (2, 1), (2, 2)]
            assert client.session.stats.dropped_stale == 2
        finally:
            client.close()

    def test_corrupt_datagrams_counted_not_fatal(self):
        client = self._bare_client()
        try:
            client.ingest(b"garbage", mono_us())
            client.ingest(b"", mono_us())
            assert client.session.stats.dropped_corrupt == 2
        finally:
            client.close()

    def test_flow_the_application_produces_is_dropped_and_counted(self):
        # The application already produces (POSE, 7, NETWORK) on the
        # client's router: peer 7's datagrams are counted and dropped, and
        # other peers' flows still arrive.
        client = self._bare_client()
        try:
            own = client.router.register_producer(
                SignalDescriptor(SignalType.POSE, 7, Origin.NETWORK)
            )
            consumer = client.router.subscribe(SignalSelector(SignalType.POSE, None, Origin.NETWORK))
            for user, seq in [(7, 1), (8, 1), (7, 2)]:
                client.ingest(frame_packet(SignalType.POSE, user, seq, 0, b"p"), mono_us())
            stats = client.session.stats
            assert (stats.dropped_conflict, stats.received) == (2, 1)
            assert [(p.user_id, p.seq) for p in consumer.poll(max_packets=64).packets] == [(8, 1)]
            # Once the application lets go of the stream, peer 7's flow takes it.
            own.close()
            client.ingest(frame_packet(SignalType.POSE, 7, 3, 0, b"p"), mono_us())
            assert [(p.user_id, p.seq) for p in consumer.poll(max_packets=64).packets] == [(7, 3)]
        finally:
            client.close()


class TestSequenceWrap:
    """Sequence numbers are u32 serial numbers (RFC 1982): a stream that
    passes 2**32 - 1 carries on at 0 and is not taken for a stale one."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 2**31 - 1))
    def test_serial_order(self, base, ahead):
        later = (base + ahead) & 0xFFFFFFFF
        assert seq_newer(later, base)
        assert not seq_newer(base, later)
        assert not seq_newer(base, base)
        assert seq_newer(base, None)

    def test_ingest_accepts_wrapped_flow(self):
        client = TestStaleDropFilter()._bare_client()
        try:
            consumer = client.router.subscribe(SignalSelector(SignalType.POSE, None, Origin.NETWORK))
            for seq in [2**32 - 2, 2**32 - 1, 0, 2**32 - 1, 1, 0]:
                client.ingest(frame_packet(SignalType.POSE, 7, seq, 0, b"p"), mono_us())
            delivered = [p.seq for p in consumer.poll(max_packets=64).packets]
            assert delivered == [2**32 - 2, 2**32 - 1, 0, 1]
            assert client.session.stats.dropped_stale == 2
        finally:
            client.close()

    def test_first_packet_of_flow_accepted_above_half_range(self):
        client = TestStaleDropFilter()._bare_client()
        try:
            client.ingest(frame_packet(SignalType.POSE, 7, 2**31 + 5, 0, b"p"), mono_us())
            assert client.session.stats.received == 1
            assert client.session.stats.dropped_stale == 0
        finally:
            client.close()

    def test_client_sends_across_wrap_through_relay(self, server):
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as a, client_connect(addr) as b:
            consumer = b.router.subscribe(SignalSelector(SignalType.POSE, a.user_id, Origin.NETWORK))
            echo = a.router.subscribe(SignalSelector(SignalType.POSE, a.user_id, Origin.LOCAL))
            a._seq = 2**32 - 2
            sent = [a.send(b"w%d" % i) for i in range(4)]
            assert sent == [2**32 - 1, 0, 1, 2]
            assert wait_until(lambda: b.session.stats.received >= 4, a, b)
            assert [p.seq for p in consumer.poll(max_packets=64).packets] == sent
            assert [p.seq for p in echo.poll(max_packets=64).packets] == sent
            assert server.stats.dropped_stale == 0
            assert b.session.stats.dropped_stale == 0


class TestRelayServer:
    def test_join_assigns_distinct_ids(self, server):
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as a, client_connect(addr) as b:
            assert a.user_id != b.user_id
            assert a.user_id >= 1 and b.user_id >= 1

    def test_connect_timeout_on_dead_port(self):
        t0 = time.monotonic()
        with pytest.raises(ConnectTimeoutError):
            client_connect(("127.0.0.1", 9))  # discard port, nothing listens
        elapsed = time.monotonic() - t0
        assert 0.4 < elapsed < 3.0

    def test_relay_transparency_and_order(self, server):
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as a, client_connect(addr) as b:
            consumer = b.router.subscribe(SignalSelector(SignalType.POSE, None, Origin.NETWORK))
            payloads = [bytes([i]) * (i + 1) for i in range(40)]
            for p in payloads:
                a.send(p)
            assert wait_until(lambda: b.session.stats.received >= 40, a, b)
            polled = consumer.poll(max_packets=64)
            got = [(p.seq, p.payload) for p in polled.packets]
            assert [g[1] for g in got] == payloads  # byte-identical payloads
            seqs = [g[0] for g in got]
            assert seqs == sorted(seqs)

    def test_peers_appear_as_network_streams(self, server):
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as a, client_connect(addr) as b:
            a.send(b"x")
            b.send(b"y")
            assert wait_until(
                lambda: (SignalType.POSE, a.user_id, Origin.NETWORK)
                in {tuple(d) for d in b.router.streams()}, a, b
            )
            assert wait_until(
                lambda: (SignalType.POSE, b.user_id, Origin.NETWORK)
                in {tuple(d) for d in a.router.streams()}, a, b
            )

    def test_local_echo_is_immediate(self, server):
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as a:
            echo = a.router.subscribe(SignalSelector(SignalType.POSE, a.user_id, Origin.LOCAL))
            seq = a.send(b"hello local")
            assert seq == 1  # fresh session starts its sequence space at 1
            polled = echo.poll()
            assert [p.seq for p in polled.packets] == [seq]
            assert polled.packets[0].payload == b"hello local"
            assert polled.packets[0].origin is Origin.LOCAL
            assert a.send(b"again") == 2

    def test_stale_packets_not_relayed(self, server):
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as b:
            # hand-rolled sender so we control the wire sequence numbers
            raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            raw.settimeout(1.0)
            raw.sendto(frame_packet(SignalType.CONTROL, 0xFFFF, 1, mono_us()), addr)
            ack = parse_packet(raw.recv(2048))
            uid = ack.user_id
            consumer = b.router.subscribe(SignalSelector(SignalType.POSE, uid, Origin.NETWORK))
            for seq in [1, 2, 2, 1, 3, 3, 2, 4]:
                raw.sendto(frame_packet(SignalType.POSE, uid, seq, mono_us(), b"s%d" % seq), addr)
            assert wait_until(lambda: b.session.stats.received >= 4, b)
            delivered = [p.seq for p in consumer.poll(max_packets=64).packets]
            assert delivered == [1, 2, 3, 4]
            assert server.stats.dropped_stale == 4
            raw.close()

    def test_spoofed_user_id_dropped(self, server):
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as a, client_connect(addr) as b:
            consumer = b.router.subscribe(SignalSelector(SignalType.POSE, None, Origin.NETWORK))
            a.sock.sendto(frame_packet(SignalType.POSE, a.user_id + 50, 1, mono_us(), b"x"), addr)
            a.send(b"legit")
            assert wait_until(lambda: b.session.stats.received >= 1, a, b)
            got = consumer.poll(max_packets=8).packets
            assert [p.payload for p in got] == [b"legit"]
            assert server.stats.spoofed == 1

    def test_client_control_packet_is_not_relayed(self, server):
        # A client's CONTROL packet whose payload names its own id reads, at
        # every peer, like that peer's JOIN-ACK. Relayed, it would make
        # client 2 adopt client 1's id, and the relay would then drop
        # client 2's packets as spoofed.
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as a, client_connect(addr) as b, client_connect(addr) as c:
            b_id = b.user_id
            consumer = c.router.subscribe(SignalSelector(SignalType.POSE, None, Origin.NETWORK))
            a.send(struct.pack("<H", a.user_id), SignalType.CONTROL)
            # The relay handles a's packets in order, and so does b.
            a.send(b"marker")
            assert wait_until(lambda: b.session.stats.received >= 1, a, b, c)
            assert b.user_id == b_id
            b.send(b"still relayed")
            assert wait_until(lambda: c.session.stats.received >= 2, a, b, c)
            got = [(p.user_id, p.payload) for p in consumer.poll(max_packets=8).packets]
            assert got == [(a.user_id, b"marker"), (b_id, b"still relayed")]
            assert server.stats.dropped_control == 1
            assert server.stats.spoofed == 0

    def test_off_path_pose_opens_no_stream(self, server):
        # A socket that is not the relay sends a POSE straight to a client's
        # port. Accepted, it would open a NETWORK stream for a user the
        # relay never admitted.
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as a, client_connect(addr) as b:
            stray = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                stray.sendto(
                    frame_packet(SignalType.POSE, 7, 1, mono_us(), b"forged"), b.sock.getsockname()
                )
                # Sent first, the stray datagram would be queued before the
                # relayed marker.
                a.send(b"marker")
                assert wait_until(lambda: b.session.stats.received >= 1, a, b)
                assert network_streams(b) == {(SignalType.POSE, a.user_id, Origin.NETWORK)}
                assert b.session.stats.received == 1
            finally:
                stray.close()

    def test_corrupt_datagrams_are_counted_and_relaying_goes_on(self, server):
        # A datagram shorter than a header, one with a bad magic, one with
        # an unknown wire version, one with an unknown signal type and one
        # with a payload past MAX_PAYLOAD are each counted and dropped at
        # the relay, which forwards nothing a client would drop as corrupt;
        # the sender's next valid pose is still relayed.
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as b:
            raw, uid = raw_join(addr)
            try:
                consumer = b.router.subscribe(SignalSelector(SignalType.POSE, uid, Origin.NETWORK))
                good = frame_packet(SignalType.POSE, uid, 1, mono_us(), b"pose")
                bad_magic = bytes(m ^ 0xFF for m in MAGIC) + good[2:]
                bad_version = good[:2] + bytes([(good[2] + 1) % 256]) + good[3:]
                bad_type = good[:3] + bytes([9]) + good[4:]
                oversize = good[:HEADER_SIZE] + bytes(MAX_PAYLOAD + 1)
                for data in (good[:HEADER_SIZE - 1], bad_magic, bad_version, bad_type, oversize,
                             good):
                    raw.sendto(data, addr)
                assert wait_until(lambda: b.session.stats.received >= 1, b)
                assert [p.payload for p in consumer.poll(max_packets=8).packets] == [b"pose"]
                assert server.stats.dropped_corrupt == 5
                assert server.stats.relayed == 1
                assert b.session.stats.dropped_corrupt == 0
            finally:
                raw.close()

    def test_forged_server_leave_from_off_path_makes_no_rejoin(self, server, monkeypatch):
        # A socket that is not the relay sends a client a LEAVE under the
        # relay's SERVER_ID naming that client. Read, it would make the
        # client drop its session and join afresh.
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as a, client_connect(addr) as b:
            joins = []
            keepalive = b._send_keepalive

            def recorded(now, user_id=None):
                joins.append(user_id)
                keepalive(now, user_id)

            monkeypatch.setattr(b, "_send_keepalive", recorded)
            forged = frame_packet(
                SignalType.CONTROL, SERVER_ID, 1, mono_us(), struct.pack("<H", b.user_id)
            )
            stray = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                stray.sendto(forged, b.sock.getsockname())
                # Sent first, the forged LEAVE would be read before the
                # relayed marker.
                a.send(b"marker")
                assert wait_until(lambda: b.session.stats.received >= 1, a, b)
                assert UNASSIGNED_ID not in joins
                # The same datagram handed to ingest does re-join: only the
                # connected socket's source check keeps it out.
                b.ingest(forged, mono_us())
                assert UNASSIGNED_ID in joins
            finally:
                stray.close()

    def test_joins_a_wildcard_relay_through_another_local_address(self):
        # A relay bound to 0.0.0.0 answers a JOIN sent to 127.0.0.2 from
        # 127.0.0.1, the source its route picks. The client takes that ACK
        # and talks to the address it came from.
        srv = RelayServer(ServerConfig(host="0.0.0.0")).start()
        try:
            addr = ("127.0.0.2", srv.port)
            with client_connect(addr) as a, client_connect(addr) as b:
                assert a.sock.getpeername() == ("127.0.0.1", srv.port)
                a.send(b"pose")
                assert wait_until(lambda: b.session.stats.received >= 1, a, b)
                assert network_streams(b) == {(SignalType.POSE, a.user_id, Origin.NETWORK)}
                assert a.session.stats.relay_down == 0
        finally:
            srv.stop()

    def test_send_and_receive_ride_out_a_closed_relay_port(self):
        # A connected socket reports the relay's closed port as
        # ConnectionRefusedError on its next send or receive; neither
        # receive() nor send() may die of it.
        srv = RelayServer(ServerConfig(host="127.0.0.1")).start()
        addr = ("127.0.0.1", srv.port)
        with client_connect(addr, keepalive_interval_s=None) as watcher, client_connect(
            addr, keepalive_interval_s=None
        ) as sender:
            srv.stop()
            watcher.send(b"to a closed port")
            assert wait_until(lambda: watcher.session.stats.relay_down >= 1, watcher)
            stats = sender.session.stats
            sender.send(b"first")
            assert wait_until(lambda: select.select([sender.sock], [], [], 0)[0])
            sender.send(b"second")  # meets the refusal: dropped and counted
            assert (stats.relay_down, stats.send_errors, stats.sent) == (1, 1, 1)
            sender.send(b"third")
            assert wait_until(lambda: select.select([sender.sock], [], [], 0)[0])
            assert sender.receive() == 0
            assert (stats.relay_down, stats.send_errors, stats.sent) == (2, 1, 2)

    def test_max_clients_enforced(self):
        srv = RelayServer(ServerConfig(host="127.0.0.1", max_clients=2)).start()
        try:
            addr = ("127.0.0.1", srv.port)
            with client_connect(addr), client_connect(addr):
                with pytest.raises(ConnectTimeoutError):
                    client_connect(addr, retries=2, retry_interval_s=0.1)
                assert srv.stats.rejected_full >= 1
        finally:
            srv.stop()

    def test_max_clients_leaves_the_unassigned_id_free(self):
        # Ids run from 1 to max_clients: a 0xFFFF-client relay would hand
        # out UNASSIGNED_ID, and the next ACK would not fit the header.
        assert ServerConfig(max_clients=UNASSIGNED_ID - 1).max_clients == 0xFFFE
        for bad in (1, UNASSIGNED_ID, 1 << 20):
            with pytest.raises(ValueError):
                ServerConfig(max_clients=bad)


    @pytest.mark.parametrize("timeout_us", [0, -1, -5_000_000])
    def test_client_timeout_must_be_positive(self, timeout_us):
        # A relay that evicted every client on every scan.
        with pytest.raises(ValueError, match="client_timeout_us"):
            ServerConfig(client_timeout_us=timeout_us)
        assert ServerConfig(client_timeout_us=1).client_timeout_us == 1


class TestJoin:
    def test_join_retries_until_acked(self, fake_relay):
        addr, heard = fake_relay(lambda n: [] if n == 1 else [(5, 5)])
        with client_connect(addr, retries=2) as client:
            assert client.user_id == 5
        assert heard == [UNASSIGNED_ID, UNASSIGNED_ID]

    @pytest.mark.parametrize("subject", [9, UNASSIGNED_ID])
    def test_leave_before_ack_does_not_end_join(self, fake_relay, subject):
        addr, _ = fake_relay(lambda n: [(SERVER_ID, subject), (4, 4)])
        with client_connect(addr, retries=1) as client:
            assert client.user_id == 4

    def test_connect_timeout_closes_the_socket(self, fake_relay, monkeypatch):
        addr, heard = fake_relay(lambda n: [])
        closed, close = [], Client.close
        monkeypatch.setattr(Client, "close", lambda self: closed.append(self) or close(self))
        with pytest.raises(ConnectTimeoutError):
            client_connect(addr, retries=2, retry_interval_s=0.05)
        assert [c.sock.fileno() for c in closed] == [-1]
        assert heard == [UNASSIGNED_ID, UNASSIGNED_ID]

    def test_bad_host_name_raises_before_joining(self, monkeypatch):
        def unknown(*args):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket, "getaddrinfo", unknown)
        began = time.monotonic()
        with pytest.raises(socket.gaierror):
            client_connect(("relay.invalid", 9))
        assert time.monotonic() - began < 0.1

    def test_pumped_client_receive_keeps_session_registered(self):
        srv = RelayServer(ServerConfig(host="127.0.0.1", client_timeout_us=300_000)).start()
        try:
            with client_connect(
                ("127.0.0.1", srv.port), keepalive_interval_s=0.05
            ) as client:
                assert client.sock.gettimeout() == 0.0
                until = time.monotonic() + 0.9
                while time.monotonic() < until:
                    client.receive()
                    time.sleep(0.01)
                assert (srv.stats.joins, srv.stats.evictions) == (1, 0)
                assert client.user_id == 1
        finally:
            srv.stop()

    def test_client_starts_no_thread(self, server):
        before = set(threading.enumerate())
        client = client_connect(("127.0.0.1", server.port))
        assert set(threading.enumerate()) <= before
        client.receive()
        assert set(threading.enumerate()) <= before
        client.close()
        assert set(threading.enumerate()) <= before
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        with pytest.raises(ValueError, match="no receive thread"):
            Client(sock, ("127.0.0.1", 9), 1, SignalRouter(), start_receiver=True)
        assert sock.fileno() == -1  # the refused client closed the socket it was handed
        with pytest.raises(ValueError, match="no receive thread"):
            client_connect(("127.0.0.1", server.port), start_receiver=True)
        assert set(threading.enumerate()) <= before


class TestRejoin:
    def test_fresh_join_at_known_address_starts_new_sequence(self, server):
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as b:
            raw, uid = raw_join(addr)
            port = raw.getsockname()[1]
            for seq in range(1, 51):
                raw.sendto(frame_packet(SignalType.POSE, uid, seq, mono_us(), b"old"), addr)
            assert wait_until(lambda: b.session.stats.received >= 50, b)
            raw.close()
            # A restarted client on the same port joins afresh and numbers
            # its poses from 1 again.
            raw, again = raw_join(addr, port)
            try:
                assert again == uid
                assert wait_until(
                    lambda: (SignalType.POSE, uid, Origin.NETWORK) not in network_streams(b), b
                )
                for seq in range(1, 51):
                    raw.sendto(frame_packet(SignalType.POSE, uid, seq, mono_us(), b"new"), addr)
                assert wait_until(lambda: b.session.stats.received >= 100, b)
                assert wait_until(lambda: server.stats.relayed >= 100, b)
                assert server.stats.dropped_stale == 0
                assert server.stats.relayed == 100
                assert b.session.stats.dropped_stale == 0
            finally:
                raw.close()

    def test_keepalive_join_keeps_sequence_state(self, server):
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as b:
            raw, uid = raw_join(addr)
            try:
                for seq in range(1, 11):
                    raw.sendto(frame_packet(SignalType.POSE, uid, seq, mono_us(), b"p"), addr)
                assert wait_until(lambda: b.session.stats.received >= 10, b)
                raw.sendto(frame_packet(SignalType.CONTROL, uid, 2, mono_us()), addr)
                assert parse_packet(raw.recv(2048)).user_id == uid  # re-acked
                raw.sendto(frame_packet(SignalType.POSE, uid, 5, mono_us(), b"late"), addr)
                raw.sendto(frame_packet(SignalType.POSE, uid, 11, mono_us(), b"next"), addr)
                assert wait_until(lambda: b.session.stats.received >= 11, b)
                assert wait_until(lambda: server.stats.relayed >= 11, b)
                assert server.stats.dropped_stale == 1
                assert server.stats.relayed == 11
                assert (SignalType.POSE, uid, Origin.NETWORK) in network_streams(b)
            finally:
                raw.close()


class TestFanout:
    def _sockets(self, n):
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        tx.bind(("127.0.0.1", 0))
        rxs = []
        for _ in range(n):
            rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            rx.bind(("127.0.0.1", 0))
            rx.settimeout(1.0)
            rxs.append(rx)
        return tx, rxs

    def test_single_destination_uses_plain_sendto(self, monkeypatch):
        tx, (rx,) = self._sockets(1)
        try:
            monkeypatch.setattr(_mmsg, "_libc", None)  # sendmmsg would fail
            assert FanoutSender(tx, [rx.getsockname()]).send(b"pose") == 1
            assert rx.recv(64) == b"pose"
        finally:
            for s in (tx, rx):
                s.close()

    def test_each_of_several_destinations_gets_one_copy(self):
        tx, rxs = self._sockets(3)
        try:
            fan = FanoutSender(tx, [rx.getsockname() for rx in rxs])
            assert fan._batched == _mmsg._HAVE
            assert fan.send(b"pose") == 3
            for rx in rxs:
                assert rx.recv(64) == b"pose"
        finally:
            for s in [tx, *rxs]:
                s.close()

    @pytest.mark.parametrize("receivers", [1, 3])
    def test_relayed_count_is_exact(self, server, receivers):
        addr = ("127.0.0.1", server.port)
        with client_connect(addr) as a:
            others = [client_connect(addr) for _ in range(receivers)]
            try:
                for i in range(30):
                    a.send(b"f%d" % i)
                assert wait_until(
                    lambda: all(o.session.stats.received >= 30 for o in others), a, *others
                )
                assert wait_until(lambda: server.stats.relayed >= 30 * receivers, a, *others)
                assert server.stats.relayed == 30 * receivers
                assert [o.session.stats.received for o in others] == [30] * receivers
            finally:
                for o in others:
                    o.close()


class TestEviction:
    def test_silent_client_evicted_and_leave_fanned_out(self):
        srv = RelayServer(
            ServerConfig(host="127.0.0.1", client_timeout_us=500_000)
        ).start()
        try:
            addr = ("127.0.0.1", srv.port)
            # B simulates a dead client: no keepalive
            with client_connect(addr) as a, client_connect(
                addr, keepalive_interval_s=None
            ) as b:
                b.send(b"hi")
                assert wait_until(
                    lambda: (SignalType.POSE, b.user_id, Origin.NETWORK)
                    in {tuple(d) for d in a.router.streams()}, a, b
                )
                b_id = b.user_id
                b_sock_addr = b.sock.getsockname()
                # keep A alive while B goes silent past the timeout
                deadline = time.monotonic() + 2.0
                evicted = False
                while time.monotonic() < deadline:
                    a.send(b"heartbeat")
                    if srv.stats.evictions >= 1:
                        evicted = True
                        break
                    pump(0.05, a, b)
                assert evicted
                # LEAVE tears down the peer stream on A
                assert wait_until(
                    lambda: (SignalType.POSE, b_id, Origin.NETWORK)
                    not in {tuple(d) for d in a.router.streams()}, a, b
                )
                # packets from the evicted endpoint are ignored until re-join
                before = a.session.stats.received
                b.sock.sendto(
                    frame_packet(SignalType.POSE, b_id, 99, mono_us(), b"zombie"), addr
                )
                pump(0.3, a, b)
                assert a.session.stats.received == before
                assert srv.stats.unknown_sender >= 1
        finally:
            srv.stop()

    def test_evicted_client_adopts_reassigned_id(self):
        srv = RelayServer(
            ServerConfig(host="127.0.0.1", client_timeout_us=300_000)
        ).start()
        try:
            addr = ("127.0.0.1", srv.port)
            # A goes silent without keepalives; B and C keep themselves alive.
            with client_connect(addr, keepalive_interval_s=None) as a, client_connect(
                addr, keepalive_interval_s=0.05
            ) as b:
                old_id = a.user_id
                a.send(b"before")
                assert wait_until(lambda: srv.stats.evictions >= 1, a, b)
                with client_connect(addr, keepalive_interval_s=0.05) as c:
                    assert c.user_id == old_id  # the freed id goes to the next joiner
                    a._send_keepalive(mono_us())  # re-admitted under a fresh id
                    assert wait_until(lambda: a.user_id != old_id, a, b, c)
                    new_id = a.user_id
                    assert new_id not in (b.user_id, c.user_id)
                    b_before = b.session.stats.received
                    c_before = c.session.stats.received
                    for _ in range(5):
                        a.send(b"pose")
                    assert wait_until(lambda: b.session.stats.received >= b_before + 5, a, b, c)
                    assert wait_until(lambda: c.session.stats.received >= c_before + 5, a, b, c)
                    assert srv.stats.spoofed == 0
                    assert (SignalType.POSE, new_id, Origin.NETWORK) in network_streams(b)
                    # A's local echo moved to the new id as well
                    assert (SignalType.POSE, new_id, Origin.LOCAL) in network_streams(a)
                    assert (SignalType.POSE, old_id, Origin.LOCAL) not in network_streams(a)
        finally:
            srv.stop()


class TestRelayRestart:
    def test_restarted_relay_gets_active_senders_back(self):
        keepalive_s = 0.3
        srv = RelayServer(ServerConfig(host="127.0.0.1")).start()
        port = srv.port
        addr = ("127.0.0.1", port)
        try:
            # A streams and never sends keepalives; B only watches.
            with client_connect(addr, keepalive_interval_s=None) as a, client_connect(
                addr, keepalive_interval_s=keepalive_s
            ) as b:
                a.send(b"before")
                assert wait_until(lambda: b.session.stats.received >= 1, a, b)
                srv.stop()
                srv = RelayServer(ServerConfig(host="127.0.0.1", port=port)).start()
                restarted = time.monotonic()
                before = b.session.stats.received
                # B's next keepalive registers it; A's poses draw a LEAVE
                # naming A, and A re-joins. B hears A within one keepalive
                # interval, plus slack.
                deadline = restarted + keepalive_s + 0.25
                while b.session.stats.received == before and time.monotonic() < deadline:
                    a.send(b"after")
                    pump(0.01, a, b)
                assert b.session.stats.received > before
                assert srv.stats.joins == 2
                assert srv.stats.relayed >= 1
                assert {a.user_id, b.user_id} == {1, 2}
        finally:
            srv.stop()

    def test_full_relay_rejects_the_rejoin_and_rate_limits_leaves(self):
        srv = RelayServer(ServerConfig(host="127.0.0.1", max_clients=2)).start()
        addr = ("127.0.0.1", srv.port)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(0.05)
        try:
            with client_connect(addr), client_connect(addr):
                # A client the relay never admitted, still sending as user 7.
                with Client(sock, addr, 7, SignalRouter(), keepalive_interval_s=None) as c:
                    t0 = time.monotonic()
                    while time.monotonic() - t0 < 0.35:
                        c.send(b"pose")
                        pump(0.005, c)
                    elapsed_us = (time.monotonic() - t0) * 1e6
                    pump(0.1, c)
                    rejoins = srv.stats.rejected_full
                    assert 1 <= rejoins <= elapsed_us // _LEAVE_REPLY_INTERVAL_US + 1
                    assert srv.stats.unknown_sender >= 50
                    assert srv.stats.joins == 2
                    assert c.user_id == 7
        finally:
            srv.stop()

    def test_leave_reply_names_the_header_id_once_per_interval(self):
        srv = RelayServer(ServerConfig(host="127.0.0.1")).start()
        addr = ("127.0.0.1", srv.port)
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        raw.settimeout(0.5)
        try:
            for seq in range(1, 6):
                raw.sendto(frame_packet(SignalType.POSE, 9, seq, mono_us(), b"p"), addr)
            leave = parse_packet(raw.recv(2048))
            assert leave.signal_type is SignalType.CONTROL
            assert (leave.user_id, leave.payload) == (SERVER_ID, (9).to_bytes(2, "little"))
            raw.settimeout(0.05)
            with pytest.raises(socket.timeout):
                raw.recv(2048)  # the other four poses drew no reply
            assert srv.stats.unknown_sender == 5
        finally:
            raw.close()
            srv.stop()

    def test_reply_state_is_bounded_and_cleared_by_the_scan(self):
        srv = RelayServer(ServerConfig(host="127.0.0.1"))
        try:
            now = mono_us()
            pose = frame_packet(SignalType.POSE, 3, 1, now, b"p")
            for i in range(_LEAVE_REPLY_SLOTS + 10):
                srv._handle(pose, ("127.0.0.1", 40000 + i), now)
            assert len(srv._leave_replies) == _LEAVE_REPLY_SLOTS
            srv._evict_scan(now + _LEAVE_REPLY_INTERVAL_US)
            assert srv._leave_replies == {}
        finally:
            srv.stop()


class TestNoHeadOfLineBlocking:
    def test_full_send_buffer_drops_the_datagram_and_the_next_goes_out(self):
        # A full kernel send buffer (BlockingIOError from the non-blocking
        # socket) drops that one datagram rather than stall the sender.
        class FullOnce:
            def __init__(self):
                self.full, self.sent = True, []

            def setblocking(self, flag):
                pass

            def sendto(self, data, addr):
                if self.full:
                    self.full = False
                    raise BlockingIOError
                self.sent.append(data)

            def close(self):
                pass

        sock = FullOnce()
        client = Client(sock, ("127.0.0.1", 9), 1, SignalRouter(), keepalive_interval_s=None)
        echo = client.router.subscribe(SignalSelector(SignalType.POSE, 1, Origin.LOCAL))
        stats = client.session.stats
        assert client.send(b"dropped") == 1
        assert (stats.send_errors, stats.sent) == (1, 0)
        assert echo.poll() == ([], 0)
        assert client.send(b"next") == 2
        assert (stats.send_errors, stats.sent) == (1, 1)
        assert [parse_packet(d).seq for d in sock.sent] == [2]
        assert [(p.seq, p.payload) for p in echo.poll().packets] == [(2, b"next")]
        client.close()

    def test_loss_on_one_flow_leaves_other_flow_healthy(self, server):
        # Flow A loses half its datagrams before they reach the socket;
        # flow B's delivery latency through the relay must stay in the
        # same band as the relay bound regardless.
        addr = ("127.0.0.1", server.port)
        rng = np.random.default_rng(5)
        with client_connect(addr) as a, client_connect(addr) as b, client_connect(
            addr, peer_ring_capacity=1024
        ) as c:
            consumer = c.router.subscribe(SignalSelector(SignalType.POSE, None, Origin.NETWORK))
            stop = time.monotonic() + 3.0
            seq_a = 0
            while time.monotonic() < stop:
                seq_a += 1
                if rng.random() > 0.5:  # 50% injected loss on A's flow
                    a.sock.sendto(
                        frame_packet(SignalType.POSE, a.user_id, seq_a, mono_us(), b"a"),
                        addr,
                    )
                b.send(b"b")
                pump(0.01, a, b, c)
            pump(0.2, a, b, c)
            transit_b = []
            for packet in consumer.poll(max_packets=8192).packets:
                if packet.user_id == b.user_id and packet.recv_timestamp_us is not None:
                    transit_b.append(packet.recv_timestamp_us - packet.send_timestamp_us)
            assert len(transit_b) > 100
            p95 = float(np.percentile(np.asarray(transit_b), 95))
            assert p95 < 15_000  # us: comfortably inside the relay latency band
