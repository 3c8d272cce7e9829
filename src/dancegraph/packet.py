"""Wire-level signal packet framing.

One packet per UDP datagram. Layout, little-endian:

    offset  size  field
    0       2     magic 0xDA 0x9C
    2       1     version (currently 1)
    3       1     signal type (1=pose, 2=control, 3=telemetry)
    4       2     user id
    6       4     sequence number
    10      8     send timestamp, microseconds
    18      n     payload

The payload length is not carried on the wire: datagram transports preserve
message boundaries, so it is derived from the buffer size at parse time (and
exposed as `payload_len` on the parsed packet). An empty-payload packet is
exactly 18 bytes.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids an import cycle
    from .router import Origin

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "HEADER_SIZE",
    "MAX_PAYLOAD",
    "SEQ_MASK",
    "SignalType",
    "SignalPacket",
    "CorruptPacketError",
    "PayloadTooLargeError",
    "frame_packet",
    "parse_packet",
    "seq_newer",
]

MAGIC = b"\xda\x9c"
WIRE_VERSION = 1
HEADER_SIZE = 18
# A single unfragmented datagram below common path MTU; a 34-joint compressed
# pose (~224 bytes) fits with wide margin.
MAX_PAYLOAD = 1400

_HEADER = struct.Struct("<2sBBHIQ")
assert _HEADER.size == HEADER_SIZE

SEQ_MASK = 0xFFFFFFFF
_SEQ_HALF = 0x80000000


class CorruptPacketError(ValueError):
    """Buffer is not a well-formed packet; count it and carry on."""


class PayloadTooLargeError(ValueError):
    pass


class SignalType(IntEnum):
    POSE = 1
    CONTROL = 2
    TELEMETRY = 3


# Wire byte -> member; a dict lookup is cheaper than the enum's call.
_SIGNAL_TYPES = {t.value: t for t in SignalType}


@dataclass(slots=True)
class SignalPacket:
    """Parsed packet header plus payload.

    `recv_timestamp_us` and `origin` are local annotations that never travel
    on the wire: the receiver stamps the arrival time, and the router stamps
    the origin of the stream a packet is published on. The wire version is
    not kept, because `parse_packet` accepts only `WIRE_VERSION`.
    """

    signal_type: SignalType
    user_id: int
    seq: int
    send_timestamp_us: int
    payload: bytes = b""
    recv_timestamp_us: int | None = None
    origin: "Origin | None" = None

    @property
    def payload_len(self) -> int:
        return len(self.payload)

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + len(self.payload)

    def to_bytes(self) -> bytes:
        return frame_packet(
            self.signal_type, self.user_id, self.seq, self.send_timestamp_us, self.payload
        )


def frame_packet(
    signal_type: SignalType | int,
    user_id: int,
    seq: int,
    send_timestamp_us: int,
    payload: bytes = b"",
) -> bytes:
    """Emit the exact wire layout; deterministic bytes for identical inputs."""
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLargeError(
            f"payload is {len(payload)} bytes, limit is {MAX_PAYLOAD}"
        )
    return _HEADER.pack(
        MAGIC, WIRE_VERSION, int(signal_type), user_id, seq, send_timestamp_us
    ) + payload


def _parse_header(data: bytes) -> tuple[SignalType, int, int, int]:
    """Signal type, user id, sequence number and send timestamp of a datagram
    whose header passes the one check that parse_packet and the relay share."""
    if len(data) < HEADER_SIZE:
        raise CorruptPacketError(f"buffer too short: {len(data)} bytes")
    magic, version, sig_type, user_id, seq, send_ts = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptPacketError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise CorruptPacketError(f"unsupported version {version}")
    signal_type = _SIGNAL_TYPES.get(sig_type)
    if signal_type is None:
        raise CorruptPacketError(f"unknown signal type {sig_type}")
    if len(data) - HEADER_SIZE > MAX_PAYLOAD:
        raise CorruptPacketError(f"payload exceeds {MAX_PAYLOAD} bytes")
    return signal_type, user_id, seq, send_ts


def parse_packet(data: bytes) -> SignalPacket:
    """Validate and destructure a datagram.

    Raises CorruptPacketError on bad magic, short buffers, unknown version
    or signal type, or oversize payloads; callers count the drop and keep
    receiving.
    """
    signal_type, user_id, seq, send_ts = _parse_header(data)
    # positional: keyword arguments made each parse about 20% slower (Python 3.11)
    return SignalPacket(signal_type, user_id, seq, send_ts, bytes(data[HEADER_SIZE:]))


def seq_newer(seq: int, last: int | None) -> bool:
    """True if u32 sequence number `seq` comes after `last` in RFC 1982
    serial-number order, so a stream may wrap from 2**32 - 1 to 0. `last`
    is None before a flow's first packet, which is always accepted."""
    return last is None or 0 < ((seq - last) & SEQ_MASK) < _SEQ_HALF
