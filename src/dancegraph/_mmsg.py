"""Batched UDP fan-out (Linux sendmmsg).

Relaying one pose packet to N peers costs N sendto calls; on hosts where
syscalls are expensive that dominates the relay. FanoutSender sends all N
copies in one syscall while keeping every packet its own datagram, so
nothing about the wire protocol changes. On platforms without sendmmsg it
quietly falls back to a sendto loop. Only the fan-out is batched: draining
a receive socket with plain recv calls measured no slower than recvmmsg.
"""
from __future__ import annotations

import ctypes
import socket
import struct

__all__ = ["FanoutSender"]

# The symbols already loaded into this process, libc's among them. Naming
# the library instead (ctypes.util.find_library) would import subprocess
# and run ldconfig, or a compiler, in every process that imports this.
try:
    _libc = ctypes.CDLL(None)
    _HAVE = hasattr(_libc, "sendmmsg")
except (OSError, TypeError):  # pragma: no cover - platforms without dlopen(NULL)
    _libc = None
    _HAVE = False


class _iovec(ctypes.Structure):
    _fields_ = [("iov_base", ctypes.c_void_p), ("iov_len", ctypes.c_size_t)]


class _msghdr(ctypes.Structure):
    _fields_ = [
        ("msg_name", ctypes.c_void_p),
        ("msg_namelen", ctypes.c_uint),
        ("msg_iov", ctypes.POINTER(_iovec)),
        ("msg_iovlen", ctypes.c_size_t),
        ("msg_control", ctypes.c_void_p),
        ("msg_controllen", ctypes.c_size_t),
        ("msg_flags", ctypes.c_int),
    ]


class _mmsghdr(ctypes.Structure):
    _fields_ = [("msg_hdr", _msghdr), ("msg_len", ctypes.c_uint)]


class _sockaddr_in(ctypes.Structure):
    _fields_ = [
        ("sin_family", ctypes.c_ushort),
        ("sin_port", ctypes.c_uint16),
        ("sin_addr", ctypes.c_uint32),
        ("sin_zero", ctypes.c_char * 8),
    ]


def _pack_sockaddr(addr: tuple[str, int]) -> _sockaddr_in:
    host, port = addr
    sa = _sockaddr_in()
    sa.sin_family = socket.AF_INET
    sa.sin_port = socket.htons(port)
    sa.sin_addr = struct.unpack("<I", socket.inet_aton(host))[0]
    return sa


class FanoutSender:
    """Send one payload to a fixed set of destinations in one syscall.

    Destination arrays are prepared once per membership change; per send
    only the shared payload buffer and its length are updated. A single
    destination gets a plain sendto, which costs less than staging the
    payload for sendmmsg.
    """

    MAX_PAYLOAD = 2048

    def __init__(self, sock: socket.socket, destinations: list[tuple[str, int]]):
        self._sock = sock
        self._dests = list(destinations)
        n = len(destinations)
        self._batched = _HAVE and n > 1
        if not self._batched:
            return
        try:
            self._buf = ctypes.create_string_buffer(self.MAX_PAYLOAD)
            self._iov = _iovec(ctypes.cast(self._buf, ctypes.c_void_p), 0)
            self._addrs = (_sockaddr_in * n)()
            self._msgs = (_mmsghdr * n)()
            for i, dest in enumerate(destinations):
                self._addrs[i] = _pack_sockaddr(dest)
                self._msgs[i].msg_hdr.msg_name = ctypes.cast(
                    ctypes.byref(self._addrs[i]), ctypes.c_void_p
                )
                self._msgs[i].msg_hdr.msg_namelen = ctypes.sizeof(_sockaddr_in)
                self._msgs[i].msg_hdr.msg_iov = ctypes.pointer(self._iov)
                self._msgs[i].msg_hdr.msg_iovlen = 1
        except OSError:
            self._batched = False

    def send(self, data: bytes) -> int:
        """Returns the number of destinations the datagram reached; a send
        error skips its destination and never raises."""
        if not self._batched or len(data) > self.MAX_PAYLOAD:
            sent = 0
            for dest in self._dests:
                try:
                    self._sock.sendto(data, dest)
                    sent += 1
                except OSError:
                    pass
            return sent
        size = len(data)
        ctypes.memmove(self._buf, data, size)
        self._iov.iov_len = size
        fd, count = self._sock.fileno(), len(self._dests)
        reached = tried = 0
        while tried < count:
            # sendmmsg stops at the first datagram it cannot send and returns
            # how many went before it, or -1 if none did. That one is skipped
            # and the rest sent on, as the sendto loop does.
            n = _libc.sendmmsg(fd, ctypes.byref(self._msgs[tried]), count - tried, 0)
            reached += max(n, 0)
            tried += max(n, 1)
        return reached
