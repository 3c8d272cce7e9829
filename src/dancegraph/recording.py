"""Binary pose recording files.

Layout, little-endian:

    magic "DGRC", u16 version, u16 joint_count, f32 nominal_fps
    then per frame: u64 timestamp_us, 3 x f32 root, joint_count x 4 x f32
    rotations in (x, y, z, w) order, stored raw (uncompressed).

Frames are written incrementally; a file interrupted mid-frame is truncated
back to the last complete frame on close, and the loader ignores a trailing
partial frame, so every file on disk replays.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import FrameBlock, InvalidQuaternionError, PoseFrame, _stack_frames, rows_canonicalize

__all__ = [
    "Recording",
    "RecordingFormatError",
    "RecordingWriter",
    "save_recording",
    "load_recording",
]

MAGIC = b"DGRC"
VERSION = 1

_HEADER = struct.Struct("<4sHHf")


def _frame_layout(joint_count: int) -> np.dtype:
    return np.dtype([("ts", "<u8"), ("root", "<f4", 3), ("rot", "<f4", (joint_count, 4))])


class RecordingFormatError(ValueError):
    pass


def _check_header(joint_count: int, nominal_fps: float) -> None:
    if joint_count < 1:
        raise RecordingFormatError("joint_count must be >= 1")
    # A NaN or infinite rate has no frame interval to replay or window by.
    if not 0.0 < nominal_fps < math.inf:
        raise RecordingFormatError(f"nominal_fps must be positive and finite, got {nominal_fps}")


@dataclass
class Recording:
    """A take: a core.FrameBlock from load_recording, or any frame sequence."""

    joint_count: int
    nominal_fps: float
    frames: Sequence[PoseFrame]

    def __post_init__(self) -> None:
        _check_header(self.joint_count, self.nominal_fps)


def _check_rotations(rot: np.ndarray) -> None:
    """Raise RecordingFormatError naming the first frame of the float32
    (frames, joints, 4) block `rot` that has a rotation of zero or
    non-finite norm."""
    # Squares summed in float32 can overflow or underflow for a usable row,
    # so only a row that fails there is summed again in float64, where the
    # squares of float32 values stay finite and > 0.
    for dtype in (np.float32, np.float64):
        n2 = np.einsum("fjc,fjc->fj", rot, rot, dtype=dtype)
        ok = (np.isfinite(n2) & (n2 > 0.0)).all(axis=1)
        if ok.all():
            return
    raise RecordingFormatError(
        f"frame {np.flatnonzero(~ok)[0]} rotation has zero or non-finite norm"
    ) from None


def _records(frames: Sequence[PoseFrame], joint_count: int, last_ts: int = -1) -> np.ndarray:
    """The frames as one block of file records, once they have joint_count
    joints each, float32-finite roots, rotations that the loader can
    normalize as float32, and timestamps that strictly increase from above
    `last_ts`, the last one written (-1: none, so the first is >= 0)."""
    try:
        ts, roots, rotations = _stack_frames(frames)
    except (ValueError, OverflowError) as exc:  # unequal joint counts, or a timestamp past int64
        raise RecordingFormatError(f"frames do not form one take: {exc}") from None
    if not len(ts):  # no frames, so no joints to check
        return np.empty(0, dtype=_frame_layout(joint_count))
    if rotations.shape[1:] != (joint_count, 4):
        raise RecordingFormatError(f"frames have {rotations.shape[1]} joints, not {joint_count}")
    if np.any(np.diff(ts, prepend=last_ts) <= 0):
        raise RecordingFormatError("frame timestamps must be >= 0 and strictly increase")
    if not np.all(np.abs(roots) <= np.finfo(np.float32).max):  # NaN fails this too
        raise RecordingFormatError("root translations must be finite as float32")
    records = np.empty(len(ts), dtype=_frame_layout(joint_count))
    records["ts"], records["root"], records["rot"] = ts, roots, rotations
    _check_rotations(records["rot"])
    return records


class RecordingWriter:
    """Appends frames to disk as they arrive; close() truncates any partial
    tail so the file always ends on a frame boundary."""

    def __init__(self, path: str | Path, joint_count: int, nominal_fps: float):
        _check_header(joint_count, nominal_fps)
        self.path = Path(path)
        self.joint_count = joint_count
        self._fh = open(self.path, "wb")
        self._fh.write(_HEADER.pack(MAGIC, VERSION, joint_count, nominal_fps))
        self._complete = _HEADER.size
        self.frames_written = 0
        self._last_ts = -1

    def write_frame(self, frame: PoseFrame) -> None:
        self._append(_records([frame], self.joint_count, self._last_ts))

    def _append(self, records: np.ndarray) -> None:
        """Write checked records (see _records) in one call."""
        self._fh.write(records.tobytes())
        self._complete += records.nbytes
        self.frames_written += len(records)
        if len(records):
            self._last_ts = int(records["ts"][-1])

    def close(self) -> None:
        if self._fh.closed:
            return
        try:
            self._fh.flush()
            self._fh.truncate(self._complete)
        finally:
            self._fh.close()

    def __enter__(self) -> "RecordingWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def save_recording(recording: Recording, path: str | Path) -> None:
    """Write a recording as one block. Every check runs before the file is
    opened, so a take that fails one leaves the file at `path` as it was."""
    records = _records(recording.frames, recording.joint_count)
    with RecordingWriter(path, recording.joint_count, recording.nominal_fps) as writer:
        writer._append(records)


def load_recording(path: str | Path) -> Recording:
    """Load a recording, dropping any trailing partial frame.

    This is an ingestion point: every rotation is canonicalized (unit norm,
    w >= 0) on the way in, whatever tool wrote the file. A non-finite root,
    or a rotation that cannot be normalized, raises RecordingFormatError.
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise RecordingFormatError("file too short for a recording header")
    magic, version, joint_count, fps = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise RecordingFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise RecordingFormatError(f"unsupported recording version {version}")
    _check_header(joint_count, fps)
    layout = _frame_layout(joint_count)
    count = (len(data) - _HEADER.size) // layout.itemsize
    body = np.frombuffer(data, dtype=layout, count=count, offset=_HEADER.size)
    ts = body["ts"]
    backwards = np.flatnonzero(ts[1:] <= ts[:-1])
    if backwards.size:
        raise RecordingFormatError(f"frame {backwards[0] + 1} timestamp does not increase")
    if count and ts[-1] > np.iinfo(np.int64).max:  # a take's timestamps are int64
        raise RecordingFormatError(f"frame timestamp {ts[-1]} is past the int64 range")
    bad_root = np.flatnonzero(~np.isfinite(body["root"]).all(axis=1))
    if bad_root.size:
        raise RecordingFormatError(f"frame {bad_root[0]} root translation is not finite")
    try:
        rotations = rows_canonicalize(body["rot"])
    except InvalidQuaternionError:  # the norms again, only to name the frame
        _check_rotations(body["rot"])
        raise
    frames = FrameBlock(ts.astype(np.int64), body["root"].astype(np.float64), rotations)
    return Recording(joint_count=joint_count, nominal_fps=fps, frames=frames)
