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
import numpy as np

from .core import PoseFrame, rows_canonicalize

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
    joint_count: int
    nominal_fps: float
    frames: list[PoseFrame]
    version: int = VERSION

    def __post_init__(self) -> None:
        _check_header(self.joint_count, self.nominal_fps)

    def validate(self) -> None:
        prev = None
        for i, frame in enumerate(self.frames):
            if len(frame.rotations) != self.joint_count:
                raise RecordingFormatError(f"frame {i} has wrong joint count")
            if prev is not None and frame.timestamp_us <= prev:
                raise RecordingFormatError(f"frame {i} timestamp does not increase")
            prev = frame.timestamp_us


class RecordingWriter:
    """Appends frames to disk as they arrive; close() truncates any partial
    tail so the file always ends on a frame boundary."""

    def __init__(self, path: str | Path, joint_count: int, nominal_fps: float):
        _check_header(joint_count, nominal_fps)
        self.path = Path(path)
        self.joint_count = joint_count
        self._layout = _frame_layout(joint_count)
        self.frame_size = self._layout.itemsize
        self._fh = open(self.path, "wb")
        self._fh.write(_HEADER.pack(MAGIC, VERSION, joint_count, nominal_fps))
        self._complete = _HEADER.size
        self.frames_written = 0
        self._last_ts: int | None = None

    def write_frame(self, frame: PoseFrame) -> None:
        if len(frame.rotations) != self.joint_count:
            raise RecordingFormatError(
                f"frame has {len(frame.rotations)} joints, file expects {self.joint_count}"
            )
        if self._last_ts is not None and frame.timestamp_us <= self._last_ts:
            raise RecordingFormatError("frame timestamps must strictly increase")
        record = np.empty((), dtype=self._layout)
        record["ts"] = frame.timestamp_us
        record["root"] = frame.root_translation
        record["rot"] = frame.rotations
        self._fh.write(record.tobytes())
        self._complete += self.frame_size
        self.frames_written += 1
        self._last_ts = frame.timestamp_us

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
    recording.validate()
    with RecordingWriter(path, recording.joint_count, recording.nominal_fps) as writer:
        for frame in recording.frames:
            writer.write_frame(frame)


def load_recording(path: str | Path) -> Recording:
    """Load a recording, dropping any trailing partial frame.

    This is an ingestion point: every rotation is canonicalized (unit norm,
    w >= 0) on the way in, whatever tool wrote the file.
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
    rotations = rows_canonicalize(body["rot"])
    rotations.setflags(write=False)
    roots = map(tuple, body["root"].astype(np.float64).tolist())
    frames = [PoseFrame(t, r, rot) for t, r, rot in zip(ts.tolist(), roots, rotations)]
    return Recording(joint_count=joint_count, nominal_fps=fps, frames=frames, version=version)
