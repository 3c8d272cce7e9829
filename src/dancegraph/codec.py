"""Pose frame compression using dropped-w quaternions and per-joint bounds.

Each joint's (x, y, z) components are quantized against numeric ranges
measured from a motion corpus; w is always dropped and rebuilt from the
other three at decode time. Because canonical quaternions keep w >= 0, no
sign bit is needed, and because w is in practice the largest component of
body-pose rotations, dropping it (rather than the per-quaternion largest)
avoids spending two bits on a component index.

The codec is exact on its own quantization grid: re-encoding a decoded
frame reproduces the encoded bits, and the residual rotation error of a
single trip is bounded by max_angular_error().
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .core import PoseFrame, Skeleton, _stack_frames

__all__ = [
    "BoundsTable",
    "EncodedFrame",
    "EncoderStats",
    "ShapeMismatchError",
    "CorruptFrameError",
    "analyze_bounds",
    "encode_frame",
    "decode_frame",
    "max_angular_error",
]

_COMPONENTS = ("x", "y", "z")
_DEGENERATE_RANGE = 1e-6
_RANGE_FLOOR = 1e-3

# EncodedFrame wire prefix: u64 timestamp_us + 3 x f32 root, little-endian.
_FRAME_PREFIX = struct.Struct("<Qfff")
_BE_U16 = np.dtype(">u2")

# A table whose every box corner has |v|^2 below 1 - _BALL_MARGIN decodes any
# payload to w^2 > 0: the margin is far above the dequantize's rounding.
_BALL_MARGIN = 1e-9


def _check_bits(bits: int) -> None:
    if not (isinstance(bits, int) and not isinstance(bits, bool) and 8 <= bits <= 24):
        raise ValueError(f"bits_per_component must be an int in [8, 24], got {bits!r}")


def _check_margin(margin: float) -> None:
    if not (0.0 <= margin <= 0.5):
        raise ValueError(f"margin must be in [0, 0.5], got {margin}")


class ShapeMismatchError(ValueError):
    """Frame and table (or corpus streams) disagree on joint layout."""


class CorruptFrameError(ValueError):
    """Encoded payload cannot be a well-formed frame for the given table."""


@dataclass(frozen=True, eq=False)
class BoundsTable:
    """Per-joint, per-component quantization ranges learned from a corpus;
    compared and hashed by identity."""

    joint_names: tuple[str, ...]
    lo: np.ndarray  # (joints, 3) in x, y, z column order
    hi: np.ndarray
    bits: int = 16
    version: ClassVar[int] = 1  # the one table format

    def __post_init__(self) -> None:
        lo = np.array(self.lo, dtype=np.float64)
        hi = np.array(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[1] != 3:
            raise ShapeMismatchError("bounds must be (joints, 3) arrays")
        if lo.shape[0] != len(self.joint_names):
            raise ShapeMismatchError("bounds rows must match joint names")
        if lo.shape[0] == 0:
            raise ShapeMismatchError("bounds must cover at least one joint")
        _check_bits(self.bits)
        if not np.all(lo < hi):
            raise ValueError("every bound must satisfy lo < hi")
        if np.any(lo < -1.0) or np.any(hi > 1.0):
            raise ValueError("bounds must lie within [-1, 1]")
        span = hi - lo
        for arr in (lo, hi, span):
            arr.setflags(write=False)
        joints = lo.shape[0]
        object.__setattr__(self, "joint_names", tuple(self.joint_names))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # Constants of the per-frame codec, computed once per table. They are
        # plain attributes, not fields: repr and JSON ignore them.
        object.__setattr__(self, "joint_count", joints)
        object.__setattr__(self, "payload_bytes", (joints * 3 * self.bits + 7) // 8)
        object.__setattr__(self, "_span", span)
        corner = np.maximum(lo * lo, hi * hi).sum(axis=1)
        object.__setattr__(self, "_in_ball", bool(corner.max() < 1.0 - _BALL_MARGIN))
        # Decode's (joints, 4) layout: row j gathers payload components 3j,
        # 3j + 1 and 3j + 2, and its w column, overwritten by the decode,
        # dequantizes finitely against span 1 and lo 0.
        gather = 3 * np.arange(joints, dtype=np.intp)[:, None] + np.array([0, 1, 2, 0])
        span4 = np.hstack([span, np.ones((joints, 1))])
        lo4 = np.hstack([lo, np.zeros((joints, 1))])
        # The per-frame ufuncs' other operands, as arrays of their layout: a
        # Python float operand costs about a third more under numpy 2's
        # scalar promotion, and gives the same bits.
        levels = float(self.levels)
        operands = {
            "_gather": gather, "_span4": span4, "_lo4": lo4,
            "_levels4": np.full((joints, 4), levels), "_ones": np.ones(joints),
            "_zeros": np.zeros(joints), "_levels3": np.full((joints, 3), levels),
            "_half3": np.full((joints, 3), 0.5), "_zeros3": np.zeros((joints, 3)),
        }
        for name, arr in operands.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def levels(self) -> int:
        return (1 << self.bits) - 1

    @property
    def step(self) -> np.ndarray:
        """Quantization step per joint component, shape (joints, 3)."""
        return self._span / self.levels

    def to_json(self, dest: str | Path) -> None:
        doc = {
            "version": self.version,
            "bits": self.bits,
            "joints": [
                {
                    "name": name,
                    "x": [float(self.lo[j, 0]), float(self.hi[j, 0])],
                    "y": [float(self.lo[j, 1]), float(self.hi[j, 1])],
                    "z": [float(self.lo[j, 2]), float(self.hi[j, 2])],
                }
                for j, name in enumerate(self.joint_names)
            ],
        }
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)

    @classmethod
    def from_json(cls, src: str | Path) -> "BoundsTable":
        """The table in a file written by to_json. A document of any other
        shape or version raises ValueError."""
        with open(src, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            joints = doc["joints"]
            names = tuple(entry["name"] for entry in joints)
            pairs = np.array([[entry[c] for c in _COMPONENTS] for entry in joints], dtype=float)
            bits, version = doc["bits"], doc["version"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{src} is not a bounds table: {exc!r}") from None
        for key, value in (("version", version), ("bits", bits)):
            if type(value) is not int:
                raise ValueError(f"{src}: bounds table {key} {value!r} is not an integer")
        if pairs.shape != (len(names), 3, 2):
            raise ValueError(f"{src} is not a bounds table: bounds are not [lo, hi] pairs")
        if version != cls.version:
            raise ValueError(f"{src}: bounds table version {version} is not {cls.version}")
        return cls(names, pairs[..., 0], pairs[..., 1], bits=bits)


@dataclass
class EncoderStats:
    """Mutable clamp accounting owned by a single encoding activity."""

    frames: int = 0
    clamped_components: int = 0


@dataclass(frozen=True)
class EncodedFrame:
    """Bit-packed frame: timestamp and root pass through uncompressed."""

    timestamp_us: int
    root_translation: tuple[float, float, float]
    payload: bytes

    def to_bytes(self) -> bytes:
        rx, ry, rz = self.root_translation
        return _FRAME_PREFIX.pack(self.timestamp_us, rx, ry, rz) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes, table: BoundsTable) -> "EncodedFrame":
        need = _FRAME_PREFIX.size + table.payload_bytes
        if len(data) != need:
            raise CorruptFrameError(f"expected {need} bytes, got {len(data)}")
        ts, rx, ry, rz = _FRAME_PREFIX.unpack_from(data)
        # Three float32 values sum without overflow, so the sum is finite
        # exactly when all three are.
        if not isfinite(rx + ry + rz):
            raise CorruptFrameError(f"root translation {(rx, ry, rz)} is not finite")
        # The fields as __init__ would set them, without its frozen setattrs.
        enc = object.__new__(cls)
        enc.__dict__.update(
            timestamp_us=ts, root_translation=(rx, ry, rz),
            payload=bytes(data[_FRAME_PREFIX.size:]),
        )
        return enc


def analyze_bounds(
    corpus: Iterable[Sequence[PoseFrame]],
    margin: float = 0.1,
    bits: int = 16,
    *,
    joint_names: Sequence[str] | None = None,
) -> BoundsTable:
    """Measure per-joint component ranges over a corpus of pose streams.

    Each joint component's (lo, hi) is the observed min/max widened by
    `margin` times the observed range, clamped to [-1, 1]. Components that
    barely move get a floor range of 1e-3 centered on the observed value so
    the quantizer never divides by a degenerate span.
    """
    _check_margin(margin)
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None
    joint_count: int | None = None
    for stream in corpus:
        if len(stream) == 0:
            continue
        _, _, arr = _stack_frames(stream)  # (frames, J, 4)
        if joint_count is None:
            joint_count = arr.shape[1]
        elif arr.shape[1] != joint_count:
            raise ShapeMismatchError(
                f"corpus streams disagree on joint count: {arr.shape[1]} vs {joint_count}"
            )
        if np.any(arr[:, :, 3] < 0.0):
            raise ValueError("corpus frames must be canonicalized (w >= 0) before analysis")
        v = arr[:, :, :3]
        smin = v.min(axis=0)
        smax = v.max(axis=0)
        mins = smin if mins is None else np.minimum(mins, smin)
        maxs = smax if maxs is None else np.maximum(maxs, smax)
    if joint_count is None:
        raise ValueError("corpus is empty: need at least one stream with frames")

    rng = maxs - mins
    lo = mins - margin * rng
    hi = maxs + margin * rng
    degenerate = rng < _DEGENERATE_RANGE
    center = (mins + maxs) / 2.0
    lo = np.where(degenerate, center - _RANGE_FLOOR / 2.0, lo)
    hi = np.where(degenerate, center + _RANGE_FLOOR / 2.0, hi)
    lo = np.clip(lo, -1.0, 1.0)
    hi = np.clip(hi, -1.0, 1.0)
    # Clamping can collapse a span that hugged the boundary; reopen minimally.
    collapsed = hi - lo < _DEGENERATE_RANGE
    lo = np.where(collapsed & (lo > -1.0 + _RANGE_FLOOR), hi - _RANGE_FLOOR, lo)
    hi = np.where(collapsed & (lo <= -1.0 + _RANGE_FLOOR), lo + _RANGE_FLOOR, hi)

    if joint_names is None:
        joint_names = tuple(f"joint_{i:02d}" for i in range(joint_count))
    elif len(joint_names) != joint_count:
        raise ShapeMismatchError("joint_names length must match corpus joint count")
    return BoundsTable(tuple(joint_names), lo, hi, bits=bits)


def _pack_ints(values: np.ndarray, bits: int) -> bytes:
    """Bit-pack integral values in [0, 2**bits) MSB-first into a zero-padded
    byte string. Float arrays holding whole numbers pack like ints."""
    if bits == 16:
        return values.astype(_BE_U16).tobytes()
    # Spread each value over 32 big-endian bits, keep the low `bits` of them.
    spread = np.unpackbits(values.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
    return np.packbits(spread[:, 32 - bits:]).tobytes()


def _unpack_ints(payload: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of `_pack_ints`: `count` big-endian unsigned ints."""
    if bits == 16:
        return np.frombuffer(payload, _BE_U16)  # positional: a dtype= keyword costs ~0.2 us
    spread = np.zeros((count, 32), dtype=np.uint8)
    spread[:, 32 - bits:] = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=count * bits
    ).reshape(count, bits)
    return np.packbits(spread, axis=1).view(">u4").reshape(count)


def encode_frame(
    frame: PoseFrame,
    table: BoundsTable,
    stats: EncoderStats | None = None,
) -> EncodedFrame:
    """Quantize a canonical frame against the table and bit-pack it.

    Components are mapped to round((v - lo) / (hi - lo) * (2^bits - 1)) with
    half-way values rounded away from zero, fixed across platforms so golden
    payloads compare bit-for-bit. Out-of-bounds inputs clamp to the edge of
    the grid and are tallied in `stats` instead of escaping the fixed-size
    layout.
    """
    arr = frame.rotations
    if arr.shape[0] != table.joint_count:
        raise ShapeMismatchError(
            f"frame has {arr.shape[0]} joints, table has {table.joint_count}"
        )
    if arr[:, 3].min() < 0.0:
        raise ValueError("frame must be canonicalized (w >= 0) before encoding")
    v = arr[:, :3]
    # (v - lo) / (hi - lo) * levels, rounded half away from zero; the value is
    # only negative when out of bounds below, and those clamp to 0 anyway.
    ints = v - table.lo
    ints /= table._span
    ints *= table._levels3
    ints += table._half3
    np.floor(ints, out=ints)
    if stats is not None:
        stats.frames += 1
        stats.clamped_components += int(np.count_nonzero((v < table.lo) | (v > table.hi)))
    np.maximum(ints, table._zeros3, out=ints)
    np.minimum(ints, table._levels3, out=ints)
    payload = _pack_ints(ints.reshape(-1), table.bits)
    return EncodedFrame(frame.timestamp_us, frame.root_translation, payload)


def decode_frame(enc: EncodedFrame, table: BoundsTable, skeleton: Skeleton) -> PoseFrame:
    """Rebuild a pose frame: dequantize x, y, z and reconstruct w.

    w = sqrt(max(0, 1 - x^2 - y^2 - z^2)); the result is renormalized only
    when quantization pushed the vector part outside the unit ball, keeping
    the common path bit-stable. A table whose box lies inside the ball
    cannot decode such a vector, so it skips the clamp and the check. The
    rotations are built in their (joints, 4) layout by one gather of the
    payload's integers, and the frame takes that new read-only array without
    checking it again. The frame carries `enc`'s timestamp and root
    translation objects as they are.
    """
    joints = table.joint_count
    if skeleton.joint_count != joints:
        raise ShapeMismatchError(
            f"skeleton has {skeleton.joint_count} joints, table has {joints}"
        )
    payload = enc.payload
    if len(payload) != table.payload_bytes:
        raise CorruptFrameError(
            f"payload is {len(payload)} bytes, table dimensions need {table.payload_bytes}"
        )
    # The operation order of lo + ints / levels * (hi - lo), so the rotations
    # stay bit-identical, in the frame's own (joints, 4) buffer. The ints
    # convert to float exactly, and converting first is cheaper than dividing
    # big-endian ints.
    quats = _unpack_ints(payload, joints * 3, table.bits)[table._gather].astype(np.float64)
    quats /= table._levels4
    quats *= table._span4
    quats += table._lo4
    sq = quats * quats
    w2 = sq[:, 0] + sq[:, 1]
    w2 += sq[:, 2]
    np.subtract(table._ones, w2, out=w2)
    in_ball = table._in_ball
    np.sqrt(w2 if in_ball else np.maximum(w2, table._zeros), out=quats[:, 3])
    if not in_ball and w2.min() < -1e-12:
        over = w2 < -1e-12
        quats[over] /= np.linalg.norm(quats[over], axis=1, keepdims=True)
    quats.setflags(write=False)
    return PoseFrame._trusted(enc.timestamp_us, enc.root_translation, quats)


def max_angular_error(table: BoundsTable) -> float:
    """Upper bound on single-trip geodesic reconstruction error, in radians.

    Per joint, the vector-part quantization error is at most half a step per
    component, giving a worst-case 4-vector chord of vec_err / w: rebuilding
    w turns component error into chord error amplified by 1/w. The rotation
    angle between unit quaternions at chord c is 4*asin(c/2). w is bounded
    below by the table itself (in-bounds values cannot push the vector part
    past the bound box) and floored at 0.1 to match the codec's operating
    envelope, where w is the largest component.
    """
    half_step = table.step / 2.0
    vec_err = np.sqrt((half_step**2).sum(axis=1))  # (J,)
    worst_comp = np.maximum(table.lo**2, table.hi**2)
    w_min = np.sqrt(np.clip(1.0 - worst_comp.sum(axis=1), 0.0, None))
    amp = 1.0 / np.maximum(w_min, 0.1)
    bound = 4.0 * np.arcsin(np.minimum(1.0, 0.5 * vec_err * amp))
    return float(bound.max())
