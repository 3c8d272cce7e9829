"""Skeleton, pose, and quaternion primitives shared by every other module.

All types here are immutable values and all operations are pure functions,
so they are safe to use from any number of threads without coordination.

Quaternions follow the (x, y, z, w) component order throughout the package.
The canonical hemisphere convention is w >= 0: the stream carries no sign
bit for the scalar part, so reconstruction after dropping w only works if
the sign is fixed at ingestion.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

__all__ = [
    "BodyZone",
    "Skeleton",
    "PoseFrame",
    "FrameBlock",
    "InvalidQuaternionError",
    "default_skeleton",
]

# A quaternion this close to unit norm is treated as already normalized;
# rescaling it again would only churn the low bits and break the bit-for-bit
# idempotence of rows_canonicalize().
_ALREADY_UNIT_TOL = 1e-12

# A |w| this small is rounding noise around a half-turn: its sign must not
# pick the canonical representative, or one rotation computed two ways could
# come out with opposite signs.
_HALF_TURN_TOL = 1e-12


class InvalidQuaternionError(ValueError):
    """Raised when an input quaternion cannot represent a rotation."""


class BodyZone(Enum):
    HIPS = "hips"
    SHOULDERS = "shoulders"
    HANDS = "hands"
    HEAD = "head"
    LEGS = "legs"
    SPINE = "spine"
    OTHER = "other"


# ---------------------------------------------------------------------------
# Row-vectorized quaternion kernels operating on (..., 4) float64 arrays in
# (x, y, z, w) column order. Every quaternion operation in the package runs
# through these; a single rotation is a (1, 4) array.
# ---------------------------------------------------------------------------

def rows_normalize(arr: np.ndarray) -> np.ndarray:
    return arr / np.sqrt((arr * arr).sum(axis=-1, keepdims=True))


def rows_canonicalize(arr: np.ndarray) -> np.ndarray:
    """Normalize each row and force it onto the w >= 0 hemisphere.

    At a half-turn (|w| <= _HALF_TURN_TOL) w is set to 0 and the first
    component among (x, y, z) whose magnitude exceeds _HALF_TURN_TOL is made
    non-negative, so every rotation has exactly one representative. Rows
    already within _ALREADY_UNIT_TOL of unit norm are not rescaled, so the
    result fed back in comes out unchanged bit for bit. Zero-norm or
    non-finite rows raise InvalidQuaternionError. Returns a new array."""
    out = np.array(arr, dtype=np.float64)
    x, y, z, w = out[..., 0], out[..., 1], out[..., 2], out[..., 3]
    n2 = x * x + y * y + z * z + w * w
    if not np.all(np.isfinite(n2) & (n2 > 0.0)):
        raise InvalidQuaternionError("quaternion norms must be positive and finite")
    # One multiply rescales and flips every row: by 1.0 or -1.0 it is exact,
    # so the rows that need neither keep their bits.
    scale = np.where(np.abs(n2 - 1.0) > _ALREADY_UNIT_TOL, 1.0 / np.sqrt(n2), 1.0)
    np.negative(scale, out=scale, where=w * scale < -_HALF_TURN_TOL)
    out *= scale[..., None]
    tie = w <= _HALF_TURN_TOL  # every w left below -_HALF_TURN_TOL was flipped
    if np.any(tie):
        w[tie] = 0.0
        v = out[..., :3]
        first = np.argmax(np.abs(v) > _HALF_TURN_TOL, axis=-1)
        lead = np.take_along_axis(v, first[..., None], axis=-1)[..., 0]
        v[tie & (lead < 0.0)] *= -1.0
    return out


def rows_from_axis_angle(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Canonical quaternions rotating by `angles` (...) radians about `axes`
    (..., 3), which need not be unit length; zero axes raise
    InvalidQuaternionError. The half-angle sines and cosines come from
    `math`, so the bits do not depend on the SIMD kernels numpy picks."""
    axes = np.asarray(axes, dtype=np.float64)
    half = 0.5 * np.asarray(angles, dtype=np.float64)
    if axes.shape != half.shape + (3,):
        raise ValueError(f"axes {axes.shape} do not match angles {half.shape} plus (3,)")
    ax, ay, az = axes[..., 0], axes[..., 1], axes[..., 2]
    n = np.sqrt(ax * ax + ay * ay + az * az)
    if np.any(n == 0.0):
        raise InvalidQuaternionError("rotation axis must be nonzero")
    flat = half.ravel().tolist()
    s = np.reshape(list(map(math.sin, flat)), half.shape) / n
    w = np.reshape(list(map(math.cos, flat)), half.shape)
    return rows_canonicalize(np.stack([ax * s, ay * s, az * s, w], axis=-1))


def rows_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ax, ay, az, aw = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx, by, bz, bw = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
            aw * bw - ax * bx - ay * by - az * bz,
        ],
        axis=-1,
    )


def rows_conjugate(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out[..., :3] *= -1.0
    return out


# Squared norms are floored at this before their square roots, so no
# division meets a zero: with no vector part the log weight is atan(t)/t ==
# 1/|w| (t = 1e-150).
_SQUARED_NORM_FLOOR = 1e-300


def rows_log_half(arr: np.ndarray) -> np.ndarray:
    """Half-angle log map per row (axis * theta/2); rows are flipped onto
    w >= 0 first. At a half-turn the axis is ambiguous and the vector part's
    own direction is used."""
    q = np.asarray(arr, dtype=np.float64)
    v, w = q[..., :3], q[..., 3]
    vn = np.sqrt(np.maximum(np.einsum("...k,...k->...", v, v), _SQUARED_NORM_FLOOR))
    f = np.arctan2(vn, np.abs(w)) / vn
    # f >= 0, so negating it where w < 0 leaves w == -0.0 positive.
    np.negative(f, out=f, where=w < 0.0)
    return v * f[..., None]


def rows_exp_half(vec: np.ndarray) -> np.ndarray:
    """Inverse of rows_log_half: tangent vector (axis * theta/2) to quaternion."""
    half = np.sqrt((vec * vec).sum(axis=-1))
    s = np.where(half > 1e-12, np.sin(half) / np.where(half > 1e-12, half, 1.0), 1.0)
    return np.concatenate([vec * s[..., None], np.cos(half)[..., None]], axis=-1)


def rows_scale_rotation(
    reference: np.ndarray,
    q: np.ndarray,
    gain: float | np.ndarray,
) -> np.ndarray:
    """Row-wise reference * exp(gain * log(reference^-1 * q)), canonicalized;
    `gain` is a scalar or an array broadcasting over the leading axes.

    A half-turn relative rotation, whose log axis is ambiguous, takes the
    vector part's axis instead of failing, so a streaming pipeline never
    halts on one bad frame.
    """
    if np.any(np.asarray(gain) < 0.0):
        raise ValueError(f"gain must be >= 0, got {gain}")
    rel = rows_multiply(rows_conjugate(reference), q)
    step = rows_exp_half(rows_log_half(rel) * gain)
    return rows_canonicalize(rows_multiply(reference, step))


def rows_slerp(a: np.ndarray, b: np.ndarray, u: float | np.ndarray) -> np.ndarray:
    """Row-wise spherical-linear interpolation from a (u=0) to b (u=1) of
    (..., 4) arrays, along the shorter arc; `u` is a scalar or an array
    broadcasting over the leading axes.

    Rows with u == 0 or u == 1 return the endpoints exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    dot = (a * b).sum(axis=-1)
    # Taking the shorter arc negates b; the sign rides on b's weight instead,
    # which is exact, so no negated copy of b is made.
    sign = np.where(dot < 0.0, -1.0, 1.0)
    dot = np.abs(dot)
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    s = np.sin(theta)
    near = s < 1e-6
    safe_s = np.where(near, 1.0, s)
    ka = np.where(near, 1.0 - u, np.sin((1.0 - u) * theta) / safe_s)
    kb = np.where(near, u, np.sin(u * theta) / safe_s) * sign
    out = a * ka[..., None]
    out += b * kb[..., None]
    out /= np.sqrt((out * out).sum(axis=-1, keepdims=True))  # rows_normalize, in place
    np.copyto(out, a, where=(u == 0.0)[..., None])
    np.copyto(out, b, where=(u == 1.0)[..., None])
    return out


# ---------------------------------------------------------------------------
# Skeleton and pose frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Skeleton:
    """Flat joint list with a body-zone label per joint.

    No parent links are modeled: nothing in the streaming or corrective
    pipeline needs the kinematic hierarchy.
    """

    joint_names: tuple[str, ...]
    zone_map: Mapping[int, BodyZone]

    def __post_init__(self) -> None:
        if len(self.joint_names) < 1:
            raise ValueError("skeleton needs at least one joint")
        if len(set(self.joint_names)) != len(self.joint_names):
            raise ValueError("joint names must be unique")
        expected = set(range(len(self.joint_names)))
        if set(self.zone_map.keys()) != expected:
            raise ValueError("zone_map must cover every joint index exactly once")
        object.__setattr__(self, "joint_names", tuple(self.joint_names))
        object.__setattr__(self, "zone_map", dict(self.zone_map))

    @property
    def joint_count(self) -> int:
        return len(self.joint_names)

    def zone_of(self, joint: int) -> BodyZone:
        return self.zone_map[joint]

    def joints_in_zone(self, zone: BodyZone) -> list[int]:
        return [j for j, z in self.zone_map.items() if z is zone]


def _default_rig() -> tuple[tuple[str, ...], dict[int, BodyZone]]:
    z = BodyZone
    spec: list[tuple[str, BodyZone]] = [
        ("pelvis", z.HIPS),
        ("spine_naval", z.SPINE),
        ("spine_chest", z.SPINE),
        ("neck", z.HEAD),
        ("clavicle_left", z.SHOULDERS),
        ("shoulder_left", z.SHOULDERS),
        ("elbow_left", z.OTHER),
        ("wrist_left", z.HANDS),
        ("hand_left", z.HANDS),
        ("handtip_left", z.HANDS),
        ("thumb_left", z.HANDS),
        ("clavicle_right", z.SHOULDERS),
        ("shoulder_right", z.SHOULDERS),
        ("elbow_right", z.OTHER),
        ("wrist_right", z.HANDS),
        ("hand_right", z.HANDS),
        ("handtip_right", z.HANDS),
        ("thumb_right", z.HANDS),
        ("hip_left", z.HIPS),
        ("knee_left", z.LEGS),
        ("ankle_left", z.LEGS),
        ("foot_left", z.LEGS),
        ("hip_right", z.HIPS),
        ("knee_right", z.LEGS),
        ("ankle_right", z.LEGS),
        ("foot_right", z.LEGS),
        ("head", z.HEAD),
        ("nose", z.HEAD),
        ("eye_left", z.HEAD),
        ("ear_left", z.HEAD),
        ("eye_right", z.HEAD),
        ("ear_right", z.HEAD),
        ("heel_left", z.LEGS),
        ("heel_right", z.LEGS),
    ]
    names = tuple(name for name, _ in spec)
    zones = {i: zone for i, (_, zone) in enumerate(spec)}
    return names, zones


_DEFAULT_NAMES, _DEFAULT_ZONES = _default_rig()


def default_skeleton() -> Skeleton:
    """The default 34-joint rig used by common depth-camera body trackers."""
    return Skeleton(_DEFAULT_NAMES, _DEFAULT_ZONES)


@dataclass(frozen=True, eq=False)
class PoseFrame:
    """One timestamped pose: root translation plus a rotation per joint.

    `timestamp_us` is microseconds on the source's monotonic clock and must
    be non-decreasing within a stream. `rotations` is a read-only
    (joints, 4) float64 array in (x, y, z, w) order, built once from any
    (joints, 4) sequence; an array that is already read-only float64 is
    shared rather than copied, so frames can be views into one clip-sized
    block. Rotations are expected canonical (w >= 0); ingestion enforces
    that, downstream code relies on it. Frames compare by value.
    """

    timestamp_us: int
    root_translation: tuple[float, float, float]
    rotations: np.ndarray

    def __post_init__(self) -> None:
        rot = self.rotations
        shareable = isinstance(rot, np.ndarray) and rot.dtype == np.float64
        if not shareable or rot.flags.writeable:
            rot = np.array(rot, dtype=np.float64)
            rot.setflags(write=False)
            object.__setattr__(self, "rotations", rot)
        if rot.ndim != 2 or rot.shape[1] != 4:
            raise ValueError(f"rotations must have shape (joints, 4), got {rot.shape}")

    @classmethod
    def _trusted(
        cls, timestamp_us: int, root_translation: tuple[float, float, float], rotations: np.ndarray
    ) -> "PoseFrame":
        """The frame of a read-only float64 (joints, 4) array that the caller
        has just built, without the checks of __post_init__."""
        frame = object.__new__(cls)
        frame.__dict__.update(
            timestamp_us=timestamp_us, root_translation=root_translation, rotations=rotations
        )
        return frame

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PoseFrame):
            return NotImplemented
        return (
            self.timestamp_us == other.timestamp_us
            and tuple(self.root_translation) == tuple(other.root_translation)
            and np.array_equal(self.rotations, other.rotations)
        )

    def rotation_array(self) -> np.ndarray:
        """The read-only (N, 4) rotations array itself; no copy is made."""
        return self.rotations

    @classmethod
    def from_array(
        cls,
        timestamp_us: int,
        root_translation: Sequence[float],
        rotations: np.ndarray,
    ) -> "PoseFrame":
        return cls(int(timestamp_us), tuple(map(float, root_translation)), rotations)


# A take as one block: timestamps (T,) int64, roots (T, 3) and rotations
# (T, J, 4) float64. Code that works on whole takes converts with these two.

class FrameBlock(Sequence[PoseFrame]):
    """A take as one read-only block, seen as a sequence of PoseFrames.

    Frame i is built on first access and cached, so an index always returns
    the same object; it shares row i of `rotations`. (Threads that first
    read one index at the same moment may each get their own, equal frame.)
    A slice is a plain list of those frames, and the block equals any
    sequence of equal frames."""

    __slots__ = ("ts", "roots", "rotations", "_frames")

    def __init__(self, ts: np.ndarray, roots: np.ndarray, rotations: np.ndarray):
        for arr in (ts, roots, rotations):
            arr.setflags(write=False)
        self.ts, self.roots, self.rotations = ts, roots, rotations
        self._frames: list[PoseFrame | None] = [None] * len(ts)

    def __len__(self) -> int:
        return len(self._frames)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        frame = self._frames[index]
        if frame is None:
            i = range(len(self))[index]
            frame = self._frames[i] = PoseFrame(
                int(self.ts[i]), tuple(self.roots[i].tolist()), self.rotations[i]
            )
        return frame

    def __iter__(self):
        # One sweep over whole-array conversions builds the missing frames
        # at about 60% of the cost of a __getitem__ call each.
        frames = self._frames
        if None in frames:
            rows = zip(self.ts.tolist(), self.roots.tolist(), self.rotations)
            for i, (t, root, rot) in enumerate(rows):
                if frames[i] is None:
                    frames[i] = PoseFrame(t, tuple(root), rot)
        return iter(frames)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _stack_frames(frames: Sequence[PoseFrame]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frames' (timestamps, roots, rotations) block: a FrameBlock's own
    read-only arrays, or new ones built from any other sequence. Unequal
    joint counts raise ValueError; an empty list has no joints."""
    if isinstance(frames, FrameBlock):
        return frames.ts, frames.roots, frames.rotations
    ts = np.fromiter((f.timestamp_us for f in frames), dtype=np.int64, count=len(frames))
    roots = np.fromiter(
        chain.from_iterable(f.root_translation for f in frames), dtype=np.float64,
        count=3 * len(frames),
    ).reshape(-1, 3)
    if not frames:
        return ts, roots, np.empty((0, 0, 4))
    return ts, roots, np.stack([f.rotations for f in frames])
