import math

import numpy as np
import pytest
from hypothesis import strategies as st

from dancegraph.core import InvalidQuaternionError, PoseFrame, default_skeleton

IDENTITY = (0.0, 0.0, 0.0, 1.0)

# Bounds-table documents not of the shape or version the README gives, each
# of which BoundsTable.from_json refuses with ValueError.
_JOINT = {"name": "hips", "x": [-0.5, 0.5], "y": [-0.5, 0.5], "z": [-0.5, 0.5]}
_HEADER = {"version": 1, "bits": 16}
MALFORMED_TABLES = [
    {"bits": 16, "joints": []},
    dict(_HEADER),
    [_JOINT],
    dict(_HEADER, joints=[{k: v for k, v in _JOINT.items() if k != "y"}]),
    dict(_HEADER, joints=[dict(_JOINT, x=[None, None])]),
    dict(_HEADER, joints=[dict(_JOINT, x=[0.5])]),
    dict(_HEADER, joints=[dict(_JOINT, x=0.5)]),
    dict(_HEADER, joints="hips"),
    dict(_HEADER, version=7, joints=[_JOINT]),
    # Values that int() would have coerced to version 1 or 16 bits.
    dict(_HEADER, version=1.9, joints=[_JOINT]),
    dict(_HEADER, version="1", joints=[_JOINT]),
    dict(_HEADER, version=True, joints=[_JOINT]),
    dict(_HEADER, bits=16.7, joints=[_JOINT]),
    dict(_HEADER, bits="16", joints=[_JOINT]),
]
MALFORMED_TABLE_IDS = [
    "no_version", "no_joints", "list", "joint_without_y", "null_bounds", "one_bound",
    "scalar_bound", "joints_string", "version_7", "version_float", "version_string",
    "version_bool", "bits_float", "bits_string",
]


def unit_quaternions(min_w: float | None = None):
    """Strategy for canonical unit quaternions, as (x, y, z, w) tuples,
    from raw 4-vectors."""

    def build(raw):
        x, y, z, w = raw
        n = math.sqrt(x * x + y * y + z * z + w * w)
        if n < 1e-6:
            return IDENTITY
        q = scalar_canonicalize(raw)
        if min_w is not None and q[3] < min_w:
            return IDENTITY
        return q

    component = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    return st.tuples(component, component, component, component).map(build)


def scalar_canonicalize(q) -> tuple[float, float, float, float]:
    """Pure-Python canonicalize of one (x, y, z, w) quaternion: the oracle
    for rows_canonicalize."""
    x, y, z, w = q
    n2 = x * x + y * y + z * z + w * w
    if not math.isfinite(n2) or n2 <= 0.0:
        raise InvalidQuaternionError(f"quaternion norm must be positive and finite, got {q!r}")
    if abs(n2 - 1.0) > 1e-12:
        inv = 1.0 / math.sqrt(n2)
        x, y, z, w = x * inv, y * inv, z * inv, w * inv
    if w < -1e-12:
        x, y, z, w = -x, -y, -z, -w
    elif w <= 1e-12:
        w = 0.0
        for c in (x, y, z):
            if abs(c) > 1e-12:
                if c < 0.0:
                    x, y, z = -x, -y, -z
                break
    return (x, y, z, w)


def scalar_from_axis_angle(axis, angle) -> tuple[float, float, float, float]:
    """Pure-Python axis-angle to canonical quaternion: the oracle for
    rows_from_axis_angle."""
    ax, ay, az = axis
    n = math.sqrt(ax * ax + ay * ay + az * az)
    if n == 0.0:
        raise InvalidQuaternionError("rotation axis must be nonzero")
    h = 0.5 * angle
    s = math.sin(h) / n
    return scalar_canonicalize((ax * s, ay * s, az * s, math.cos(h)))


def rotate_vector(q, v) -> tuple[float, float, float]:
    """Pure-Python rotation of a 3-vector by a unit quaternion."""
    x, y, z, w = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def geodesic_distance(a, b) -> float:
    """Angle of the rotation taking a to b, in [0, pi]; a and b are one
    quaternion each, as a (4,) or (1, 4) array or a 4-sequence."""
    ax, ay, az, aw = np.ravel(a).tolist()
    bx, by, bz, bw = np.ravel(b).tolist()
    d = abs(ax * bx + ay * by + az * bz + aw * bw)
    return 2.0 * math.acos(min(1.0, d))


def w_largest_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Canonical unit quaternions whose w is the largest-magnitude component.

    This is the codec's operating envelope: w is dropped on the wire
    precisely because it dominates in practice, and the reconstruction
    error bound scales with 1/w.
    """
    rows = []
    while len(rows) < n:
        q = rng.normal(size=(n, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q[q[:, 3] < 0.0] *= -1.0
        keep = np.abs(q[:, 3]) >= np.abs(q[:, :3]).max(axis=1)
        rows.extend(q[keep].tolist())
    return np.asarray(rows[:n])


def frames_from_rows(rows: np.ndarray, joint_count: int) -> list[PoseFrame]:
    """Pack a (N, 4) quaternion array into frames of `joint_count` joints."""
    frames = []
    n = len(rows)
    for i in range(0, n - joint_count + 1, joint_count):
        frames.append(PoseFrame.from_array(i, (0.0, 0.0, 0.0), rows[i:i + joint_count]))
    return frames


# For (x, y, z, w) rows, conj(m) * q == q @ _conj_product_matrix(m) and
# m * q == q @ _conj_product_matrix(m).T; entry (i, k) is sign * m[index].
# Only the Karcher oracle in test_core.py builds these products.
_CONJ_PRODUCT_INDEX = np.array([[3, 2, 1, 0], [2, 3, 0, 1], [1, 0, 3, 2], [0, 1, 2, 3]])
_CONJ_PRODUCT_SIGN = np.array([[1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1], [-1, -1, -1, 1]])


def _conj_product_matrix(m: np.ndarray) -> np.ndarray:
    return m[..., _CONJ_PRODUCT_INDEX] * _CONJ_PRODUCT_SIGN


@pytest.fixture
def skeleton():
    return default_skeleton()
