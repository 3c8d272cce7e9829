"""The codec's per-frame bodies with Python-float operands, kept as a test oracle.

encode_frame and decode_frame give every ufunc a per-table operand array
(levels, 0.5, 0 and 1 in the layout of the data) instead of a Python
float. These are the same two bodies with the scalars in place, as they
were before the arrays, so the tests can require the same payload bytes,
clamp counts and decoded bits of both.
"""
from __future__ import annotations

import numpy as np

from dancegraph.codec import EncodedFrame, ShapeMismatchError, _pack_ints, _unpack_ints


def scalar_encode(frame, table, stats=None) -> EncodedFrame:
    arr = frame.rotations
    if arr.shape[0] != table.joint_count:
        raise ShapeMismatchError(
            f"frame has {arr.shape[0]} joints, table has {table.joint_count}"
        )
    if arr[:, 3].min() < 0.0:
        raise ValueError("frame must be canonicalized (w >= 0) before encoding")
    v = arr[:, :3]
    levels = float(table.levels)
    ints = v - table.lo
    ints /= table._span
    ints *= levels
    ints += 0.5
    np.floor(ints, out=ints)
    if stats is not None:
        stats.frames += 1
        stats.clamped_components += int(np.count_nonzero((v < table.lo) | (v > table.hi)))
    np.maximum(ints, 0.0, out=ints)
    np.minimum(ints, levels, out=ints)
    payload = _pack_ints(ints.reshape(-1), table.bits)
    return EncodedFrame(frame.timestamp_us, frame.root_translation, payload)


def scalar_decode(enc, table) -> np.ndarray:
    """The decoded (joints, 4) rotations."""
    joints = table.joint_count
    quats = _unpack_ints(enc.payload, joints * 3, table.bits)[table._gather].astype(np.float64)
    quats /= float(table.levels)
    quats *= table._span4
    quats += table._lo4
    sq = quats * quats
    w2 = sq[:, 0] + sq[:, 1]
    w2 += sq[:, 2]
    w2 = 1.0 - w2
    in_ball = table._in_ball
    np.sqrt(w2 if in_ball else np.maximum(w2, 0.0), out=quats[:, 3])
    if not in_ball and w2.min() < -1e-12:
        over = w2 < -1e-12
        quats[over] /= np.linalg.norm(quats[over], axis=1, keepdims=True)
    return quats
