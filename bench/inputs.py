"""Seeded inputs for the workloads. The same seed gives the same bytes.

The program only ever sees what these functions build; the seed itself is a
benchmark argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dancegraph.codec import BoundsTable, EncodedFrame, analyze_bounds, decode_frame, encode_frame
from dancegraph.core import BodyZone, PoseFrame, default_skeleton
from dancegraph.harness import synthesize_noise_recording, synthesize_sway_recording
from dancegraph.packet import SignalType, frame_packet
from dancegraph.recording import Recording

FPS = 30.0
BPM = 120.0
BITS = 16
JITTER_RAD = 0.03
SESSION_PEERS = 29  # one receiver in a 30-dancer session
SESSION_SECONDS = 4.0
SWAP_SHARE = 0.02
RECEIVER_ID = 1


def jitter(seed: int, seconds: float) -> np.ndarray:
    """(frames, joints, 4) small white rotations, seeded."""
    noise = synthesize_noise_recording(
        default_skeleton(), duration_s=seconds, fps=FPS, amplitude_rad=JITTER_RAD, seed=seed
    )
    return np.stack([f.rotation_array() for f in noise.frames])


def dancer_clip(seed: int, seconds: float, noise: np.ndarray | None = None) -> Recording:
    """A 34-joint take: the hips sway near 1 Hz with their extrema a seeded
    distance off a 120 bpm grid, and every other joint jitters slightly, as
    a body tracker's output would. `noise` is that jitter; by default it is
    drawn from the seed."""
    rng = np.random.default_rng(seed)
    skeleton = default_skeleton()
    freq = 1.0 + rng.uniform(-0.02, 0.02)
    # Extrema of sin(2 pi f t + phase) land `offbeat` seconds after a beat.
    beat_s = 60.0 / BPM
    offbeat = rng.uniform(0.1, 0.2) * (1 if rng.random() < 0.5 else -1) % beat_s
    phase = math.pi / 2 - 2.0 * math.pi * freq * offbeat
    sway = synthesize_sway_recording(
        skeleton,
        duration_s=seconds,
        fps=FPS,
        frequency_hz=freq,
        amplitude_rad=rng.uniform(0.18, 0.22),
        phase_rad=phase,
    )
    if noise is None:
        noise = jitter(int(rng.integers(1 << 31)), seconds)
    hips = skeleton.joints_in_zone(BodyZone.HIPS)
    frames = []
    for s, n in zip(sway.frames, noise):
        rot = n.copy()
        rot[hips] = s.rotation_array()[hips]
        frames.append(PoseFrame.from_array(s.timestamp_us, s.root_translation, rot))
    return Recording(skeleton.joint_count, FPS, frames)


def bounds_for(clips) -> BoundsTable:
    skeleton = default_skeleton()
    return analyze_bounds(
        [c.frames for c in clips], margin=0.1, bits=BITS, joint_names=skeleton.joint_names
    )


@dataclass
class SessionInputs:
    """What one client of a 30-dancer session receives, tick by tick.

    `ticks[t]` holds the framed datagrams that arrive at tick t, one per
    peer. A seeded share of each peer's adjacent datagram pairs is swapped,
    so the later one arrives first and the earlier one is stale.
    `expected[t]` maps each peer to the frame index its newest pose at
    tick t should carry, or leaves the peer out when its datagram that tick
    is stale. `refs[(peer, index)]` is the reference decode of that payload.
    """

    table: BoundsTable
    ticks: list[list[bytes]]
    expected: list[dict[int, int]]
    stale_at: list[int]
    refs: dict[tuple[int, int], PoseFrame]


def session_inputs(seed: int, peers: int = SESSION_PEERS, seconds: float = SESSION_SECONDS) -> SessionInputs:
    rng = np.random.default_rng(seed)
    # One jitter track, shifted in time per peer, keeps set-up short.
    noise = jitter(int(rng.integers(1 << 31)), seconds)
    clips = [
        dancer_clip(int(rng.integers(1 << 31)), seconds, np.roll(noise, 7 * p, axis=0))
        for p in range(peers)
    ]
    table = bounds_for(clips)
    skeleton = default_skeleton()
    n_ticks = len(clips[0].frames)
    peer_ids = [RECEIVER_ID + 1 + p for p in range(peers)]
    # order[p][t] = frame index of the datagram peer p delivers at tick t
    order = []
    for _ in range(peers):
        idx = list(range(n_ticks))
        t = 0
        while t < n_ticks - 1:
            if rng.random() < SWAP_SHARE:
                idx[t], idx[t + 1] = idx[t + 1], idx[t]
                t += 2  # pairs never overlap, so each swap makes one stale drop
            else:
                t += 1
        order.append(idx)
    payloads = [
        [encode_frame(f, table).to_bytes() for f in clip.frames] for clip in clips
    ]
    refs = {}
    for p, pid in enumerate(peer_ids):
        for i in range(n_ticks):
            refs[(pid, i)] = decode_frame(
                EncodedFrame.from_bytes(payloads[p][i], table), table, skeleton
            )
    ticks, expected, stale_at = [], [], []
    newest = [-1] * peers
    for t in range(n_ticks):
        datagrams, exp, stale = [], {}, 0
        for p, pid in enumerate(peer_ids):
            i = order[p][t]
            datagrams.append(frame_packet(
                SignalType.POSE, pid, i + 1, clips[p].frames[i].timestamp_us, payloads[p][i]
            ))
            if i > newest[p]:
                newest[p] = i
                exp[pid] = i
            else:
                stale += 1
        ticks.append(datagrams)
        expected.append(exp)
        stale_at.append(stale)
    return SessionInputs(table, ticks, expected, stale_at, refs)
