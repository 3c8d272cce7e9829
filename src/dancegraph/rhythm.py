"""Rhythmic motion correction for incoming pose streams.

Three stages, each usable on its own:

1. Detection: per joint component, a Hann-windowed periodogram of the
   motion time series locates the dominant sway frequency in the danceable
   band (0.25 to 4 Hz, i.e. 15 to 240 sways per minute); the peak is
   refined by parabolic interpolation over log magnitudes, so the estimate
   resolves far below the raw bin width. The components of every joint in
   an analysis window are one (components, window) array that goes through
   one window, one rfft and one peak search. Per-joint estimates are fused
   by clustering periods that agree within 10% and energy-weighting the
   heaviest cluster: the dance has one rhythm.

2. Beat alignment: a monotonic time warp resamples the stream so motion
   extrema land on the local beat grid. An oscillation produces extrema
   every half period, so the extremum interval (period / 2) is matched
   against the beat period at whole multiples or subdivisions; the residual
   playback-rate ratio must stay within max_rate_ratio or the stream is
   passed through untouched and flagged. The phase correction converges to
   the constant that puts extrema on the nearest grid points (never more
   than half a beat away) and is slew-limited so a live viewer never sees a
   pop; the constant rate factor is bounded separately by max_rate_ratio.
   The warp is stepped frame by frame, one loop per steer segment, to get
   each output frame's source time; its state is five locals of _retime
   (the last output time and source time, the rate, and the phase
   displacement applied and targeted). A time on a source frame takes that
   row, and the rest are slerped from their bracketing rows in blocks.
   run_corrective_pipeline is the one way into the warp.

3. Stylization: per body zone, rotations are geodesically extrapolated away
   from a rolling reference orientation, the chordal mean of the trailing
   window, widening (gain > 1), muting (gain < 1), or freezing (gain 0) the
   motion of that zone.

The feature signal is the raw quaternion component: for a sway about a
fixed axis it is a monotone function of the sway angle, so extrema timing
is preserved without needing any skeleton hierarchy.

The stages work on a take as one array block (core._stack_frames). They
accept any sequence of frames and return a core.FrameBlock, whose frames are
views built on first access. A caller sets the beat grid and the zone gains
(corrective_settings); the window, threshold, slew and rate bound are fixed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    BodyZone,
    FrameBlock,
    PoseFrame,
    Skeleton,
    _stack_frames,
    rows_normalize,
    rows_scale_rotation,
    rows_slerp,
)

__all__ = [
    "BeatGrid",
    "PeriodEstimate",
    "CorrectiveParams",
    "FeatureSeries",
    "InsufficientDataError",
    "extract_feature_series",
    "detect_dominant_period",
    "aggregate_joint_period",
    "amplify_zones",
    "WarpSample",
    "run_corrective_pipeline",
    "PipelineResult",
    "load_corrective_config",
    "corrective_settings",
]

DETECTION_BAND_HZ = (0.25, 4.0)

_COMPONENT_INDEX = {"x": 0, "y": 1, "z": 2}
_TWO_PI = 2.0 * math.pi

# Phase shifts and rate offsets below these are treated as already aligned,
# keeping the no-op warp bit-stable.
_PHASE_SNAP_US = 0.5
_RATE_SNAP = 1e-9

# Frames resampled per rows_slerp call. A whole take in one call would hold
# several (frames, J, 4) temporaries at once and raise the peak memory of a
# correction by a few MB; blocks this size cost no measurable time.
_RESAMPLE_BLOCK = 64


class InsufficientDataError(ValueError):
    """Analysis window is too short or too irregular to use."""


@dataclass(frozen=True)
class BeatGrid:
    """Musical time reference: tempo plus the stream-clock time of beat 0."""

    bpm: float
    phase_offset_us: int = 0

    def __post_init__(self) -> None:
        if not (30.0 <= self.bpm <= 300.0):
            raise ValueError(f"bpm must be in [30, 300], got {self.bpm}")

    @property
    def beat_period_us(self) -> float:
        return 60e6 / self.bpm

    def nearest_beat_us(self, t_us: float) -> float:
        period = self.beat_period_us
        k = round((t_us - self.phase_offset_us) / period)
        return self.phase_offset_us + k * period


@dataclass(frozen=True)
class PeriodEstimate:
    """Dominant period of one joint's motion over an analysis window.

    The phase is that of a cosine model evaluated at the first sample of
    the analysis window; extrema of the motion sit where the model phase is
    a multiple of pi.
    """

    period_us: int
    phase_rad: float
    energy_ratio: float
    joint: int

    def __post_init__(self) -> None:
        if self.period_us <= 0:
            raise ValueError("period_us must be positive")
        if not (0.0 <= self.energy_ratio <= 1.0):
            raise ValueError("energy_ratio must be in [0, 1]")


@dataclass(frozen=True)
class CorrectiveParams:
    """Per-zone gains, 1 where unset; the other settings are constants."""

    window_frames: ClassVar[int] = 256
    detection_threshold: ClassVar[float] = 0.2
    max_warp_slew: ClassVar[float] = 0.03  # seconds of added warp per second of playback
    max_rate_ratio: ClassVar[float] = 1.1
    zone_gains: Mapping[BodyZone, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        gains = dict(self.zone_gains)
        for zone in BodyZone:
            gains.setdefault(zone, 1.0)
        if not all(math.isfinite(g) and g >= 0.0 for g in gains.values()):
            raise ValueError("zone gains must be finite and >= 0")
        object.__setattr__(self, "zone_gains", gains)

    def gain_for(self, zone: BodyZone) -> float:
        return self.zone_gains[zone]


@dataclass(frozen=True, eq=False)
class FeatureSeries:
    """One quaternion component of one joint over a uniform window."""

    joint: int
    component: str
    samples: np.ndarray
    fps: float

    def __post_init__(self) -> None:
        if self.component not in _COMPONENT_INDEX:
            raise ValueError(f"component must be one of x, y, z, got {self.component!r}")
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if self.fps <= 0:
            raise ValueError("fps must be positive")


def _phase_us(ms: float) -> int:
    """A phase offset in milliseconds as whole microseconds, rounded;
    ValueError for one that is not finite in microseconds."""
    us = float(ms) * 1000.0
    if not math.isfinite(us):
        raise ValueError(f"phase offset must be finite, got {ms} ms")
    return round(us)


def corrective_settings(
    bpm: float, phase_ms: float = 0.0, zone_gains: Mapping[BodyZone, float] | None = None
) -> tuple[BeatGrid, CorrectiveParams]:
    """`dancegraph correct`'s settings, from its flags or its config alike."""
    grid = BeatGrid(bpm=float(bpm), phase_offset_us=_phase_us(phase_ms))
    return grid, CorrectiveParams(zone_gains=zone_gains or {})


def load_corrective_config(src: str | Path) -> tuple[BeatGrid, CorrectiveParams]:
    """Read the JSON corrective config: bpm, phase_offset_ms and zone_gains.
    A config without a bpm, with any other key, or whose zone_gains is not
    an object, raises ValueError."""
    with open(src, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "bpm" not in doc:
        raise ValueError(f"corrective config {src} has no bpm")
    unknown = sorted(doc.keys() - {"bpm", "phase_offset_ms", "zone_gains"})
    if unknown:
        raise ValueError(f"corrective config {src}: unknown keys {unknown}")
    gains = doc.get("zone_gains", {})
    if not isinstance(gains, dict):
        raise ValueError(f"corrective config {src}: zone_gains must be an object")
    gains = {BodyZone(name.lower()): float(value) for name, value in gains.items()}
    return corrective_settings(doc["bpm"], doc.get("phase_offset_ms", 0.0), gains)


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

def extract_feature_series(
    window: Sequence[PoseFrame],
    joint: int,
    component: str,
) -> FeatureSeries:
    """Pull one joint component out of a frame window as a zero-mean series.

    The window must be uniformly sampled: timestamps may jitter at most 10%
    around the median frame interval, otherwise the series is useless for
    spectral analysis and an InsufficientDataError is raised.
    """
    if component not in _COMPONENT_INDEX:
        raise ValueError(f"component must be one of x, y, z, got {component!r}")
    ts, _, rotations = _stack_frames(window)
    fps = _window_fps(ts)
    values = rotations[:, joint, _COMPONENT_INDEX[component]]
    return FeatureSeries(joint, component, values - values.mean(), fps)


def _window_fps(ts: np.ndarray) -> float:
    """Frame rate of a window of timestamps, which must be uniformly sampled."""
    n = len(ts)
    if n < 16:
        raise InsufficientDataError(f"window of {n} frames is too short")
    dts = np.diff(ts)
    median_dt = float(np.median(dts))
    if median_dt <= 0:
        raise InsufficientDataError("timestamps must be strictly increasing")
    # +1us slack: integer timestamps quantize the jitter measurement
    if np.any(np.abs(dts - median_dt) > 0.1 * median_dt + 1.0):
        raise InsufficientDataError("frame timing jitter exceeds 10% of the frame interval")
    return 1e6 / median_dt


def detect_dominant_period(
    series: FeatureSeries,
    threshold: float = 0.2,
) -> PeriodEstimate | None:
    """Find the dominant in-band period of a series, or None if aperiodic.

    Hann-windowed periodogram; the peak bin and its neighbors are refined
    with a parabolic fit over log magnitudes, and the phase is read from
    the complex spectrum evaluated at the refined peak frequency. The
    energy ratio is the three-bin peak energy over the total spectral
    energy; below `threshold` there is no usable rhythm in this signal.
    """
    x = np.asarray(series.samples, dtype=np.float64)[None]
    return _detect_periods(x, series.fps, threshold, [series.joint])[0]


def _detect_periods(
    x: np.ndarray,
    fps: float,
    threshold: float,
    joints: Sequence[int],
) -> list[PeriodEstimate | None]:
    """detect_dominant_period for each row of a (C, n) array of series
    sampled at `fps`, with one window, one rfft and one pass over the
    spectra; row r's estimate is labelled joints[r]."""
    n = x.shape[-1]
    if n < 16 or n & (n - 1):
        raise ValueError(f"series length must be a power of two >= 16, got {n}")
    rows = len(x)
    band_lo, band_hi = DETECTION_BAND_HZ
    k_lo = max(1, int(math.ceil(band_lo * n / fps)))
    k_hi = min(n // 2 - 1, int(math.floor(band_hi * n / fps)))
    if k_lo > k_hi:
        return [None] * rows
    xw = (x - x.mean(axis=-1, keepdims=True)) * np.hanning(n)
    power = np.abs(np.fft.rfft(xw)) ** 2
    k = np.argmax(power[:, k_lo:k_hi + 1], axis=-1) + k_lo
    total = power[:, 1:].sum(axis=-1)
    peak = np.take_along_axis(power, k[:, None] + np.arange(-1, 2), axis=-1)  # (C, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = peak.sum(axis=-1) / total
    found = np.flatnonzero((total > 0.0) & (ratio >= threshold))
    if not found.size:
        return [None] * rows

    k, peak = k[found], peak[found]
    eps = np.maximum(peak[:, 1] * 1e-12, 1e-300)
    l_prev, l_peak, l_next = np.log(peak + eps[:, None]).T
    denom = l_prev - 2.0 * l_peak + l_next
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(denom == 0.0, 0.0, 0.5 * (l_prev - l_next) / denom)
    freq = np.clip((k + np.clip(delta, -0.5, 0.5)) * fps / n, band_lo, band_hi)

    # Phase of the cosine model at the first sample, read from the windowed
    # spectrum evaluated at the refined peak frequency.
    omega = -_TWO_PI * freq / fps
    z = (xw[found] * np.exp(1j * (omega[:, None] * np.arange(n)))).sum(axis=-1)
    phase = np.angle(z)

    out: list[PeriodEstimate | None] = [None] * rows
    for i, r in enumerate(found):
        out[r] = PeriodEstimate(
            period_us=int(round(1e6 / float(freq[i]))),
            phase_rad=float(phase[i]) % _TWO_PI,
            energy_ratio=min(1.0, float(ratio[r])),
            joint=joints[r],
        )
    return out


def aggregate_joint_period(
    estimates: Iterable[PeriodEstimate | None],
    threshold: float = 0.2,
) -> PeriodEstimate | None:
    """Fuse per-joint estimates from one analysis window into one rhythm.

    Periods agreeing within 10% are clustered; the cluster with the largest
    combined energy wins and its energy-weighted mean period and circular
    mean phase are returned. None when no cluster's combined energy reaches
    `threshold`.
    """
    valid = sorted((e for e in estimates if e is not None), key=lambda e: e.period_us)
    if not valid:
        return None
    clusters: list[list[PeriodEstimate]] = []
    for est in valid:
        if clusters:
            cluster = clusters[-1]
            weight = sum(c.energy_ratio for c in cluster)
            mean_p = sum(c.energy_ratio * c.period_us for c in cluster) / max(weight, 1e-12)
            if est.period_us <= 1.1 * mean_p:
                cluster.append(est)
                continue
        clusters.append([est])
    best = max(clusters, key=lambda c: sum(e.energy_ratio for e in c))
    weight = sum(e.energy_ratio for e in best)
    if weight < threshold:
        return None
    period = sum(e.energy_ratio * e.period_us for e in best) / weight
    phase_vec = sum(e.energy_ratio * np.exp(1j * e.phase_rad) for e in best)
    phase = float(np.angle(phase_vec)) % _TWO_PI
    strongest = max(best, key=lambda e: e.energy_ratio)
    return PeriodEstimate(
        period_us=int(round(period)),
        phase_rad=phase,
        energy_ratio=min(1.0, weight),
        joint=strongest.joint,
    )


# ---------------------------------------------------------------------------
# Beat-aligned time warp
# ---------------------------------------------------------------------------

class WarpSample(NamedTuple):
    t_us: int          # output frame time (original timeline)
    source_us: float   # warped source time sampled for this frame
    phase_us: float    # phase displacement applied so far
    target_us: float   # phase displacement target at this frame


def _match_tempo(
    event_period_us: float,
    beat_period_us: float,
    max_rate_ratio: float,
) -> tuple[float, float] | None:
    """Match the extremum interval to the beat grid.

    Extrema may land on every beat, every m-th beat, or k times per beat;
    the closest of those relations is chosen and the leftover playback-rate
    ratio must fall within [1/max_rate_ratio, max_rate_ratio]. Returns
    (rate, target event spacing in us) or None when the motion simply is
    not dancing to this tempo.
    """
    candidates = [beat_period_us * m for m in range(1, 9)]
    candidates += [beat_period_us / k for k in range(2, 9)]
    spacing = min(candidates, key=lambda s: abs(math.log(event_period_us / s)))
    rate = event_period_us / spacing
    if not (1.0 / max_rate_ratio <= rate <= max_rate_ratio):
        return None
    if abs(rate - 1.0) < _RATE_SNAP:
        rate = 1.0
    return rate, spacing


def _signed_mod(x: float, period: float) -> float:
    """Fold x into [-period/2, period/2)."""
    return (x + period / 2.0) % period - period / 2.0


def _phase_misalignment(
    t_prev: float,
    source_prev: float,
    pending: float,
    estimate: PeriodEstimate,
    phase_reference_us: float,
    grid: BeatGrid,
    rate: float,
    event_spacing_us: float,
) -> float:
    """Phase-displacement increment that puts upcoming extrema on the grid,
    for a warp that sampled the source at source_prev at output time t_prev
    and still has `pending` of phase displacement to slew in.

    The nearest-beat rule: extrema are aligned to the closest point of the
    beat grid (or its subdivision grid when extrema are faster than beats),
    so the correction never exceeds half a beat period in either direction.
    """
    omega = _TWO_PI / estimate.period_us  # radians per source microsecond
    # Source-time of the extremum (model phase = multiple of pi) nearest the
    # current source cursor.
    k = round((omega * (source_prev - phase_reference_us) + estimate.phase_rad) / math.pi)
    s_event = phase_reference_us + (k * math.pi - estimate.phase_rad) / omega
    # Where that extremum will land on the output timeline once the phase
    # displacement already in flight has finished slewing in.
    t_event = t_prev + (s_event - source_prev - pending) / rate
    target_spacing = min(grid.beat_period_us, event_spacing_us)
    d = _signed_mod(t_event - grid.phase_offset_us, target_spacing)
    if abs(d) < _PHASE_SNAP_US:
        return 0.0
    return d * rate


def _retime(
    ts: np.ndarray,
    grid: BeatGrid,
    slew: float,
    steer: Mapping[int, tuple[PeriodEstimate, float, float, float]],
) -> tuple[np.ndarray, list[WarpSample]]:
    """The warped source time of each frame of a take with timestamps
    `ts`, each output frame on its input's time, and the warp samples.

    The warp is a constant playback rate plus a slewed phase displacement:
    output time t samples the source at s(t), and s advances by rate * dt
    plus a phase step bounded by slew * dt, so the warp cannot reverse
    (rate >= 1/max_rate_ratio > slew) and the displacement `applied`
    converges to its `target` without visible jumps. steer[i], when
    present, is (estimate, the time its phase refers to, rate, event
    spacing) and retargets the warp before frame i. Between retargets the
    warp advances frame by frame in one loop; frame 0 advances by dt = 0,
    which moves nothing.
    """
    times = ts.tolist()
    t_prev = source = float(times[0])
    rate, applied, target = 1.0, 0.0, 0.0
    sources, phases, targets = [], [], []
    starts = sorted(steer.keys() | {0})
    for start, stop in zip(starts, starts[1:] + [len(times)]):
        if start in steer:
            est, reference, rate, spacing = steer[start]
            target += _phase_misalignment(
                t_prev, source, target - applied, est, reference, grid, rate, spacing
            )
        for t in times[start:stop]:
            dt = t - t_prev
            limit = slew * dt
            step = min(max(target - applied, -limit), limit)
            applied += step
            source = source + rate * dt + step
            t_prev = t
            sources.append(source)
            phases.append(applied)
        targets += [target] * (stop - start)
    return np.array(sources), list(map(WarpSample._make, zip(times, sources, phases, targets)))


def _resample(
    ts: np.ndarray, roots: np.ndarray, rotations: np.ndarray, source_us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(roots, rotations) of a take sampled at source_us: row i is the pose
    at source_us[i], the bracketing source rows slerped (roots lerped) at
    its fraction between them. A time on a source frame, or on or outside
    the take's ends, takes that row exactly: only the rows strictly between
    two source frames are slerped."""
    t = ts.astype(np.float64)
    lo = np.clip(np.searchsorted(t, source_us, side="right") - 1, 0, len(t) - 2)
    u = np.clip((source_us - t[lo]) / (t[lo + 1] - t[lo]), 0.0, 1.0)[:, None]
    root_a, root_b = roots[lo], roots[lo + 1]
    out_roots = root_a + (root_b - root_a) * u
    np.copyto(out_roots, root_a, where=u == 0.0)
    np.copyto(out_roots, root_b, where=u == 1.0)
    out_rot = rotations[lo + (u[:, 0] == 1.0)]
    between = np.flatnonzero((u[:, 0] > 0.0) & (u[:, 0] < 1.0))
    for c in range(0, len(between), _RESAMPLE_BLOCK):
        rows = between[c:c + _RESAMPLE_BLOCK]
        out_rot[rows] = rows_slerp(rotations[lo[rows]], rotations[lo[rows] + 1], u[rows])
    return out_roots, out_rot


# ---------------------------------------------------------------------------
# Zone amplification
# ---------------------------------------------------------------------------

# Windows per block of moments: it bounds the memory a slide takes, and each
# block sums its first window afresh, so no slide's rounding spans more.
_MOMENT_BLOCK = 128
# A window still moving by _POWER_STEP after _POWER_MAX_ITERATIONS products
# has a small eigen-gap (it spans a wide rotation, such as a full turn).
_POWER_STEP = 1e-13
_POWER_MAX_ITERATIONS = 32


def _top_eigvecs(moments: np.ndarray, seeds: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Top unit eigenvectors (..., 4) of the positive semi-definite moments
    (..., 4, 4) by power iteration from the unit `seeds` (..., 4), until no
    vector moves by _POWER_STEP; with the products taken and the mask of
    vectors still moving after _POWER_MAX_ITERATIONS, which eigh solved.
    einsum takes these small products in about half the time of matmul."""
    vec = seeds
    for taken in range(1, _POWER_MAX_ITERATIONS + 1):
        nxt = np.einsum("...ij,...j->...i", moments, vec)
        nxt /= np.sqrt(np.einsum("...i,...i->...", nxt, nxt))[..., None]
        moved = nxt - vec
        slow = np.einsum("...i,...i->...", moved, moved) >= _POWER_STEP * _POWER_STEP
        vec = nxt
        if not slow.any():
            break
    else:
        vec[slow] = np.linalg.eigh(moments[slow])[1][..., -1]
    return vec, taken, slow


def _chordal_windows(tracks: np.ndarray, window: int) -> np.ndarray:
    """The chordal L2 mean of every `window` consecutive rows of the unit
    tracks (n, A, 4), as (n - window + 1, A, 4): the top unit eigenvector of
    the window's M = sum q q^T, the same for q and -q. In each block of
    windows the first M is one matmul, and the rest slide from it by a
    cumulative sum of entering minus leaving outer products; power iteration
    starts from each window's newest row."""
    count = len(tracks) - window + 1
    means = np.empty((count,) + tracks.shape[1:])
    for start in range(0, count, _MOMENT_BLOCK):
        k = min(_MOMENT_BLOCK, count - start)
        rows = tracks[start:start + window].transpose(1, 2, 0)  # (A, 4, window)
        moments = np.empty((k,) + tracks.shape[1:] + (4,))
        np.matmul(rows, rows.transpose(0, 2, 1), out=moments[0])
        enter = tracks[start + window:start + window + k - 1]
        leave = tracks[start:start + k - 1]
        slid = moments[1:]
        np.multiply(enter[..., :, None], enter[..., None, :], out=slid)
        slid -= leave[..., :, None] * leave[..., None, :]
        np.cumsum(slid, axis=0, out=slid)
        slid += moments[0]
        means[start:start + k] = _top_eigvecs(moments, tracks[start + window - 1:][:k])[0]
    return means


def amplify_zones(
    stream: Sequence[PoseFrame],
    skeleton: Skeleton,
    params: CorrectiveParams,
    reference_window: int,
) -> Sequence[PoseFrame]:
    """Exaggerate (or mute) motion per body zone.

    Each joint's output rotation is rows_scale_rotation(reference, input, gain)
    where the reference is the chordal L2 mean of the trailing
    `reference_window` frames (_chordal_windows), batched over all active
    joints. Its sign does not matter: rows_scale_rotation gives the same
    rows for -reference. The root translation's deviation from its rolling
    mean is scaled by the hips gain.
    Frames before the window fills pass through unchanged. Zones with gain
    exactly 1.0 are left untouched byte-for-byte. The result is one new
    block; a take with no gain to apply, or shorter than the window, is
    returned as it came.
    """
    if reference_window < 1:
        raise ValueError("reference_window must be >= 1")
    n = len(stream)
    joint_gain = [params.gain_for(skeleton.zone_of(j)) for j in range(skeleton.joint_count)]
    active = [j for j, g in enumerate(joint_gain) if g != 1.0]
    hips_gain = params.gain_for(BodyZone.HIPS)
    if (not active and hips_gain == 1.0) or n < reference_window:
        return stream

    # The scaled rows overwrite copies: a block's own arrays are read-only.
    ts, roots, rotations = _stack_frames(stream)
    first = reference_window - 1

    if active:
        rotations = rotations.copy()
        tracks = rotations[:, active]  # (n, A, 4)
        references = _chordal_windows(rows_normalize(tracks), reference_window)
        gains = np.array([joint_gain[j] for j in active])[:, None]
        rotations[first:, active] = rows_scale_rotation(references, tracks[first:], gains)

    if hips_gain != 1.0:
        roots = roots.copy()
        csum = np.cumsum(np.concatenate([np.zeros_like(roots[:1]), roots]), axis=0)
        means = (csum[reference_window:] - csum[:-reference_window]) / reference_window
        roots[first:] = means + hips_gain * (roots[first:] - means)

    return FrameBlock(ts, roots, rotations)


# ---------------------------------------------------------------------------
# Windowed causal pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    frames: Sequence[PoseFrame]
    applied: bool
    reason: str | None
    estimates: list[tuple[int, PeriodEstimate | None]]  # (window end index, fused estimate)
    rate: float
    warp: list[WarpSample]

    @property
    def detected(self) -> PeriodEstimate | None:
        for _, est in self.estimates:
            if est is not None:
                return est
        return None

    def convergence_us(self) -> int | None:
        """Output time at which the initial phase correction has landed.

        Later re-estimates nudge the target by a few milliseconds per hop;
        those stay well inside alignment tolerance and do not reset this.
        """
        if not self.applied or not self.warp:
            return None
        seen_target = False
        for sample in self.warp:
            if sample.target_us != 0.0:
                seen_target = True
            if seen_target and abs(sample.phase_us - sample.target_us) <= _PHASE_SNAP_US:
                return sample.t_us
        if not seen_target:
            return self.warp[0].t_us
        return None


def run_corrective_pipeline(
    stream: Sequence[PoseFrame],
    skeleton: Skeleton,
    grid: BeatGrid,
    params: CorrectiveParams,
) -> PipelineResult:
    """Causal windowed beat alignment over a whole stream.

    Detection re-runs every half window on the trailing window_frames
    frames, exactly as a live pipeline would see them; each fused estimate
    retargets the warp, which then slews toward the new phase target. A
    window whose frame timing fails _window_fps (a lost frame, a stall)
    gives no estimate. Frame content is drawn from the stream by
    interpolation at the warped times. This is the one way into the warp.
    The result's frames are one new block, or `stream` itself when the warp
    is not applied.
    """
    n = len(stream)
    window = params.window_frames
    if n < window:
        return PipelineResult(stream, False, "stream shorter than analysis window", [], 1.0, [])

    hop = window // 2
    ts, roots, rotations = _stack_frames(stream)
    if np.any(np.diff(ts) <= 0):  # the resampler's search needs sorted times
        raise InsufficientDataError("timestamps must be strictly increasing")
    joints = skeleton.joint_count
    labels = np.repeat(np.arange(joints), 3).tolist()
    estimates: list[tuple[int, PeriodEstimate | None]] = []
    for end in range(window, n + 1, hop):
        try:
            fps = _window_fps(ts[end - window:end])
        except InsufficientDataError:
            estimates.append((end, None))
            continue
        # Every x, y, z component of every analysed joint as one zero-mean
        # row, as extract_feature_series builds it: (3 * joints, window).
        x = np.ascontiguousarray(rotations[end - window:end, :joints, :3].reshape(window, -1).T)
        x -= x.mean(axis=-1, keepdims=True)
        per_row = _detect_periods(x, fps, params.detection_threshold, labels)
        per_joint: list[PeriodEstimate] = []
        for r in range(0, len(per_row), 3):
            # The joint's strongest component; the first wins a tie.
            found = [e for e in per_row[r:r + 3] if e is not None]
            if found:
                per_joint.append(max(found, key=lambda e: e.energy_ratio))
        estimates.append((end, aggregate_joint_period(per_joint, params.detection_threshold)))

    if all(est is None for _, est in estimates):
        return PipelineResult(stream, False, "no dominant period", estimates, 1.0, [])

    # An estimate steers the warp from the frame at its window end onwards,
    # so the one for a window ending at the last frame is never used. Its
    # phase refers to the window's first frame.
    steer: dict[int, tuple[PeriodEstimate, float, float, float]] = {}
    for end, est in estimates:
        if est is None or end >= n:
            continue
        match = _match_tempo(est.period_us / 2.0, grid.beat_period_us, params.max_rate_ratio)
        if match is not None:
            steer[end] = (est, int(ts[end - window]), *match)
    if not steer:
        return PipelineResult(stream, False, "tempo mismatch", estimates, 1.0, [])

    source_us, warp = _retime(ts, grid, params.max_warp_slew, steer)
    out = FrameBlock(ts, *_resample(ts, roots, rotations, source_us))
    rate_used = steer[max(steer)][2]
    return PipelineResult(out, True, None, estimates, rate_used, warp)
