import json
import math
from dataclasses import fields

import numpy as np
import pytest

from dancegraph import rhythm
from dancegraph.core import (
    BodyZone,
    FrameBlock,
    PoseFrame,
    _stack_frames,
    rows_canonicalize,
    rows_conjugate,
    rows_exp_half,
    rows_from_axis_angle,
    rows_multiply,
    rows_normalize,
    rows_scale_rotation,
    rows_slerp,
)
from dancegraph.harness import (
    _amplify_window_frames,
    synthesize_noise_recording,
    synthesize_sway_recording,
)
from dancegraph.recording import Recording, load_recording, save_recording
from dancegraph.rhythm import (
    DETECTION_BAND_HZ,
    BeatGrid,
    CorrectiveParams,
    FeatureSeries,
    InsufficientDataError,
    PeriodEstimate,
    WarpSample,
    _match_tempo,
    _resample,
    _retime,
    _window_fps,
    aggregate_joint_period,
    amplify_zones,
    detect_dominant_period,
    extract_feature_series,
    load_corrective_config,
    run_corrective_pipeline,
)

import karcher_oracle
from conftest import geodesic_distance
from karcher_oracle import MeanConvergenceError, _karcher_windows
from warp_oracle import SteppedWarpController

TWO_PI = 2.0 * math.pi


def sway_frames(
    duration_s=10.0, fps=30.0, freq=1.0, amp=0.35, phase=0.0, joint=0, joints=4, jitter=None
):
    frames = []
    n = int(duration_s * fps)
    identity = (0, 0, 0, 1)
    rng = np.random.default_rng(0)
    for i in range(n):
        t = i / fps
        angle = amp * math.sin(TWO_PI * freq * t + phase)
        q = rows_from_axis_angle(np.array([[1.0, 0.0, 0.0]]), [angle])[0]
        ts = round(i * 1e6 / fps)
        if jitter:
            ts += int(rng.uniform(-jitter, jitter) * 1e6 / fps)
        frames.append(
            PoseFrame(ts, (0, 0, 0), tuple(q if j == joint else identity for j in range(joints)))
        )
    return frames


def cosine_series(freq, n=256, fps=30.0, phase=0.0, amp=1.0):
    t = np.arange(n) / fps
    return FeatureSeries(joint=0, component="x", samples=amp * np.cos(TWO_PI * freq * t + phase), fps=fps)


def find_extrema_s(values, fps):
    """Independent peak picker: sign change of the discrete derivative plus
    parabolic refinement, used as the oracle for alignment checks."""
    x = np.asarray(values) - np.mean(values)
    out = []
    scale = np.abs(x).max()
    for i in range(1, len(x) - 1):
        d1, d2 = x[i] - x[i - 1], x[i + 1] - x[i]
        if (d1 >= 0 >= d2 or d1 <= 0 <= d2) and abs(x[i]) > 0.5 * scale:
            denom = x[i - 1] - 2 * x[i] + x[i + 1]
            delta = 0.0 if denom == 0 else 0.5 * (x[i - 1] - x[i + 1]) / denom
            out.append((i + float(np.clip(delta, -0.5, 0.5))) / fps)
    return out


class TestExtractFeatureSeries:
    def test_constant_pose_gives_zero_series(self):
        frames = [
            PoseFrame(i * 33_333, (0, 0, 0), ((0.6, 0, 0, 0.8),))
            for i in range(64)
        ]
        series = extract_feature_series(frames, 0, "x")
        assert np.all(series.samples == 0.0)
        assert series.fps == pytest.approx(30.0, rel=1e-3)

    def test_sway_series_matches_analytic_amplitude(self):
        # x = sin(theta/2) for rotation about x; theta = 0.2 sin(2 pi t),
        # so the series amplitude is sin(0.1).
        frames = sway_frames(duration_s=256 / 30, amp=0.2, freq=1.0)[:256]
        series = extract_feature_series(frames, 0, "x")
        assert series.samples.shape == (256,)
        amplitude = (series.samples.max() - series.samples.min()) / 2
        assert amplitude == pytest.approx(math.sin(0.1), abs=1e-3)

    def test_excess_jitter_rejected(self):
        frames = sway_frames(duration_s=3.0, jitter=0.3)
        with pytest.raises(InsufficientDataError):
            extract_feature_series(frames[:64], 0, "x")

    def test_mild_jitter_accepted(self):
        frames = sway_frames(duration_s=3.0, jitter=0.05)
        extract_feature_series(frames[:64], 0, "x")

    def test_short_window_rejected(self):
        frames = sway_frames(duration_s=0.4)
        with pytest.raises(InsufficientDataError):
            extract_feature_series(frames[:8], 0, "x")

    def test_bad_component_rejected(self):
        with pytest.raises(ValueError):
            extract_feature_series(sway_frames(duration_s=2)[:32], 0, "q")

    def test_equality_and_hash_are_identity(self):
        samples = np.linspace(-1.0, 1.0, 64)
        series = FeatureSeries(0, "x", samples, fps=30.0)
        twin = FeatureSeries(0, "x", samples, fps=30.0)
        assert series == series and not (series != series)
        assert series != twin and not (series == twin)
        assert hash(series) == hash(series)
        assert len({series, twin}) == 2


class TestDetectDominantPeriod:
    @pytest.mark.parametrize("freq", [0.5, 1.0, 2.0])
    def test_pure_tone_within_one_percent(self, freq):
        est = detect_dominant_period(cosine_series(freq))
        assert est is not None
        true_period = 1e6 / freq
        assert abs(est.period_us - true_period) / true_period < 0.01

    def test_white_noise_rejected(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            series = FeatureSeries(0, "x", rng.normal(size=256), fps=30.0)
            assert detect_dominant_period(series, threshold=0.2) is None

    def test_two_tone_picks_dominant(self):
        t = np.arange(256) / 30.0
        x = 1.0 * np.cos(TWO_PI * 1.0 * t) + 0.3 * np.cos(TWO_PI * 2.0 * t)
        est = detect_dominant_period(FeatureSeries(0, "x", x, fps=30.0))
        assert est is not None
        assert abs(est.period_us - 1_000_000) / 1e6 < 0.01

    def test_non_power_of_two_rejected(self):
        series = FeatureSeries(0, "x", np.zeros(200), fps=30.0)
        with pytest.raises(ValueError):
            detect_dominant_period(series)

    def test_band_excludes_out_of_range_tempi(self):
        est = detect_dominant_period(cosine_series(8.0))  # outside [0.25, 4] Hz
        assert est is None or abs(est.period_us - 1e6 / 8.0) / (1e6 / 8.0) > 0.2

    def test_phase_shift_consistency(self):
        # A window starting m samples later sees the phase advanced by
        # omega * m / fps.
        base = detect_dominant_period(cosine_series(1.3, phase=0.7))
        assert base is not None
        for m in (10, 57, 200):
            t = (np.arange(256) + m) / 30.0
            shifted = FeatureSeries(0, "x", np.cos(TWO_PI * 1.3 * t + 0.7), fps=30.0)
            est = detect_dominant_period(shifted)
            assert est is not None
            assert abs(est.period_us - base.period_us) / base.period_us < 0.01
            expected = (base.phase_rad + TWO_PI * 1.3 * m / 30.0) % TWO_PI
            diff = (est.phase_rad - expected + math.pi) % TWO_PI - math.pi
            assert abs(diff) < 0.1


class TestAggregateJointPeriod:
    def test_empty_returns_none(self):
        assert aggregate_joint_period([]) is None
        assert aggregate_joint_period([None, None]) is None

    def test_tight_cluster_averages(self):
        ests = [
            PeriodEstimate(990_000, 0.1, 0.5, joint=0),
            PeriodEstimate(1_000_000, 0.1, 0.5, joint=1),
            PeriodEstimate(1_010_000, 0.1, 0.5, joint=2),
        ]
        fused = aggregate_joint_period(ests)
        assert fused is not None
        assert fused.period_us == pytest.approx(1_000_000, rel=0.002)

    def test_heaviest_cluster_wins(self):
        # Oracle: weighted cluster arithmetic; two strong 1.0s joints beat
        # one weak 0.5s joint.
        ests = [
            PeriodEstimate(1_000_000, 0.0, 0.8, joint=0),
            PeriodEstimate(1_002_000, 0.0, 0.7, joint=1),
            PeriodEstimate(500_000, 0.0, 0.3, joint=2),
        ]
        fused = aggregate_joint_period(ests)
        expected = (0.8 * 1_000_000 + 0.7 * 1_002_000) / 1.5
        assert fused.period_us == pytest.approx(expected, abs=1.0)
        assert fused.joint == 0

    def test_below_threshold_returns_none(self):
        ests = [PeriodEstimate(1_000_000, 0.0, 0.05, joint=0)]
        assert aggregate_joint_period(ests, threshold=0.2) is None

    def test_energy_saturates_at_one(self):
        ests = [PeriodEstimate(1_000_000, 0.0, 0.9, joint=j) for j in range(4)]
        fused = aggregate_joint_period(ests)
        assert fused.energy_ratio == 1.0


class TestLostFrame:
    def test_window_over_a_gap_gives_no_estimate(self, skeleton):
        # Frame 400 lost, as a lossy `record` writes it: the windows ending
        # at 512 and 640 span the gap, and the rest of the take still aligns.
        frames = synthesize_sway_recording(
            skeleton, duration_s=30.0, phase_rad=math.pi / 2 - TWO_PI * 0.23
        ).frames
        frames = frames[:400] + frames[401:]
        result = run_corrective_pipeline(frames, skeleton, BeatGrid(bpm=120.0), CorrectiveParams())
        assert [end for end, est in result.estimates if est is None] == [512, 640]
        assert result.applied and len(result.frames) == len(frames)
        assert [f.timestamp_us for f in result.frames] == [f.timestamp_us for f in frames]

    @pytest.mark.parametrize("fault", ["swapped", "repeated"])
    def test_take_out_of_order_is_refused(self, skeleton, fault):
        # Skipping a window is for gaps; the resampler needs sorted times.
        frames = list(synthesize_sway_recording(skeleton, duration_s=10.0).frames)
        if fault == "swapped":
            frames[280], frames[281] = frames[281], frames[280]
        else:
            frames[281] = frames[280]
        with pytest.raises(InsufficientDataError, match="strictly increasing"):
            run_corrective_pipeline(frames, skeleton, BeatGrid(bpm=120.0), CorrectiveParams())


class TestBeatAlignRemap:
    """The beat-aligning warp, checked on _retime, _phase_misalignment and
    run_corrective_pipeline."""

    def test_already_on_beat_is_bit_stable(self):
        # Extrema at k * 0.5s on a 120 bpm grid and an exact 1 s estimate:
        # the warp must reduce to a byte-for-byte pass-through.
        ts, roots, rotations = _stack_frames(sway_frames(duration_s=10.0, phase=math.pi / 2))
        detected = PeriodEstimate(1_000_000, phase_rad=0.0, energy_ratio=0.9, joint=0)
        grid, params = BeatGrid(bpm=120.0), CorrectiveParams()
        rate, spacing = _match_tempo(500_000.0, grid.beat_period_us, params.max_rate_ratio)
        assert rate == 1.0
        steer = {0: (detected, int(ts[0]), rate, spacing)}
        source, warp = _retime(ts, grid, params.max_warp_slew, steer)
        assert warp[0].target_us == 0.0
        assert source.tolist() == ts.tolist()
        _, out = _resample(ts, roots, rotations, source)
        assert out.tobytes() == rotations.tobytes()

    def test_tempo_mismatch_passes_through_flagged(self, skeleton):
        frames = synthesize_sway_recording(skeleton, duration_s=20.0).frames
        # 0.8 s beat; 0.5 s extremum interval: off
        assert _match_tempo(500_000.0, 800_000.0, CorrectiveParams().max_rate_ratio) is None
        result = run_corrective_pipeline(frames, skeleton, BeatGrid(bpm=75.0), CorrectiveParams())
        assert result.detected is not None
        assert not result.applied
        assert result.reason == "tempo mismatch"
        assert all(a is b for a, b in zip(result.frames, frames))

    def test_offset_sway_lands_on_beats(self, skeleton):
        # Extrema at 0.23 + k * 0.5 s; beats every 0.5 s.
        frames = synthesize_sway_recording(
            skeleton, duration_s=25.0, phase_rad=math.pi / 2 - TWO_PI * 0.23
        ).frames
        result = run_corrective_pipeline(frames, skeleton, BeatGrid(bpm=120.0), CorrectiveParams())
        assert result.applied and result.rate == pytest.approx(1.0, abs=1e-3)
        first = next(w.target_us for w in result.warp if w.target_us != 0.0)
        assert first == pytest.approx(230_000, abs=10_000)

        x = [f.rotations[0, 0] for f in result.frames]
        converged_s = result.convergence_us() / 1e6
        extrema = [t for t in find_extrema_s(x, 30.0) if t > converged_s + 0.5]
        assert len(extrema) > 10
        errors = [abs(t - round(t / 0.5) * 0.5) for t in extrema]
        assert np.mean(errors) < 0.033

    def test_warp_is_monotonic_and_slew_bounded(self, skeleton):
        # 117 bpm needs a playback rate other than 1 on top of the phase.
        frames = dancer_frames(skeleton, phase_rad=math.pi / 2 - TWO_PI * 0.23)
        result = run_corrective_pipeline(frames, skeleton, BeatGrid(bpm=117.0), CorrectiveParams())
        assert result.applied and result.rate != 1.0
        warp = result.warp
        assert all(b.source_us > a.source_us for a, b in zip(warp, warp[1:]))
        slew = CorrectiveParams().max_warp_slew
        for a, b in zip(warp, warp[1:]):
            dt = b.t_us - a.t_us
            assert abs(b.phase_us - a.phase_us) <= slew * dt * (1 + 1e-9)

    def test_half_beat_shift_is_never_exceeded(self):
        # nearest-beat rule: correction magnitude stays within half a beat
        grid = BeatGrid(bpm=120.0)
        for offset_s in (0.05, 0.12, 0.2, 0.24, 0.26, 0.35, 0.45):
            phase = math.pi / 2 - TWO_PI * offset_s
            detected = PeriodEstimate(1_000_000, (phase - math.pi / 2) % TWO_PI, 0.9, joint=0)
            for start_us in (0, 123_457, 10_000_000):
                controller = SteppedWarpController(0.03, start_us)
                target = controller.misalignment(detected, 0.0, grid, 1.0, 500_000.0)
                assert abs(target) <= 250_000 * (1 + 1e-6)

    def test_second_pass_changes_stream_minimally(self, skeleton):
        frames = synthesize_sway_recording(
            skeleton, duration_s=30.0, phase_rad=math.pi / 2 - TWO_PI * 0.1
        ).frames
        grid, params = BeatGrid(bpm=120.0), CorrectiveParams()
        once = run_corrective_pipeline(frames, skeleton, grid, params)
        assert once.applied

        # The aligned stream's analytic model: extrema on beats, i.e. the
        # cosine phase at the stream epoch is 0. Warping again with that
        # model and the same grid must be a bit-stable no-op.
        ts, roots, rotations = _stack_frames(once.frames)
        aligned_model = PeriodEstimate(1_000_000, 0.0, 0.9, joint=0)
        steer = {0: (aligned_model, int(ts[0]), 1.0, 500_000.0)}
        source, warp = _retime(ts, grid, params.max_warp_slew, steer)
        assert warp[0].target_us == 0.0 and source.tolist() == ts.tolist()
        _, again = _resample(ts, roots, rotations, source)
        assert again.tobytes() == rotations.tobytes()

        # And a real second pass over the converged tail retargets the warp
        # by a few milliseconds at most.
        converged = np.searchsorted(ts, once.convergence_us())
        twice = run_corrective_pipeline(once.frames[converged:], skeleton, grid, params)
        assert twice.applied
        assert max(abs(w.target_us) for w in twice.warp) < 8_000


def reference_log_half(q):
    q = np.where(q[..., 3:4] < 0.0, -q, q)
    v = q[..., :3]
    vn = np.linalg.norm(v, axis=-1)
    f = np.where(vn > 1e-12, np.arctan2(vn, q[..., 3]) / np.where(vn > 1e-12, vn, 1.0), 1.0)
    return v * f[..., None]


def reference_karcher_mean(rows, tolerance, init=None, max_iterations=64):
    """The per-mean Karcher iteration amplify_zones ran before it batched all
    active joints of a frame into one call, with its own log map; kept as
    the oracle."""
    arr = rows_normalize(np.asarray(rows, dtype=np.float64))
    mean = np.array(arr[0] if init is None else init, dtype=np.float64)
    mean /= np.linalg.norm(mean)
    for _ in range(max_iterations):
        signs = np.where(arr @ mean < 0.0, -1.0, 1.0)
        rel = rows_multiply(rows_conjugate(np.broadcast_to(mean, arr.shape)), arr * signs[:, None])
        step = reference_log_half(rel).mean(axis=0)
        mean = rows_multiply(mean, rows_exp_half(step))
        mean /= np.linalg.norm(mean)
        if 2.0 * np.linalg.norm(step) < tolerance:
            return mean
    raise MeanConvergenceError("reference mean did not converge")


def reference_chordal_mean(rows):
    """The chordal L2 mean of rows (N, 4): the unit eigenvector of sum q q^T
    over the normalized rows with the largest eigenvalue, by
    np.linalg.eigh; its sign is arbitrary."""
    arr = rows_normalize(np.asarray(rows, dtype=np.float64))
    return np.linalg.eigh(arr.T @ arr)[1][:, -1]


def reference_amplify_zones(frames, skeleton, params, reference_window):
    """Per-joint, per-frame amplify_zones: one chordal mean per active joint
    per frame, each from a fresh eigh, and a per-frame root loop."""
    n = len(frames)
    joint_gain = [params.gain_for(skeleton.zone_of(j)) for j in range(skeleton.joint_count)]
    active = [j for j, g in enumerate(joint_gain) if g != 1.0]
    hips_gain = params.gain_for(BodyZone.HIPS)
    rotations = np.stack([f.rotations for f in frames])
    roots = np.array([f.root_translation for f in frames], dtype=np.float64)
    out_rot = rotations.copy()
    out_roots = roots.copy()
    first = reference_window - 1
    for j in active:
        track = rotations[:, j, :]
        references = np.array(
            [reference_chordal_mean(track[i - first:i + 1]) for i in range(first, n)]
        )
        out_rot[first:, j] = rows_scale_rotation(references, track[first:], joint_gain[j])
    if hips_gain != 1.0:
        csum = np.cumsum(roots, axis=0)
        for i in range(first, n):
            lo = i - first
            window_sum = csum[i] - (csum[lo - 1] if lo > 0 else 0.0)
            mean = window_sum / reference_window
            out_roots[i] = mean + hips_gain * (roots[i] - mean)
    return out_rot, out_roots


class TestAmplifyZones:
    def _sway(self, joint=0, amp_deg=10.0, duration_s=8.0, fps=30.0):
        return sway_frames(
            duration_s=duration_s, fps=fps, amp=math.radians(amp_deg), joint=joint, joints=34
        )

    @pytest.mark.parametrize("case", ["window_60", "served_window", "all_zones"])
    def test_matches_per_joint_reference(self, skeleton, case):
        # A swaying take whose every joint also jitters, hips and hands
        # active: the sliding moments and batched power iteration must
        # reproduce a fresh eigh per joint and window. The
        # served case uses the window `dancegraph correct` derives for a
        # 12 s take (whole periods, about 240 frames); the all-zones case
        # makes every joint active.
        duration_s = 12.0 if case == "served_window" else 6.0
        sway = synthesize_sway_recording(skeleton, duration_s=duration_s, amplitude_rad=0.2)
        noise = synthesize_noise_recording(
            skeleton, duration_s=duration_s, amplitude_rad=0.03, seed=4
        )
        frames = [
            PoseFrame(s.timestamp_us, s.root_translation, rows_multiply(s.rotations, n.rotations))
            for s, n in zip(sway.frames, noise.frames)
        ]
        gains = {z: 1.0 for z in BodyZone}
        gains[BodyZone.HIPS] = 2.0
        gains[BodyZone.HANDS] = 0.5
        if case == "all_zones":
            gains = {z: 1.5 for z in BodyZone}
        params = CorrectiveParams(zone_gains=gains)
        window = 60
        if case == "served_window":
            result = run_corrective_pipeline(frames, skeleton, BeatGrid(bpm=120.0), params)
            window = _amplify_window_frames(result, params, sway.nominal_fps)
            assert 200 <= window <= 256
        out = amplify_zones(frames, skeleton, params, window)
        want_rot, want_roots = reference_amplify_zones(frames, skeleton, params, window)
        got_rot = np.stack([f.rotations for f in out])
        assert np.abs(got_rot - want_rot).max() <= 1e-12
        assert [f.root_translation for f in out] == [tuple(r) for r in want_roots]
        assert np.abs(want_roots - np.array([f.root_translation for f in frames])).max() > 0.01

    def test_unity_gains_are_bitwise_passthrough(self, skeleton):
        frames = self._sway()
        out = amplify_zones(frames, skeleton, CorrectiveParams(), 60)
        assert all(a is b for a, b in zip(frames, out))

    def test_a_block_passes_through_as_itself(self, skeleton):
        take = synthesize_sway_recording(skeleton, duration_s=4.0).frames
        hips = CorrectiveParams(zone_gains={BodyZone.HIPS: 2.0})
        assert amplify_zones(take, skeleton, CorrectiveParams(), 60) is take
        assert amplify_zones(take, skeleton, hips, len(take) + 1) is take

    def test_gain_two_leaves_its_input_block_unchanged(self, skeleton):
        take = synthesize_sway_recording(skeleton, duration_s=8.0).frames
        before = [arr.copy() for arr in _stack_frames(take)]
        params = CorrectiveParams(zone_gains={BodyZone.HIPS: 2.0, BodyZone.HANDS: 0.5})
        out = amplify_zones(take, skeleton, params, 60)
        assert isinstance(out, FrameBlock) and out != take
        for arr, want in zip(_stack_frames(take), before):
            assert not arr.flags.writeable and arr.tobytes() == want.tobytes()

    def test_hips_gain_doubles_sway_angle(self, skeleton):
        # Oracle: axis-angle doubling; +/-10 degrees becomes +/-20 within
        # 0.1 degree once the rolling window holds whole periods. The sway
        # is phased so frame samples land exactly on the sine peaks.
        peak_phase = math.pi / 2 - TWO_PI * 8 / 30
        frames = sway_frames(
            duration_s=8.0, amp=math.radians(10.0), phase=peak_phase, joint=0, joints=34
        )
        gains = {z: 1.0 for z in BodyZone}
        gains[BodyZone.HIPS] = 2.0
        window = 60  # exactly 2 periods at 30 fps
        out = amplify_zones(frames, skeleton, CorrectiveParams(zone_gains=gains), window)
        angles = [2 * math.degrees(math.asin(f.rotations[0, 0])) for f in out[window + 30:]]
        assert max(angles) == pytest.approx(20.0, abs=0.1)
        assert min(angles) == pytest.approx(-20.0, abs=0.1)

    def test_zero_gain_freezes_zone_at_reference(self, skeleton):
        hand = skeleton.joint_names.index("wrist_left")
        frames = self._sway(joint=hand, amp_deg=15.0)
        gains = {z: 1.0 for z in BodyZone}
        gains[BodyZone.HANDS] = 0.0
        window = 60
        out = amplify_zones(frames, skeleton, CorrectiveParams(zone_gains=gains), window)
        post = out[window + 30:]
        moves = [
            geodesic_distance(a.rotations[hand], b.rotations[hand])
            for a, b in zip(post, post[1:])
        ]
        input_moves = [
            geodesic_distance(a.rotations[hand], b.rotations[hand])
            for a, b in zip(frames[window + 30:], frames[window + 31:])
        ]
        assert max(moves) < 0.05 * max(input_moves)

    @pytest.mark.parametrize("gain", [0.0, 0.5, 2.0, 4.0])
    def test_norm_preserved(self, skeleton, gain):
        frames = self._sway()
        gains = {z: 1.0 for z in BodyZone}
        gains[BodyZone.HIPS] = gain
        out = amplify_zones(frames, skeleton, CorrectiveParams(zone_gains=gains), 32)
        for frame in out[32::17]:
            norms = np.linalg.norm(frame.rotation_array(), axis=1)
            assert np.abs(norms - 1.0).max() < 1e-6

    def test_window_larger_than_history_passes_through(self, skeleton):
        frames = self._sway(duration_s=1.0)
        gains = {z: 1.0 for z in BodyZone}
        gains[BodyZone.HIPS] = 2.0
        out = amplify_zones(frames, skeleton, CorrectiveParams(zone_gains=gains), 4096)
        assert all(a is b for a, b in zip(frames, out))

    def test_root_translation_scaled_by_hips_gain(self, skeleton):
        fps, window = 30.0, 60
        frames = []
        for i in range(300):
            t = i / fps
            root = (0.1 * math.sin(TWO_PI * t), 1.0, 0.0)
            frames.append(
                PoseFrame(
                    round(i * 1e6 / fps),
                    root,
                    tuple((0, 0, 0, 1) for _ in range(34)),
                )
            )
        gains = {z: 1.0 for z in BodyZone}
        gains[BodyZone.HIPS] = 2.0
        out = amplify_zones(frames, skeleton, CorrectiveParams(zone_gains=gains), window)
        xs = [f.root_translation[0] for f in out[window + 30:]]
        assert max(xs) == pytest.approx(0.2, abs=0.01)
        ys = [f.root_translation[1] for f in out[window + 30:]]
        assert all(abs(y - 1.0) < 1e-9 for y in ys)


def drifting_tracks(seed, tracks=3, frames=40, spread=0.3):
    """(tracks, frames, 4) unit rows jittering by up to `spread` radians
    around a center per track that drifts along the take."""
    rng = np.random.default_rng(seed)
    drift = np.linspace(0.0, 1.0, frames)[None, :, None] * rng.normal(size=(tracks, 1, 3))
    tangent = 0.5 * spread * (drift + rng.uniform(-1.0, 1.0, size=(tracks, frames, 3)))
    center = rows_canonicalize(rng.normal(size=(tracks, 1, 4)))
    return rows_multiply(np.broadcast_to(center, tangent.shape[:2] + (4,)), rows_exp_half(tangent))


def reference_window_means(tracks, window, tolerance=1e-9):
    """(windows, tracks, 4): one reference_karcher_mean per track per
    trailing window, each warm-started from the previous window's mean."""
    out = np.empty((tracks.shape[1] - window + 1, tracks.shape[0], 4))
    for a, track in enumerate(rows_normalize(tracks)):
        mean = None
        for i in range(len(out)):
            mean = out[i, a] = reference_karcher_mean(track[i:i + window], tolerance, init=mean)
    return out


def sliding_means(tracks, window, tolerance=1e-9, max_iterations=64):
    block = np.ascontiguousarray(rows_normalize(tracks).transpose(0, 2, 1))
    return _karcher_windows(block, window, block[:, :, 0], tolerance, max_iterations)


def previous_karcher_windows(block, window, mean, tolerance, max_iterations=64):
    """karcher_oracle._karcher_windows as it was when each window took the step
    carried from the previous window's last pass as a step of its own; kept
    as the bit-for-bit oracle of the loop that takes both steps of a pass in
    one call."""

    def log_half_weight(vn2, w, out):
        vn = np.sqrt(np.maximum(vn2, 1e-300, out=vn2), out=vn2)
        f = np.arctan2(vn, np.abs(w, out=out), out=out)
        f /= vn
        return np.copysign(f, w + 0.0, out=f)

    def settled(half, ms, bound):
        return ((window * (1.0 + 0.5 * 1e-13 / 1e-7) - ms) * half).max() < 0.5 * bound * window

    last = block.shape[-1] - window
    span = window + (last > 0)
    passes = np.empty((3,) + mean.shape[:-1] + (1, span))
    s = np.empty(mean.shape + (1,))
    means = np.empty((last + 1,) + mean.shape)
    bound = min(1e-13, 0.5 * tolerance)
    carry = None
    for i in range(last + 1):
        cols = block[..., i:i + span]
        w, v, f = passes[..., :cols.shape[-1]]
        done = np.zeros(mean.shape[:-1], dtype=bool)
        for it in range(max_iterations):
            if it == 0 and carry is not None:
                (mean, total), carry = carry, None
            else:
                np.matmul(mean[..., None, :], cols, out=w)
                log_half_weight(np.subtract(1.0, np.square(w, out=v), out=v), w, out=f)
                total = np.matmul(cols, np.swapaxes(f, -1, -2), out=s)[..., 0]
                if i < last:
                    ends = cols[..., ::window] * f[..., ::window]
                    carry, total = (mean, total - ends[..., 0]), total - ends[..., 1]
            ms = (mean * total).sum(axis=-1, keepdims=True)
            g = total - ms * mean
            g /= window
            half = np.sqrt(np.maximum((g * g).sum(axis=-1, keepdims=True), 1e-300))
            moved = rows_normalize(mean * np.cos(half) + g * (np.sin(half) / half))
            mean = np.where(done[..., None], mean, moved)
            done |= half[..., 0] < 0.5 * tolerance
            if (carry is not None or i == last) and (
                done.all() or carry is not None and settled(half, ms, bound)
            ):
                break
        else:
            raise MeanConvergenceError(f"mean did not converge in {max_iterations} iterations")
        means[i] = mean
    return means


@pytest.fixture
def passes(monkeypatch):
    """Counts full Karcher passes: each calls karcher_oracle._log_half_weight once."""
    count = [0]
    log_half_weight = karcher_oracle._log_half_weight

    def counted(*args, **kwargs):
        count[0] += 1
        return log_half_weight(*args, **kwargs)

    monkeypatch.setattr(karcher_oracle, "_log_half_weight", counted)
    return count


@pytest.fixture
def steps(monkeypatch):
    """Records, per karcher_oracle._tangent_step call, how many full Karcher passes
    (karcher_oracle._log_half_weight calls) came before it."""
    log = [0, []]
    log_half_weight, tangent_step = karcher_oracle._log_half_weight, karcher_oracle._tangent_step

    def counted(*args, **kwargs):
        log[0] += 1
        return log_half_weight(*args, **kwargs)

    def recorded(*args, **kwargs):
        log[1].append(log[0])
        return tangent_step(*args, **kwargs)

    monkeypatch.setattr(karcher_oracle, "_log_half_weight", counted)
    monkeypatch.setattr(karcher_oracle, "_tangent_step", recorded)
    return log


@pytest.fixture
def settles(monkeypatch):
    """Records full Karcher passes (None) and karcher_oracle._settled calls, as (2 *
    rho * h per mean, h per mean, the verdict), in the order they happen."""
    events = []
    log_half_weight, settled = karcher_oracle._log_half_weight, karcher_oracle._settled

    def counted(*args, **kwargs):
        events.append(None)
        return log_half_weight(*args, **kwargs)

    def recorded(half, ms, window, bound):
        verdict = settled(half, ms, window, bound)
        events.append((2.0 * (1.0 - ms[..., 0] / window) * half[..., 0], half[..., 0], verdict))
        return verdict

    monkeypatch.setattr(karcher_oracle, "_log_half_weight", counted)
    monkeypatch.setattr(karcher_oracle, "_settled", recorded)
    return events


def settled_windows(events):
    """(window index, 2 rho h per mean, h per mean) for each window that a
    karcher_oracle._settled call ended. A window with a successor ends on the pass
    that leaves every mean done, with no _settled call after it, or on the
    pass whose _settled call returns True."""
    window, out = 0, []
    for k, event in enumerate(events):
        if event is None:
            window += k + 1 == len(events) or events[k + 1] is None
        elif event[2]:
            out.append((window, event[0], event[1]))
            window += 1
    return out


def reference_steps(tracks, window, means):
    """(windows, tracks): the half-angle length of one reference_karcher_mean
    step from each mean over its own window."""
    rows = rows_normalize(tracks)
    out = np.empty(means.shape[:2])
    for i, mean in enumerate(means):
        arr = rows[:, i:i + window]
        signs = np.where(np.einsum("awk,ak->aw", arr, mean) < 0.0, -1.0, 1.0)
        conj = rows_conjugate(np.broadcast_to(mean[:, None], arr.shape))
        rel = rows_multiply(conj, arr * signs[..., None])
        out[i] = np.linalg.norm(reference_log_half(rel).mean(axis=1), axis=-1)
    return out


def dancer_take_tracks(skeleton, take="dancer"):
    """amplify_zones' active tracks (11, n, 4) for a 24 s dancer take, and
    the window it serves them at."""
    if take == "steady_hips":
        frames = dancer_frames(skeleton, phase_rad=math.pi / 2 - TWO_PI * 0.17, steady_hips=True)
    else:
        frames = TAKES[take](skeleton)
    gains = {z: 1.0 for z in BodyZone}
    gains[BodyZone.HIPS] = 2.0
    gains[BodyZone.HANDS] = 0.5
    params = CorrectiveParams(zone_gains=gains)
    result = run_corrective_pipeline(frames, skeleton, BeatGrid(bpm=120.0), params)
    window = _amplify_window_frames(result, params, 30.0)
    active = sorted(skeleton.joints_in_zone(BodyZone.HIPS) + skeleton.joints_in_zone(BodyZone.HANDS))
    assert len(active) == 11
    return np.stack([f.rotations for f in result.frames])[:, active].transpose(1, 0, 2), window


class TestSlidingKarcherWindows:
    """The sliding Karcher loop against per-window means warm-started from the
    previous window's, the per-frame oracle."""

    def assert_matches(self, tracks, window):
        got = sliding_means(tracks, window)
        want = reference_window_means(tracks, window)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2])
    def test_window_equal_to_the_take(self, seed):
        # One window and no column after it: no carry is ever taken.
        tracks = drifting_tracks(seed)
        self.assert_matches(tracks, tracks.shape[1])

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_short_windows(self, window):
        self.assert_matches(drifting_tracks(3, frames=12), window)

    @pytest.mark.parametrize("window", [5, 30])
    def test_rows_on_the_far_hemisphere(self, window):
        # q and -q are one rotation; negated rows have w < 0 against every
        # mean, so the log-map weight takes its sign path.
        plain = drifting_tracks(4)
        tracks = plain.copy()
        tracks[:, 1::3] *= -1.0
        means = reference_window_means(tracks, window)
        assert np.any(np.einsum("tfk,tk->tf", tracks[:, :window], means[0]) < 0.0)
        self.assert_matches(tracks, window)
        np.testing.assert_allclose(
            sliding_means(tracks, window), sliding_means(plain, window), rtol=0.0, atol=1e-12
        )

    def test_constant_track_converges_at_once(self, passes):
        row = rows_normalize(np.array([0.1, -0.2, 0.3, 0.9]))
        constant = np.broadcast_to(row, (1, 20, 4)).copy()
        got = sliding_means(constant, 6)
        assert np.abs(got - row).max() <= 1e-15
        # One pass settles the first window. Every later one settles on its
        # carried step, and all but the last make one pass for the carry.
        assert passes[0] == len(got) - 1
        tracks = np.concatenate([drifting_tracks(5), np.broadcast_to(row, (1, 40, 4))])
        self.assert_matches(tracks, 8)

    def test_exhausted_budget_raises(self):
        tracks = drifting_tracks(6)
        with pytest.raises(MeanConvergenceError):
            sliding_means(tracks, 10, tolerance=0.0, max_iterations=4)
        with pytest.raises(MeanConvergenceError):
            sliding_means(tracks, 10, max_iterations=1)
        assert sliding_means(tracks, 10, max_iterations=64).shape == (31, 3, 4)

    def test_passes_per_window_on_a_dancer_take(self, skeleton, passes):
        # amplify_zones' block for the 24 s dancer take at its served
        # window. Its hips jitter as they sway, so their windows span a wide
        # arc (rho about 1.7e-3): their confirming step, about 1e-10, is
        # real and is taken, and two full passes per window remain.
        tracks, window = dancer_take_tracks(skeleton)
        passes[0] = 0
        windows = len(sliding_means(tracks, window))
        assert windows == tracks.shape[1] - window + 1
        assert passes[0] <= 2.05 * windows

    def test_passes_per_window_on_a_steady_hips_take(self, skeleton, passes):
        # As on the benchmark's take, only narrow jitter spreads the
        # windows: the settling bound ends almost every window on its
        # first pass. A confirming pass per window took 1.96 full passes
        # per window there, and a pass per step 2.95.
        tracks, window = dancer_take_tracks(skeleton, "steady_hips")
        passes[0] = 0
        windows = len(sliding_means(tracks, window))
        assert passes[0] <= 1.1 * windows

    @pytest.mark.parametrize("take", ["dancer", "steady_hips", "drifting"])
    def test_one_more_step_from_every_mean_is_negligible(self, skeleton, settles, monkeypatch, take):
        # Every returned mean is converged: one more reference step from it
        # over its own window stays below half the tolerance. Where the
        # settling bound ended a window without its confirming pass, the
        # step it skipped is no longer than the bound said.
        tolerance = 1e-9
        if take != "drifting":
            tracks, window = dancer_take_tracks(skeleton, take)
        else:
            tracks, window = drifting_tracks(7, tracks=4, frames=120), 40
        means = sliding_means(tracks, window, tolerance)
        steps = reference_steps(tracks, window, means)
        assert steps.max() < 0.5 * tolerance
        ended = settled_windows(settles)
        for i, bound, half in ended:
            assert i < len(means) - 1
            assert np.all(half < 1e-7) and np.all(bound < 1e-13)
            # Beyond the bound, only the rounding of the reference step
            # itself (at most 5e-18 on these takes).
            assert np.all(steps[i] <= bound + 1e-16)
        if take == "steady_hips":
            # Only narrow jitter spreads these windows: the bound ends most
            # of them.
            assert len(ended) >= 0.9 * len(means)
        else:
            # Jittering hips (rho about 1.7e-3) or a 0.3 rad spread (rho
            # near 1e-2) leave a real confirming step: the bound ends no
            # window, and the output is that of the confirming passes.
            assert not ended
            monkeypatch.setattr(karcher_oracle, "_settled", lambda *args: False)
            assert np.array_equal(sliding_means(tracks, window, tolerance), means)


class TestOneStepCallPerPass:
    """The loop that takes a pass's own step and the next window's carried
    step in one call, against the loop that took them one at a time."""

    def assert_bit_identical(self, tracks, window):
        block = np.ascontiguousarray(rows_normalize(tracks).transpose(0, 2, 1))
        want = previous_karcher_windows(block, window, block[:, :, 0], 1e-9)
        assert np.array_equal(sliding_means(tracks, window), want)

    @pytest.mark.parametrize("take", ["dancer", "steady_hips", "drifting"])
    def test_takes(self, skeleton, take):
        if take == "drifting":
            self.assert_bit_identical(drifting_tracks(7, tracks=4, frames=120), 40)
        else:
            self.assert_bit_identical(*dancer_take_tracks(skeleton, take))

    @pytest.mark.parametrize("window", [5, 30])
    def test_rows_on_the_far_hemisphere(self, window):
        tracks = drifting_tracks(4)
        tracks[:, 1::3] *= -1.0
        self.assert_bit_identical(tracks, window)

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_short_windows(self, window):
        self.assert_bit_identical(drifting_tracks(3, frames=12), window)

    def test_constant_track(self):
        row = rows_normalize(np.array([0.1, -0.2, 0.3, 0.9]))
        self.assert_bit_identical(np.broadcast_to(row, (1, 20, 4)).copy(), 6)
        tracks = np.concatenate([drifting_tracks(5), np.broadcast_to(row, (1, 40, 4))])
        self.assert_bit_identical(tracks, 8)

    @pytest.mark.parametrize("take, most", [("steady_hips", 1.1), ("dancer", 2.05)])
    def test_one_step_call_per_pass(self, skeleton, steps, take, most):
        # Each full pass makes exactly one step call, right after it, for
        # its own step and the carried one together; a carried step makes
        # none of its own. The separate steps took about 2.0 calls per
        # window on steady hips and about 3.0 on the dancer take.
        tracks, window = dancer_take_tracks(skeleton, take)
        steps[0], steps[1][:] = 0, []
        windows = len(sliding_means(tracks, window))
        assert steps[1] == list(range(1, steps[0] + 1))
        assert len(steps[1]) <= most * windows


def turning_tracks(frames=150, turn_frames=60):
    """(frames, 2, 4) unit rows: track 0 sways 0.2 rad about x, except that
    over `turn_frames` frames from frame 40 it makes one full turn about z
    at an uneven speed; track 1 sways 0.1 rad about y throughout."""
    t = np.arange(frames)
    sway = np.stack([0.2 * np.sin(0.3 * t), 0.1 * np.sin(0.2 * t)], axis=1)
    axes = np.zeros((frames, 2, 3))
    axes[:, 0, 0] = axes[:, 1, 1] = 1.0
    turn = np.clip((t - 40) / turn_frames, 0.0, 1.0)
    turning = (turn > 0.0) & (turn < 1.0)
    axes[turning, 0] = (0.0, 0.0, 1.0)
    sway[turning, 0] = 2.0 * np.pi * (turn + 0.1 * np.sin(2.0 * np.pi * turn))[turning]
    return rows_from_axis_angle(axes, sway)


def hip_jitter_tracks(skeleton, jitter_rad):
    """The hips' tracks (n, 3, 4) of a 24 s sway at 1 Hz, each frame times a
    random rotation of up to `jitter_rad` (none at 0), and a window of 8
    whole periods."""
    sway = synthesize_sway_recording(skeleton, duration_s=24.0, amplitude_rad=0.2)
    hips = skeleton.joints_in_zone(BodyZone.HIPS)
    rot = sway.frames.rotations[:, hips]
    if jitter_rad:
        noise = synthesize_noise_recording(skeleton, duration_s=24.0, amplitude_rad=jitter_rad)
        rot = rows_multiply(rot, noise.frames.rotations[:, hips])
    return rows_normalize(rot), 240


@pytest.fixture
def power(monkeypatch):
    """Records (products taken, eigh-fallback windows) per call of
    rhythm._top_eigvecs, one call per block of windows."""
    log = []
    top_eigvecs = rhythm._top_eigvecs

    def recorded(moments, seeds):
        out = top_eigvecs(moments, seeds)
        log.append((out[1], int(out[2].sum())))
        return out

    monkeypatch.setattr(rhythm, "_top_eigvecs", recorded)
    return log


def chordal_oracle_windows(tracks, window):
    """(windows, tracks, 4): reference_chordal_mean of every window of the
    tracks (n, tracks, 4)."""
    return np.array([
        [reference_chordal_mean(tracks[i:i + window, a]) for a in range(tracks.shape[1])]
        for i in range(len(tracks) - window + 1)
    ])


def assert_same_axes(got, want, atol):
    """Unit rows equal up to each row's sign."""
    sign = np.where(np.einsum("...k,...k->...", got, want) < 0.0, -1.0, 1.0)
    assert np.abs(got - sign[..., None] * want).max() <= atol


class TestChordalReference:
    """amplify_zones' reference, rhythm._chordal_windows: moments slid in
    blocks and batched power iteration, against fresh per-window sums and
    eigh."""

    def test_full_turn_window_takes_eigh(self, power):
        # Windows holding most of a full turn have eigenvalues too close for
        # power iteration to settle in its budget; only they take eigh.
        tracks, window = turning_tracks(), 50
        got = rhythm._chordal_windows(tracks, window)
        assert len(power) == 1 and power[0][0] == rhythm._POWER_MAX_ITERATIONS
        assert 0 < power[0][1] < len(got)
        assert_same_axes(got, chordal_oracle_windows(tracks, window), 1e-12)

    @pytest.mark.parametrize("window", [1, 2, 7, 60])
    def test_matches_eigh_on_drifting_tracks(self, window, power):
        # Three blocks of windows (the last one short) over spread tracks
        # with negated rows: no row needs its hemisphere aligned.
        tracks = drifting_tracks(8, frames=2 * rhythm._MOMENT_BLOCK + window + 9).swapaxes(0, 1)
        tracks[1::3] *= -1.0
        got = rhythm._chordal_windows(tracks, window)
        assert got.shape == (len(tracks) - window + 1, 3, 4) and len(power) == 3
        assert_same_axes(got, chordal_oracle_windows(tracks, window), 1e-12)
        assert not any(slow for _, slow in power)

    def test_negated_rows_change_only_signs(self):
        # q q^T is the same for -q, so the moments are identical and each
        # mean comes out the same up to the sign of its seed.
        tracks = drifting_tracks(9, frames=80).swapaxes(0, 1)
        flipped = -tracks
        flipped[::2] = tracks[::2]
        got, again = rhythm._chordal_windows(tracks, 20), rhythm._chordal_windows(flipped, 20)
        assert np.array_equal(np.abs(got), np.abs(again))

    def test_jitter_does_not_change_the_work(self, skeleton, power):
        # The Karcher loop took two full passes per window on hips that
        # jitter by 3 mrad and one on hips that do not; the power iteration
        # takes the same number of products on both.
        counts = []
        for jitter in (0.0, 0.003):
            power[:] = []
            tracks, window = hip_jitter_tracks(skeleton, jitter)
            rhythm._chordal_windows(tracks, window)
            assert not any(slow for _, slow in power)
            counts.append([taken for taken, _ in power])
        assert counts[0] == counts[1]
        assert max(counts[0]) <= 8

    def test_one_hour_moments_match_fresh_sums(self, monkeypatch):
        # About an hour at 30 fps on one joint. The last block's slid
        # moments stay within 1.1e-13 of fresh sums; one cumulative sum of
        # outer products over the whole take drifts past the bound
        # (5.9e-11).
        n, window = 108_000, 240
        rng = np.random.default_rng(10)
        angle = 0.3 * np.sin(np.arange(n) * 0.2) + rng.uniform(-0.01, 0.01, n)
        tracks = rows_from_axis_angle(np.broadcast_to([1.0, 0.2, 0.0], (n, 3)), angle)[:, None]
        blocks, top_eigvecs = [], rhythm._top_eigvecs

        def recorded(moments, seeds):
            blocks.append(moments)
            return top_eigvecs(moments, seeds)

        monkeypatch.setattr(rhythm, "_top_eigvecs", recorded)
        rhythm._chordal_windows(tracks, window)
        moments = blocks[-1]
        start = n - window + 1 - len(moments)
        assert start == rhythm._MOMENT_BLOCK * (len(blocks) - 1)
        rows = np.lib.stride_tricks.sliding_window_view(tracks[start:, 0], window, axis=0)
        fresh = rows @ rows.swapaxes(-1, -2)  # (k, 4, 4)
        assert np.abs(moments[:, 0] - fresh).max() <= 1e-12
        outer = tracks[:, 0, :, None] * tracks[:, 0, None, :]
        whole = np.cumsum(np.concatenate([np.zeros((1, 4, 4)), outer]), axis=0)
        assert np.abs(whole[-len(fresh):] - whole[start:start + len(fresh)] - fresh).max() > 1e-12

    def test_gap_to_the_geodesic_mean_on_a_dancer_take(self, skeleton):
        # The chordal mean replaced the Karcher (geodesic) mean as the
        # reference. On the 24 s dancer take at its served window the two
        # differ by at most 2.57e-5 rad of rotation, on the swaying,
        # jittering hips; on the hands, by about 1e-7.
        tracks, window = dancer_take_tracks(skeleton)
        chordal = rhythm._chordal_windows(rows_normalize(tracks.swapaxes(0, 1)), window)
        geodesic = sliding_means(tracks, window)
        rel = rows_multiply(rows_conjugate(chordal), geodesic)
        gap = 2.0 * np.arcsin(np.minimum(np.linalg.norm(rel[..., :3], axis=-1), 1.0))
        assert gap.max() <= 3e-5


class TestPipeline:
    def test_noise_stream_passes_through_flagged(self, skeleton):
        noise = synthesize_noise_recording(duration_s=12.0, seed=5)
        grid = BeatGrid(bpm=120.0)
        result = run_corrective_pipeline(noise.frames, skeleton, grid, CorrectiveParams())
        assert not result.applied
        assert result.reason == "no dominant period"
        assert result.frames == noise.frames

    def test_short_stream_passes_through(self, skeleton):
        rec = synthesize_sway_recording(duration_s=2.0)
        result = run_corrective_pipeline(
            rec.frames, skeleton, BeatGrid(bpm=120.0), CorrectiveParams()
        )
        assert not result.applied

    def test_detects_and_converges(self, skeleton):
        phase = math.pi / 2 - TWO_PI * 0.23
        rec = synthesize_sway_recording(duration_s=30.0, phase_rad=phase)
        result = run_corrective_pipeline(
            rec.frames, skeleton, BeatGrid(bpm=120.0), CorrectiveParams()
        )
        assert result.applied
        assert result.detected is not None
        assert abs(result.detected.period_us - 1_000_000) / 1e6 < 0.01
        assert result.convergence_us() is not None


class TestBlockAndListTakes:
    def test_the_corrective_chain_writes_the_same_file(self, skeleton, tmp_path):
        # load -> pipeline -> amplify -> save on the loaded block, and on a
        # Recording built from a list of separate frames of the same take.
        take = tmp_path / "take.dgrc"
        frames = dancer_frames(skeleton, phase_rad=math.pi / 2 - TWO_PI * 0.17, steady_hips=True)
        save_recording(Recording(skeleton.joint_count, 30.0, frames), take)
        block = load_recording(take)
        listed = Recording(block.joint_count, block.nominal_fps, [
            PoseFrame(f.timestamp_us, f.root_translation, f.rotations.copy()) for f in block.frames
        ])
        assert isinstance(block.frames, FrameBlock) and type(listed.frames) is list
        grid = BeatGrid(bpm=120.0)
        params = CorrectiveParams(zone_gains={BodyZone.HIPS: 2.0, BodyZone.HANDS: 0.5})
        for name, rec in (("block", block), ("list", listed)):
            result = run_corrective_pipeline(rec.frames, skeleton, grid, params)
            assert result.applied
            window = _amplify_window_frames(result, params, rec.nominal_fps)
            out = amplify_zones(result.frames, skeleton, params, window)
            save_recording(Recording(rec.joint_count, rec.nominal_fps, out), tmp_path / name)
        assert (tmp_path / "block").read_bytes() == (tmp_path / "list").read_bytes()


class TestConfig:
    def test_round_trip_from_json(self, tmp_path):
        doc = {
            "bpm": 118.0,
            "phase_offset_ms": 125.5,
            "zone_gains": {"hips": 2.0, "hands": 0.5},
        }
        path = tmp_path / "corrective.json"
        path.write_text(json.dumps(doc))
        grid, params = load_corrective_config(path)
        assert grid.bpm == 118.0
        assert grid.phase_offset_us == 125_500
        assert params.zone_gains[BodyZone.HIPS] == 2.0
        assert params.zone_gains[BodyZone.HANDS] == 0.5
        assert params.zone_gains[BodyZone.HEAD] == 1.0

    def test_config_without_bpm_is_a_value_error(self, tmp_path):
        path = tmp_path / "corrective.json"
        path.write_text(json.dumps({"zone_gains": {"hips": 2.0}}))
        with pytest.raises(ValueError, match="bpm"):
            load_corrective_config(path)

    @pytest.mark.parametrize("doc", [
        {"bpm": 120, "zone_gains": ["hips"]},
        {"bpm": 120, "zone_gains": "hips"},
        {"bpm": 120, "zone_gains": None},
        {"bpm": 120, "phase_offset_ms": 1e306},
        {"bpm": 120, "zone_gain": {"hips": 2.0}},
        {"bpm": 120, "window_frames": 256},
        {"bpm": 120, "detection_threshold": 0.2},
        {"bpm": 120, "max_warp_slew": 0.03},
        {"bpm": 120, "max_rate_ratio": 1.1},
    ], ids=["gains_list", "gains_string", "gains_null", "phase_1e306", "zone_gain_typo",
            "window_frames", "detection_threshold", "max_warp_slew", "max_rate_ratio"])
    def test_malformed_config_is_a_value_error(self, tmp_path, doc):
        path = tmp_path / "corrective.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_corrective_config(path)

    def test_phase_rounds_to_whole_microseconds(self, tmp_path):
        # 1.001 ms is 1000.9999999999999 us in binary: rounded, not truncated.
        assert rhythm._phase_us(1.001) == 1001 and rhythm._phase_us(-1.001) == -1001
        assert rhythm._phase_us(0.0004) == 0 and rhythm._phase_us(150) == 150_000
        for ms in (1e306, -1e306, math.inf, math.nan):
            with pytest.raises(ValueError):
                rhythm._phase_us(ms)
        path = tmp_path / "corrective.json"
        path.write_text(json.dumps({"bpm": 120, "phase_offset_ms": 1.001}))
        assert load_corrective_config(path)[0].phase_offset_us == 1001

    def test_only_the_gains_are_settable(self):
        assert [f.name for f in fields(CorrectiveParams)] == ["zone_gains"]
        params = CorrectiveParams()
        assert (params.window_frames, params.detection_threshold) == (256, 0.2)
        assert (params.max_warp_slew, params.max_rate_ratio) == (0.03, 1.1)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CorrectiveParams(zone_gains={BodyZone.HIPS: -1.0})
        with pytest.raises(ValueError):
            BeatGrid(bpm=20.0)
        with pytest.raises(ValueError):
            PeriodEstimate(0, 0.0, 0.5, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["hips", "hands"])
    def test_refuses_non_finite_params(self, field, value):
        # NaN passes every comparison-based check: a NaN or infinite gain
        # would fail only inside amplify_zones.
        with pytest.raises(ValueError, match="finite"):
            CorrectiveParams(zone_gains={BodyZone(field): value})


# ---------------------------------------------------------------------------
# Oracles: the per-series detector and the per-frame warp sampler that the
# batched detection kernel and the block resampler replaced.
# ---------------------------------------------------------------------------

def reference_detect_dominant_period(series, threshold=0.2):
    x = np.asarray(series.samples, dtype=np.float64)
    n = x.size
    x = x - x.mean()
    win = np.hanning(n)
    spectrum = np.fft.rfft(x * win)
    power = np.abs(spectrum) ** 2
    fs = series.fps

    band_lo, band_hi = DETECTION_BAND_HZ
    k_lo = max(1, int(math.ceil(band_lo * n / fs)))
    k_hi = min(n // 2 - 1, int(math.floor(band_hi * n / fs)))
    if k_lo > k_hi:
        return None
    k = int(np.argmax(power[k_lo:k_hi + 1])) + k_lo

    total = float(power[1:].sum())
    if total <= 0.0:
        return None
    peak_energy = float(power[k - 1:k + 2].sum())
    ratio = peak_energy / total
    if ratio < threshold:
        return None

    eps = max(power[k] * 1e-12, 1e-300)
    l_prev, l_peak, l_next = np.log(power[k - 1:k + 2] + eps)
    denom = l_prev - 2.0 * l_peak + l_next
    delta = 0.0 if denom == 0.0 else 0.5 * (l_prev - l_next) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    freq = (k + delta) * fs / n
    freq = min(max(freq, band_lo), band_hi)

    m = np.arange(n)
    z = np.sum(x * win * np.exp(-2j * math.pi * freq / fs * m))
    phase = float(np.angle(z)) % TWO_PI

    return PeriodEstimate(
        period_us=int(round(1e6 / freq)),
        phase_rad=phase,
        energy_ratio=min(1.0, ratio),
        joint=series.joint,
    )


class ReferenceSourceSampler:
    """Resample a frame sequence at warped times, one frame per call."""

    def __init__(self, frames):
        self.frames = frames
        self.ts = np.array([f.timestamp_us for f in frames], dtype=np.float64)
        self.idx = 0

    def sample(self, s_us, out_timestamp_us):
        ts = self.ts
        n = len(ts)
        if s_us <= ts[0]:
            src = self.frames[0]
            return PoseFrame(out_timestamp_us, src.root_translation, src.rotations)
        if s_us >= ts[-1]:
            src = self.frames[-1]
            return PoseFrame(out_timestamp_us, src.root_translation, src.rotations)
        i = self.idx
        while i + 1 < n and ts[i + 1] < s_us:
            i += 1
        while i > 0 and ts[i] > s_us:
            i -= 1
        self.idx = i
        a, b = self.frames[i], self.frames[i + 1]
        u = (s_us - ts[i]) / (ts[i + 1] - ts[i])
        if u <= 0.0:
            return PoseFrame(out_timestamp_us, a.root_translation, a.rotations)
        if u >= 1.0:
            return PoseFrame(out_timestamp_us, b.root_translation, b.rotations)
        rot = rows_slerp(a.rotations, b.rotations, float(u))
        root = [x + (y - x) * u for x, y in zip(a.root_translation, b.root_translation)]
        return PoseFrame(out_timestamp_us, tuple(map(float, root)), rot)


def reference_warp_frames(frames, controller, retarget=None):
    sampler = ReferenceSourceSampler(frames)
    out, warp = [], []
    for i, frame in enumerate(frames):
        if retarget is not None:
            retarget(i)
        t = frame.timestamp_us
        s = controller.advance(t) if i else controller.source_prev
        out.append(sampler.sample(s, t))
        warp.append(WarpSample(t, s, controller.phase_applied, controller.phase_target))
    return out, warp


def reference_beat_align_remap(frames, detected, grid, params, phase_reference_us=None):
    """(frames, applied, rate, phase target, warp) of one estimate steering
    the warp from the first frame, computed with a per-frame sampler and an
    already-aligned branch."""
    t0 = frames[0].timestamp_us
    ref = float(t0 if phase_reference_us is None else phase_reference_us)
    match = _match_tempo(detected.period_us / 2.0, grid.beat_period_us, params.max_rate_ratio)
    if match is None:
        return frames, False, 1.0, 0.0, []
    rate, spacing = match
    controller = SteppedWarpController(params.max_warp_slew, t0)
    controller.rate = rate
    controller.phase_target = controller.misalignment(detected, ref, grid, rate, spacing)
    if rate == 1.0 and controller.phase_target == 0.0:
        warp = [WarpSample(f.timestamp_us, float(f.timestamp_us), 0.0, 0.0) for f in frames]
        return list(frames), True, 1.0, 0.0, warp
    out, warp = reference_warp_frames(frames, controller)
    return out, True, rate, controller.phase_target, warp


def reference_run_corrective_pipeline(frames, skeleton, grid, params):
    """(frames, applied, estimates, rate, warp) from one periodogram per
    joint component per window and the per-frame sampler."""
    n = len(frames)
    window = params.window_frames
    hop = window // 2
    ts = np.array([f.timestamp_us for f in frames], dtype=np.float64)
    rotations = np.stack([f.rotations for f in frames])
    estimates = []
    for end in range(window, n + 1, hop):
        chunk = rotations[end - window:end]
        fps = _window_fps(ts[end - window:end])
        per_joint = []
        for j in range(skeleton.joint_count):
            best = None
            for c in range(3):
                values = chunk[:, j, c]
                series = FeatureSeries(j, "xyz"[c], values - values.mean(), fps)
                est = reference_detect_dominant_period(series, params.detection_threshold)
                if est is not None and (best is None or est.energy_ratio > best.energy_ratio):
                    best = est
            if best is not None:
                per_joint.append(best)
        estimates.append((end, aggregate_joint_period(per_joint, params.detection_threshold)))
    if all(est is None for _, est in estimates):
        return frames, False, estimates, 1.0, []
    steer = {}
    for end, est in estimates:
        if est is None or end >= n:
            continue
        match = _match_tempo(est.period_us / 2.0, grid.beat_period_us, params.max_rate_ratio)
        if match is not None:
            steer[end] = (est, *match)
    if not steer:
        return frames, False, estimates, 1.0, []
    controller = SteppedWarpController(params.max_warp_slew, frames[0].timestamp_us)

    def retarget(i):
        if i in steer:
            est, rate, spacing = steer[i]
            controller.rate = rate
            controller.phase_target += controller.misalignment(
                est, frames[i - window].timestamp_us, grid, rate, spacing
            )

    out, warp = reference_warp_frames(frames, controller, retarget)
    return out, True, estimates, steer[max(steer)][1], warp


def assert_frames_identical(got, want):
    assert [f.timestamp_us for f in got] == [f.timestamp_us for f in want]
    assert [f.root_translation for f in got] == [f.root_translation for f in want]
    for a, b in zip(got, want):
        assert a.rotations.tobytes() == b.rotations.tobytes()


def dancer_frames(skeleton, duration_s=24.0, phase_rad=0.0, freq=1.0, seed=3, steady_hips=False):
    """Hip sway with every joint jittering by up to 0.03 rad, like a
    tracked dancer; with `steady_hips` the hips sway free of jitter, as on
    the benchmark's take."""
    sway = synthesize_sway_recording(
        skeleton, duration_s=duration_s, frequency_hz=freq, amplitude_rad=0.2,
        phase_rad=phase_rad,
    )
    noise = synthesize_noise_recording(
        skeleton, duration_s=duration_s, amplitude_rad=0.03, seed=seed
    )
    hips = skeleton.joints_in_zone(BodyZone.HIPS) if steady_hips else []
    frames = []
    for s, n in zip(sway.frames, noise.frames):
        rot = rows_multiply(s.rotations, n.rotations)
        rot[hips] = s.rotations[hips]
        frames.append(PoseFrame(s.timestamp_us, s.root_translation, rot))
    return frames


TAKES = {
    "dancer": lambda sk: dancer_frames(sk, phase_rad=math.pi / 2 - TWO_PI * 0.17),
    "dancer_fast": lambda sk: dancer_frames(sk, freq=1.03, seed=8),
    "offset_sway": lambda sk: synthesize_sway_recording(
        sk, duration_s=24.0, phase_rad=math.pi / 2 - TWO_PI * 0.23
    ).frames,
    "noise": lambda sk: synthesize_noise_recording(sk, duration_s=12.0, seed=5).frames,
}


class TestRetimeMatchesPerFrameOracle:
    @pytest.mark.parametrize("bpm", [120.0, 117.0, 75.0])
    @pytest.mark.parametrize("take", sorted(TAKES))
    def test_pipeline(self, skeleton, take, bpm):
        # 120 bpm aligns at rate 1, 117 needs rate != 1 and 75 is a tempo
        # mismatch for the ~1 Hz takes.
        frames = TAKES[take](skeleton)
        grid = BeatGrid(bpm=bpm)
        params = CorrectiveParams()
        got = run_corrective_pipeline(frames, skeleton, grid, params)
        want_frames, applied, estimates, rate, warp = reference_run_corrective_pipeline(
            frames, skeleton, grid, params
        )
        assert got.estimates == estimates
        assert (got.applied, got.rate, got.warp) == (applied, rate, warp)
        assert_frames_identical(got.frames, want_frames)
        if take != "noise" and bpm == 117.0:
            assert got.applied and got.rate != 1.0

    @pytest.mark.parametrize("phase_ref", [None, 123_457])
    @pytest.mark.parametrize("offset_s", [0.0, 0.1, 0.23, 0.41])
    @pytest.mark.parametrize("bpm", [120.0, 113.0, 75.0])
    def test_beat_align_remap(self, skeleton, bpm, offset_s, phase_ref):
        # One estimate steering the warp from the first frame, its phase
        # referred to phase_ref (the first frame's time by default).
        phase = math.pi / 2 - TWO_PI * offset_s
        frames = dancer_frames(skeleton, duration_s=10.0, phase_rad=phase)
        detected = PeriodEstimate(
            1_000_000, (phase - math.pi / 2) % TWO_PI, energy_ratio=0.9, joint=0
        )
        grid, params = BeatGrid(bpm=bpm), CorrectiveParams()
        want_frames, applied, rate, target, want_warp = reference_beat_align_remap(
            frames, detected, grid, params, phase_ref
        )
        match = _match_tempo(500_000.0, grid.beat_period_us, params.max_rate_ratio)
        assert applied == (match is not None)
        if match is None:
            return
        ts, roots, rotations = _stack_frames(frames)
        ref = frames[0].timestamp_us if phase_ref is None else phase_ref
        source, warp = _retime(ts, grid, params.max_warp_slew, {0: (detected, ref, *match)})
        assert (match[0], warp[0].target_us, warp) == (rate, target, want_warp)
        got = FrameBlock(ts, *_resample(ts, roots, rotations, source))
        assert_frames_identical(got, want_frames)

    def test_already_aligned_takes_the_source_rows_exactly(self, skeleton):
        frames = dancer_frames(skeleton, duration_s=10.0, phase_rad=math.pi / 2)
        detected = PeriodEstimate(1_000_000, 0.0, 0.9, joint=0)
        ts, roots, rotations = _stack_frames(frames)
        steer = {0: (detected, int(ts[0]), 1.0, 500_000.0)}
        source, warp = _retime(ts, BeatGrid(bpm=120.0), CorrectiveParams().max_warp_slew, steer)
        assert warp[0].target_us == 0.0
        assert source.tolist() == [float(f.timestamp_us) for f in frames]
        assert_frames_identical(FrameBlock(ts, *_resample(ts, roots, rotations, source)), frames)

    def test_resample_at_edges_and_on_frame_times(self, skeleton):
        frames = dancer_frames(skeleton, duration_s=5.0)
        ts = [f.timestamp_us for f in frames]
        n = len(frames)
        # Before the first frame, on it, between frames, exactly on interior
        # frame times, on the last frame and past it.
        source = np.linspace(ts[0] - 50_000.0, ts[-1] + 70_000.0, n)
        source[1] = ts[0]
        source[n // 3] = ts[n // 3 - 2]
        source[n // 2] = ts[n // 2]
        source[-2] = ts[-1]
        source = np.sort(source)
        sampler = ReferenceSourceSampler(frames)
        want = [sampler.sample(float(s), t) for s, t in zip(source, ts)]
        block = _stack_frames(frames)
        got = FrameBlock(block[0], *_resample(*block, source))
        assert_frames_identical(got, want)
        assert source[0] < ts[0] and source[-1] > ts[-1]


def slerped_rows(monkeypatch):
    """The row count of each rhythm.rows_slerp call, as a list that fills."""
    counts, slerp = [], rhythm.rows_slerp

    def counted(a, b, u):
        counts.append(len(a))
        return slerp(a, b, u)

    monkeypatch.setattr(rhythm, "rows_slerp", counted)
    return counts


class TestResampleSlerpsOnlyBetweenFrames:
    def test_only_rows_strictly_between_source_frames(self, skeleton, monkeypatch):
        frames = dancer_frames(skeleton, duration_s=10.0)
        ts, roots, rotations = _stack_frames(frames)
        n = len(frames)
        # Half the times on source frames, the rest between them, and a few
        # before the first frame and past the last.
        source = ts.astype(np.float64)
        source[1::2] += 0.37 * np.diff(ts)[::2][: len(source[1::2])]
        source[:3] -= 90_000.0
        source[-3:] += 90_000.0
        source.sort()
        inside = (source > ts[0]) & (source < ts[-1]) & ~np.isin(source, ts)
        counts = slerped_rows(monkeypatch)
        _, got = _resample(ts, roots, rotations, source)
        assert sum(counts) == int(inside.sum()) > n // 3
        assert max(counts) <= rhythm._RESAMPLE_BLOCK
        sampler = ReferenceSourceSampler(frames)
        want = [sampler.sample(float(s), t) for s, t in zip(source, ts)]
        assert got.tobytes() == np.stack([f.rotations for f in want]).tobytes()

    def test_already_aligned_take_slerps_nothing(self, skeleton, monkeypatch):
        frames = dancer_frames(skeleton, duration_s=10.0, phase_rad=math.pi / 2)
        ts, roots, rotations = _stack_frames(frames)
        detected = PeriodEstimate(1_000_000, 0.0, 0.9, joint=0)
        steer = {0: (detected, int(ts[0]), 1.0, 500_000.0)}
        source, _ = _retime(ts, BeatGrid(bpm=120.0), CorrectiveParams().max_warp_slew, steer)
        counts = slerped_rows(monkeypatch)
        _, got = _resample(ts, roots, rotations, source)
        assert sum(counts) == 0
        assert got.tobytes() == rotations.tobytes()

    def test_rows_at_u_one_take_the_upper_source_row(self, skeleton, monkeypatch):
        # On and past the last frame the bracket is its last interval and
        # u is 1: those rows are row lo + 1, the last, bit for bit.
        frames = dancer_frames(skeleton, duration_s=2.0)
        ts, roots, rotations = _stack_frames(frames)
        source = np.array([ts[0], ts[-1], ts[-1] + 1.0, ts[-1] + 1e6], dtype=np.float64)
        counts = slerped_rows(monkeypatch)
        out_roots, got = _resample(ts, roots, rotations, source)
        assert sum(counts) == 0
        assert got[0].tobytes() == rotations[0].tobytes()
        for row, root in zip(got[1:], out_roots[1:]):
            assert row.tobytes() == rotations[-1].tobytes()
            assert root.tobytes() == roots[-1].tobytes()


class TestDetectionKernelMatchesPerSeriesOracle:
    @pytest.mark.parametrize("take", sorted(TAKES))
    def test_every_series_of_every_window(self, skeleton, take):
        frames = TAKES[take](skeleton)
        seen = 0
        for start in range(0, len(frames) - 256 + 1, 128):
            window = frames[start:start + 256]
            for j in range(skeleton.joint_count):
                for c in "xyz":
                    series = extract_feature_series(window, j, c)
                    want = reference_detect_dominant_period(series)
                    assert detect_dominant_period(series) == want
                    seen += want is not None
        assert take == "noise" or seen > 0

    def test_tones_and_noise(self):
        rng = np.random.default_rng(11)
        for freq in np.linspace(0.2, 5.0, 40):
            series = cosine_series(freq, phase=rng.uniform(0, TWO_PI))
            assert detect_dominant_period(series) == reference_detect_dominant_period(series)
            noisy = FeatureSeries(0, "x", series.samples + rng.normal(size=256), fps=30.0)
            for threshold in (0.0, 0.2):
                assert detect_dominant_period(noisy, threshold) == (
                    reference_detect_dominant_period(noisy, threshold)
                )


class TestRowsSlerpArrayBlend:
    def test_matches_per_row_scalar_calls(self):
        rng = np.random.default_rng(2)
        a = rows_normalize(rng.normal(size=(50, 7, 4)))
        b = rows_normalize(rng.normal(size=(50, 7, 4)))
        b[3] = a[3]  # theta = 0 takes the near branch
        u = rng.uniform(size=50)
        got = rows_slerp(a, b, u[:, None])
        for i in range(50):
            assert got[i].tobytes() == rows_slerp(a[i], b[i], float(u[i])).tobytes()

    def test_zero_and_one_rows_return_the_endpoints_exactly(self):
        rng = np.random.default_rng(3)
        a = rows_normalize(rng.normal(size=(6, 5, 4)))
        b = rows_normalize(rng.normal(size=(6, 5, 4)))
        u = np.array([0.0, 1.0, 0.5, 0.0, 1.0, 0.25])[:, None]
        got = rows_slerp(a, b, u)
        for i in (0, 3):
            assert got[i].tobytes() == a[i].tobytes()
        for i in (1, 4):
            assert got[i].tobytes() == b[i].tobytes()
        assert got[2].tobytes() == rows_slerp(a[2], b[2], 0.5).tobytes()
