import json
import math
import struct
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dancegraph.codec import (
    BoundsTable,
    CorruptFrameError,
    EncodedFrame,
    EncoderStats,
    ShapeMismatchError,
    analyze_bounds,
    decode_frame,
    encode_frame,
    max_angular_error,
    _pack_ints,
    _unpack_ints,
)
from dancegraph.core import PoseFrame, Skeleton, default_skeleton
from dancegraph.harness import synthesize_noise_recording, synthesize_sway_recording
from dancegraph.recording import _frame_layout

from codec_oracle import scalar_decode, scalar_encode
from conftest import (
    MALFORMED_TABLE_IDS,
    MALFORMED_TABLES,
    frames_from_rows,
    json_files,
    mostly,
    w_largest_rows,
)


def full_range_table(joint_count=34, bits=16, names=None):
    if names is None:
        names = default_skeleton().joint_names[:joint_count]
    lo = np.full((joint_count, 3), -1.0)
    hi = np.full((joint_count, 3), 1.0)
    return BoundsTable(tuple(names), lo, hi, bits=bits)


def corner_table(names, corner, bits=16):
    """A table whose far box corner has |v|^2 == corner, to rounding, for
    every joint: hi is a seeded positive direction of length sqrt(corner),
    lo a shorter negative one."""
    rng = np.random.default_rng(len(names))
    u = rng.uniform(0.2, 1.0, size=(len(names), 3))
    hi = u / np.linalg.norm(u, axis=1, keepdims=True) * math.sqrt(corner)
    lo = -hi * rng.uniform(0.2, 0.9, size=hi.shape)
    return BoundsTable(tuple(names), lo, hi, bits=bits)


def geodesic_rows(a, b):
    dot = np.abs((a * b).sum(axis=1))
    return 2.0 * np.arccos(np.clip(dot, -1.0, 1.0))


def identity_frame(joint_count=34, ts=0):
    return PoseFrame(ts, (0.0, 0.0, 0.0), tuple((0, 0, 0, 1) for _ in range(joint_count)))


class TestBoundsTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            full_range_table(bits=25)
        with pytest.raises(ValueError):
            full_range_table(bits=7)
        lo = np.full((2, 3), 0.5)
        hi = np.full((2, 3), 0.5)
        with pytest.raises(ValueError):
            BoundsTable(("a", "b"), lo, hi)
        lo = np.full((2, 3), -1.5)
        hi = np.full((2, 3), 1.0)
        with pytest.raises(ValueError):
            BoundsTable(("a", "b"), lo, hi)
        with pytest.raises(ShapeMismatchError):
            BoundsTable((), np.zeros((0, 3)), np.zeros((0, 3)))

    def test_cached_constants_are_not_fields(self, tmp_path):
        table = full_range_table(joint_count=3, bits=11, names=("a", "b", "c"))
        assert [f.name for f in fields(BoundsTable)] == ["joint_names", "lo", "hi", "bits"]
        assert "_span" not in repr(table) and "_in_ball" not in repr(table)
        assert table.joint_count == 3 and table.payload_bytes == (3 * 3 * 11 + 7) // 8
        assert np.array_equal(table.step, (table.hi - table.lo) / 2047)
        # The per-frame ufuncs' operand arrays, each in the layout of its data.
        operands = {
            "_levels4": ((3, 4), 2047.0), "_half4": ((3, 4), 0.5),
            "_ones": ((3,), 1.0), "_zeros": ((3,), 0.0),
            "_levels3": ((3, 3), 2047.0), "_half3": ((3, 3), 0.5), "_zeros3": ((3, 3), 0.0),
        }
        for name, (shape, value) in operands.items():
            arr = getattr(table, name)
            assert arr.dtype == np.float64 and arr.shape == shape and np.all(arr == value)
            assert not arr.flags.writeable
            assert name not in repr(table)
        table.to_json(tmp_path / "table.json")
        doc = json.loads((tmp_path / "table.json").read_text())
        assert set(doc) == {"version", "bits", "joints"}
        assert all(set(joint) == {"name", "x", "y", "z"} for joint in doc["joints"])

    def test_equality_and_hash_are_identity(self):
        lo, hi = np.full((2, 3), -0.5), np.full((2, 3), 0.5)
        table = BoundsTable(("a", "b"), lo, hi)
        twin = BoundsTable(("a", "b"), lo, hi)
        assert table == table and not (table != table)
        assert table != twin and not (table == twin)
        assert hash(table) == hash(table)
        assert len({table, twin}) == 2

    @pytest.mark.parametrize("bits", [16.7, 16.0, "16", True])
    def test_bits_must_be_an_int(self, bits):
        with pytest.raises(ValueError):
            full_range_table(bits=bits)

    def test_decode_layout(self):
        # Row j of the gather holds payload components 3j, 3j + 1 and 3j + 2;
        # its w column holds some valid index and dequantizes to a finite
        # value, which the decode overwrites.
        names = ("a", "b", "c")
        table = corner_table(names, 0.5, bits=11)
        gather = table._gather
        assert gather.dtype == np.intp and gather.shape == (3, 4)
        assert np.array_equal(gather[:, :3], np.arange(9).reshape(3, 3))
        assert 0 <= gather.min() and gather.max() < 9
        assert np.array_equal(table._span4[:, :3], table.hi - table.lo)
        assert np.array_equal(table._lo4[:, :3], table.lo)
        assert np.all(np.isfinite(table._span4)) and np.all(np.isfinite(table._lo4))
        for arr in (gather, table._span4, table._lo4):
            assert not arr.flags.writeable
        assert not any(name in repr(table) for name in ("_gather", "_span4", "_lo4"))

    def test_in_ball_needs_the_margin(self):
        # Decode skips its w^2 guards only when every far corner stays
        # 1e-9 inside the unit ball.
        names = tuple(default_skeleton().joint_names)
        assert corner_table(names, 1.0 - 2e-9)._in_ball
        assert not corner_table(names, 1.0 - 0.5e-9)._in_ball
        assert not corner_table(names, 1.0)._in_ball
        assert not full_range_table()._in_ball
        sway = synthesize_sway_recording(duration_s=1.0)
        assert analyze_bounds([sway.frames], joint_names=names)._in_ball

    def test_json_round_trip(self, tmp_path):
        table = analyze_bounds(
            [synthesize_sway_recording(duration_s=2.0).frames],
            margin=0.1,
            bits=12,
            joint_names=default_skeleton().joint_names,
        )
        path = tmp_path / "bounds.json"
        table.to_json(path)
        doc = json.loads(path.read_text())
        assert set(doc.keys()) == {"version", "bits", "joints"}
        assert doc["version"] == 1 and doc["bits"] == 12
        assert set(doc["joints"][0].keys()) == {"name", "x", "y", "z"}
        loaded = BoundsTable.from_json(path)
        assert loaded.joint_names == table.joint_names
        assert loaded.bits == table.bits and loaded.version == table.version
        assert np.array_equal(loaded.lo, table.lo) and np.array_equal(loaded.hi, table.hi)

    @pytest.mark.parametrize("doc", MALFORMED_TABLES, ids=MALFORMED_TABLE_IDS)
    def test_malformed_json_is_a_value_error(self, tmp_path, doc):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            BoundsTable.from_json(path)

    @given(json_files(st.fixed_dictionaries({
        "version": mostly(st.just(1)),
        "bits": mostly(st.integers(8, 24)),
        "joints": mostly(st.lists(st.fixed_dictionaries({
            "name": mostly(st.text(max_size=6)),
            **{c: mostly(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2).map(sorted))
               for c in "xyz"},
        }), max_size=2)),
    })))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_from_json_returns_a_table_or_value_error(self, tmp_path, data):
        """Any file gives a table that to_json writes back unchanged, or
        ValueError."""
        path = tmp_path / "bounds.json"
        path.write_bytes(data)
        try:
            table = BoundsTable.from_json(path)
        except ValueError:
            return
        assert all(isinstance(name, str) for name in table.joint_names)
        assert 8 <= table.bits <= 24 and np.all(table.lo < table.hi)
        assert np.all(table.lo >= -1.0) and np.all(table.hi <= 1.0)
        table.to_json(tmp_path / "again.json")
        again = BoundsTable.from_json(tmp_path / "again.json")
        assert again.joint_names == table.joint_names and again.bits == table.bits
        assert np.array_equal(again.lo, table.lo) and np.array_equal(again.hi, table.hi)


class TestAnalyzeBounds:
    def test_margin_widens_observed_range(self):
        # joint 0 x spans [-0.3, 0.5]; margin 0.1 of range 0.8 adds 0.08.
        j = 34
        rots1 = [(-0.3, 0, 0, math.sqrt(1 - 0.09))] + [(0, 0, 0, 1)] * (j - 1)
        rots2 = [(0.5, 0, 0, math.sqrt(0.75))] + [(0, 0, 0, 1)] * (j - 1)
        stream = [
            PoseFrame(0, (0, 0, 0), tuple(rots1)),
            PoseFrame(1, (0, 0, 0), tuple(rots2)),
        ]
        table = analyze_bounds([stream], margin=0.1, bits=16)
        assert table.lo[0, 0] == pytest.approx(-0.38, abs=1e-12)
        assert table.hi[0, 0] == pytest.approx(0.58, abs=1e-12)

    def test_degenerate_component_gets_floor_range(self):
        stream = [identity_frame(4, ts) for ts in range(3)]
        table = analyze_bounds([stream], margin=0.1, bits=16, joint_names=list("abcd"))
        assert table.lo[0, 0] == pytest.approx(-0.0005, abs=1e-15)
        assert table.hi[0, 0] == pytest.approx(0.0005, abs=1e-15)
        # per-component quantization step on the floor range
        assert table.step[0, 0] == pytest.approx(1e-3 / 65535, rel=1e-9)

    def test_corpus_replays_with_zero_clamps(self):
        recording = synthesize_sway_recording(duration_s=5.0)
        table = analyze_bounds(
            [recording.frames], margin=0.05, bits=16,
            joint_names=default_skeleton().joint_names,
        )
        stats = EncoderStats()
        for frame in recording.frames:
            encode_frame(frame, table, stats)
        assert stats.clamped_components == 0
        assert stats.frames == len(recording.frames)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            analyze_bounds([])
        with pytest.raises(ValueError):
            analyze_bounds([[]])

    def test_margin_range_validated(self):
        with pytest.raises(ValueError):
            analyze_bounds([[identity_frame(2)]], margin=0.6)

    def test_mismatched_streams_rejected(self):
        with pytest.raises(ShapeMismatchError):
            analyze_bounds([[identity_frame(4)], [identity_frame(5)]])

    def test_stream_with_unequal_joint_counts_rejected(self):
        ragged = [identity_frame(4), identity_frame(5, ts=1)]
        with pytest.raises(ValueError):
            analyze_bounds([ragged])
        with pytest.raises(ShapeMismatchError):
            analyze_bounds([[identity_frame(4)], [], ragged[1:]])

    def test_bounds_are_the_widened_corpus_extremes(self):
        # Every component of these takes moves, so no floor or clamp
        # applies: the bounds are the corpus extremes widened by the
        # margin, bit for bit, whichever stream holds them.
        corpus = [
            synthesize_noise_recording(duration_s=2.0, seed=seed).frames for seed in (1, 2)
        ]
        table = analyze_bounds([corpus[0], [], corpus[1]], margin=0.1)
        v = np.concatenate([np.stack([f.rotations for f in s]) for s in corpus])[..., :3]
        mins, maxs = v.min(axis=0), v.max(axis=0)
        assert table.lo.tobytes() == (mins - 0.1 * (maxs - mins)).tobytes()
        assert table.hi.tobytes() == (maxs + 0.1 * (maxs - mins)).tobytes()

    def test_non_canonical_corpus_rejected(self):
        bad = PoseFrame(0, (0, 0, 0), ((0, 0, 0, -1.0),))
        with pytest.raises(ValueError):
            analyze_bounds([[bad]])


class TestEncodeDecode:
    def test_identity_hits_grid_midpoint(self):
        # (0 - (-1)) / 2 * 65535 = 32767.5, rounded half away from zero.
        table = full_range_table(joint_count=2, names=("a", "b"))
        enc = encode_frame(identity_frame(2), table)
        ints = np.frombuffer(enc.payload, dtype=">u2")
        assert set(ints.tolist()) == {32768}

    def test_bound_endpoints_hit_grid_ends(self):
        lo = np.array([[-0.5, -1.0, -1.0]])
        hi = np.array([[0.25, 1.0, 1.0]])
        table = BoundsTable(("a",), lo, hi, bits=16)
        at_lo = PoseFrame(0, (0, 0, 0), ((-0.5, 0, 0, math.sqrt(0.75)),))
        at_hi = PoseFrame(0, (0, 0, 0), ((0.25, 0, 0, math.sqrt(1 - 0.0625)),))
        assert np.frombuffer(encode_frame(at_lo, table).payload, dtype=">u2")[0] == 0
        assert np.frombuffer(encode_frame(at_hi, table).payload, dtype=">u2")[0] == 65535

    def test_out_of_bounds_clamps_and_counts(self):
        lo = np.array([[-0.1, -1.0, -1.0]])
        hi = np.array([[0.1, 1.0, 1.0]])
        table = BoundsTable(("a",), lo, hi, bits=16)
        frame = PoseFrame(0, (0, 0, 0), ((0.5, 0, 0, math.sqrt(0.75)),))
        stats = EncoderStats()
        enc = encode_frame(frame, table, stats)
        assert stats.clamped_components == 1
        assert np.frombuffer(enc.payload, dtype=">u2")[0] == 65535

    def test_identity_round_trip_within_bound(self, skeleton):
        table = full_range_table()
        frame = identity_frame()
        out = decode_frame(encode_frame(frame, table), table, skeleton)
        err = geodesic_rows(frame.rotation_array(), out.rotation_array())
        assert err.max() <= max_angular_error(table)

    def test_truncated_payload_rejected(self, skeleton):
        table = full_range_table()
        enc = encode_frame(identity_frame(), table)
        bad = EncodedFrame(enc.timestamp_us, enc.root_translation, enc.payload[:-1])
        with pytest.raises(CorruptFrameError):
            decode_frame(bad, table, skeleton)

    def test_frame_table_shape_mismatch(self):
        table = full_range_table(joint_count=4, names=list("abcd"))
        with pytest.raises(ShapeMismatchError):
            encode_frame(identity_frame(5), table)

    def test_non_canonical_frame_rejected(self):
        table = full_range_table(joint_count=1, names=("a",))
        frame = PoseFrame(0, (0, 0, 0), ((0, 0, 0, -1.0),))
        with pytest.raises(ValueError):
            encode_frame(frame, table)

    def test_wire_layout_little_endian(self):
        table = full_range_table(joint_count=2, names=("a", "b"))
        enc = encode_frame(identity_frame(2, ts=0x0102030405060708), table)
        data = enc.to_bytes()
        assert data[:8] == bytes.fromhex("0807060504030201")
        assert len(data) == 8 + 12 + 2 * 6
        back = EncodedFrame.from_bytes(data, table)
        assert back.timestamp_us == enc.timestamp_us
        assert back.payload == enc.payload
        with pytest.raises(CorruptFrameError):
            EncodedFrame.from_bytes(data[:-1], table)

    def test_from_bytes_is_an_ordinary_encoded_frame(self):
        table = full_range_table(joint_count=2, names=("a", "b"))
        payload = encode_frame(identity_frame(2), table).payload
        built = EncodedFrame(123456, (0.5, -1.0, 2.0), payload)
        data = built.to_bytes()
        back = EncodedFrame.from_bytes(data, table)
        assert type(back) is EncodedFrame
        assert back == built and hash(back) == hash(built)
        assert back.to_bytes() == data
        with pytest.raises(FrozenInstanceError):
            back.payload = b""

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_bytes_refuses_a_non_finite_root(self, axis, bad):
        table = full_range_table(joint_count=2, names=("a", "b"))
        root = [0.5, -1.0, 2.0]
        root[axis] = bad
        data = EncodedFrame(1, tuple(root), encode_frame(identity_frame(2), table).payload).to_bytes()
        with pytest.raises(CorruptFrameError, match="not finite"):
            EncodedFrame.from_bytes(data, table)

    @pytest.mark.parametrize("bits", [8, 11, 16, 24])
    def test_round_trip_idempotent_across_bit_widths(self, bits):
        rng = np.random.default_rng(99)
        table = full_range_table(joint_count=6, bits=bits, names=list("abcdef"))
        skeleton = Skeleton(
            tuple("abcdef"), {i: default_skeleton().zone_map[i] for i in range(6)}
        )
        frames = frames_from_rows(w_largest_rows(rng, 6 * 40), 6)
        bound = max_angular_error(table)
        for frame in frames:
            enc = encode_frame(frame, table)
            dec = decode_frame(enc, table, skeleton)
            again = encode_frame(dec, table)
            assert again.payload == enc.payload
            err = geodesic_rows(frame.rotation_array(), dec.rotation_array())
            assert err.max() <= bound


def big_int_pack(values, bits):
    """Reference packer: MSB-first through one Python integer."""
    acc = 0
    for v in values.tolist():
        acc = (acc << bits) | int(v)
    total = values.size * bits
    pad = (-total) % 8
    return (acc << pad).to_bytes((total + pad) // 8, "big")


def big_int_unpack(payload, count, bits):
    total = count * bits
    acc = int.from_bytes(payload, "big") >> ((-total) % 8)
    mask = (1 << bits) - 1
    return [(acc >> (bits * (count - 1 - i))) & mask for i in range(count)]


class TestPacking:
    @pytest.mark.parametrize("bits", range(8, 25))
    def test_matches_big_int_reference(self, bits):
        rng = np.random.default_rng(bits)
        for count in (1, 3, 7, 102):
            values = rng.integers(0, 1 << bits, size=count).astype(np.uint32)
            values[0] = (1 << bits) - 1  # the all-ones edge
            payload = _pack_ints(values, bits)
            assert payload == big_int_pack(values, bits)
            assert _unpack_ints(payload, count, bits).tolist() == big_int_unpack(payload, count, bits)
            assert _unpack_ints(payload, count, bits).tolist() == values.tolist()


def reference_encode(frame, table, stats=None):
    """The encoder as first written: a fresh array per step, np.clip, and
    the big-int packer. The oracle for the in-place encoder."""
    arr = frame.rotations
    if arr.shape[0] != table.joint_count:
        raise ShapeMismatchError("joint count")
    if np.any(arr[:, 3] < 0.0):
        raise ValueError("non-canonical")
    v = arr[:, :3]
    levels = table.levels
    scaled = (v - table.lo) / (table.hi - table.lo) * levels
    ints = np.floor(scaled + 0.5)
    if stats is not None:
        stats.frames += 1
        stats.clamped_components += int(((v < table.lo) | (v > table.hi)).sum())
    ints = np.clip(ints, 0, levels).astype(np.uint32)
    payload = big_int_pack(ints.reshape(-1), table.bits)
    return EncodedFrame(frame.timestamp_us, frame.root_translation, payload)


def reference_decode(enc, table):
    """The decoder as first written, returning the (joints, 4) rotations:
    a sum over axis 1, np.clip, np.concatenate and the big-int unpacker."""
    count = table.joint_count * 3
    ints = np.array(big_int_unpack(enc.payload, count, table.bits), dtype=np.int64)
    ints = ints.reshape(table.joint_count, 3).astype(np.float64)
    v = table.lo + ints / table.levels * (table.hi - table.lo)
    w2 = 1.0 - (v * v).sum(axis=1)
    w = np.sqrt(np.clip(w2, 0.0, None))
    quats = np.concatenate([v, w[:, None]], axis=1)
    over = w2 < -1e-12
    if np.any(over):
        quats[over] /= np.linalg.norm(quats[over], axis=1, keepdims=True)
    return quats


class TestMatchesReference:
    """Encoder and decoder against the reference bodies above, bit for bit."""

    def _check(self, frames, table, skeleton):
        stats, ref_stats = EncoderStats(), EncoderStats()
        for frame in frames:
            enc = encode_frame(frame, table, stats)
            ref = reference_encode(frame, table, ref_stats)
            assert enc.payload == ref.payload
            dec = decode_frame(enc, table, skeleton)
            assert dec.rotations.tobytes() == reference_decode(ref, table).tobytes()
            assert dec.timestamp_us == frame.timestamp_us
            assert dec.root_translation == frame.root_translation
        assert stats == ref_stats
        assert type(stats.clamped_components) is int  # the tallies stay JSON-ready
        return stats

    @pytest.mark.parametrize("bits", [8, 11, 16, 24])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_in_bounds_and_clamped_frames(self, skeleton, bits, seed):
        sway = synthesize_sway_recording(duration_s=2.0, amplitude_rad=0.1 + 0.05 * seed)
        table = analyze_bounds(
            [sway.frames], margin=0.05, bits=bits, joint_names=skeleton.joint_names
        )
        assert self._check(sway.frames, table, skeleton).clamped_components == 0
        # Jitter far wider than the sway clamps to the edges of the grid.
        noise = synthesize_noise_recording(duration_s=2.0, amplitude_rad=0.5, seed=seed)
        stats = self._check(noise.frames, table, skeleton)
        assert stats.clamped_components > 0

    @pytest.mark.parametrize("bits, box", [
        pytest.param(bits, box, id=str(bits) if box == "sway" else f"{box}-{bits}")
        for box in ("sway", "inside", "outside") for bits in (8, 11, 16, 24)
    ])
    def test_any_payload_decodes_like_reference(self, skeleton, bits, box):
        # Besides a corpus table, two boxes whose far corners sit 2e-9 inside
        # and outside the unit ball: the first still proves w^2 > 0 for every
        # payload, the second must keep the clamp and the renormalize.
        if box == "sway":
            sway = synthesize_sway_recording(duration_s=1.0)
            table = analyze_bounds(
                [sway.frames], margin=0.3, bits=bits, joint_names=skeleton.joint_names
            )
        else:
            table = corner_table(skeleton.joint_names, 1.0 + (2e-9 if box == "outside" else -2e-9), bits)
            assert table._in_ball == (box == "inside")
        rng = np.random.default_rng(bits)
        payloads = [rng.integers(0, 1 << bits, size=table.joint_count * 3) for _ in range(50)]
        # Grid corners, where |v| is largest: each component at 0 or the top.
        payloads += [rng.integers(0, 2, size=table.joint_count * 3) * table.levels for _ in range(20)]
        payloads.append(np.full(table.joint_count * 3, table.levels))
        over = 0
        for ints in payloads:
            enc = EncodedFrame(0, (0.0, 0.0, 0.0), big_int_pack(ints.astype(np.uint32), bits))
            dec = decode_frame(enc, table, skeleton)
            ref = reference_decode(enc, table)
            assert dec.rotations.tobytes() == ref.tobytes()
            # Rows the reference renormalizes, so the decoder did too.
            v = table.lo + ints.reshape(-1, 3) / table.levels * (table.hi - table.lo)
            over += int(np.count_nonzero(1.0 - (v * v).sum(axis=1) < -1e-12))
        assert (over > 0) == (box == "outside")

    @pytest.mark.parametrize("bits", [8, 16, 24])
    def test_renormalize_branch(self, bits):
        # Bounds of +-1 and every integer at the top of the grid decode to
        # v = (1, 1, 1): 1 - |v|^2 = -2, so w is 0 and the row is rescaled.
        # Joint 1 sits at the grid midpoint and stays on the common path.
        names = ("a", "b", "c")
        table = full_range_table(joint_count=3, bits=bits, names=names)
        skeleton = Skeleton(names, {i: default_skeleton().zone_map[0] for i in range(3)})
        ints = np.full(9, table.levels, dtype=np.uint32)
        ints[3:6] = table.levels // 2
        enc = EncodedFrame(0, (0.0, 0.0, 0.0), big_int_pack(ints, bits))
        dec = decode_frame(enc, table, skeleton)
        ref = reference_decode(enc, table)
        assert dec.rotations.tobytes() == ref.tobytes()
        assert np.allclose(np.linalg.norm(dec.rotations, axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(dec.rotations[0], [3 ** -0.5] * 3 + [0.0], rtol=0, atol=1e-15)
        assert dec.rotations[1, 3] > 0.99


def random_canonical_frames(rng, count, joint_count):
    """Frames of uniformly random canonical rotations: most components of
    a corpus-sized box clamp."""
    rows = rng.normal(size=(count, joint_count, 4))
    rows /= np.linalg.norm(rows, axis=2, keepdims=True)
    rows[rows[..., 3] < 0.0] *= -1.0
    return [PoseFrame.from_array(i, (0.0, 0.0, 0.0), r) for i, r in enumerate(rows)]


class TestMatchesScalarOperandCodec:
    """encode_frame and decode_frame against their scalar-operand bodies in
    codec_oracle: the per-table operand arrays move no bit."""

    @pytest.mark.parametrize("box", ["inside", "outside"])
    @pytest.mark.parametrize("bits", [8, 11, 16, 24])
    def test_same_payloads_clamp_counts_and_rotations(self, skeleton, bits, box):
        table = corner_table(skeleton.joint_names, 1.0 + (2e-9 if box == "outside" else -2e-9), bits)
        assert table._in_ball == (box == "inside")
        rng = np.random.default_rng(100 + bits)
        sway = synthesize_sway_recording(duration_s=1.0)
        frames = random_canonical_frames(rng, 40, table.joint_count) + list(sway.frames[::5])
        stats, oracle_stats = EncoderStats(), EncoderStats()
        for frame in frames:
            enc = encode_frame(frame, table, stats)
            assert enc.payload == scalar_encode(frame, table, oracle_stats).payload
        assert stats == oracle_stats and stats.clamped_components > 0
        count = table.joint_count * 3
        payloads = [rng.integers(0, 1 << bits, size=count) for _ in range(40)]
        # Grid corners, where |v| is largest: outside the ball they renormalize.
        payloads += [rng.integers(0, 2, size=count) * table.levels for _ in range(20)]
        for ints in payloads:
            enc = EncodedFrame(0, (0.0, 0.0, 0.0), _pack_ints(ints.astype(np.uint32), bits))
            dec = decode_frame(enc, table, skeleton)
            assert dec.rotations.tobytes() == scalar_decode(enc, table).tobytes()
            # Re-encoding the decode also gives the oracle's bytes.
            assert encode_frame(dec, table).payload == scalar_encode(dec, table).payload


    @pytest.mark.parametrize("bits", [8, 11, 16, 24])
    def test_edge_components(self, bits):
        """Components at each bound and one ulp either side of it,
        infinities and identity rows give the oracle's payload and tally
        frame by frame; a negative w is still refused, and so is a NaN
        component, alone or beside an out-of-bounds one. A NaN makes min()
        and max() NaN, so one-pass checks written as plain `<` and `>=`
        would let its frame skip the flagged path and its refusal."""
        rng = np.random.default_rng(bits)
        lo, hi = -rng.uniform(0.1, 0.5, (3, 3)), rng.uniform(0.1, 0.5, (3, 3))
        table = BoundsTable(("a", "b", "c"), lo, hi, bits=bits)
        identity = np.tile([0.0, 0.0, 0.0, 1.0], (3, 1))

        def frame(*edits):
            rows = identity.copy()
            for j, c, value in edits:
                rows[j, c] = value
            return PoseFrame(0, (0.0, 0.0, 0.0), rows)

        at_lo, at_hi = identity.copy(), identity.copy()
        at_lo[:, :3], at_hi[:, :3] = lo, hi
        cases = [frame(), PoseFrame(0, (0, 0, 0), at_lo), PoseFrame(0, (0, 0, 0), at_hi)]
        for j in range(3):
            for c in range(3):
                cases += [frame((j, c, np.nextafter(bound, toward)))
                          for bound in (lo[j, c], hi[j, c]) for toward in (-np.inf, np.inf)]
        cases += [frame((1, c, value)) for c in range(3) for value in (np.inf, -np.inf)]
        for case in cases:
            stats, oracle_stats = EncoderStats(), EncoderStats()
            enc = encode_frame(case, table, stats)
            assert enc.payload == scalar_encode(case, table, oracle_stats).payload
            assert stats == oracle_stats
        nan_beside = [
            frame((0, 0, np.nan), (1, 1, np.nextafter(hi[1, 1], np.inf))),
            frame((2, 2, np.nan), (0, 1, np.nextafter(lo[0, 1], -np.inf))),
            frame((1, 0, np.nan), (2, 1, np.inf)),
            frame((0, 3, np.nan), (1, 2, -0.9)),
        ]
        lone_nan = [frame((j, c, np.nan)) for j in range(3) for c in range(4)]
        for case in nan_beside + lone_nan:
            stats = EncoderStats()
            with pytest.raises(ValueError, match="NaN"):
                encode_frame(case, table, stats)
            assert stats == EncoderStats()
        for w in (-1.0, -0.5, np.nextafter(0.0, -1.0)):
            for case in (frame((0, 3, w)), frame((0, 3, w), (1, 0, 2.0))):
                for encode in (encode_frame, scalar_encode):
                    with pytest.raises(ValueError, match="canonicalized"):
                        encode(case, table)


def frame_bytes(need: int):
    """Buffers for EncodedFrame.from_bytes: most of them `need` bytes long,
    some with a root of any float32 (NaN and infinities included)."""
    root = st.tuples(*[st.floats(width=32)] * 3).map(lambda r: struct.pack("<3f", *r))
    exact = st.builds(
        lambda ts, r, payload: ts + r + payload,
        st.binary(min_size=8, max_size=8), root,
        st.binary(min_size=need - 20, max_size=need - 20),
    )
    return st.one_of(exact, st.binary(min_size=need, max_size=need), st.binary(max_size=need + 4))


@pytest.mark.parametrize("box", ["inside", "outside"])
@pytest.mark.parametrize("bits", [8, 11, 16, 24])
def test_property_any_bytes_decode_or_are_corrupt(skeleton, bits, box):
    """from_bytes then decode_frame either raises CorruptFrameError or gives
    a frame with a finite root and read-only float64 (joints, 4) rotations
    of w >= 0 and unit norm to 1e-12."""
    table = corner_table(skeleton.joint_names, 1.0 + (2e-9 if box == "outside" else -2e-9), bits)
    need = 20 + table.payload_bytes

    @given(frame_bytes(need))
    @settings(max_examples=150, deadline=None)
    def check(data):
        try:
            frame = decode_frame(EncodedFrame.from_bytes(data, table), table, skeleton)
        except CorruptFrameError:
            assert len(data) != need or not all(map(math.isfinite, struct.unpack_from("<3f", data, 8)))
            return
        assert all(map(math.isfinite, frame.root_translation))
        rot = frame.rotations
        assert rot.dtype == np.float64 and rot.shape == (table.joint_count, 4)
        assert not rot.flags.writeable
        assert np.all(rot[:, 3] >= 0.0)
        assert np.all(np.abs(np.linalg.norm(rot, axis=1) - 1.0) <= 1e-12)

    check()


class TestDecodedFrame:
    """The frame decode_frame hands over owns a new read-only (joints, 4)
    float64 array and carries the encoded frame's own timestamp and root."""

    @pytest.mark.parametrize("box", ["inside", "outside"])
    @pytest.mark.parametrize("bits", [8, 11, 16, 24])
    def test_frame_owns_its_rotations(self, skeleton, bits, box):
        table = corner_table(skeleton.joint_names, 1.0 + (2e-9 if box == "outside" else -2e-9), bits)
        rng = np.random.default_rng(bits)
        payloads = [rng.integers(0, 1 << bits, size=table.joint_count * 3) for _ in range(4)]
        # The far corner of every box: renormalized outside the unit ball.
        payloads.append(np.full(table.joint_count * 3, table.levels))
        previous = None
        for i, ints in enumerate(payloads):
            enc = EncodedFrame(10**12 + i, (0.5, -1.0, 2.0 + i), big_int_pack(ints.astype(np.uint32), bits))
            frame = decode_frame(enc, table, skeleton)
            rot = frame.rotations
            assert rot.dtype == np.float64 and rot.shape == (table.joint_count, 4)
            assert rot.flags.c_contiguous and not rot.flags.writeable
            assert frame.timestamp_us is enc.timestamp_us
            assert frame.root_translation is enc.root_translation
            if previous is not None:
                assert not np.shares_memory(rot, previous)
            again = PoseFrame(frame.timestamp_us, frame.root_translation, rot)
            assert again == frame and again.rotations is rot
            previous = rot

    def test_decode_does_not_check_its_own_array_again(self, skeleton, monkeypatch):
        table = full_range_table()
        enc = encode_frame(identity_frame(), table)
        expected = decode_frame(enc, table, skeleton)

        def refuse(frame):
            raise AssertionError("PoseFrame.__post_init__ ran")

        monkeypatch.setattr(PoseFrame, "__post_init__", refuse)
        frame = decode_frame(enc, table, skeleton)
        assert type(frame) is PoseFrame
        assert frame.rotations.tobytes() == expected.rotations.tobytes()


class TestMaxAngularError:
    def test_full_range_16_bit_value(self):
        # Oracle: evaluate the bound's definition independently. Chord
        # error is vec_err amplified by 1/w (floored at 0.1); the rotation
        # angle at chord c is 4*asin(c/2).
        table = full_range_table()
        step = 2.0 / 65535
        vec_err = math.sqrt(3 * (step / 2.0) ** 2)
        w_min = 0.0  # sqrt(max(0, 1 - 3)) for (-1, 1) bounds
        expected = 4.0 * math.asin(min(1.0, 0.5 * vec_err / max(w_min, 0.1)))
        assert max_angular_error(table) == pytest.approx(expected, rel=1e-12)
        assert max_angular_error(table) <= 5.3e-4
        # and the envelope criterion pin stays far below the bound
        assert math.radians(0.01) <= max_angular_error(table)

    def test_monte_carlo_never_exceeds_bound(self, skeleton):
        table = full_range_table()
        bound = max_angular_error(table)
        rng = np.random.default_rng(7)
        frames = frames_from_rows(w_largest_rows(rng, 34 * 30), 34)
        worst = 0.0
        for frame in frames:
            dec = decode_frame(encode_frame(frame, table), table, skeleton)
            worst = max(worst, geodesic_rows(frame.rotation_array(), dec.rotation_array()).max())
        assert worst <= bound

    def test_24_bit_bound_is_256x_smaller(self):
        b16 = max_angular_error(full_range_table(bits=16))
        b24 = max_angular_error(full_range_table(bits=24))
        assert b16 / b24 == pytest.approx(256.0, rel=5e-3)

    def test_tight_bounds_use_actual_w_floor(self):
        lo = np.full((1, 3), -0.3)
        hi = np.full((1, 3), 0.3)
        table = BoundsTable(("a",), lo, hi, bits=16)
        w_min = math.sqrt(1 - 3 * 0.09)
        step = 0.6 / 65535
        expected = 4.0 * math.asin(0.5 * math.sqrt(3) * (step / 2.0) / w_min)
        assert max_angular_error(table) == pytest.approx(expected, rel=1e-9)

    def test_tight_table_bound_holds_for_real_motion(self, skeleton):
        # Regression: a bound without the chord-to-angle factor two is
        # exceeded by plain sway data on a tight data-driven table.
        recording = synthesize_sway_recording(duration_s=4.0)
        table = analyze_bounds(
            [recording.frames], margin=0.1, bits=16,
            joint_names=default_skeleton().joint_names,
        )
        bound = max_angular_error(table)
        worst = 0.0
        for frame in recording.frames:
            dec = decode_frame(encode_frame(frame, table), table, skeleton)
            worst = max(worst, geodesic_rows(frame.rotation_array(), dec.rotation_array()).max())
        assert worst <= bound


class TestCompressionRatio:
    @pytest.mark.parametrize("joints", [8, 12, 34])
    @pytest.mark.parametrize("bits", [8, 16, 24])
    def test_always_at_most_two_thirds_for_real_rigs(self, joints, bits):
        names = tuple(f"j{i}" for i in range(joints))
        table = full_range_table(joint_count=joints, bits=bits, names=names)
        encoded = len(encode_frame(identity_frame(joints), table).to_bytes())
        # The raw frame is one record of a recording file.
        assert encoded <= (2 / 3) * _frame_layout(joints).itemsize

    def test_default_rig_sizes(self):
        table = full_range_table()
        assert len(encode_frame(identity_frame(), table).to_bytes()) == 224
        assert _frame_layout(34).itemsize == 564


@given(st.integers(0, 2**31), st.integers(2, 6))
@settings(max_examples=50, deadline=None)
def test_property_grid_exactness(seed, joints):
    """encode(decode(encode(f))) == encode(f) bit for bit, and single-trip
    error stays inside the analytic bound, across random envelopes."""
    rng = np.random.default_rng(seed)
    names = tuple(f"j{i}" for i in range(joints))
    table = full_range_table(joint_count=joints, names=names)
    skeleton = Skeleton(names, {i: default_skeleton().zone_map[0] for i in range(joints)})
    frames = frames_from_rows(w_largest_rows(rng, joints * 4), joints)
    bound = max_angular_error(table)
    for frame in frames:
        enc = encode_frame(frame, table)
        dec = decode_frame(enc, table, skeleton)
        assert encode_frame(dec, table).payload == enc.payload
        assert geodesic_rows(frame.rotation_array(), dec.rotation_array()).max() <= bound
