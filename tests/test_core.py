import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dancegraph.core import (
    BodyZone,
    FrameBlock,
    InvalidQuaternionError,
    PoseFrame,
    Skeleton,
    _stack_frames,
    default_skeleton,
    rows_canonicalize,
    rows_conjugate,
    rows_exp_half,
    rows_from_axis_angle,
    rows_log_half,
    rows_multiply,
    rows_normalize,
    rows_scale_rotation,
    rows_slerp,
)

from conftest import (
    IDENTITY,
    _conj_product_matrix,
    geodesic_distance,
    rotate_vector,
    scalar_canonicalize,
    scalar_from_axis_angle,
    unit_quaternions,
)
from karcher_oracle import MeanConvergenceError, karcher_mean_rows

IDENTITY_ROW = np.array([IDENTITY])


def canon(q):
    """One quaternion through rows_canonicalize, as a (1, 4) row."""
    return rows_canonicalize(np.array([q], dtype=np.float64))


def rot(axis, angle):
    """One rotation by `angle` radians about `axis`, as a (1, 4) row."""
    return rows_from_axis_angle(np.array([axis], dtype=np.float64), [angle])


def rot_x(a):
    return rot((1.0, 0.0, 0.0), a)


def rot_y(a):
    return rot((0.0, 1.0, 0.0), a)


def rot_z(a):
    return rot((0.0, 0.0, 1.0), a)


def mean(rows, tolerance=1e-8):
    """The canonical Karcher mean of a list of (1, 4) rows."""
    return rows_canonicalize(karcher_mean_rows(np.concatenate(rows), tolerance))


class TestCanonicalize:
    def test_double_cover_sign_flip(self):
        assert canon((0, 0, 0, -1)).tolist() == [[0.0, 0.0, 0.0, 1.0]]

    def test_identity_fixed_point(self):
        assert canon((0, 0, 0, 1)).tolist() == [[0.0, 0.0, 0.0, 1.0]]

    def test_negation_forces_w_nonnegative(self):
        assert canon((0.6, 0, 0, -0.8)).tolist() == [[-0.6, 0.0, 0.0, 0.8]]

    def test_w_zero_tiebreak_on_first_nonzero_component(self):
        assert canon((-0.6, 0.8, 0.0, 0.0)).tolist() == [[0.6, -0.8, 0.0, 0.0]]

    @pytest.mark.parametrize("noise", [1e-17, -1e-17, 2.2e-313, -0.0])
    def test_half_turn_sign_ignores_rounding_noise_in_w(self, noise):
        # A w that is rounding noise around 0 must not pick the sign: the
        # first significant vector component does, and w lands on 0.
        q = canon((-0.6, 0.8, 0.0, noise))
        assert q.tolist() == [[0.6, -0.8, 0.0, 0.0]]
        assert q.tobytes() == np.array(scalar_canonicalize((-0.6, 0.8, 0.0, noise))).tobytes()

    def test_half_turn_lead_skips_noise_components(self):
        assert canon((-1e-17, 0.6, -0.8, 0.0)).tolist() == [[-1e-17, 0.6, -0.8, 0.0]]

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidQuaternionError):
            canon((0, 0, 0, 0))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidQuaternionError):
            canon((float("nan"), 0, 0, 1))

    @given(st.tuples(*[st.floats(-10, 10, allow_nan=False) for _ in range(4)]))
    def test_idempotent_bit_for_bit(self, raw):
        x, y, z, w = raw
        if x * x + y * y + z * z + w * w <= 1e-12:
            return
        once = canon(raw)
        assert rows_canonicalize(once).tobytes() == once.tobytes()

    @given(unit_quaternions(), st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)))
    def test_preserves_rotation(self, q, v):
        rotated = rotate_vector(q, v)
        rotated_c = rotate_vector(canon(q)[0].tolist(), v)
        assert max(abs(a - b) for a, b in zip(rotated, rotated_c)) < 1e-6


class TestRowsCanonicalize:
    def test_near_unit_rows_are_not_rescaled(self):
        # Within _ALREADY_UNIT_TOL of unit norm the row keeps its bits.
        row = np.array([[0.6, 0.0, 0.0, 0.8 + 2e-16]])
        assert rows_canonicalize(row).tobytes() == row.tobytes()

    def test_w_zero_tiebreak_on_first_nonzero_component(self):
        out = rows_canonicalize(np.array([[0.0, -0.6, 0.8, 0.0], [0.6, -0.8, 0.0, 0.0]]))
        assert out.tolist() == [[0.0, 0.6, -0.8, 0.0], [0.6, -0.8, 0.0, 0.0]]

    @pytest.mark.parametrize("bad", [
        (0.0, 0.0, 0.0, 0.0), (float("nan"), 0.0, 0.0, 1.0), (float("inf"), 0.0, 0.0, 1.0),
    ])
    def test_zero_norm_and_non_finite_rejected(self, bad):
        with pytest.raises(InvalidQuaternionError):
            rows_canonicalize(np.array([(0.0, 0.0, 0.0, 1.0), bad]))


def masked_rows_canonicalize(arr):
    """rows_canonicalize as it was when it rescaled and flipped only the rows
    that need it, through boolean gathers and scatters. Kept as the oracle."""
    out = np.array(arr, dtype=np.float64)
    x, y, z, w = out[..., 0], out[..., 1], out[..., 2], out[..., 3]
    n2 = x * x + y * y + z * z + w * w
    if not np.all(np.isfinite(n2) & (n2 > 0.0)):
        raise InvalidQuaternionError("quaternion norms must be positive and finite")
    rescale = np.abs(n2 - 1.0) > 1e-12
    if np.any(rescale):
        out[rescale] *= (1.0 / np.sqrt(n2[rescale]))[:, None]
    w = out[..., 3]
    out[w < -1e-12] *= -1.0
    tie = w <= 1e-12
    if np.any(tie):
        w[tie] = 0.0
        v = out[..., :3]
        first = np.argmax(np.abs(v) > 1e-12, axis=-1)
        lead = np.take_along_axis(v, first[..., None], axis=-1)[..., 0]
        v[tie & (lead < 0.0)] *= -1.0
    return out


class TestRowsCanonicalizeMatchesMaskedOracle:
    def rows(self, seed=4, shape=(300, 7, 4)):
        return rows_normalize(np.random.default_rng(seed).normal(size=shape))

    @pytest.mark.parametrize("case", [
        "f32_widened", "off_unit_norm", "w_negative", "half_turn_ties", "canonical", "mixed",
    ])
    def test_bit_for_bit(self, case):
        q = self.rows()
        if case == "f32_widened":  # as load_recording widens a file's rows
            q = q.astype(np.float32).astype(np.float64)
        elif case == "off_unit_norm":
            q = q * np.random.default_rng(5).uniform(0.1, 10.0, size=q.shape[:-1] + (1,))
        elif case == "w_negative":
            q[..., 3] = -np.abs(q[..., 3])
        elif case == "half_turn_ties":
            q[..., 3] = np.random.default_rng(6).choice([0.0, -0.0, 1e-13, -1e-13, 5e-300],
                                                        size=q.shape[:-1])
            q[::3, :, 0] = 0.0
            q[::5, :, 1] = -1e-17
        elif case == "canonical":
            q = masked_rows_canonicalize(q)
        else:  # every kind above, row by row
            q[0::4] = q[0::4].astype(np.float32)
            q[1::4, :, 3] = -np.abs(q[1::4, :, 3]) * 3.0
            q[2::4, :, 3] = -0.0
        got = rows_canonicalize(q)
        assert got.tobytes() == masked_rows_canonicalize(q).tobytes()
        assert rows_canonicalize(got).tobytes() == got.tobytes()

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (3, 2, 5, 4)])
    def test_any_leading_shape(self, shape):
        q = np.random.default_rng(7).normal(size=shape)
        assert rows_canonicalize(q).tobytes() == masked_rows_canonicalize(q).tobytes()


def _multiply(a, b):
    """Pure-Python quaternion product a * b, in rows_multiply's term order."""
    ax, ay, az, aw = a
    bx, by, bz, bw = b
    return (
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
        aw * bw - ax * bx - ay * by - az * bz,
    )


def reference_scale_rotation(reference, q, gain):
    """Pure-Python reference * exp(gain * log(reference^-1 * q))."""
    rx, ry, rz, rw = reference
    rel = _multiply((-rx, -ry, -rz, rw), q)
    x, y, z, w = rel if rel[3] >= 0.0 else tuple(-c for c in rel)
    vn = math.sqrt(x * x + y * y + z * z)
    f = math.atan2(vn, w) / vn if vn > 0.0 else 0.0
    ux, uy, uz = x * f * gain, y * f * gain, z * f * gain
    half = math.sqrt(ux * ux + uy * uy + uz * uz)
    s = math.sin(half) / half if half >= 1e-12 else 1.0
    return scalar_canonicalize(_multiply(reference, (ux * s, uy * s, uz * s, math.cos(half))))


def _outcome(fn, *args):
    """The result's bytes, or the type of the exception raised."""
    try:
        return np.array(fn(*args), dtype=np.float64).tobytes()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


_raw_component = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False), st.sampled_from([0.0, -0.0, 0.5, -0.5])
)
_raw_quats = st.tuples(*[_raw_component] * 4).filter(lambda q: sum(c * c for c in q) > 0.0)
_HALF_TURNS = [math.pi, -math.pi, 3 * math.pi, math.pi + 1e-13, 2 * math.pi]
_axis_component = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0, -1.0])
)
_angles = st.one_of(st.floats(-4 * math.pi, 4 * math.pi), st.sampled_from(_HALF_TURNS))


class TestMatchesScalarOracle:
    """rows_canonicalize and rows_from_axis_angle against the pure-Python
    bodies they replaced, bit for bit, errors included."""

    @given(st.tuples(*[_raw_component] * 4))
    @settings(max_examples=300)
    @example((-0.6, 0.8, 0.0, 1e-17))
    @example((0.0, 0.0, 0.0, 0.0))
    @example((float("nan"), 0.0, 0.0, 1.0))
    @example((float("inf"), 0.0, 0.0, 1.0))
    def test_canonicalize(self, q):
        assert _outcome(canon, q) == _outcome(scalar_canonicalize, q)

    @given(st.tuples(*[_axis_component] * 3), _angles)
    @settings(max_examples=300)
    @example((1.0, 0.0, 0.0), math.pi)  # w is rounding noise: the tie branch
    @example((-1.0, 0.5, 0.0), math.pi)
    @example((0.0, 0.0, 0.0), 0.3)  # zero axis
    @example((1.0, 0.0, 0.0), float("inf"))
    @example((1.0, 0.0, 0.0), float("nan"))
    def test_from_axis_angle(self, axis, angle):
        assert _outcome(rot, axis, angle) == _outcome(scalar_from_axis_angle, axis, angle)

    def test_half_turn_takes_the_tie_branch(self):
        q = rot((-1.0, 0.5, 0.0), math.pi)[0]
        assert q[3] == 0.0 and q[0] > 0.0
        expected = scalar_from_axis_angle((-1.0, 0.5, 0.0), math.pi)
        assert q.tobytes() == np.array(expected).tobytes()

    def test_rows_match_row_by_row(self):
        rng = np.random.default_rng(11)
        axes = rng.normal(size=(6, 5, 3))
        angles = rng.uniform(-7.0, 7.0, size=(6, 5))
        angles[0, :] = _HALF_TURNS
        batch = rows_from_axis_angle(axes, angles)
        assert batch.shape == (6, 5, 4)
        for i in range(6):
            for j in range(5):
                expected = scalar_from_axis_angle(axes[i, j].tolist(), float(angles[i, j]))
                assert batch[i, j].tobytes() == np.array(expected).tobytes()

    def test_rows_reject_zero_axes_and_shape_mismatch(self):
        axes = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(InvalidQuaternionError):
            rows_from_axis_angle(axes, [0.1, 0.2])
        with pytest.raises(ValueError):
            rows_from_axis_angle(axes[:1], [0.1, 0.2])
        with pytest.raises(ValueError):
            rows_from_axis_angle(np.ones((2, 4)), [0.1, 0.2])


class TestScalarMatchesRows:
    """A single rotation is a one-row batch: each kernel called on one (1, 4)
    row agrees with the same kernel called on many rows, row for row; and
    rows_scale_rotation agrees with a pure-Python reference."""

    @given(st.lists(_raw_quats, min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_canonicalize_bit_for_bit(self, quats):
        batch = rows_canonicalize(np.array(quats))
        for q, row in zip(quats, batch):
            assert canon(q).tobytes() == row.tobytes()

    @given(
        st.lists(st.tuples(unit_quaternions(), unit_quaternions()), min_size=1, max_size=6),
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
    )
    def test_slerp(self, pairs, u):
        a = np.array([a for a, _ in pairs])
        b = np.array([b for _, b in pairs])
        batch = rows_slerp(a, b, u)
        for i, row in enumerate(batch):
            one = rows_slerp(a[i:i + 1], b[i:i + 1], u)
            np.testing.assert_allclose(one[0], row, rtol=0.0, atol=1e-15)

    @given(
        st.lists(
            st.tuples(unit_quaternions(), unit_quaternions(), st.booleans()), min_size=1, max_size=6
        ),
        st.floats(0.0, 4.0),
    )
    def test_scale_rotation_batch_matches_rows_with_half_turns(self, cases, gain):
        # The boolean swaps q for a half-turn away from the reference, the
        # case whose log axis is ambiguous.
        refs = np.array([r for r, _, _ in cases])
        half = np.array([h for _, _, h in cases])
        qs = np.where(
            half[:, None],
            rows_multiply(refs, np.array([1.0, 0.0, 0.0, 0.0])),
            np.array([q for _, q, _ in cases]),
        )
        batch = rows_scale_rotation(refs, qs, gain)
        for i, row in enumerate(batch):
            out = rows_scale_rotation(refs[i:i + 1], qs[i:i + 1], gain)
            np.testing.assert_allclose(out[0], row, rtol=0.0, atol=1e-15)

    @given(unit_quaternions(), unit_quaternions(), st.floats(0.0, 4.0))
    @settings(max_examples=200)
    # Half-turn results, whose w is rounding noise around 0: the two
    # computations round differently there and must pick the same sign.
    @example(
        scalar_canonicalize((0.18014668640891762, 0.0, 1.0, 0.0)),
        scalar_canonicalize((0.18014668640891762, -0.8143727063839332, 1.0, 0.0)),
        2.0,
    )
    @example(
        scalar_canonicalize((1.0, 0.0, 0.0, 0.0)),
        scalar_canonicalize((-1.0, 0.0, 0.0, 2.2250738585e-313)),
        1.0,
    )
    @example(
        scalar_canonicalize((0.0, -0.16249203205612361, 1.0, 0.0)),
        scalar_canonicalize((1.0, 0.16249203205612361, 0.0, 0.0)),
        0.25,
    )
    @example(
        scalar_canonicalize((1.0, 0.0, 0.0, 1.002473537037997e-186)),
        scalar_canonicalize((1.0, 0.0, 0.0, 0.0)),
        2.0,
    )
    @example(
        scalar_canonicalize((1.0, 0.75, 1.0, 0.0)),
        scalar_canonicalize((0.0625, 0.9527239150180429, 1.0, 0.0)),
        1.0,
    )
    @example(
        scalar_canonicalize((0.0, 1.0, 0.0, 0.0)),
        scalar_canonicalize((0.0, 1.0, 0.0, -2.225073858507203e-309)),
        1.0,
    )
    def test_scale_rotation_matches_pure_python_reference(self, ref, q, gain):
        # Transcendentals come from numpy instead of math: allow rounding.
        expected = reference_scale_rotation(ref, q, gain)
        out = rows_scale_rotation(np.array([ref]), np.array([q]), gain)
        np.testing.assert_allclose(out[0], expected, rtol=0.0, atol=1e-12)

    @given(st.lists(unit_quaternions(min_w=0.7), min_size=1, max_size=8))
    def test_geodesic_mean(self, quats):
        rows = np.array(quats)
        batch = rows_canonicalize(karcher_mean_rows(rows[None], 1e-8))
        np.testing.assert_allclose(mean([rows]), batch[0], rtol=0.0, atol=1e-15)


class TestGeodesicMean:
    def test_identity_pair(self):
        result = mean([IDENTITY_ROW] * 2)
        assert geodesic_distance(result, IDENTITY) < 1e-12

    def test_symmetric_pair_averages_to_identity(self):
        result = mean([rot_x(0.2), rot_x(-0.2)], tolerance=1e-9)
        assert geodesic_distance(result, IDENTITY) < 1e-6

    def test_single_axis_sample_matches_angle_average(self):
        # Oracle: for rotations sharing one axis the geodesic mean is the
        # plain average of the angles.
        angles = [0.3 + 0.05 * math.sin(k) for k in range(100)]
        expected = rot_y(sum(angles) / len(angles))
        result = mean([rot_y(a) for a in angles], tolerance=1e-10)
        assert geodesic_distance(result, expected) < 1e-7
        assert geodesic_distance(result, rot_y(0.3)) < 0.01

    def test_iteration_budget_enforced(self):
        rows = np.concatenate([rot_x(0.4), rot_y(0.3), rot_z(-0.2)])
        # an unreachable tolerance exhausts the iteration budget
        with pytest.raises(MeanConvergenceError):
            karcher_mean_rows(rows, tolerance=0.0, max_iterations=4)

    @given(
        st.lists(
            st.floats(-0.5, 0.5, allow_nan=False).map(rot_x), min_size=2, max_size=12
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, quats, rnd):
        # Concentrated samples: the mean is only unique when the inputs sit
        # inside a geodesic ball, which is how rolling windows use it.
        shuffled = list(quats)
        rnd.shuffle(shuffled)
        a = mean(quats, tolerance=1e-9)
        b = mean(shuffled, tolerance=1e-9)
        assert geodesic_distance(a, b) < 1e-6


def spread_rows(rng, shape, spread):
    """Unit quaternions scattered up to about `spread` radians around one
    random center per leading index: shape + (4,)."""
    center = rows_canonicalize(rng.normal(size=shape[:-1] + (1, 4)))
    offsets = rows_exp_half(rng.uniform(-0.5, 0.5, size=shape + (3,)) * spread)
    return rows_multiply(np.broadcast_to(center, shape + (4,)), offsets)


class TestKarcherMeanRows:
    @pytest.mark.parametrize("warm", [False, True])
    def test_batch_matches_per_slice(self, warm):
        rng = np.random.default_rng(11)
        rows = spread_rows(rng, (3, 5, 40), 0.8)  # (3, 5) means of 40 rows each
        init = rows_canonicalize(rows[..., 7, :] + 0.05) if warm else None
        batch = karcher_mean_rows(rows, 1e-9, init=init)
        assert batch.shape == (3, 5, 4)
        for idx in np.ndindex(3, 5):
            alone = karcher_mean_rows(rows[idx], 1e-9, init=None if init is None else init[idx])
            np.testing.assert_allclose(batch[idx], alone, rtol=0.0, atol=1e-12)

    def test_batch_of_one_row_set_matches_unbatched(self):
        rows = spread_rows(np.random.default_rng(2), (1, 25), 0.5)
        np.testing.assert_allclose(
            karcher_mean_rows(rows, 1e-9)[0], karcher_mean_rows(rows[0], 1e-9), rtol=0.0, atol=1e-12
        )

    def test_double_cover_sign_ignored(self):
        # q and -q are one rotation: negating rows must not move any mean.
        rows = spread_rows(np.random.default_rng(8), (4, 30), 0.8)
        flipped = rows.copy()
        flipped[:, ::3] *= -1.0
        np.testing.assert_allclose(
            rows_canonicalize(karcher_mean_rows(flipped, 1e-9)),
            rows_canonicalize(karcher_mean_rows(rows, 1e-9)),
            rtol=0.0,
            atol=1e-12,
        )

    def test_batch_raises_when_budget_exhausted(self):
        rows = spread_rows(np.random.default_rng(5), (4, 10), 0.6)
        with pytest.raises(MeanConvergenceError):
            karcher_mean_rows(rows, tolerance=0.0, max_iterations=4)

    def test_one_unsettled_slice_fails_the_batch(self):
        # Slice 0 holds identical rows and settles in one step; slice 1 is
        # spread and needs more steps than the budget allows.
        settled = np.broadcast_to(rows_canonicalize(np.array([0.1, 0.2, 0.3, 0.9])), (3, 4))
        spread = np.concatenate([rot_x(0.8), rot_y(0.6), rot_z(-0.7)])
        karcher_mean_rows(settled[None], tolerance=1e-9, max_iterations=2)
        with pytest.raises(MeanConvergenceError):
            karcher_mean_rows(np.stack([settled, spread]), tolerance=1e-9, max_iterations=2)

    @given(st.lists(st.tuples(unit_quaternions(), unit_quaternions()), min_size=1, max_size=6))
    def test_conj_product_matrix_matches_rows_multiply(self, pairs):
        m = np.array([a for a, _ in pairs])
        q = np.array([b for _, b in pairs])
        product = _conj_product_matrix(m)
        np.testing.assert_allclose(
            (q[:, None, :] @ product)[:, 0], rows_multiply(rows_conjugate(m), q), rtol=0.0, atol=1e-15
        )
        np.testing.assert_allclose(
            np.einsum("...jk,...k->...j", product, q), rows_multiply(m, q), rtol=0.0, atol=1e-15
        )


def reference_karcher_mean_rows(rows, tolerance=1e-8, init=None, max_iterations=64):
    """karcher_mean_rows as it was before its iteration moved onto dot
    products: each iteration builds the full conj(mean) * row products and
    takes the log map of each. Kept as the oracle."""
    arr = rows_normalize(np.asarray(rows, dtype=np.float64))
    mean = rows_normalize(np.array(arr[..., 0, :] if init is None else init, dtype=np.float64))
    done = np.zeros(mean.shape[:-1], dtype=bool)
    for _ in range(max_iterations):
        product = _conj_product_matrix(mean)
        rel = arr @ product  # conj(mean) * row
        v, w = rel[..., :3], rel[..., 3]
        vn = np.sqrt(np.einsum("...k,...k->...", v, v))
        weight = np.divide(np.arctan2(vn, np.abs(w)), vn, out=np.ones_like(vn), where=vn > 1e-12)
        np.negative(weight, out=weight, where=w < 0.0)
        step = (weight[..., None, :] @ v)[..., 0, :] / arr.shape[-2]
        moved = rows_normalize(np.einsum("...jk,...k->...j", product, rows_exp_half(step)))
        mean = np.where(done[..., None], mean, moved)
        done |= 2.0 * np.sqrt((step * step).sum(axis=-1)) < tolerance
        if done.all():
            return mean
    raise MeanConvergenceError("reference mean did not converge")


def iterations_needed(mean_fn, rows, tolerance, init):
    """The smallest max_iterations for which mean_fn does not raise."""
    for budget in range(1, 65):
        try:
            mean_fn(rows, tolerance, init=init, max_iterations=budget)
        except MeanConvergenceError:
            continue
        return budget
    pytest.fail("no budget up to 64 iterations converged")


class TestKarcherMatchesConjProductKernel:
    def assert_matches(self, rows, tolerance, init=None):
        got = karcher_mean_rows(rows, tolerance, init=init)
        want = reference_karcher_mean_rows(rows, tolerance, init=init)
        assert np.abs(got - want).max() <= 1e-15
        assert iterations_needed(karcher_mean_rows, rows, tolerance, init) == iterations_needed(
            reference_karcher_mean_rows, rows, tolerance, init
        )

    @pytest.mark.parametrize("tolerance", [1e-8, 1e-9, 1e-12])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("spread", [1e-6, 1e-3, 0.1, 0.8, 1.5])
    def test_batched_spread_rows(self, spread, warm, tolerance):
        # (3, 2) means of 25 rows, every third row negated (the double
        # cover) and every row rescaled off unit norm.
        for seed in range(8):
            rng = np.random.default_rng(seed)
            rows = spread_rows(rng, (3, 2, 25), spread)
            rows[..., ::3, :] *= -1.0
            rows *= rng.uniform(0.5, 2.0, size=(3, 2, 25, 1))
            init = rows[..., 4, :] * 1.7 + rng.normal(scale=0.01, size=(3, 2, 4)) if warm else None
            self.assert_matches(rows, tolerance, init)

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0, 1.0], [0.5, 0.5, 0.5, 0.5], [0.1, -0.2, 0.3, 0.9]])
    @pytest.mark.parametrize("warm", [False, True])
    def test_identical_rows(self, row, warm):
        # Every relative rotation is the identity: |v| is 0 (or rounding
        # noise), where the log-map weight is 1.
        rows = np.broadcast_to(rows_normalize(np.array(row)), (2, 6, 4))
        self.assert_matches(rows, 1e-9, rows[:, 0] if warm else None)

    def test_row_at_half_turn_from_mean(self):
        # From the identity, (1, 0, 0, 0) is a half-turn away: w is exactly
        # 0 in the first iteration, with the rows near the identity moving
        # the mean off it.
        rows = np.concatenate([[[1.0, 0.0, 0.0, 0.0]], rot_y(0.2), rot_z(-0.1), rot_x(0.3), rot_y(-0.25)])
        init = np.array([0.0, 0.0, 0.0, 1.0])
        assert (rows @ init)[0] == 0.0
        self.assert_matches(rows, 1e-9, init)
        self.assert_matches(np.stack([rows, rows[::-1]]), 1e-9, np.stack([init, init]))

    # The edges below run with every floating-point warning raised: the
    # kernel floors 1 - w^2 and |g|^2 instead of masking its divisions.

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0, 1.0], [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, 0.5]])
    def test_rows_on_the_init_mean(self, row):
        # Rows exactly equal to the mean have w == 1 and 1 - w^2 == 0; two
        # of the six rows are, among rows up to 0.6 rad away.
        mean = np.array(row)
        others = spread_rows(np.random.default_rng(3), (4,), 0.6)
        rows = np.concatenate([mean[None], others[:2], mean[None], others[2:]])
        assert 1.0 - (rows @ mean)[0] ** 2 == 0.0
        with np.errstate(all="raise"):
            self.assert_matches(rows, 1e-9, mean)
            self.assert_matches(np.broadcast_to(mean, (7, 4)), 1e-9, mean)

    def test_settled_slice_batched_with_spread(self):
        # Identical rows on the mean give the step g == 0 exactly, while the
        # spread slice beside them still moves.
        settled = np.broadcast_to([0.5, 0.5, 0.5, 0.5], (9, 4))
        spread = spread_rows(np.random.default_rng(6), (9,), 0.8)
        rows = np.stack([settled, spread])
        with np.errstate(all="raise"):
            self.assert_matches(rows, 1e-9)
            self.assert_matches(rows, 1e-12, np.stack([settled[0], spread[4]]))

    def test_rows_opposite_the_mean(self):
        # Negated rows have w < 0 against the mean; -(1, 0, 0, 0) is a
        # half-turn from the identity, with w == 0.
        rows = spread_rows(np.random.default_rng(9), (2, 12), 0.5)
        rows[:, 1::2] *= -1.0
        init = np.array([0.0, 0.0, 0.0, 1.0])
        assert np.any(rows @ init < 0.0)
        half_turn = np.concatenate([[[-1.0, -0.0, -0.0, -0.0]], rot_y(0.2), rot_z(-0.1), rot_x(0.3)])
        with np.errstate(all="raise"):
            self.assert_matches(rows, 1e-9)
            self.assert_matches(rows, 1e-9, np.stack([init, -rows[1, 0]]))
            self.assert_matches(half_turn, 1e-9, init)

    @pytest.mark.parametrize("warm", [False, True])
    def test_two_leading_axes(self, warm):
        rng = np.random.default_rng(12)
        rows = spread_rows(rng, (2, 3, 30), 0.7)
        init = rows_canonicalize(rows[..., 5, :] + 0.03) if warm else None
        with np.errstate(all="raise"):
            assert karcher_mean_rows(rows, 1e-9, init=init).shape == (2, 3, 4)
            self.assert_matches(rows, 1e-9, init)


class TestLogHalf:
    def test_sign_rule_at_a_half_turn(self):
        # Only w < 0 negates the weight: w == -0.0 is the same rotation as
        # w == +0.0, and the smallest negative w flips the axis.
        out = rows_log_half(np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, -0.0], [1.0, 0.0, 0.0, -1e-300]]))
        assert out.tolist() == [[math.pi / 2, 0.0, 0.0], [math.pi / 2, 0.0, 0.0], [-math.pi / 2, 0.0, 0.0]]

    def test_identity_has_zero_log(self):
        with np.errstate(all="raise"):
            assert rows_log_half(np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]])).tolist() == [[0.0] * 3] * 2


class TestScaleRotation:
    def test_gain_one_returns_input(self):
        q = rot_z(0.7)
        out = rows_scale_rotation(rot_x(0.3), q, 1.0)
        assert geodesic_distance(out, q) < 1e-9

    def test_gain_zero_returns_reference_exactly(self):
        ref = rot_x(0.3)
        out = rows_scale_rotation(ref, rot_z(0.7), 0.0)
        assert np.array_equal(out, rows_canonicalize(ref))

    def test_doubling_single_axis(self):
        # Oracle: axis-angle doubling is analytically exact for rotations
        # about one axis.
        out = rows_scale_rotation(IDENTITY_ROW, rot_z(0.4), 2.0)
        assert geodesic_distance(out, rot_z(0.8)) < 1e-9

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            rows_scale_rotation(rot_x(0.1), rot_x(0.2), -1.0)

    def test_gain_column_matches_per_joint_calls(self):
        rng = np.random.default_rng(3)
        refs = spread_rows(rng, (6, 4), 1.0)  # 6 frames x 4 joints
        qs = spread_rows(rng, (6, 4), 1.0)
        gains = np.array([0.0, 0.5, 2.0, 3.5])
        batch = rows_scale_rotation(refs, qs, gains[:, None])
        for j, gain in enumerate(gains):
            out = rows_scale_rotation(refs[:, j], qs[:, j], gain)
            np.testing.assert_array_equal(batch[:, j], out)

    def test_negative_gain_in_column_rejected(self):
        rows = np.concatenate([rot_x(0.1), rot_x(0.2)])
        with pytest.raises(ValueError):
            rows_scale_rotation(rows, rows, np.array([[1.0], [-0.5]]))

    def test_half_turn_uses_vector_axis(self):
        out = rows_scale_rotation(IDENTITY_ROW, rot_x(math.pi), 1.0)
        assert geodesic_distance(out, rot_x(math.pi)) < 1e-9

    @given(unit_quaternions(), unit_quaternions())
    @settings(max_examples=200)
    def test_gain_one_property(self, r, q):
        if geodesic_distance(r, q) >= math.pi - 0.1:
            return
        out = rows_scale_rotation(np.array([r]), np.array([q]), 1.0)
        assert geodesic_distance(out, q) < 1e-6

    @given(unit_quaternions(), unit_quaternions(), st.floats(0.0, 4.0, allow_nan=False))
    @settings(max_examples=200)
    def test_output_unit_norm(self, r, q, gain):
        out = rows_scale_rotation(np.array([r]), np.array([q]), gain)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-6


class TestSlerp:
    def test_endpoints_exact(self):
        a, b = rot_x(0.2), rot_y(0.9)
        assert np.array_equal(rows_slerp(a, b, 0.0), a)
        assert np.array_equal(rows_slerp(a, b, 1.0), b)

    def test_midpoint_single_axis(self):
        mid = rows_slerp(rot_z(0.0), rot_z(0.4), 0.5)
        assert geodesic_distance(mid, rot_z(0.2)) < 1e-9

    def test_takes_shorter_arc(self):
        mid = rows_slerp(rot_z(0.2), -rot_z(0.4), 0.5)
        # acos near 1.0 cannot resolve distances below ~sqrt(eps)
        assert geodesic_distance(mid, rot_z(0.3)) < 1e-6


class TestRotationHelpers:
    def test_multiply_composes(self):
        composed = rows_multiply(rot_z(0.3), rot_z(0.4))
        assert geodesic_distance(composed, rot_z(0.7)) < 1e-9

    def test_rotate_vector_quarter_turn(self):
        # q * (v, 0) * conj(q) rotates v.
        q = rot_z(math.pi / 2)
        out = rows_multiply(rows_multiply(q, np.array([[1.0, 0.0, 0.0, 0.0]])), rows_conjugate(q))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0, 0.0]], rtol=0.0, atol=1e-9)

    def test_axis_angle_rejects_zero_axis(self):
        with pytest.raises(InvalidQuaternionError):
            rot((0.0, 0.0, 0.0), 1.0)


class TestSkeleton:
    def test_default_rig_is_34_joints(self):
        sk = default_skeleton()
        assert sk.joint_count == 34
        assert len(set(sk.joint_names)) == 34
        assert set(sk.zone_map.keys()) == set(range(34))
        assert BodyZone.HIPS in sk.zone_map.values()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Skeleton(("a", "a"), {0: BodyZone.OTHER, 1: BodyZone.OTHER})

    def test_zone_map_must_cover_every_joint(self):
        with pytest.raises(ValueError):
            Skeleton(("a", "b"), {0: BodyZone.OTHER})
        with pytest.raises(ValueError):
            Skeleton(("a",), {0: BodyZone.OTHER, 1: BodyZone.HIPS})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Skeleton((), {})


class TestPoseFrame:
    def test_rotations_are_a_read_only_array(self):
        frame = PoseFrame(0, (0, 0, 0), (IDENTITY, (0.6, 0.0, 0.0, 0.8)))
        assert frame.rotations.dtype == np.float64 and frame.rotations.shape == (2, 4)
        with pytest.raises(ValueError):
            frame.rotations[0, 0] = 1.0

    def test_caller_array_is_copied_not_frozen(self):
        arr = np.array([[0.0, 0.0, 0.0, 1.0]])
        frame = PoseFrame(0, (0, 0, 0), arr)
        arr[0, 3] = 2.0
        assert arr.flags.writeable and frame.rotations[0, 3] == 1.0

    def test_value_equality(self):
        a = PoseFrame(1, (0.0, 0.0, 0.0), (IDENTITY,))
        b = PoseFrame.from_array(1, (0, 0, 0), np.array([[0.0, 0.0, 0.0, 1.0]]))
        c = PoseFrame(1, (0.0, 0.0, 0.0), ((0.6, 0.0, 0.0, 0.8),))
        assert (a == b) is True
        assert (a == c) is False

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            PoseFrame(0, (0, 0, 0), (0.0, 0.0, 0.0, 1.0))

    def test_array_round_trip(self):
        arr = np.array([[0.0, 0.0, 0.0, 1.0], [0.6, 0.0, 0.0, 0.8]])
        frame = PoseFrame.from_array(5, (1.0, 2.0, 3.0), arr)
        assert frame.timestamp_us == 5
        assert np.allclose(frame.rotation_array(), arr)


def list_stack_frames(frames):
    """_stack_frames as it built roots before: np.array of the list of root
    tuples. Kept as the oracle."""
    ts = np.fromiter((f.timestamp_us for f in frames), dtype=np.int64, count=len(frames))
    roots = np.array([f.root_translation for f in frames], dtype=np.float64).reshape(-1, 3)
    if not frames:
        return ts, roots, np.empty((0, 0, 4))
    return ts, roots, np.stack([f.rotations for f in frames])


class TestStackFrames:
    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_block_is_byte_identical_to_the_list_build(self, count):
        roots = [
            (0, 1, -2), (-0.0, 1e-310, 3.5e300), (np.float64(0.1), np.float32(0.2), -7),
            (float("nan"), float("inf"), -float("inf")), (1.0, 1.0, 1.0),
            (2.0 / 3.0, -1e-17, 4), (5, 6, 7),
        ]
        rotations = rows_canonicalize(np.random.default_rng(count).normal(size=(count, 3, 4)))
        frames = [PoseFrame(10 * i, roots[i], rotations[i]) for i in range(count)]
        got, want = _stack_frames(frames), list_stack_frames(frames)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()
        assert got[1].shape == (count, 3)


def frame_block(count=5, joints=3):
    rng = np.random.default_rng(count)
    ts = np.arange(count, dtype=np.int64) * 33_333
    roots = rng.normal(size=(count, 3))
    return FrameBlock(ts, roots, rows_canonicalize(rng.normal(size=(count, joints, 4))))


class TestFrameBlock:
    def test_an_index_always_returns_the_same_frame(self):
        block = frame_block()
        assert isinstance(block, FrameBlock) and len(block) == 5
        assert block[2] is block[2] is block[-3]
        assert block[-1] is block[4]
        frame = block[1]
        assert type(frame.timestamp_us) is int and frame.timestamp_us == 33_333
        assert [type(v) for v in frame.root_translation] == [float] * 3
        assert frame.root_translation == tuple(block.roots[1])
        assert np.shares_memory(frame.rotations, block.rotations)
        for index in (5, -6):
            with pytest.raises(IndexError):
                block[index]

    def test_slices_are_lists_of_the_cached_frames(self):
        block = frame_block()
        head = block[:2]
        assert type(head) is list and head[1] is block[1]
        assert block[:2] + block[3:] == [block[i] for i in (0, 1, 3, 4)]
        assert block[::-2] == [block[4], block[2], block[0]]
        assert block[7:] == []

    def test_iteration_yields_the_cached_frames(self):
        block = frame_block()
        third = block[3]
        frames = list(block)
        assert frames[3] is third and all(f is block[i] for i, f in enumerate(frames))
        assert all(a is b for a, b in zip(block, frames))
        assert frames == [PoseFrame(int(t), tuple(r), rot)
                          for t, r, rot in zip(block.ts, block.roots, block.rotations)]

    def test_equals_any_sequence_of_equal_frames(self):
        block = frame_block()
        copies = [PoseFrame(f.timestamp_us, f.root_translation, f.rotations.copy()) for f in block]
        assert block == copies and copies == block and block == tuple(copies)
        assert block == frame_block()
        assert block != copies[:-1]
        assert block != copies[:-1] + [PoseFrame(0, (0.0, 0.0, 0.0), copies[-1].rotations)]
        assert frame_block(0) == [] and [] == frame_block(0)
        assert block != frame_block(0)
        with pytest.raises(TypeError):
            hash(block)

    def test_arrays_are_read_only(self):
        block = frame_block()
        for arr in (block.ts, block.roots, block.rotations):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_stack_frames_returns_the_blocks_own_arrays(self):
        block = frame_block()
        ts, roots, rotations = _stack_frames(block)
        assert ts is block.ts and roots is block.roots and rotations is block.rotations
