"""The geodesic (Karcher) mean of unit quaternions, kept as a test oracle.

amplify_zones took its reference as this mean before it moved to the
chordal L2 mean (rhythm._chordal_windows). The loop lives on here, with its
sliding-window form and settling bound, so the tests can bound the gap
between the two means and keep checking the loop itself against the older
per-mean and per-product kernels in test_core.py and test_rhythm.py.
"""
from __future__ import annotations

import numpy as np

from dancegraph.core import rows_normalize

_MEAN_MAX_ITERATIONS = 64

# Squared norms are floored at this before their square roots, so no
# division meets a zero: with no vector part the log weight is atan(t)/t ==
# 1/|w|, and a zero Karcher step scales by sin(t)/t == 1 (t = 1e-150).
_SQUARED_NORM_FLOOR = 1e-300

# A window with a successor ends on a pass whose step angles h are all below
# _SETTLE_STEP once the bounds 2 * rho * h on their next steps are all below
# _SETTLE_BOUND (see _karcher_windows).
_SETTLE_STEP = 1e-7
_SETTLE_BOUND = 1e-13


class MeanConvergenceError(RuntimeError):
    """Raised when iterative rotation averaging fails to settle."""


def _log_half_weight(vn2: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-row f with rows_log_half(q) == f * v for q = (v, w), given the
    squared vector norm vn2 = |v|^2, which it overwrites: the half angle
    over |v| (1/|w| near the identity), negated where w < 0. One call per
    full Karcher pass."""
    vn = np.sqrt(np.maximum(vn2, _SQUARED_NORM_FLOOR, out=vn2), out=vn2)
    f = np.arctan2(vn, np.abs(w, out=out), out=out)
    f /= vn
    # f >= 0, so negating it where w < 0 leaves w == -0.0 positive.
    return np.negative(f, out=f, where=w < 0.0)


def karcher_mean_rows(
    rows: np.ndarray,
    tolerance: float = 1e-8,
    init: np.ndarray | None = None,
    max_iterations: int = _MEAN_MAX_ITERATIONS,
) -> np.ndarray:
    """Tangent-space iterative mean of quaternions: rows (..., N, 4) and init
    (..., 4), one mean per leading index, started from its first row by
    default. Rows and init are normalized; the rows transposed are the
    one-window case of _karcher_windows, with no carried step. A mean stops
    moving once its step angle is below `tolerance`, as if averaged alone;
    the call returns when every mean has stopped."""
    unit = rows_normalize(np.asarray(rows, dtype=np.float64))
    mean = rows_normalize(np.array(unit[..., 0, :] if init is None else init, dtype=np.float64))
    cols = np.ascontiguousarray(np.swapaxes(unit, -1, -2))
    return _karcher_windows(cols, cols.shape[-1], mean, tolerance, max_iterations)[0]


def _karcher_windows(
    block: np.ndarray, window: int, mean: np.ndarray, tolerance: float,
    max_iterations: int = _MEAN_MAX_ITERATIONS,
) -> np.ndarray:
    """Karcher means of every `window` consecutive columns of unit rows stored
    component-major, block (..., 4, n), as (n - window + 1, ..., 4); the
    first window starts from the unit means `mean` (..., 4). Unchecked.

    A pass at mean m: w = m @ cols is the w part of conj(m) * row, whose
    vector part has norm sqrt(1 - w^2): that gives each row its log-map
    weight f, and the sign of w resolves the double cover towards m. With
    s = cols @ f, m * (vec(conj(m) * s), 0) == s - (m . s) m, so the tangent
    step is g = (s - (m . s) m) / N and the new mean cos|g| m + sin|g| g / |g|,
    renormalized. A mean freezes once its step angle is below `tolerance`.

    A pass also covers the next window's new column: dropping the oldest
    column's term instead gives the next window's s at the same m, exact but
    for the sub-tolerance step m took last. Both sums share one buffer, and
    one _tangent_step call takes both steps from m. Only the first decides
    whether the window ends; the next window starts from the second, its
    iteration 0, with no pass or step call of its own. A window with a
    successor ends on a pass, so the carry is fresh; the carried halves of
    the passes before it are dropped.

    Such a window may end on a pass without the pass that would confirm its
    step. Near the window's mean m*, with m = exp(e) m*, a unit step maps e
    to C e up to O(|e|^2), where C = I - H is the identity minus the Hessian
    of half the mean squared half-angle distance d_j to the columns:
    C = (1/N) sum a_j (P - u_j u_j^T), with P the projection onto the
    tangent space, u_j the unit direction of column j and a_j = 1 - d_j cot
    d_j in [0, 1). Each P - u_j u_j^T is a projection, so |C| <= rho =
    (1/N) sum a_j. As f_j w_j = d_j cot d_j, rho = 1 - (m . s) / N, and the
    step computes m . s anyway. A step h = |(I - C) e| >= (1 - rho)|e|
    leaves the error C e, so the next step is at most rho h / (1 - rho),
    below 2 rho h when rho <= 1/2. The window ends on the pass once every
    mean's h is below _SETTLE_STEP (the O(h^2) terms are then of order
    1e-14) and its 2 rho h is below both _SETTLE_BOUND and half the
    tolerance (_settled). rho < 1/2 holds then for each mean whose h is at
    least half the tolerance; the others freeze by the tolerance anyway.
    Each mean then differs from its confirmed value by the skipped step
    alone. Short of ending the window, the bound freezes no mean, so a mean
    that needs its confirming step gets it. The last window, and so
    karcher_mean_rows, always confirms.
    """
    last = block.shape[-1] - window
    span = window + (last > 0)
    passes = np.empty((3,) + mean.shape[:-1] + (1, span))  # w, 1 - w^2 then |v|, f
    s = np.empty(mean.shape + (1,))
    sums = np.empty((2,) + mean.shape)  # at one m: this window's s, then the next one's
    # Column-first views: a pass's weights at its newest and oldest column,
    # and the block's columns.
    end_weights = np.moveaxis(passes[2], -1, 0)[window::-window]
    by_column = np.moveaxis(block, -1, 0)
    means = np.empty((last + 1,) + mean.shape)
    bound = min(_SETTLE_BOUND, 0.5 * tolerance)
    done = np.zeros(mean.shape[:-1], dtype=bool)
    for i in range(last + 1):
        cols = block[..., i:i + span]
        w, v, f = passes[..., :cols.shape[-1]]
        it = 0
        if i:  # iteration 0: the step carried from window i - 1's last pass
            mean, done, it = moved[1], half[1, ..., 0] < 0.5 * tolerance, 1
        while not (i == last and done.all()):
            if it == max_iterations:
                raise MeanConvergenceError(f"mean did not converge in {max_iterations} iterations")
            it += 1
            np.matmul(mean[..., None, :], cols, out=w)
            _log_half_weight(np.subtract(1.0, np.square(w, out=v), out=v), w, out=f)
            total = np.matmul(cols, np.swapaxes(f, -1, -2), out=s)[None, ..., 0]
            if i < last:
                ends = by_column[i + window::-window][:2] * end_weights
                total = np.subtract(total, ends, out=sums)
            moved, half, ms = _tangent_step(mean, total, window)
            mean = np.where(done[..., None], mean, moved[0])
            done |= half[0, ..., 0] < 0.5 * tolerance
            if i < last and (done.all() or _settled(half[0], ms[0], window, bound)):
                break
        means[i] = mean
    return means


def _tangent_step(
    mean: np.ndarray, sums: np.ndarray, window: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit tangent steps from the unit means `mean` (..., 4), one per
    column sum s in `sums` (k, ..., 4) taken at those means over `window`
    columns (see _karcher_windows): the moved unit means (k, ..., 4), the
    step angles |g| (k, ..., 1) and m . s (k, ..., 1)."""
    ms = np.add.reduce(mean * sums, axis=-1, keepdims=True)
    g = sums - ms * mean
    g /= window
    half = np.add.reduce(g * g, axis=-1, keepdims=True)
    half = np.sqrt(np.maximum(half, _SQUARED_NORM_FLOOR, out=half), out=half)
    moved = mean * np.cos(half)
    moved += g * (np.sin(half) / half)
    moved /= np.sqrt(np.add.reduce(moved * moved, axis=-1, keepdims=True))
    return moved, half, ms


def _settled(half: np.ndarray, ms: np.ndarray, window: int, bound: float) -> bool:
    """Whether every mean's step `half` (..., 1) leaves a next step below
    `bound`: (2 rho + _SETTLE_BOUND / _SETTLE_STEP) half < bound, which
    gives both half < _SETTLE_STEP and 2 rho half < bound, where rho = 1 -
    ms / window and ms (..., 1) is m . s over the window (see
    _karcher_windows)."""
    # Multiplied through by window / 2.
    lim = window * (1.0 + 0.5 * _SETTLE_BOUND / _SETTLE_STEP)
    return ((lim - ms) * half).max() < 0.5 * bound * window
