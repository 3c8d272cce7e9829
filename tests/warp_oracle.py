"""The warp controller's per-frame step, kept as a test oracle.

rhythm._retime advances the warp controller through each steer segment in
one loop over local variables. The step it inlines lives on here as a
method, as it was when _retime called it once per frame, so the tests can
check _retime against stepping the controller one frame at a time.
"""
from __future__ import annotations

from dancegraph.rhythm import _WarpController


class SteppedWarpController(_WarpController):
    def __init__(self, slew: float, start_us: float):
        super().__init__(start_us)
        self.slew = slew

    def advance(self, t_us: float) -> float:
        dt = t_us - self.t_prev
        limit = self.slew * dt
        want = self.phase_target - self.phase_applied
        step = min(max(want, -limit), limit)
        self.phase_applied += step
        self.source_prev = self.source_prev + self.rate * dt + step
        self.t_prev = t_us
        return self.source_prev
