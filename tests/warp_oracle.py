"""The warp's per-frame step, kept as a test oracle.

rhythm._retime holds the warp's state (the last output time and source
time, the rate, and the phase displacement applied and targeted) in local
variables and advances it through each steer segment in one loop. This
class holds the same five values as fields and steps them one frame at a
time, as the warp did when it was an object, so the tests can check
_retime against it.
"""
from __future__ import annotations

from dancegraph.rhythm import _phase_misalignment


class SteppedWarpController:
    def __init__(self, slew: float, start_us: float):
        self.slew = slew
        self.rate = 1.0
        self.t_prev = float(start_us)
        self.source_prev = float(start_us)
        self.phase_applied = 0.0
        self.phase_target = 0.0

    def misalignment(self, estimate, phase_reference_us, grid, rate, event_spacing_us) -> float:
        """rhythm._phase_misalignment for the warp as it stands."""
        return _phase_misalignment(
            self.t_prev, self.source_prev, self.phase_target - self.phase_applied,
            estimate, phase_reference_us, grid, rate, event_spacing_us,
        )

    def advance(self, t_us: float) -> float:
        dt = t_us - self.t_prev
        limit = self.slew * dt
        want = self.phase_target - self.phase_applied
        step = min(max(want, -limit), limit)
        self.phase_applied += step
        self.source_prev = self.source_prev + self.rate * dt + step
        self.t_prev = t_us
        return self.source_prev
