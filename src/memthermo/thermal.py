"""Micro-chamber and device thermal plant.

Two cascaded first-order stages: the chamber air tracks the setpoint with
constant tau_air, the device tracks the air with tau_dev. Steps use the
exact flow of the linear cascade (not an Euler update), so stepping by dt
equals stepping twice by dt/2 to rounding error and the plant is
unconditionally stable for any dt. Packaged devices get tau_dev = 720 s;
devices probed on the wafer respond much faster (tau_dev = 60 s).
The protocol's grids and hold lengths live here, where config counts them.
"""
from __future__ import annotations

import bisect
import math

from .constants import T_MAX, T_MIN, T_REF
from .device import T_ANCHORS, V_ANCHOR
from .rng import substream

# The protocol's 10 K setpoint grid over the chamber window.
GRID_TEMPS = tuple(float(t) for t in range(int(T_MIN), int(T_MAX) + 1, 10))

# The nullcline's (v, T) grid: 0.7 V up to the switching anchor by 0.1 V,
# and the setpoint grid across the anchor temperatures (310-360 K).
NULLCLINE_VOLTAGES = tuple(round(V_ANCHOR - 0.1 * k, 1)
                           for k in reversed(range(8)))
NULLCLINE_TEMPS = tuple(T for T in GRID_TEMPS
                        if T_ANCHORS[0] <= T <= T_ANCHORS[1])

# Trailing window and threshold of the settling criterion: the resistance
# change over the trailing 6 minutes must stay under 2 % of the total
# change since the setpoint step.
SETTLE_WINDOW_S = 360.0
SETTLE_THRESHOLD = 0.02


class ProtocolError(RuntimeError):
    """A protocol-level check failed (settling, convergence, ordering)."""


class ThermalPlant:
    __slots__ = ("t_set", "t_air", "t_dev", "tau_air_s", "tau_dev_s", "_flow")

    def __init__(self, t_set: float = T_REF, t_air: float = T_REF,
                 t_dev: float = T_REF, tau_air_s: float = 180.0,
                 tau_dev_s: float = 720.0):
        if not (tau_air_s > 0 and tau_dev_s > 0):
            raise ValueError("time constants must be > 0")
        if not (math.isfinite(t_air) and math.isfinite(t_dev)):
            raise ValueError("air and device temperatures must be finite")
        if not (T_MIN <= t_air <= T_MAX and T_MIN <= t_dev <= T_MAX):
            raise ValueError("air and device temperatures must lie in "
                             f"[{T_MIN}, {T_MAX}] K")
        self._check_setpoint(t_set)
        self.t_set, self.t_air, self.t_dev = t_set, t_air, t_dev
        self.tau_air_s, self.tau_dev_s = tau_air_s, tau_dev_s
        self._flow = (None, None, None, 0.0, 0.0, False)   # see step

    @staticmethod
    def _check_setpoint(t):
        if not (T_MIN <= t <= T_MAX):
            raise ValueError(f"setpoint {t} K outside chamber range "
                             f"[{T_MIN}, {T_MAX}] K")

    @classmethod
    def packaged(cls) -> "ThermalPlant":
        return cls()

    @classmethod
    def on_wafer(cls) -> "ThermalPlant":
        return cls(tau_dev_s=60.0)

    def copy(self) -> "ThermalPlant":
        return ThermalPlant(self.t_set, self.t_air, self.t_dev,
                            self.tau_air_s, self.tau_dev_s)

    def set_setpoint(self, t_set: float) -> None:
        self._check_setpoint(t_set)
        self.t_set = float(t_set)

    def step(self, dt_s: float) -> None:
        """Advance both stages by dt_s using the exact cascade solution."""
        if not (dt_s > 0):
            raise ValueError("dt_s must be > 0")
        ta, td = self.tau_air_s, self.tau_dev_s
        dt, fa, fd, ea, ed, equal = self._flow   # factors of the last step
        if dt != dt_s or fa != ta or fd != td:
            ea, ed = math.exp(-dt_s / ta), math.exp(-dt_s / td)
            equal = abs(ta - td) < 1e-9 * max(ta, td)
            self._flow = (dt_s, ta, td, ea, ed, equal)
        b = self.t_air - self.t_set
        if equal:
            # equal time constants: the cross term degenerates to t*e^(-t/tau)
            dev = (b * dt_s / td) * ed + (self.t_dev - self.t_set) * ed
        else:
            k = b * ta / (ta - td)
            c = (self.t_dev - self.t_set) - k
            dev = k * ea + c * ed
        self.t_air = self.t_set + b * ea
        self.t_dev = self.t_set + dev


def hold_steps(hold_s: float, period_s: float) -> int:
    """The plant steps of a hold of hold_s read every period_s, at least
    one; both must be > 0 and their ratio finite (config bounds a run)."""
    if not (hold_s > 0 and period_s > 0):
        raise ValueError(f"hold ({hold_s} s) and read period "
                         f"({period_s} s) must be > 0")
    steps = hold_s / period_s
    if not math.isfinite(steps):
        raise ValueError(f"hold ({hold_s} s) / read period ({period_s} s) "
                         "must be a finite step count")
    return max(1, int(round(steps)))


def settled(times_s, resistances) -> bool | None:
    """Evaluate the per-6-minute settling criterion on a hold's history.

    `times_s`/`resistances` must cover the span since the setpoint change.
    Returns None (not enough data) when the history spans less than the
    trailing window — deliberately distinct from False.
    """
    t = [float(x) for x in times_s]
    r = [float(x) for x in resistances]
    if len(t) != len(r) or len(t) < 2:
        return None
    if any(b <= a for a, b in zip(t, t[1:])):
        raise ValueError("timestamps must be strictly increasing")
    span = t[-1] - t[0]
    if span < SETTLE_WINDOW_S:
        return None
    # last sample at or before the window start
    idx = bisect.bisect_right(t, t[-1] - SETTLE_WINDOW_S) - 1
    trailing = abs(r[-1] - r[idx])
    total = abs(r[-1] - r[0])
    return trailing <= SETTLE_THRESHOLD * total


class TemperatureSchedule:
    """Ordered setpoints (K), each held for hold_s. Setpoints are the
    protocol's 10 K grid."""

    __slots__ = ("setpoints", "hold_s")

    def __init__(self, setpoints: tuple[float, ...], hold_s: float):
        self.setpoints, self.hold_s = setpoints, hold_s
        if not self.setpoints:
            raise ValueError("schedule must contain at least one entry")
        for t_set in self.setpoints:
            ThermalPlant._check_setpoint(t_set)
            if t_set % 10 != 0:
                raise ValueError(f"setpoint {t_set} K not on the 10 K grid")
        if not (self.hold_s > 0):
            raise ValueError("hold must be > 0 s")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.setpoints, self.hold_s) == (other.setpoints, other.hold_s)


def scrambled_schedule(seed: int, hold_s: float) -> TemperatureSchedule:
    """Scrambled visit order of GRID_TEMPS plus second visits to 300 K and
    360 K, each held for hold_s.

    The permutation is a deterministic function of the seed. The repeat
    visits check that cycling left the device unchanged; they are ordered
    so no setpoint repeats back to back (a zero-change hold has no
    transient to settle).
    """
    rng = substream(seed, "schedule")
    order = [GRID_TEMPS[i] for i in rng.permutation(len(GRID_TEMPS))]
    revisits = [T_MIN, T_MAX]
    if order[-1] == revisits[0]:
        revisits.reverse()
    return TemperatureSchedule(tuple(order + revisits), float(hold_s))
