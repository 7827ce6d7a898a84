"""Micro-chamber and device thermal plant.

Two cascaded first-order stages: the chamber air tracks the setpoint with
constant tau_air, the device tracks the air with tau_dev. Steps use the
exact flow of the linear cascade (not an Euler update), so stepping by dt
equals stepping twice by dt/2 to rounding error and the plant is
unconditionally stable for any dt. Packaged devices get tau_dev = 720 s;
devices probed on the wafer respond much faster (tau_dev = 60 s).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .constants import T_MAX, T_MIN
from .rng import substream

# The protocol's 10 K setpoint grid over the chamber window.
GRID_TEMPS = tuple(float(t) for t in range(300, 361, 10))

# Trailing window and threshold of the settling criterion: the resistance
# change over the trailing 6 minutes must stay under 2 % of the total
# change since the setpoint step.
SETTLE_WINDOW_S = 360.0
SETTLE_THRESHOLD = 0.02


@dataclass
class ThermalPlant:
    t_set: float = 300.0
    t_air: float = 300.0
    t_dev: float = 300.0
    tau_air_s: float = 180.0
    tau_dev_s: float = 720.0

    def __post_init__(self):
        if self.tau_air_s <= 0 or self.tau_dev_s <= 0:
            raise ValueError("time constants must be > 0")
        self._check_setpoint(self.t_set)

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
        if dt_s <= 0:
            raise ValueError("dt_s must be > 0")
        ta, td = self.tau_air_s, self.tau_dev_s
        ea = math.exp(-dt_s / ta)
        ed = math.exp(-dt_s / td)
        b = self.t_air - self.t_set
        if abs(ta - td) < 1e-9 * max(ta, td):
            # equal time constants: the cross term degenerates to t*e^(-t/tau)
            dev = (b * dt_s / td) * ed + (self.t_dev - self.t_set) * ed
        else:
            k = b * ta / (ta - td)
            c = (self.t_dev - self.t_set) - k
            dev = k * ea + c * ed
        self.t_air = self.t_set + b * ea
        self.t_dev = self.t_set + dev


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


@dataclass(frozen=True)
class TemperatureSchedule:
    """Ordered setpoint holds. Setpoints are the protocol's 10 K grid."""

    entries: tuple[tuple[float, float], ...]   # (setpoint K, hold s)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("schedule must contain at least one entry")
        for t_set, hold in self.entries:
            ThermalPlant._check_setpoint(t_set)
            if t_set % 10 != 0:
                raise ValueError(f"setpoint {t_set} K not on the 10 K grid")
            if hold <= 0:
                raise ValueError("hold must be > 0 s")

    @property
    def setpoints(self) -> tuple[float, ...]:
        return tuple(e[0] for e in self.entries)


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
    revisits = [300.0, 360.0]
    if order[-1] == revisits[0]:
        revisits.reverse()
    entries = tuple((t, float(hold_s)) for t in order + revisits)
    return TemperatureSchedule(entries=entries)
