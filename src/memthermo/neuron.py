"""Thermally coupled homeostatic spiking neuron.

Twenty-five memristive synapses feed one accumulate-and-fire unit. Each
synapse weight is its current resistance normalised by its own reference
resistance, so heating the chamber lowers every weight. The raw input
load drives the chamber setpoint feedforward; sustained load increases
therefore heat the synapses, pull the weights down, and return the firing
rate toward baseline while transients pass through at full strength.

Per input segment, `NeuronSystem.drive` sums the loads on each distinct
synapse barrier with `math.fsum` and sets the mean load and the feedforward
setpoint once. Per step, `NeuronSystem.step` adds the correctly rounded (so
order-free) sum of weight times load sum, carries the accumulator and
advances the plant. It recomputes that sum, one `math.exp` per distinct
barrier, only while the device temperature or the drive moves; a step at
rest reuses the last sum, which equal inputs would round to the same
float. A plant at its fixed point is not stepped, as a step would not
move it. The loop is sequential (plant and accumulator are stateful);
independent scenarios parallelise by owning separate systems. A run takes
the steps it is given; `config` bounds a run's steps before it starts.
"""
from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple

from .constants import T_MAX, T_MIN, T_REF
from .csvio import SCHEMAS
from .device import (CalibrationError, DeviceState, ThermalFit, _brentq,
                     _interp, _ratio, _same_slots)
from .rng import substream
from .thermal import ThermalPlant

N_SYNAPSES = 25


def _synapse_loads(load) -> list[float]:
    """A scalar or per-synapse load as one float per synapse."""
    try:
        loads = [float(x) for x in load]
    except TypeError:   # a scalar load
        loads = [float(load)]
    if len(loads) not in (1, N_SYNAPSES):
        raise ValueError(f"load must be scalar or length {N_SYNAPSES}")
    return loads * (N_SYNAPSES // len(loads))


class FeedforwardMap:
    """Input load -> chamber setpoint, monotone non-decreasing.

    affine: clamp(300 + kappa*load) to the chamber range;
    table:  piecewise-linear interpolation through calibrated points;
    fixed:  constant setpoint (no feedforward), for probing the loop.
    """

    __slots__ = ("mode", "kappa", "t_fixed", "table_loads", "table_temps")

    def __init__(self, mode: str = "affine", kappa: float = 60.0,
                 t_fixed: float = T_REF, table_loads: tuple[float, ...] = (),
                 table_temps: tuple[float, ...] = ()):
        self.mode, self.kappa, self.t_fixed = mode, kappa, t_fixed
        self.table_loads, self.table_temps = table_loads, table_temps
        if self.mode not in ("affine", "table", "fixed"):
            raise ValueError(f"unknown feedforward mode {self.mode!r}")
        if self.mode == "affine" and not (self.kappa >= 0):
            raise ValueError("kappa must be >= 0 (heating with load)")
        if self.mode == "fixed" and not (T_MIN <= self.t_fixed <= T_MAX):
            raise ValueError("fixed setpoint outside chamber range")
        if self.mode == "table":
            loads, temps = self.table_loads, self.table_temps
            if len(loads) < 2 or len(loads) != len(temps):
                raise ValueError("table needs >= 2 (load, T) points")
            if any(not (b > a) for a, b in zip(loads, loads[1:])):
                raise ValueError("table loads must be strictly increasing")
            if any(not (b >= a) for a, b in zip(temps, temps[1:])):
                raise ValueError("table temps must be non-decreasing")
            if not all(T_MIN <= x <= T_MAX for x in temps):
                raise ValueError("table temps outside chamber range")

    def setpoint(self, load: float) -> float:
        if not (0.0 <= load <= 1.0):
            raise ValueError("load must be in [0, 1]")
        if self.mode == "fixed":
            return self.t_fixed
        if self.mode == "affine":
            return min(max(T_REF + self.kappa * load, T_MIN), T_MAX)
        return float(_interp(load, self.table_loads, self.table_temps))


class InputPattern:
    """Piecewise-constant input: (duration in steps, load or 25-vector)."""

    __slots__ = ("segments",)

    def __init__(self, segments: tuple[tuple[int, object], ...]):
        self.segments = segments
        if not self.segments:
            raise ValueError("pattern must have at least one segment")
        for duration, load in self.segments:
            if int(duration) < 1:
                raise ValueError("segment duration must be >= 1 step")
            if not all(0 <= x <= 1 for x in _synapse_loads(load)):   # NaN too
                raise ValueError("loads must lie in [0, 1]")

    __eq__ = _same_slots

    @property
    def total_steps(self) -> int:
        return sum(int(d) for d, _ in self.segments)

    @classmethod
    def parse(cls, text: str) -> "InputPattern":
        """Parse 'load:steps,load:steps,...' (e.g. '0.20:2000,0.30:2000')."""
        segments = []
        for part in text.split(","):
            load_s, _, dur_s = part.strip().partition(":")
            if not dur_s:
                raise ValueError(f"bad pattern segment {part!r}; "
                                 "expected load:steps")
            segments.append((int(dur_s), float(load_s)))
        return cls(segments=tuple(segments))


class NeuronSystem:
    """25 synapses, shared thermal plant, one accumulate-and-fire unit."""

    def __init__(
        self,
        synapses: list[DeviceState],
        fit: ThermalFit,
        plant: ThermalPlant,
        theta: float,
        dt_s: float,
        window: int,
    ):
        if len(synapses) != N_SYNAPSES:
            raise ValueError(f"exactly {N_SYNAPSES} synapses required")
        if not (theta > 0):
            raise ValueError("theta must be > 0")
        if window < 1 or not (dt_s > 0):
            raise ValueError("window >= 1 and dt_s > 0 required")
        # weights and loads are <= 1 in the chamber window, so this bounds
        # a step to about one rate window of spikes
        if theta < N_SYNAPSES / window:
            raise ValueError(f"theta must be >= {N_SYNAPSES}/window = "
                             f"{N_SYNAPSES / window!r}")
        self.synapses = list(synapses)
        self.fit = fit
        self.plant = plant
        self.theta = float(theta)
        self.dt_s = float(dt_s)
        self.window = int(window)
        self.accumulator = 0.0
        # weights are read per step; the synapse states are static during
        # homeostasis runs (thermal control only), so cache their barriers
        self._phi = [fit.phi_for_state(s.r_eff) for s in self.synapses]
        self._last = (None, None, 0.0)   # see step

    @classmethod
    def build(
        cls,
        device: DeviceState,
        fit: ThermalFit,
        plant: ThermalPlant,
        theta: float,
        dt_s: float,
        window: int,
        spread_sigma: float,
        seed: int,
    ) -> "NeuronSystem":
        """System of synapses at device's 300 K resistance on a copy of
        plant, optionally with a seeded log-normal device-to-device spread
        of that resistance."""
        r0 = device.r_eff
        draws = [0.0] * N_SYNAPSES   # exp(0.0) == 1.0: r0 exactly
        if spread_sigma > 0:
            rng = substream(seed, "spread")
            draws = [spread_sigma * z
                     for z in rng.standard_normal(N_SYNAPSES)]
        synapses = [DeviceState(r_persistent=r0 * math.exp(z)) for z in draws]
        return cls(synapses=synapses, fit=fit, plant=plant.copy(),
                   theta=theta, dt_s=dt_s, window=window)

    def copy(self) -> "NeuronSystem":
        clone = NeuronSystem(self.synapses, self.fit, self.plant.copy(),
                             self.theta, self.dt_s, self.window)
        clone.accumulator = self.accumulator
        return clone

    def weights_at(self, T: float) -> list[float]:
        """Per-synapse weights R(T)/R(300 K) at device temperature T."""
        return [_ratio(T, phi) for phi in self._phi]

    def drive(self, load, fmap: FeedforwardMap) -> tuple:
        """Per-segment invariants of a constant load: the distinct barriers,
        the fsum of the loads on each, the mean load and fmap's setpoint. All
        immutable, since `step` reuses its sum while handed the same drive."""
        loads, groups = _synapse_loads(load), {}
        for b, x in zip(self._phi, loads):
            groups.setdefault(b, []).append(x)
        mean = math.fsum(loads) / N_SYNAPSES
        return (tuple(groups), tuple(math.fsum(xs) for xs in groups.values()),
                mean, fmap.setpoint(mean))

    def step(self, drive) -> int:
        """Advance one step under `drive` (from `self.drive`); returns the
        number of spikes emitted (0 or 1 in normal operation).

        The weighted input accumulates; each threshold crossing emits a
        spike and carries the excess over, so the long-run rate equals
        drive/theta exactly. The plant then advances one dt toward the
        drive's setpoint, unless it is at that setpoint's fixed point.
        """
        plant = self.plant
        T = plant.t_dev
        # the increment of the last (T, drive): a plant at rest reuses it
        last_T, last_drive, increment = self._last   # one read: consistent
        if T != last_T or drive is not last_drive:
            barriers, load_sums, _, _ = drive
            increment = math.fsum([_ratio(T, b) * x for b, x in zip(
                barriers, load_sums)])
            self._last = (T, drive, increment)
        self.accumulator += increment
        spikes = 0
        if self.accumulator >= self.theta:
            spikes = int(self.accumulator // self.theta)
            self.accumulator -= spikes * self.theta
        t_set = drive[3]
        if plant.t_set != t_set:
            plant.set_setpoint(t_set)
        if T != t_set or plant.t_air != t_set:   # else a step is the identity
            plant.step(self.dt_s)
        return spikes


def settled_rate(system: NeuronSystem, load: float,
                 fmap: FeedforwardMap) -> float:
    """Asymptotic spike rate of system under fmap at a constant load:
    drive at the settled setpoint divided by theta."""
    t_inf = fmap.setpoint(load)
    return math.fsum(system.weights_at(t_inf)) * load / system.theta


class HomeostasisResult(namedtuple("HomeostasisResult",
                                   "spikes segments t_dev dt_s window")):
    """Spikes and device temperature per step, (steps, mean load,
    setpoint) per segment, the step length and the rate window."""

    __slots__ = ()

    @property
    def steps(self) -> int:
        return len(self.spikes)

    def window_rates(self) -> list[tuple[int, float, float]]:
        """Non-overlapping fixed-step windows: (index, mid time, rate)."""
        w = self.window
        return [(k, (k + 0.5) * w * self.dt_s,
                 sum(self.spikes[k * w:(k + 1) * w]) / w)
                for k in range(self.steps // w)]

    def spike_count_windows(self) -> list[tuple[int, float, float, float]]:
        """Windows of `window` consecutive spikes: (index, t_start, t_end,
        rate in spikes per step)."""
        # spike n (from 1) falls in the first step whose running count
        # reaches n
        counts = list(itertools.accumulate(self.spikes))
        out = []
        w = self.window
        for k in range(counts[-1] // w if counts else 0):
            t0 = bisect.bisect_left(counts, k * w + 1) * self.dt_s
            t1 = bisect.bisect_left(counts, (k + 1) * w) * self.dt_s
            span = max(t1 - t0, self.dt_s)
            out.append((k, t0, t1, w / (span / self.dt_s)))
        return out


def run_homeostasis(pattern: InputPattern, system: NeuronSystem,
                    fmap: FeedforwardMap) -> HomeostasisResult:
    """Simulate the pattern under fmap; emits spikes, rates and the
    temperature trace.

    Draws no random numbers: the result is a function of the pattern, the
    map and the system (whose synapse spread, if any, was seeded at build).
    """
    spikes, segments, t_dev = [], [], []
    for duration, load in pattern.segments:
        duration = int(duration)
        drive = system.drive(load, fmap)
        segments.append((duration, drive[2], drive[3]))
        for _ in range(duration):
            t_dev.append(system.plant.t_dev)
            spikes.append(system.step(drive))
    return HomeostasisResult(spikes=spikes, segments=segments, t_dev=t_dev,
                             dt_s=system.dt_s, window=system.window)


def baseline_curve(
    loads,
    system: NeuronSystem,
    fmap: FeedforwardMap,
    settle_steps: int,
    measure_steps: int,
) -> list[tuple[float, float]]:
    """Settled spike rate per constant load under fmap, by simulation.

    Each load runs on a fresh copy of the template system: settle first,
    then count spikes over the measurement phase.
    """
    out = []
    for load in loads:
        sim = system.copy()
        drive = sim.drive(float(load), fmap)
        for _ in range(settle_steps):
            sim.step(drive)
        count = sum(sim.step(drive) for _ in range(measure_steps))
        out.append((float(load), count / measure_steps))
    return out


# A gain calibration: its calibrate_gain row, the fields
# `SCHEMAS["calibrate_gain"]` (kappa is nan in table mode; each spread is
# the max - min of its rates), then the map and the settled rates at each
# load without and with it.
GainCalibration = namedtuple("GainCalibration", (
    *SCHEMAS["calibrate_gain"], "fmap", "rates_uncompensated",
    "rates_calibrated"))


def affine_gains(kappa_max: float, step: float) -> list[float]:
    """Affine gains 0, step, 2*step, ... up to kappa_max; at most 2401,
    ten times the default grid."""
    if not (step > 0 and 0 <= kappa_max < 2401 * step):
        raise ValueError("kappa grid needs step > 0 and 0 <= kappa_max "
                         "< 2401 steps")
    # 0.7 / 0.1 is 6.999...: a ratio a rounding short of a whole step
    # still reaches it
    steps = min(int(kappa_max / step + 1e-9), 2400)
    return [k * step for k in range(steps + 1)]


def calibration_loads(loads, mode: str, gamma: float) -> list[float]:
    """Check the arguments of calibrate_gain; return its loads sorted."""
    loads = sorted(float(l) for l in loads)
    if mode not in ("affine", "table"):
        raise ValueError(f"unknown calibration mode {mode!r}")
    if not loads:
        raise CalibrationError("no calibration loads given")
    if mode == "table" and len(set(loads)) < max(3, len(loads)):
        raise CalibrationError("table mode needs >= 3 distinct loads")
    if mode == "table" and not (0.0 < gamma < 1.0):
        raise CalibrationError("gamma must be in (0, 1)")
    return loads


def calibrate_gain(
    loads,
    system: NeuronSystem,
    mode: str,
    kappa_grid,
    gamma: float,
) -> GainCalibration:
    """Calibrate the feedforward so settled rates flatten across loads.

    affine mode grid-searches kappa_grid for the gain that minimises the
    variance of the settled rates (ties resolved toward the smaller gain);
    table mode ignores kappa_grid and builds a lookup that tracks a gently
    rising target curve rate ~ load^gamma, which flattens the baseline much
    harder while keeping the settled rate strictly monotone in load (the
    residual is the low-resolution read-out of the input level).
    """
    loads = calibration_loads(loads, mode, gamma)
    rates_k0 = [settled_rate(system, l, FeedforwardMap(kappa=0.0)) for l in loads]

    if mode == "affine":
        best_kappa, best_var = None, math.inf
        for kappa in kappa_grid:
            fmap = FeedforwardMap(kappa=float(kappa))
            rates = [settled_rate(system, l, fmap) for l in loads]
            mean = math.fsum(rates) / len(rates)   # two-pass variance
            var = math.fsum((r - mean) * (r - mean) for r in rates) / len(rates)
            if var < best_var - 1e-15:
                best_kappa, best_var = float(kappa), var
        if best_kappa is None:
            raise CalibrationError("empty kappa grid")
        fmap, kappa = FeedforwardMap(kappa=best_kappa), best_kappa
    else:
        fmap, kappa = _table_map(loads, system, gamma), math.nan
    rates_cal = [settled_rate(system, l, fmap) for l in loads]
    return GainCalibration(
        mode=mode, kappa=kappa,
        spread_uncompensated=max(rates_k0) - min(rates_k0),
        spread_calibrated=max(rates_cal) - min(rates_cal),
        fmap=fmap, rates_uncompensated=rates_k0, rates_calibrated=rates_cal,
    )


def _table_map(loads, system: NeuronSystem, gamma: float) -> FeedforwardMap:
    """The table feedforward of calibrate_gain at its sorted loads."""
    theta = system.theta
    s_hot = math.fsum(system.weights_at(T_MAX))
    s_cold = math.fsum(system.weights_at(T_MIN))
    l_min, l_max = loads[0], loads[-1]
    l_mid = loads[len(loads) // 2]
    # feasible band for the target-curve amplitude: the coldest point must
    # not exceed the unheated drive, the hottest must stay reachable
    a_hi = (s_cold / theta) * l_min ** (1.0 - gamma) * l_mid**gamma
    a_lo = (s_hot / theta) * l_max ** (1.0 - gamma) * l_mid**gamma
    if a_lo >= a_hi:
        raise CalibrationError(
            "empty feasible range: the chamber span cannot flatten these "
            "loads with the requested residual slope"
        )
    amplitude = math.sqrt(a_lo * a_hi)

    temps = []
    for l in loads:
        target_sum = theta * amplitude * (l / l_mid) ** gamma / l
        temps.append(_brentq(
            lambda T: math.fsum(system.weights_at(T)) - target_sum,
            T_MIN, T_MAX, xtol=1e-6,
        ))
    return FeedforwardMap(mode="table", table_loads=tuple(loads),
                          table_temps=tuple(temps))
