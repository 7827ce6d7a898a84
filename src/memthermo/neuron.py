"""Thermally coupled homeostatic spiking neuron.

Twenty-five memristive synapses feed one accumulate-and-fire unit. Each
synapse weight is its current resistance normalised by its own reference
resistance, so heating the chamber lowers every weight. The raw input
load drives the chamber setpoint feedforward; sustained load increases
therefore heat the synapses, pull the weights down, and return the firing
rate toward baseline while transients pass through at full strength.

Per input segment, `NeuronSystem.drive` builds the constant 25-vector
input, its mean and the feedforward setpoint once; per step,
`NeuronSystem.step` only weighs the input at the device temperature,
carries the accumulator and advances the plant. The loop is sequential
(plant and accumulator are stateful); independent scenarios parallelise
by owning separate systems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .constants import K_B_EV, T_MAX, T_MIN, T_REF
from .device import CalibrationError, DeviceState, ThermalFit, _brentq
from .rng import substream
from .thermal import ThermalPlant

if TYPE_CHECKING:
    import numpy as np

N_SYNAPSES = 25


@dataclass(frozen=True)
class FeedforwardMap:
    """Input load -> chamber setpoint, monotone non-decreasing.

    affine: clamp(300 + kappa*load) to the chamber range;
    table:  piecewise-linear interpolation through calibrated points;
    fixed:  constant setpoint (no feedforward), for probing the loop.
    """

    mode: str = "affine"
    kappa: float = 60.0
    t_fixed: float = 300.0
    table_loads: tuple[float, ...] = ()
    table_temps: tuple[float, ...] = ()

    def __post_init__(self):
        if self.mode not in ("affine", "table", "fixed"):
            raise ValueError(f"unknown feedforward mode {self.mode!r}")
        if self.mode == "affine" and self.kappa < 0:
            raise ValueError("kappa must be >= 0 (heating with load)")
        if self.mode == "fixed" and not (T_MIN <= self.t_fixed <= T_MAX):
            raise ValueError("fixed setpoint outside chamber range")
        if self.mode == "table":
            loads, temps = self.table_loads, self.table_temps
            if len(loads) < 2 or len(loads) != len(temps):
                raise ValueError("table needs >= 2 (load, T) points")
            if any(b <= a for a, b in zip(loads, loads[1:])):
                raise ValueError("table loads must be strictly increasing")
            if any(b < a for a, b in zip(temps, temps[1:])):
                raise ValueError("table temps must be non-decreasing")
            if temps[0] < T_MIN or temps[-1] > T_MAX:
                raise ValueError("table temps outside chamber range")

    def setpoint(self, load: float) -> float:
        if not (0.0 <= load <= 1.0):
            raise ValueError("load must be in [0, 1]")
        if self.mode == "fixed":
            return self.t_fixed
        if self.mode == "affine":
            return min(max(T_REF + self.kappa * load, T_MIN), T_MAX)
        import numpy as np
        return float(np.interp(load, self.table_loads, self.table_temps))


@dataclass(frozen=True)
class InputPattern:
    """Piecewise-constant input: (duration in steps, load or 25-vector)."""

    segments: tuple[tuple[int, object], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("pattern must have at least one segment")
        for duration, load in self.segments:
            if int(duration) < 1:
                raise ValueError("segment duration must be >= 1 step")
            try:
                loads = [float(x) for x in load]
            except TypeError:   # a scalar load
                loads = [float(load)]
            if len(loads) not in (1, N_SYNAPSES):
                raise ValueError(f"load must be scalar or length {N_SYNAPSES}")
            if not all(0 <= x <= 1 for x in loads):   # NaN fails too
                raise ValueError("loads must lie in [0, 1]")

    @property
    def total_steps(self) -> int:
        return sum(int(d) for d, _ in self.segments)

    @classmethod
    def constant(cls, load: float, steps: int) -> "InputPattern":
        return cls(segments=((steps, float(load)),))

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
        fmap: FeedforwardMap,
        theta: float,
        dt_s: float,
        window: int,
    ):
        if len(synapses) != N_SYNAPSES:
            raise ValueError(f"exactly {N_SYNAPSES} synapses required")
        self.check(theta, dt_s, window)
        self.synapses = list(synapses)
        self.fit = fit
        self.plant = plant
        self.fmap = fmap
        self.theta = float(theta)
        self.dt_s = float(dt_s)
        self.window = int(window)
        self.accumulator = 0.0
        import numpy as np
        # weights are read per step; the synapse states are static during
        # homeostasis runs (thermal control only), so cache their barriers
        self._phi_over_kb = np.array(
            [fit.phi_for_state(s.r_eff) for s in self.synapses]) / K_B_EV
        self._exp = np.exp   # bound here: the per-step path imports nothing

    @staticmethod
    def check(theta: float, dt_s: float, window: int) -> None:
        """The rules on the scalar arguments; raises ValueError."""
        if theta <= 0:
            raise ValueError("theta must be > 0")
        if window < 1 or dt_s <= 0:
            raise ValueError("window >= 1 and dt_s > 0 required")
        # weights and loads are <= 1 in the chamber window, so this bounds
        # a step to about one rate window of spikes
        if theta < N_SYNAPSES / window:
            raise ValueError(f"theta must be >= {N_SYNAPSES}/window = "
                             f"{N_SYNAPSES / window!r}")

    @classmethod
    def build(
        cls,
        level: str,
        fmap: FeedforwardMap,
        fit: ThermalFit,
        plant: ThermalPlant,
        theta: float,
        dt_s: float,
        window: int,
        spread_sigma: float,
        seed: int,
    ) -> "NeuronSystem":
        """System of identical-level synapses on a copy of plant, optionally
        with a seeded log-normal device-to-device spread of the reference
        resistance."""
        import numpy as np
        r0 = fit.anchor(level).r_ref
        if spread_sigma > 0:
            rng = substream(seed, "spread")
            factors = np.exp(rng.normal(0.0, spread_sigma, N_SYNAPSES))
        else:
            factors = np.ones(N_SYNAPSES)
        synapses = [DeviceState(r_persistent=r0 * f) for f in factors]
        return cls(synapses=synapses, fit=fit, plant=plant.copy(), fmap=fmap,
                   theta=theta, dt_s=dt_s, window=window)

    def copy(self) -> "NeuronSystem":
        clone = NeuronSystem(
            synapses=list(self.synapses), fit=self.fit,
            plant=self.plant.copy(), fmap=self.fmap,
            theta=self.theta, dt_s=self.dt_s, window=self.window,
        )
        clone.accumulator = self.accumulator
        return clone

    def weights_at(self, T: float) -> np.ndarray:
        """Per-synapse weights at device temperature T."""
        rho = (T_REF / T) ** 2 * self._exp(
            self._phi_over_kb * (1.0 / T - 1.0 / T_REF)
        )
        return rho   # r_now / r_ref == rho since r_ref is the 300 K value

    def drive(self, load) -> tuple[np.ndarray, float, float]:
        """Per-segment invariants of a constant load: x, mean, setpoint."""
        import numpy as np
        x = np.broadcast_to(np.asarray(load, dtype=float), (N_SYNAPSES,))
        mean = float(x.mean())
        return x, mean, self.fmap.setpoint(mean)

    def step(self, drive: tuple[np.ndarray, float, float]) -> int:
        """Advance one step under `drive` (from `drive(load)`); returns the
        number of spikes emitted (0 or 1 in normal operation).

        The weighted input accumulates; each threshold crossing emits a
        spike and carries the excess over, so the long-run rate equals
        drive/theta exactly. The plant then advances one dt toward the
        drive's setpoint.
        """
        x, _, t_set = drive
        self.accumulator += float(self.weights_at(self.plant.t_dev) @ x)
        spikes = 0
        if self.accumulator >= self.theta:
            spikes = int(self.accumulator // self.theta)
            self.accumulator -= spikes * self.theta
        self.plant.set_setpoint(t_set)
        self.plant.step(self.dt_s)
        return spikes


def settled_rate(system: NeuronSystem, load: float,
                 fmap: FeedforwardMap) -> float:
    """Asymptotic spike rate of system under fmap at a constant load:
    drive at the settled setpoint divided by theta."""
    t_inf = fmap.setpoint(load)
    w = system.weights_at(t_inf)
    return float(w.sum() * load / system.theta)


@dataclass
class HomeostasisResult:
    spikes: np.ndarray        # spikes per step
    mean_loads: np.ndarray
    t_dev: np.ndarray
    t_set: np.ndarray
    dt_s: float
    window: int

    @property
    def steps(self) -> int:
        return int(self.spikes.size)

    def window_rates(self) -> list[tuple[int, float, float]]:
        """Non-overlapping fixed-step windows: (index, mid time, rate)."""
        out = []
        w = self.window
        for k in range(self.steps // w):
            chunk = self.spikes[k * w:(k + 1) * w]
            t_mid = (k + 0.5) * w * self.dt_s
            out.append((k, t_mid, float(chunk.sum()) / w))
        return out

    def spike_count_windows(self) -> list[tuple[int, float, float, float]]:
        """Windows of `window` consecutive spikes: (index, t_start, t_end,
        rate in spikes per step)."""
        # spike n (from 1) falls in the first step whose running count
        # reaches n
        import numpy as np
        counts = np.cumsum(self.spikes)
        out = []
        w = self.window
        for k in range(int(counts[-1]) // w if counts.size else 0):
            t0 = np.searchsorted(counts, k * w + 1) * self.dt_s
            t1 = np.searchsorted(counts, (k + 1) * w) * self.dt_s
            span = max(t1 - t0, self.dt_s)
            out.append((k, float(t0), float(t1), w / (span / self.dt_s)))
        return out


def run_homeostasis(pattern: InputPattern,
                    system: NeuronSystem) -> HomeostasisResult:
    """Simulate the pattern; emits spikes, rates and the temperature trace.

    Draws no random numbers: the result is a function of the pattern and
    the system (whose synapse spread, if any, was seeded at build time).
    """
    import numpy as np
    n = pattern.total_steps
    spikes = np.zeros(n, dtype=np.int64)
    mean_loads = np.zeros(n)
    t_dev = np.zeros(n)
    t_set = np.zeros(n)
    end = 0
    for duration, load in pattern.segments:
        start, end = end, end + int(duration)
        drive = system.drive(load)
        mean_loads[start:end], t_set[start:end] = drive[1:]
        for k in range(start, end):
            t_dev[k] = system.plant.t_dev
            spikes[k] = system.step(drive)
    return HomeostasisResult(
        spikes=spikes, mean_loads=mean_loads, t_dev=t_dev, t_set=t_set,
        dt_s=system.dt_s, window=system.window,
    )


def baseline_curve(
    loads,
    system: NeuronSystem,
    settle_steps: int,
    measure_steps: int,
) -> list[tuple[float, float]]:
    """Settled spike rate per constant load, measured by simulation.

    Each load runs on a fresh copy of the template system: settle first,
    then count spikes over the measurement phase.
    """
    out = []
    for load in loads:
        sim = system.copy()
        drive = sim.drive(float(load))
        for _ in range(settle_steps):
            sim.step(drive)
        count = sum(sim.step(drive) for _ in range(measure_steps))
        out.append((float(load), count / measure_steps))
    return out


@dataclass
class GainCalibration:
    fmap: FeedforwardMap
    mode: str
    kappa: float                      # nan in table mode
    rates_uncompensated: list[float]  # settled rates at kappa = 0
    rates_calibrated: list[float]
    loads: list[float]

    @staticmethod
    def _spread(rates) -> float:
        return max(rates) - min(rates)

    @property
    def spread_uncompensated(self) -> float:
        return self._spread(self.rates_uncompensated)

    @property
    def spread_calibrated(self) -> float:
        return self._spread(self.rates_calibrated)


def affine_gains(kappa_max: float, step: float) -> list[float]:
    """Affine gains 0, step, 2*step, ... up to kappa_max; at most 2401,
    ten times the default grid."""
    if not (step > 0 and 0 <= kappa_max < 2401 * step):
        raise ValueError("kappa grid needs step > 0 and 0 <= kappa_max "
                         "< 2401 steps")
    return [k * step for k in range(int(kappa_max / step) + 1)]


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
        import numpy as np
        best_kappa, best_var = None, math.inf
        for kappa in kappa_grid:
            fmap = FeedforwardMap(kappa=float(kappa))
            rates = [settled_rate(system, l, fmap) for l in loads]
            var = float(np.var(rates))
            if var < best_var - 1e-15:
                best_kappa, best_var = float(kappa), var
        if best_kappa is None:
            raise CalibrationError("empty kappa grid")
        fmap = FeedforwardMap(kappa=best_kappa)
        return GainCalibration(
            fmap=fmap, mode=mode, kappa=best_kappa,
            rates_uncompensated=rates_k0,
            rates_calibrated=[settled_rate(system, l, fmap) for l in loads],
            loads=loads,
        )

    theta = system.theta
    s_hot = float(system.weights_at(T_MAX).sum())
    s_cold = float(system.weights_at(T_MIN).sum())
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
            lambda T: float(system.weights_at(T).sum()) - target_sum,
            T_MIN, T_MAX, xtol=1e-6,
        ))
    fmap = FeedforwardMap(
        mode="table",
        table_loads=tuple(loads),
        table_temps=tuple(temps),
    )
    return GainCalibration(
        fmap=fmap, mode=mode, kappa=float("nan"),
        rates_uncompensated=rates_k0,
        rates_calibrated=[settled_rate(system, l, fmap) for l in loads],
        loads=loads,
    )
