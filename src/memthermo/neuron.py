"""Thermally coupled homeostatic spiking neuron.

Twenty-five memristive synapses feed one accumulate-and-fire unit. Each
synapse weight is its current resistance normalised by its own reference
resistance, so heating the chamber lowers every weight. The raw input
load drives the chamber setpoint feedforward; sustained load increases
therefore heat the synapses, pull the weights down, and return the firing
rate toward baseline while transients pass through at full strength.

The simulation loop is sequential (plant and accumulator are stateful);
independent scenarios parallelise by owning separate systems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import K_B_EV, T_MAX, T_MIN, T_REF
from .device import CalibrationError, DeviceState, ThermalFit, _brentq
from .rng import substream
from .thermal import ThermalPlant

N_SYNAPSES = 25
DEFAULT_WINDOW = 25
DEFAULT_THETA = 12.5   # settled rate 0.5 spikes/step at load 0.25, 300 K


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
            arr = np.atleast_1d(np.asarray(load, dtype=float))
            if arr.size not in (1, N_SYNAPSES):
                raise ValueError(f"load must be scalar or length {N_SYNAPSES}")
            if not np.all((arr >= 0) & (arr <= 1)):
                raise ValueError("loads must lie in [0, 1]")

    @property
    def total_steps(self) -> int:
        return sum(int(d) for d, _ in self.segments)

    def per_step(self):
        """Yield the 25-vector input for every step."""
        for duration, load in self.segments:
            x = np.broadcast_to(
                np.atleast_1d(np.asarray(load, dtype=float)), (N_SYNAPSES,)
            )
            for _ in range(int(duration)):
                yield x

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
        theta: float = DEFAULT_THETA,
        dt_s: float = 1.0,
        window: int = DEFAULT_WINDOW,
    ):
        if len(synapses) != N_SYNAPSES:
            raise ValueError(f"exactly {N_SYNAPSES} synapses required")
        if theta <= 0:
            raise ValueError("theta must be > 0")
        if window < 1 or dt_s <= 0:
            raise ValueError("window >= 1 and dt_s > 0 required")
        self.synapses = list(synapses)
        self.fit = fit
        self.plant = plant
        self.fmap = fmap
        self.theta = float(theta)
        self.dt_s = float(dt_s)
        self.window = int(window)
        self.accumulator = 0.0
        # weights are read per step; the synapse states are static during
        # homeostasis runs (thermal control only), so cache their barriers
        self._r_eff = np.array([s.r_eff for s in self.synapses])
        self._phi = np.array([fit.phi_for_state(r) for r in self._r_eff])

    @classmethod
    def build(
        cls,
        level: str = "pristine",
        fmap: FeedforwardMap | None = None,
        fit: ThermalFit | None = None,
        plant: ThermalPlant | None = None,
        theta: float = DEFAULT_THETA,
        dt_s: float = 1.0,
        window: int = DEFAULT_WINDOW,
        spread_sigma: float = 0.0,
        seed: int = 0,
    ) -> "NeuronSystem":
        """System of identical-level synapses, optionally with a seeded
        log-normal device-to-device spread of the reference resistance."""
        fit = fit or ThermalFit.default()
        r0 = fit.r_ref(level)
        if spread_sigma > 0:
            rng = substream(seed, "spread")
            factors = np.exp(rng.normal(0.0, spread_sigma, N_SYNAPSES))
        else:
            factors = np.ones(N_SYNAPSES)
        synapses = [DeviceState(r_persistent=r0 * f) for f in factors]
        return cls(
            synapses=synapses, fit=fit,
            plant=plant.copy() if plant is not None else ThermalPlant.packaged(),
            fmap=fmap or FeedforwardMap(),
            theta=theta, dt_s=dt_s, window=window,
        )

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
        rho = (T_REF / T) ** 2 * np.exp(
            (self._phi / K_B_EV) * (1.0 / T - 1.0 / T_REF)
        )
        return rho   # r_now / r_ref == rho since r_ref is the 300 K value

    def weights(self) -> np.ndarray:
        return self.weights_at(self.plant.t_dev)

    def step(self, x) -> int:
        """Advance one step; returns the number of spikes emitted (0 or 1
        in normal operation).

        The weighted input accumulates; each threshold crossing emits a
        spike and carries the excess over, so the long-run rate equals
        drive/theta exactly. The plant then advances one dt with the
        setpoint taken from the feedforward map on the mean input.
        """
        x = np.broadcast_to(np.atleast_1d(np.asarray(x, dtype=float)),
                            (N_SYNAPSES,))
        drive = float(self.weights() @ x)
        self.accumulator += drive
        spikes = 0
        if self.accumulator >= self.theta:
            spikes = int(self.accumulator // self.theta)
            self.accumulator -= spikes * self.theta
        self.plant.set_setpoint(self.fmap.setpoint(float(x.mean())))
        self.plant.step(self.dt_s)
        return spikes


def settled_rate(system: NeuronSystem, load: float,
                 fmap: FeedforwardMap | None = None) -> float:
    """Asymptotic spike rate at a constant load: drive at the settled
    setpoint divided by theta."""
    fmap = fmap or system.fmap
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
        spike_times = np.repeat(np.arange(self.steps) * self.dt_s, self.spikes)
        out = []
        w = self.window
        for k in range(spike_times.size // w):
            t0 = spike_times[k * w]
            t1 = spike_times[(k + 1) * w - 1]
            span = max(t1 - t0, self.dt_s)
            out.append((k, float(t0), float(t1), w / (span / self.dt_s)))
        return out


def run_homeostasis(pattern: InputPattern,
                    system: NeuronSystem) -> HomeostasisResult:
    """Simulate the pattern; emits spikes, rates and the temperature trace.

    Draws no random numbers: the result is a function of the pattern and
    the system (whose synapse spread, if any, was seeded at build time).
    """
    n = pattern.total_steps
    spikes = np.zeros(n, dtype=np.int64)
    mean_loads = np.zeros(n)
    t_dev = np.zeros(n)
    t_set = np.zeros(n)
    for k, x in enumerate(pattern.per_step()):
        t_dev[k] = system.plant.t_dev
        spikes[k] = system.step(x)
        mean_loads[k] = float(np.mean(x))
        t_set[k] = system.plant.t_set
    return HomeostasisResult(
        spikes=spikes, mean_loads=mean_loads, t_dev=t_dev, t_set=t_set,
        dt_s=system.dt_s, window=system.window,
    )


def baseline_curve(
    loads,
    system: NeuronSystem,
    settle_steps: int = 4000,
    measure_steps: int = 2000,
) -> list[tuple[float, float]]:
    """Settled spike rate per constant load, measured by simulation.

    Each load runs on a fresh copy of the template system: settle first,
    then count spikes over the measurement phase.
    """
    out = []
    for load in loads:
        sim = system.copy()
        for _ in range(settle_steps):
            sim.step(float(load))
        count = sum(sim.step(float(load)) for _ in range(measure_steps))
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


DEFAULT_CALIBRATION_LOADS = (0.15, 0.20, 0.25, 0.30, 0.35, 0.40)


def affine_gains(kappa_max: float = 240.0, step: float = 1.0) -> list[float]:
    """Affine gains 0, step, 2*step, ... up to kappa_max; at most 2401,
    ten times the default grid."""
    if not (step > 0 and 0 <= kappa_max < 2401 * step):
        raise ValueError("kappa grid needs step > 0 and 0 <= kappa_max "
                         "< 2401 steps")
    return [k * step for k in range(int(kappa_max / step) + 1)]


def calibration_loads(loads, mode: str = "affine",
                      gamma: float = 0.3) -> list[float]:
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
    loads=DEFAULT_CALIBRATION_LOADS,
    system: NeuronSystem | None = None,
    mode: str = "affine",
    kappa_grid=None,
    gamma: float = 0.3,
) -> GainCalibration:
    """Calibrate the feedforward so settled rates flatten across loads.

    affine mode grid-searches the gain that minimises the variance of the
    settled rates (ties resolved toward the smaller gain). table mode
    builds a lookup that tracks a gently rising target curve
    rate ~ load^gamma, which flattens the baseline much harder while
    keeping the settled rate strictly monotone in load (the residual is
    the low-resolution read-out of the input level).
    """
    loads = calibration_loads(loads, mode, gamma)
    system = system or NeuronSystem.build()
    rates_k0 = [settled_rate(system, l, FeedforwardMap(kappa=0.0)) for l in loads]

    if mode == "affine":
        if kappa_grid is None:
            kappa_grid = affine_gains()
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
