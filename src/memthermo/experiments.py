"""Protocol runners reproducing the characterisation experiments.

Each runner plays one measurement protocol against a simulated device and
plant, emitting tagged trace records plus a compact summary. Runners are
deterministic functions of (configuration, seed); randomness is limited
to the optional slow drift model and flows from a named sub-stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .calibration import IVCurveSet
from .constants import V_READ
from .device import (
    DeviceState,
    SwitchingParams,
    ThermalFit,
    ThermionicParams,
    apply_pulse_train,
    read_resistance,
    reset_to_reference,
    retention_run,
    rho_temperature_factor,
    thermionic_current,
)
from .presets import LEVEL_ORDER, device_preset, iv_preset
from .rng import substream
from .thermal import (
    TemperatureSchedule,
    ThermalPlant,
    scrambled_schedule,
    settled,
)

PHASE_READ = "read"
PHASE_PROGRAM = "program"
PHASE_RETENTION = "retention"

DEFAULT_READ_PERIOD_S = 6.0
DEFAULT_PULSE_PERIOD_S = 0.1


class ProtocolError(RuntimeError):
    """A protocol-level check failed (settling, convergence, ordering)."""


class TraceRecord(NamedTuple):
    """One trace row; the fields follow `SCHEMAS["hsr"]`, and the first
    six are `SCHEMAS["cycle"]`, so a record is written as it stands."""

    t_s: float
    t_set_K: float
    t_air_K: float
    t_dev_K: float
    r_ohm: float
    phase: str
    pulse_index: int | None = None
    v_V: float = V_READ


@dataclass(frozen=True)
class HoldSummary:
    """One settled hold: setpoint, steady-state estimate and end-of-hold data.

    r_steady_ohm is the model's asymptotic read-out at the setpoint (what
    the transient converges to); r_last_ohm is the final in-hold read.
    """

    index: int
    t_set_K: float
    t_start_s: float
    t_end_s: float
    r_steady_ohm: float
    r_first_ohm: float
    r_last_ohm: float
    settled: bool


@dataclass
class CycleResult:
    level: str
    records: list[TraceRecord]
    holds: list[HoldSummary]
    state: DeviceState
    fit: ThermalFit

    def steady_values(self, t_set: float) -> list[float]:
        return [h.r_steady_ohm for h in self.holds if h.t_set_K == t_set]

    def revisit_discrepancy(self, t_set: float = 300.0) -> float:
        """Relative difference between the first and last settled visits."""
        values = self.steady_values(t_set)
        if len(values) < 2:
            raise ProtocolError(f"no revisit at {t_set} K in this schedule")
        return abs(values[-1] - values[0]) / values[0]

    def total_drop(self) -> float:
        """Fractional settled drop from 300 K to 360 K."""
        r300 = self.steady_values(300.0)
        r360 = self.steady_values(360.0)
        if not r300 or not r360:
            raise ProtocolError("schedule lacks 300 K or 360 K holds")
        return 1.0 - r360[0] / r300[0]

    def settled_trace(self) -> tuple[list[float], list[float]]:
        """(T, R) pairs of per-hold settled values, in visit order."""
        temps = [h.t_set_K for h in self.holds]
        res = [h.r_steady_ohm for h in self.holds]
        return temps, res


def _drift_factors(scale: float, seed: int, n: int) -> list[float]:
    """Slow multiplicative drift, one factor per hold: a seeded random walk
    in log space, clipped to a half-band so any two holds differ by at most
    `scale`. Within a hold the factor is constant, which leaves the
    settling criterion untouched."""
    if scale <= 0:
        return [1.0] * n
    rng = substream(seed, "drift")
    half_band = 0.5 * math.log1p(scale)
    log_f, factors = 0.0, []
    for _ in range(n):
        step = rng.normal(0.0, half_band / 2.0)
        log_f = min(max(log_f + step, -half_band), half_band)
        factors.append(math.exp(log_f))
    return factors


def _hold(plant, state, fit, t_set, hold_s, read_period_s, t, records,
          factor=1.0):
    """Hold the chamber at t_set for hold_s, stepping the plant and reading
    the device once per read period; returns the end time. Each read,
    scaled by `factor`, is appended to `records` unless that is None."""
    if hold_s <= 0 or read_period_s <= 0:
        raise ValueError(f"hold ({hold_s} s) and read period "
                         f"({read_period_s} s) must be > 0")
    plant.set_setpoint(t_set)
    for _ in range(max(1, int(round(hold_s / read_period_s)))):
        plant.step(read_period_s)
        t += read_period_s
        r = read_resistance(state, fit, plant.t_dev) * factor
        if records is not None:
            records.append(TraceRecord(t, plant.t_set, plant.t_air,
                                       plant.t_dev, r, PHASE_READ))
    return t


def run_thermal_cycling(
    level: str = "pristine",
    schedule: TemperatureSchedule | None = None,
    seed: int = 0,
    fit: ThermalFit | None = None,
    plant: ThermalPlant | None = None,
    state: DeviceState | None = None,
    read_period_s: float = DEFAULT_READ_PERIOD_S,
    drift_scale: float = 0.0,
) -> CycleResult:
    """Hold each scheduled setpoint, reading at a fixed cadence.

    Raises ProtocolError when a hold fails the settling criterion at its
    end. Reads are non-perturbing, so the device state never changes;
    revisited setpoints reproduce the settled resistance exactly unless
    the drift model is enabled.
    """
    fit = fit or ThermalFit.default()
    schedule = schedule or scrambled_schedule(seed)
    plant = plant.copy() if plant is not None else ThermalPlant.packaged()
    state = state if state is not None else device_preset(level, fit)
    phi = fit.phi_for_state(state.r_eff)
    factors = _drift_factors(drift_scale, seed, len(schedule.entries))

    records: list[TraceRecord] = []
    holds: list[HoldSummary] = []
    t = 0.0
    for index, ((t_set, hold_s), factor) in enumerate(
            zip(schedule.entries, factors)):
        start = len(records)
        t = _hold(plant, state, fit, t_set, hold_s, read_period_s, t,
                  records, factor)
        hold = records[start:]
        ok = settled([r.t_s for r in hold], [r.r_ohm for r in hold])
        if ok is not True:
            raise ProtocolError(
                f"hold {index} at {t_set} K not settled after {hold_s} s "
                f"(criterion: {ok})"
            )
        holds.append(HoldSummary(
            index=index, t_set_K=t_set,
            t_start_s=hold[0].t_s, t_end_s=t,
            r_steady_ohm=state.r_eff * rho_temperature_factor(t_set, phi) * factor,
            r_first_ohm=hold[0].r_ohm, r_last_ohm=hold[-1].r_ohm,
            settled=True,
        ))
    return CycleResult(level=level, records=records, holds=holds,
                       state=state, fit=fit)


@dataclass
class LevelSweepResult:
    results: dict[str, CycleResult]
    drops: dict[str, float]
    sensitivities: dict[str, float]


def run_level_sweep(
    levels=LEVEL_ORDER,
    schedule: TemperatureSchedule | None = None,
    seed: int = 0,
    fit: ThermalFit | None = None,
    read_period_s: float = DEFAULT_READ_PERIOD_S,
    drift_scale: float = 0.0,
) -> LevelSweepResult:
    """Run the thermal cycle once per programmed level with a fresh plant."""
    from .calibration import sensitivity_percent_per_K

    fit = fit or ThermalFit.default()
    schedule = schedule or scrambled_schedule(seed)
    results, drops, sens = {}, {}, {}
    for level in levels:
        res = run_thermal_cycling(
            level=level, schedule=schedule, seed=seed, fit=fit,
            read_period_s=read_period_s, drift_scale=drift_scale,
        )
        results[level] = res
        drops[level] = res.total_drop()
        temps, settled_r = res.settled_trace()
        sens[level] = sensitivity_percent_per_K(temps, settled_r)
    return LevelSweepResult(results=results, drops=drops, sensitivities=sens)


@dataclass
class HsrResult:
    """Heat-stimulate-retention run.

    Train fractions come in the three normalisations the protocol admits:
    `frac_state` is the change of the 300 K reference state (the model's
    nullcline quantity), `frac_at_t` is the in-situ read at the test
    temperature against the pre-train read there, `frac_vs_300` is the
    same read against the initial 300 K reference.
    """

    records: list[TraceRecord]
    t_test_K: float
    v_prog_V: float
    frac_state: float
    frac_at_t: float
    frac_vs_300: float
    recovered_frac: float
    reset_pulses: int
    state_initial: DeviceState
    state_final: DeviceState


def run_heat_stimulate_retention(
    level: str = "L1",
    t_test: float = 360.0,
    v_prog: float = 1.5,
    fit: ThermalFit | None = None,
    params: SwitchingParams | None = None,
    plant: ThermalPlant | None = None,
    state: DeviceState | None = None,
    pulse_count: int = 200,
    retention_reads: int = 200,
    retention_period_s: float = DEFAULT_READ_PERIOD_S,
    hold_s: float = 3600.0,
    read_period_s: float = DEFAULT_READ_PERIOD_S,
    pulse_period_s: float = DEFAULT_PULSE_PERIOD_S,
    keep_records: bool = True,
) -> HsrResult:
    """Reference read, heat and stabilise, 200-pulse train with per-pulse
    reads, 200-read retention, cool down, reset back to the reference."""
    fit = fit or ThermalFit.default()
    params = params or SwitchingParams()
    plant = plant.copy() if plant is not None else ThermalPlant.packaged()
    state0 = state = state if state is not None else device_preset(level, fit)

    records: list[TraceRecord] = []
    kept = records if keep_records else None
    t = 0.0

    def log(r, phase, pulse_index=None, v=V_READ):
        if keep_records:
            records.append(TraceRecord(t, plant.t_set, plant.t_air,
                                       plant.t_dev, r, phase, pulse_index, v))

    # reference read at 300 K
    r_ref_300 = read_resistance(state, fit, plant.t_dev)
    log(r_ref_300, PHASE_READ)

    # heat to the test temperature and stabilise
    t = _hold(plant, state, fit, t_test, hold_s, read_period_s, t, kept)

    # programming train at the (now settled) device temperature
    t_train = plant.t_dev
    r_pre_at_t = read_resistance(state, fit, t_train)
    state, trace = apply_pulse_train(
        state, v_prog, pulse_count, t_train, params, fit)
    for k, r in enumerate(trace, start=1):
        t += pulse_period_s
        log(r, PHASE_PROGRAM, pulse_index=k, v=v_prog)
    plant.step(pulse_count * pulse_period_s)

    frac_state = state.r_eff / state0.r_eff - 1.0
    frac_at_t = trace[-1] / r_pre_at_t - 1.0
    frac_vs_300 = trace[-1] / r_ref_300 - 1.0

    # retention at temperature, one decay interval per read
    vol_peak = state.r_volatile_excess
    for k in range(1, retention_reads + 1):
        plant.step(retention_period_s)
        t += retention_period_s
        state, rtrace = retention_run(state, 1, plant.t_dev, params, fit)
        log(rtrace[0], PHASE_RETENTION, pulse_index=k)
    recovered = 0.0 if vol_peak == 0.0 else 1.0 - state.r_volatile_excess / vol_peak

    # back to the reference temperature
    t = _hold(plant, state, fit, 300.0, hold_s, read_period_s, t, kept)

    # reset to the initial 300 K reference level
    reset = reset_to_reference(state, state0.r_persistent, params, fit)
    for k, r in enumerate(reset.resistances, start=1):
        t += pulse_period_s
        log(r, PHASE_PROGRAM, pulse_index=k, v=-1.5)
    state_final = reset.state

    return HsrResult(
        records=records, t_test_K=t_test, v_prog_V=v_prog,
        frac_state=frac_state, frac_at_t=frac_at_t, frac_vs_300=frac_vs_300,
        recovered_frac=recovered, reset_pulses=reset.pulses,
        state_initial=state0, state_final=state_final,
    )


@dataclass
class NullclineResult:
    rows: list[tuple[float, float, float]]   # (v, T, fraction)
    level: str


def run_nullcline_sweep(
    level: str = "L1",
    voltages=tuple(round(0.7 + 0.1 * k, 1) for k in range(8)),
    temperatures=tuple(float(T) for T in range(310, 361, 10)),
    fit: ThermalFit | None = None,
    params: SwitchingParams | None = None,
    **hsr_kwargs,
) -> NullclineResult:
    """Heat-stimulate-retention per (v, T) on a freshly reset device,
    collecting the final train fraction grid."""
    fit = fit or ThermalFit.default()
    params = params or SwitchingParams()
    rows = []
    for v in voltages:
        for T in temperatures:
            res = run_heat_stimulate_retention(
                level=level, t_test=T, v_prog=v,
                fit=fit, params=params, keep_records=False, **hsr_kwargs,
            )
            rows.append((float(v), float(T), res.frac_state))
    return NullclineResult(rows=rows, level=level)


def sweep_voltages(v_min: float, v_max: float, points_per_polarity: int,
                   v_th: float) -> list[float]:
    """IV sweep amplitudes, both polarities; rejected outright if any
    reaches the switching threshold v_th."""
    if v_max >= v_th:
        raise ValueError(
            f"sweep amplitude {v_max} V crosses the switching threshold "
            f"{v_th} V; this would no longer be non-switching"
        )
    if not (0 < v_min < v_max):
        raise ValueError("need 0 < v_min < v_max")
    if not 3 <= points_per_polarity <= 1000:
        raise ValueError("need 3 to 1000 points per polarity")
    step = (v_max - v_min) / (points_per_polarity - 1)
    pos = [v_min + k * step for k in range(points_per_polarity)]
    return [-v for v in reversed(pos)] + pos


def run_iv_sweep(
    level: str = "pristine",
    temperatures=(300.0, 330.0, 360.0),
    v_min: float = 0.05,
    v_max: float = 0.4,
    points_per_polarity: int = 8,
    params: ThermionicParams | None = None,
    switching: SwitchingParams | None = None,
    fit: ThermalFit | None = None,
) -> IVCurveSet:
    """Non-switching IV curves over a temperature list; below the
    switching threshold the device state cannot change."""
    switching = switching or SwitchingParams()
    voltages = sweep_voltages(v_min, v_max, points_per_polarity, switching.v_th)
    params = params or iv_preset(level, fit)
    curves = tuple(
        tuple((v, thermionic_current(v, T, params)) for v in voltages)
        for T in temperatures
    )
    return IVCurveSet(temperatures=tuple(float(T) for T in temperatures),
                      curves=curves)
