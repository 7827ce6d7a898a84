"""Protocol runners reproducing the characterisation experiments.

Each runner plays one measurement protocol against a simulated device and
plant, returning its trace (columns, or hsr's tagged records) and a summary.
Runners are deterministic in (configuration, seed); the only randomness,
the optional slow drift, flows from a named sub-stream.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .constants import T_MAX, T_MIN, T_REF, V_READ
from .csvio import SCHEMAS
from .device import (
    DeviceState,
    IVCurveSet,
    SwitchingParams,
    ThermalFit,
    _ratio,
    apply_pulse_train,
    iv_preset,
    read_resistance,
    reset_to_reference,
    retention_run,
    thermionic_current,
)
from .rng import substream
from .thermal import (NULLCLINE_TEMPS, NULLCLINE_VOLTAGES, ProtocolError,
                      TemperatureSchedule, ThermalPlant, hold_steps, settled)

PHASE_READ = "read"
PHASE_PROGRAM = "program"
PHASE_RETENTION = "retention"

# Spacing of the programming pulses on the trace clock.
PULSE_PERIOD_S = 0.1


# One heat-stimulate-retention trace row, written as it stands: its fields
# are `SCHEMAS["hsr"]`, whose first six are `SCHEMAS["cycle"]`; a read
# row has no pulse index and reads at V_READ.
TraceRecord = namedtuple("TraceRecord", SCHEMAS["hsr"],
                         defaults=(None, V_READ))


# One settled hold: its cycle_holds row, the fields `SCHEMAS["cycle_holds"]`,
# and the time of its last read. r_steady_ohm is the model's asymptotic
# read-out at the setpoint (what the transient converges to); r_last_ohm
# is the final in-hold read.
HoldSummary = namedtuple("HoldSummary", (*SCHEMAS["cycle_holds"], "t_end_s"))


class CycleResult(namedtuple("CycleResult",
                             (*SCHEMAS["cycle"][:5], "holds"))):
    """One state's reads as `SCHEMAS["cycle"]` columns, and its holds
    (HoldSummary). The chamber columns, t_s to t_dev_K, are the same lists
    for every result of one run_thermal_cycling call."""

    __slots__ = ()

    def steady_values(self, t_set: float) -> list[float]:
        return [h.r_steady_ohm for h in self.holds if h.t_set_K == t_set]

    def total_drop(self) -> float:
        """Fractional settled drop from 300 K to 360 K."""
        r300 = self.steady_values(T_MIN)
        r360 = self.steady_values(T_MAX)
        if not r300 or not r360:
            raise ProtocolError("schedule lacks 300 K or 360 K holds")
        return 1.0 - r360[0] / r300[0]

    def sensitivity(self) -> float:
        """Sensitivity in %/K of the per-hold settled values."""
        from .calibration import sensitivity_percent_per_K
        return sensitivity_percent_per_K([h.t_set_K for h in self.holds],
                                         [h.r_steady_ohm for h in self.holds])


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
        step = half_band / 2.0 * rng.standard_normal()
        log_f = min(max(log_f + step, -half_band), half_band)
        factors.append(math.exp(log_f))
    return factors


def _hold(plant, t_set, hold_s, period_s, t):
    """Hold the chamber at t_set for hold_s from time t, stepping the plant
    once per period; returns the (t_s, t_set_K, t_air_K, t_dev_K) columns
    at the end of each step, where the reads are taken."""
    steps = hold_steps(hold_s, period_s)
    plant.set_setpoint(t_set)
    t_s, t_air, t_dev = [], [], []
    for _ in range(steps):
        plant.step(period_s)
        t += period_s
        t_s.append(t)
        t_air.append(plant.t_air)
        t_dev.append(plant.t_dev)
    return t_s, [plant.t_set] * steps, t_air, t_dev


def run_thermal_cycling(
    schedule: TemperatureSchedule,
    seed: int,
    fit: ThermalFit,
    plant: ThermalPlant,
    states: list[DeviceState],
    read_period_s: float,
    drift_scale: float,
) -> list[CycleResult]:
    """Hold each scheduled setpoint on a copy of plant, reading at a fixed
    cadence; seed draws the drift factors. Returns one CycleResult per
    device state, in order.

    The chamber does not depend on the device inside it, so one plant run
    is read by every state: each state is read over each hold's t_dev
    column with that hold's drift factor. The first hold that fails the
    settling criterion at its end raises ProtocolError, state by state in
    the given order. Reads are non-perturbing, so revisited setpoints
    reproduce the settled resistance exactly unless the drift model is
    enabled.
    """
    plant = plant.copy()
    factors = _drift_factors(drift_scale, seed, len(schedule.setpoints))
    chamber = ([], [], [], [])   # t_s, t_set_K, t_air_K, t_dev_K
    runs, t = [], 0.0            # each hold's chamber columns
    for t_set in schedule.setpoints:
        runs.append(_hold(plant, t_set, schedule.hold_s, read_period_s, t))
        for column, values in zip(chamber, runs[-1]):
            column += values
        t = chamber[0][-1]

    results = []
    for r_eff in [state.r_eff for state in states]:
        phi = fit.phi_for_state(r_eff)   # bound once: the state is fixed
        r_ohm, holds = [], []
        for index, (t_set, factor, (ts, _, _, t_dev)) in enumerate(
                zip(schedule.setpoints, factors, runs)):
            r = [r_eff * _ratio(T, phi) * factor for T in t_dev]
            ok = settled(ts, r)
            if ok is not True:
                raise ProtocolError(
                    f"hold {index} at {t_set} K not settled after "
                    f"{schedule.hold_s} s (criterion: {ok})"
                )
            r_ohm += r
            holds.append(HoldSummary(
                hold=index, t_set_K=t_set,
                r_steady_ohm=r_eff * _ratio(t_set, phi) * factor,
                r_first_ohm=r[0], r_last_ohm=r[-1], settled=True,
                t_end_s=ts[-1]))
        results.append(CycleResult(*chamber, r_ohm, holds))
    return results


# The hsr_summary row of one heat-stimulate-retention run, its fields
# `SCHEMAS["hsr_summary"]`. Train fractions come in the three
# normalisations the protocol admits: `frac_state` is the change of the
# 300 K reference state (the model's nullcline quantity), `frac_at_T` is
# the in-situ read at the test temperature against the pre-train read
# there, `frac_vs_300` is the same read against the initial 300 K
# reference.
HsrSummary = namedtuple("HsrSummary", SCHEMAS["hsr_summary"])


# A heat-stimulate-retention run: its trace (TraceRecord), its summary
# row (HsrSummary) and the device state it ends in.
HsrResult = namedtuple("HsrResult", "records summary state_final")


def run_heat_stimulate_retention(
    t_test: float,
    v_prog: float,
    fit: ThermalFit,
    params: SwitchingParams,
    plant: ThermalPlant,
    state: DeviceState,
    pulse_count: int,
    retention_reads: int,
    retention_period_s: float,
    hold_s: float,
    read_period_s: float,
    keep_records: bool = True,
) -> HsrResult:
    """Reference read, heat and stabilise, programming train with per-pulse
    reads, retention reads, cool down, reset back to the reference; on a
    copy of plant. Without keep_records no trace record is built."""
    plant = plant.copy()
    state0 = state

    records: list[TraceRecord] = []
    t = 0.0

    def log(r, phase, pulse_index=None, v=V_READ):
        if keep_records:
            records.append(TraceRecord(t, plant.t_set, plant.t_air,
                                       plant.t_dev, r, phase, pulse_index, v))

    def hold(t_set, state):
        """A settling hold read over its t_dev column; returns its end time."""
        chamber = _hold(plant, t_set, hold_s, read_period_s, t)
        r = [read_resistance(state, fit, T) for T in chamber[3]]
        if keep_records:
            records.extend(TraceRecord(*row, PHASE_READ)
                           for row in zip(*chamber, r))
        return chamber[0][-1]

    # reference read at 300 K
    r_ref_300 = read_resistance(state, fit, plant.t_dev)
    log(r_ref_300, PHASE_READ)

    # heat to the test temperature and stabilise
    t = hold(t_test, state)

    # programming train at the (now settled) device temperature
    t_train = plant.t_dev
    r_pre_at_t = read_resistance(state, fit, t_train)
    state, trace = apply_pulse_train(
        state, v_prog, pulse_count, t_train, params, fit)
    for k, r in enumerate(trace, start=1):
        t += PULSE_PERIOD_S
        log(r, PHASE_PROGRAM, pulse_index=k, v=v_prog)
    plant.step(pulse_count * PULSE_PERIOD_S)

    frac_state = state.r_eff / state0.r_eff - 1.0
    frac_at_t = trace[-1] / r_pre_at_t - 1.0
    frac_vs_300 = trace[-1] / r_ref_300 - 1.0

    # retention at temperature, one decay interval and read per plant step
    vol_peak = state.r_volatile_excess
    if retention_reads > 0:
        chamber = _hold(plant, t_test, retention_reads * retention_period_s,
                        retention_period_s, t)
        t = chamber[0][-1]
        state, rtrace = retention_run(state, chamber[3], params, fit)
        if keep_records:
            records.extend(TraceRecord(*row, PHASE_RETENTION, k) for k, row
                           in enumerate(zip(*chamber, rtrace), start=1))
    recovered = 0.0 if vol_peak == 0.0 else 1.0 - state.r_volatile_excess / vol_peak

    # back to the reference temperature
    t = hold(T_REF, state)

    # reset to the initial 300 K reference level
    reset = reset_to_reference(state, state0.r_persistent, params, fit)
    for k, (r, v) in enumerate(zip(reset.resistances, reset.voltages),
                               start=1):
        t += PULSE_PERIOD_S
        log(r, PHASE_PROGRAM, pulse_index=k, v=v)

    return HsrResult(
        records=records,
        summary=HsrSummary(
            T_test_K=t_test, v_prog_V=v_prog, frac_state=frac_state,
            frac_at_T=frac_at_t, frac_vs_300=frac_vs_300,
            recovered_frac=recovered, reset_pulses=reset.pulses),
        state_final=reset.state,
    )


def run_nullcline_sweep(**hsr_kwargs) -> list[tuple[float, float, float]]:
    """Heat-stimulate-retention per (v, T) of the nullcline grid on a
    freshly reset device, collecting the final train fraction grid as
    (v, T, fraction) rows. hsr_kwargs are run_heat_stimulate_retention's
    arguments other than t_test, v_prog and keep_records."""
    return [(v, T, run_heat_stimulate_retention(
                t_test=T, v_prog=v, keep_records=False,
                **hsr_kwargs).summary.frac_state)
            for v in NULLCLINE_VOLTAGES for T in NULLCLINE_TEMPS]


def run_iv_sweep(level: str, r_ohm: float, temperatures, voltages,
                 fit: ThermalFit) -> IVCurveSet:
    """Non-switching IV curves of iv_preset(level, r_ohm, fit) over a
    temperature list, at amplitudes from sweep_voltages; below the switching
    threshold the device state cannot change."""
    params = iv_preset(level, r_ohm, fit)
    return IVCurveSet(
        temperatures=tuple(float(T) for T in temperatures),
        voltages=tuple(voltages),
        currents=tuple(tuple(thermionic_current(v, T, params)
                             for v in voltages) for T in temperatures))
