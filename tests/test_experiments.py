"""Experiment-runner protocol tests."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memthermo.calibration import (ThermometerRangeError,
                                   extract_thermionic, fit_switch_curve,
                                   invert_temperature)
from memthermo.constants import R_CEILING, R_FLOOR, T_MAX, T_MIN, V_READ
from memthermo.csvio import SCHEMAS
from memthermo.device import (
    LEVEL_ORDER,
    DeviceState,
    IVCurveSet,
    SwitchingParams,
    apply_pulse_train,
    iv_preset,
    read_resistance,
    reset_to_reference,
    rho_temperature_factor,
    sweep_voltages,
)
from memthermo.experiments import (
    PULSE_PERIOD_S,
    HsrResult,
    TraceRecord,
    _drift_factors,
    run_heat_stimulate_retention,
    run_iv_sweep,
    run_nullcline_sweep,
    run_thermal_cycling,
)
from memthermo.neuron import N_SYNAPSES, NeuronSystem
from memthermo.thermal import (GRID_TEMPS, ProtocolError, TemperatureSchedule,
                               ThermalPlant, hold_steps)


def test_trace_record_fields_are_the_row_schemas():
    # hsr rows are written as they stand, cycle rows as their first six
    assert TraceRecord._fields == SCHEMAS["hsr"]
    assert TraceRecord._fields[:6] == SCHEMAS["cycle"]


@pytest.mark.parametrize("run, kwargs", [
    pytest.param("cycle", {"read_period_s": 0.0},
                 id="cycle-read-period-0"),
    pytest.param("hsr", {"hold_s": -5.0},
                 id="hsr-hold-neg"),
    pytest.param("hsr", {"hold_s": math.nan},
                 id="hsr-hold-nan"),
    pytest.param("hsr", {"retention_period_s": math.nan},
                 id="hsr-retention-period-nan"),
    pytest.param("hsr", {"read_period_s": 0.0},
                 id="hsr-read-period-0"),
])
def test_hold_rejects_non_positive_hold_or_read_period(request, fit, run,
                                                       kwargs):
    with pytest.raises(ValueError, match="must be > 0"):
        request.getfixturevalue(run)(fit=fit, **kwargs)


def test_cycle_holds_all_settled_and_steady_drop(cycle, state_at, fit):
    res = cycle(5, state=state_at("pristine"), fit=fit)
    assert all(h.settled for h in res.holds)
    assert res.total_drop() == pytest.approx(0.61, abs=1e-9)


def test_cycle_single_entry_schedule_flat_trace(cycle, fit):
    sched = TemperatureSchedule((300.0,), 3600.0)
    res = cycle(schedule=sched, fit=fit)
    values = set(res.r_ohm)
    assert len(values) == 1


def test_cycle_timestamps_strictly_increasing(cycle, fit):
    res = cycle(2, fit=fit)
    ts = res.t_s
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_cycle_revisit_exact_without_drift(cycle, fit):
    res = cycle(11, fit=fit)
    assert res.revisit_discrepancy(300.0) <= 1e-9
    assert res.revisit_discrepancy(360.0) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_cycle_revisit_bounded_with_drift(cycle, fit, seed):
    res = cycle(seed, fit=fit, drift_scale=0.05)
    assert res.revisit_discrepancy(300.0) <= 0.05
    assert res.revisit_discrepancy(360.0) <= 0.05


def test_cycle_deterministic_reruns(cycle, fit):
    a = cycle(9, fit=fit, drift_scale=0.05)
    b = cycle(9, fit=fit, drift_scale=0.05)
    assert a[:5] == b[:5]


def test_cycle_unsettled_hold_raises(cycle, fit):
    sched = TemperatureSchedule((310.0,), 900.0)
    with pytest.raises(ProtocolError, match="not settled"):
        cycle(schedule=sched, fit=fit)


def test_level_sweep_ordering_and_ratio(level_runs, fit):
    runs = level_runs(3, fit=fit)
    drops = [runs[lvl].total_drop()
             for lvl in ("pristine", "L1", "L2", "L3", "L4")]
    assert all(a > b for a, b in zip(drops, drops[1:]))
    ratio = runs["pristine"].total_drop() / runs["L4"].total_drop()
    assert 5.0 <= ratio <= 7.0
    assert abs(runs["L1"].sensitivity()) == pytest.approx(1.0, abs=0.15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), drift_scale=st.floats(0.0, 0.1),
       plant=st.sampled_from([ThermalPlant.packaged(),
                              ThermalPlant.on_wafer()]),
       levels=st.lists(st.sampled_from(LEVEL_ORDER), min_size=1,
                       unique=True))
def test_one_cycle_run_reads_each_state_as_its_own_run(
        cycle, cycle_args, state_at, seed, drift_scale, plant, levels):
    # the chamber does not depend on the device: one plant run read by
    # several states gives each state's own run, records and holds alike
    kwargs = {"plant": plant, "drift_scale": drift_scale,
              "read_period_s": 60.0}
    together = run_thermal_cycling(**{
        **cycle_args(seed), **kwargs,
        "states": [state_at(lvl) for lvl in levels]})
    assert list(together) == [cycle(seed, state=state_at(lvl), **kwargs)
                              for lvl in levels]


def _run_or_error(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except ProtocolError as exc:
        return str(exc)


@settings(max_examples=25, deadline=None)
@given(setpoints=st.lists(st.sampled_from(GRID_TEMPS), min_size=1,
                          max_size=6),
       seed=st.integers(0, 2**32), drift_scale=st.sampled_from((0.0, 0.05)),
       states=st.lists(st.one_of(st.sampled_from(LEVEL_ORDER),
                                 st.floats(1e3, 3e7)), min_size=2, max_size=5))
def test_shared_chamber_run_matches_each_state_run_alone(
        cycle, cycle_args, state_at, setpoints, seed, drift_scale, states):
    # result i of one run reading several states is the run reading state
    # i alone, every column and hold; an unsettled hold fails the shared
    # run as it fails the first state that meets it
    states = [state_at(s) if isinstance(s, str) else DeviceState(s)
              for s in states]
    kwargs = {"schedule": TemperatureSchedule(tuple(setpoints), 3600.0),
              "drift_scale": drift_scale, "read_period_s": 60.0}
    together = _run_or_error(run_thermal_cycling, **{
        **cycle_args(seed), **kwargs, "states": states})
    alone = [_run_or_error(cycle, seed, state=state, **kwargs)
             for state in states]
    errors = [run for run in alone if isinstance(run, str)]
    assert together == (errors[0] if errors else alone)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), drift_scale=st.sampled_from((0.0, 0.05)),
       states=st.lists(st.one_of(st.sampled_from(LEVEL_ORDER),
                                 st.floats(R_FLOOR, R_CEILING)),
                       min_size=1, max_size=N_SYNAPSES),
       T=st.floats(T_MIN, T_MAX))
def test_bound_readers_equal_the_checked_law(
        cycle_args, state_at, seed, drift_scale, states, T):
    # cycling, the thermometer and the neuron bind a state's barrier once
    # and call the unchecked kernel: every value is still the checked
    # read-out law, float for float
    states = [state_at(s) if isinstance(s, str) else DeviceState(s)
              for s in states]
    args = {**cycle_args(seed), "drift_scale": drift_scale,
            "read_period_s": 60.0}
    fit, setpoints = args["fit"], args["schedule"].setpoints
    factors = _drift_factors(drift_scale, seed, len(setpoints))
    steps = hold_steps(args["schedule"].hold_s, args["read_period_s"])
    per_read = [f for f in factors for _ in range(steps)]
    for state, run in zip(states, run_thermal_cycling(**args, states=states)):
        assert run.r_ohm == [read_resistance(state, fit, t) * f
                             for t, f in zip(run.t_dev_K, per_read)]
        assert [h.r_steady_ohm for h in run.holds] == [
            read_resistance(state, fit, t) * f
            for t, f in zip(setpoints, factors)]
        with pytest.raises(ThermometerRangeError) as err:
            invert_temperature(math.inf, fit, state.r_eff, guard=0.02)
        assert err.value.band == (read_resistance(state, fit, T_MAX),
                                  read_resistance(state, fit, T_MIN))
    synapses = (states * N_SYNAPSES)[:N_SYNAPSES]
    system = NeuronSystem(synapses, fit, ThermalPlant(), theta=12.5,
                          dt_s=1.0, window=25)
    assert system.weights_at(T) == [
        rho_temperature_factor(T, fit.phi_for_state(s.r_eff))
        for s in synapses]


# ---------------------------------------------------------------------------
# heat-stimulate-retention


def test_hsr_phase_blocks_do_not_interleave(hsr, state_at, fit, params):
    res = hsr(state=state_at("L1"), t_test=340.0, fit=fit, params=params)
    phases = [r.phase for r in res.records]
    transitions = sum(1 for a, b in zip(phases, phases[1:]) if a != b)
    # read -> program -> retention -> read -> program: four block changes
    assert transitions == 4
    ts = [r.t_s for r in res.records]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_hsr_subthreshold_programming_is_flat(hsr, state_at, fit):
    params = SwitchingParams()
    res = hsr(state=state_at("L1"), t_test=330.0, v_prog=0.3,
              fit=fit, params=params)
    prog = [r.r_ohm for r in res.records if r.phase == "program" and r.v_V == 0.3]
    assert len(set(prog)) == 1
    assert res.frac_state == 0.0


def test_hsr_learning_rate_nearly_temperature_invariant(hsr, state_at, fit,
                                                       params):
    lo = hsr(state=state_at("L1"), t_test=310.0, v_prog=1.5,
             fit=fit, params=params)
    hi = hsr(state=state_at("L1"), t_test=360.0, v_prog=1.5,
             fit=fit, params=params)
    assert abs(hi.frac_state - lo.frac_state) / lo.frac_state <= 0.10


def test_hsr_retention_recovers_monotonically_but_incompletely(
        hsr, state_at, fit, params):
    res = hsr(state=state_at("L1"), t_test=340.0, fit=fit, params=params)
    retention = [r.r_ohm for r in res.records if r.phase == "retention"]
    assert all(b < a for a, b in zip(retention, retention[1:]))
    program_end = [r.r_ohm for r in res.records if r.phase == "program"][-1]
    pre_train = [r.r_ohm for r in res.records if r.phase == "read"]
    assert retention[-1] > pre_train[0] * 0.39   # still above the baseline
    assert 0 < res.recovered_frac < 1


def test_hsr_reset_restores_reference_within_one_percent(hsr, state_at, fit,
                                                        params):
    state = state_at("L1")
    res = hsr(state=state, t_test=350.0, fit=fit, params=params)
    r0 = state.r_persistent
    assert abs(res.state_final.r_persistent - r0) / r0 < 0.01
    assert res.state_final.r_volatile_excess == 0.0


def test_hsr_emits_both_normalisations(hsr, state_at, fit, params):
    res = hsr(state=state_at("L1"), t_test=360.0, fit=fit, params=params)
    # at temperature the reading sits far below the 300 K reference even
    # after potentiation, so the two normalisations differ in sign
    assert res.frac_at_t > 0
    assert res.frac_vs_300 < 0


def test_hsr_deterministic(hsr, state_at, fit, params):
    a = hsr(state=state_at("L1"), fit=fit, params=params)
    b = hsr(state=state_at("L1"), fit=fit, params=params)
    assert a.records == b.records


def _hsr_read_by_read(t_test, v_prog, fit, params, plant, state, pulse_count,
                     retention_reads, retention_period_s, hold_s,
                     read_period_s, keep_records):
    """run_heat_stimulate_retention with one device state built per
    retention read, each read taken right after its plant step."""
    plant = plant.copy()
    state0 = state
    records = []
    t = 0.0

    def log(r, phase, pulse_index=None, v=V_READ):
        if keep_records:
            records.append(TraceRecord(t, plant.t_set, plant.t_air,
                                       plant.t_dev, r, phase, pulse_index, v))

    def hold(t_set, state):
        nonlocal t
        plant.set_setpoint(t_set)
        for _ in range(max(1, int(round(hold_s / read_period_s)))):
            plant.step(read_period_s)
            t += read_period_s
            log(read_resistance(state, fit, plant.t_dev), "read")

    r_ref_300 = read_resistance(state, fit, plant.t_dev)
    log(r_ref_300, "read")
    hold(t_test, state)
    t_train = plant.t_dev
    r_pre_at_t = read_resistance(state, fit, t_train)
    state, trace = apply_pulse_train(
        state, v_prog, pulse_count, t_train, params, fit)
    for k, r in enumerate(trace, start=1):
        t += PULSE_PERIOD_S
        log(r, "program", pulse_index=k, v=v_prog)
    plant.step(pulse_count * PULSE_PERIOD_S)
    frac_state = state.r_eff / state0.r_eff - 1.0
    frac_at_t = trace[-1] / r_pre_at_t - 1.0
    frac_vs_300 = trace[-1] / r_ref_300 - 1.0
    vol_peak = state.r_volatile_excess
    for k in range(1, retention_reads + 1):
        plant.step(retention_period_s)
        t += retention_period_s
        volatile = state.r_volatile_excess * math.exp(-1.0 / params.tau_ret)
        r_eff = state.r_persistent + volatile
        r = r_eff * rho_temperature_factor(plant.t_dev, fit.phi_for_state(r_eff))
        state = DeviceState(r_persistent=state.r_persistent,
                            r_volatile_excess=volatile,
                            pulse_count=state.pulse_count, era=None)
        log(r, "retention", pulse_index=k)
    recovered = 0.0 if vol_peak == 0.0 else 1.0 - state.r_volatile_excess / vol_peak
    hold(300.0, state)
    reset = reset_to_reference(state, state0.r_persistent, params, fit)
    for k, (r, v) in enumerate(zip(reset.resistances, reset.voltages),
                               start=1):
        t += PULSE_PERIOD_S
        log(r, "program", pulse_index=k, v=v)
    return HsrResult(
        records=records,
        frac_state=frac_state, frac_at_t=frac_at_t, frac_vs_300=frac_vs_300,
        recovered_frac=recovered, reset_pulses=reset.pulses,
        state_final=reset.state,
    )


@settings(max_examples=60, deadline=None)
@given(
    level=st.sampled_from(LEVEL_ORDER),
    t_test=st.floats(300.0, 360.0),
    v_prog=st.sampled_from((0.3, 0.9, 1.4, 1.5, -1.2)),
    pulse_count=st.integers(1, 40),
    retention_reads=st.integers(0, 60),
    retention_period_s=st.floats(0.05, 60.0),
    hold_s=st.sampled_from((6.0, 120.0, 600.0)),
    keep_records=st.booleans(),
)
@example(level="L1", t_test=360.0, v_prog=1.5, pulse_count=200,
         retention_reads=0, retention_period_s=6.0, hold_s=600.0,
         keep_records=True)
@example(level="L1", t_test=360.0, v_prog=1.5, pulse_count=200,
         retention_reads=200, retention_period_s=6.0, hold_s=600.0,
         keep_records=True)
def test_hsr_equals_read_by_read_retention_exactly(
        cfg, state_at, fit, params, level, t_test, v_prog, pulse_count,
        retention_reads, retention_period_s, hold_s, keep_records):
    kwargs = dict(t_test=t_test, v_prog=v_prog, fit=fit, params=params,
                  plant=cfg.plant, state=state_at(level),
                  pulse_count=pulse_count, retention_reads=retention_reads,
                  retention_period_s=retention_period_s, hold_s=hold_s,
                  read_period_s=cfg["schedule.read_period_s"],
                  keep_records=keep_records)
    assert run_heat_stimulate_retention(**kwargs) == _hsr_read_by_read(**kwargs)


# ---------------------------------------------------------------------------
# nullcline sweep


@pytest.fixture(scope="module")
def nullcline(hsr_args, state_at, fit, params):
    return run_nullcline_sweep(**{**hsr_args, "state": state_at("L1"),
                                  "fit": fit, "params": params})


def test_nullcline_anchor_fractions(nullcline):
    grid = {(v, T): f for v, T, f in nullcline}
    assert grid[(1.4, 310.0)] == pytest.approx(0.22, abs=0.01)
    assert grid[(1.4, 360.0)] == pytest.approx(0.27, abs=0.01)


def test_nullcline_monotone_in_amplitude(nullcline):
    by_temp = {}
    for v, T, f in nullcline:
        by_temp.setdefault(T, []).append((v, f))
    for pairs in by_temp.values():
        pairs.sort()
        fs = [f for _, f in pairs]
        assert all(b > a for a, b in zip(fs, fs[1:]))


def test_nullcline_round_trips_through_switch_fit(nullcline, params):
    fitres = fit_switch_curve(nullcline)
    # protocol grid carries the finite-train and plant-residual effects,
    # so recovery is near-exact rather than bit-exact
    assert fitres.g_14_310 == pytest.approx(params.g_14_310, abs=2e-3)
    assert fitres.g_14_360 == pytest.approx(params.g_14_360, abs=2e-3)
    assert fitres.beta == pytest.approx(params.beta, rel=1e-3)


# ---------------------------------------------------------------------------
# IV sweeps


def _iv_sweep(cfg, level, fit):
    return run_iv_sweep(level=level, r_ohm=fit.anchor(level).r_ref,
                        temperatures=cfg.floats("iv.temps_k"),
                        voltages=cfg.voltages, fit=fit)


def test_iv_sweep_symmetric_for_symmetric_levels(cfg, fit):
    ivs = _iv_sweep(cfg, "L2", fit)
    for row in ivs.currents:
        by_v = dict(zip(ivs.voltages, row))
        for v, i in by_v.items():
            if v > 0:
                assert abs(i) == pytest.approx(abs(by_v[-v]), rel=1e-12)


def test_iv_sweep_pristine_asymmetric(cfg, fit):
    ivs = _iv_sweep(cfg, "pristine", fit)
    curve = dict(zip(ivs.voltages, ivs.currents[0]))
    assert abs(curve[0.4]) > abs(curve[-0.4]) * 1.05


@settings(max_examples=60, deadline=None)
@given(level=st.sampled_from(LEVEL_ORDER),
       temps=st.lists(st.floats(300.0, 360.0), min_size=3, max_size=7,
                      unique=True).map(sorted),
       points=st.integers(3, 50))
def test_iv_sweep_grid_survives_its_rows(cfg, fit, level, temps, points):
    # iv.csv holds rows(), and signature reads it back through from_rows
    voltages = sweep_voltages(cfg["iv.v_min_v"], cfg["iv.v_max_v"], points,
                              cfg.switching.v_th)
    ivs = run_iv_sweep(level=level, r_ohm=fit.anchor(level).r_ref,
                       temperatures=temps, voltages=voltages, fit=fit)
    assert IVCurveSet.from_rows(ivs.rows()) == ivs


def test_iv_sweep_rejects_threshold_crossing():
    with pytest.raises(ValueError, match="threshold"):
        sweep_voltages(0.05, 0.6, 8, SwitchingParams().v_th)


def test_iv_sweep_feeds_extraction_round_trip(cfg, fit):
    truth = iv_preset("L1", fit.anchor("L1").r_ref, fit)
    res = extract_thermionic(_iv_sweep(cfg, "L1", fit))
    assert res.physical
    assert res.params.phi_b == pytest.approx(truth.phi_b, rel=5e-3)
    assert res.params.alpha_pos == pytest.approx(truth.alpha_pos, rel=5e-3)
    assert res.params.alpha_neg == pytest.approx(truth.alpha_neg, rel=5e-3)
