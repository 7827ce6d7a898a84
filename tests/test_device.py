"""Device-core model tests.

Expected values tagged as frozen oracles were computed with independent
methods (50-digit arithmetic for the conduction law, pure-Python
bisection for the barrier inversion, closed-form algebra for trains and
retention) before being pinned here.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memthermo import (
    CalibrationError,
    DeviceState,
    LevelAnchor,
    ResetError,
    SwitchingParams,
    ThermalFit,
    ThermionicParams,
    apply_pulse_train,
    barrier_shift_response,
    calibrate_phi_from_drop,
    read_resistance,
    reset_to_reference,
    retention_run,
    rho_temperature_factor,
    thermionic_current,
    train_switch_fraction,
)
from memthermo.constants import K_B_EV, T_MAX, T_REF
from memthermo.device import MAX_TOTAL_DROP, MIN_TOTAL_DROP, PHI_APP_MIN

# ---------------------------------------------------------------------------
# thermionic conduction law


def test_current_zero_bias_drops_barrier_lowering():
    p = ThermionicParams(a_prefactor=2.5e-7, phi_b=0.25,
                         alpha_pos=0.4, alpha_neg=0.1)
    expected = 2.5e-7 * 9e4 * math.exp(-0.25 / (K_B_EV * 300.0))
    assert thermionic_current(0.0, 300.0, p) == pytest.approx(expected, rel=1e-15)


def test_current_symmetric_when_alpha_zero():
    p = ThermionicParams(a_prefactor=1e-6, phi_b=0.3)
    for v in (0.05, 0.2, 0.45, 1.3):
        assert thermionic_current(v, 320.0, p) == pytest.approx(
            -thermionic_current(-v, 320.0, p), rel=1e-15)


def test_current_matches_high_precision_oracle():
    # frozen from a 50-digit evaluation of the conduction law
    p = ThermionicParams(a_prefactor=1e-6, phi_b=0.3,
                         alpha_pos=0.02, alpha_neg=0.02)
    assert thermionic_current(0.2, 300.0, p) == pytest.approx(
        1.1607039940441237e-6, rel=1e-12)


def test_current_sign_follows_bias():
    p = ThermionicParams(a_prefactor=1e-6, phi_b=0.3, alpha_neg=0.05)
    assert thermionic_current(0.3, 300.0, p) > 0
    assert thermionic_current(-0.3, 300.0, p) < 0


def test_current_rejects_nonfinite_inputs():
    p = ThermionicParams(a_prefactor=1e-6, phi_b=0.3)
    with pytest.raises(ValueError):
        thermionic_current(float("nan"), 300.0, p)
    with pytest.raises(ValueError):
        thermionic_current(0.2, float("inf"), p)
    with pytest.raises(ValueError):
        thermionic_current(0.2, -10.0, p)


def test_thermionic_params_invariants():
    with pytest.raises(ValueError):
        ThermionicParams(a_prefactor=0.0, phi_b=0.3)
    with pytest.raises(ValueError):
        ThermionicParams(a_prefactor=1e-6, phi_b=-0.1)
    with pytest.raises(ValueError):
        ThermionicParams(a_prefactor=1e-6, phi_b=0.1, alpha_pos=-0.2)


def test_signature_coordinates_exactly_linear():
    # ln(I/T^2) against 1/T at fixed bias is a straight line by construction
    p = ThermionicParams(a_prefactor=3e-7, phi_b=0.22, alpha_pos=0.04)
    temps = np.arange(300.0, 361.0, 10.0)
    for v in (0.1, 0.25, 0.4):
        y = np.array([math.log(thermionic_current(v, T, p) / T**2)
                      for T in temps])
        x = 1.0 / temps
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert 1.0 - np.sum(resid**2) / ss_tot > 1.0 - 1e-12


# ---------------------------------------------------------------------------
# temperature ratio factor and barrier calibration


def test_rho_identity_at_reference():
    assert rho_temperature_factor(300.0, 0.123) == 1.0


def test_rho_prefactor_only_at_zero_barrier():
    assert rho_temperature_factor(360.0, 0.0) == pytest.approx(
        (300.0 / 360.0) ** 2, rel=1e-15)


def test_rho_reproduces_pristine_drop():
    # phi from an independent bisection, then verified by forward evaluation
    phi = _bisect_phi(0.61)
    assert rho_temperature_factor(360.0, phi) == pytest.approx(0.39, abs=1e-9)
    assert phi == pytest.approx(0.0895, abs=5e-4)


def _bisect_phi(drop, lo=PHI_APP_MIN + 1e-9, hi=2.0):
    # independent oracle: plain bisection on a literal transcription of
    # the ratio law
    target = 1.0 - drop
    f = lambda phi: (300.0 / 360.0) ** 2 * math.exp(
        (phi / 8.617333262e-5) * (1.0 / 360.0 - 1.0 / 300.0)) - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("drop", [0.61, 0.58, 0.39, 0.22, 0.11])
def test_calibrate_phi_matches_bisection_oracle(drop):
    assert calibrate_phi_from_drop(drop) == pytest.approx(
        _bisect_phi(drop), abs=1e-9)


def _closed_form_phi(drop):
    return K_B_EV * math.log((1.0 - drop) * (T_MAX / T_REF) ** 2) / (
        1.0 / T_MAX - 1.0 / T_REF)


@settings(max_examples=300, deadline=None)
@given(st.floats(MIN_TOTAL_DROP, MAX_TOTAL_DROP,
                 exclude_min=True, exclude_max=True))
@example(0.61)  # the five ThermalFit.default level anchors
@example(0.58)
@example(0.39)
@example(0.22)
@example(0.11)
def test_calibrate_phi_matches_closed_form(drop):
    assert abs(calibrate_phi_from_drop(drop) - _closed_form_phi(drop)) <= 1e-12


def test_calibrate_phi_trivial_prefactor_drop():
    drop = 1.0 - (300.0 / 360.0) ** 2
    assert calibrate_phi_from_drop(drop) == pytest.approx(0.0, abs=1e-12)


def test_calibrate_phi_signed_for_shallow_drop():
    phi = calibrate_phi_from_drop(0.11)
    assert phi == pytest.approx(-0.0385, abs=5e-4)
    assert phi > PHI_APP_MIN


def test_calibrate_phi_rejects_unachievable_drops():
    with pytest.raises(CalibrationError, match="achievable range"):
        calibrate_phi_from_drop(0.01)
    with pytest.raises(CalibrationError, match="achievable range"):
        calibrate_phi_from_drop(1.0)


def test_rho_rejects_barrier_at_monotonicity_bound():
    with pytest.raises(ValueError, match="monotonicity"):
        rho_temperature_factor(330.0, PHI_APP_MIN)


@settings(max_examples=100, deadline=None)
@given(
    drop=st.floats(min_value=0.05, max_value=0.95),
    t_pair=st.tuples(st.floats(min_value=300.0, max_value=360.0),
                     st.floats(min_value=300.0, max_value=360.0)),
)
def test_rho_strictly_decreasing_for_calibrated_barriers(drop, t_pair):
    phi = calibrate_phi_from_drop(drop)
    t1, t2 = sorted(t_pair)
    if t2 - t1 < 1e-6:   # below float resolution of the exponentials
        return
    assert rho_temperature_factor(t2, phi) < rho_temperature_factor(t1, phi)


# ---------------------------------------------------------------------------
# thermal fit / barrier interpolation


def test_fit_anchor_barriers_signed_and_above_bound(fit):
    phis = fit.phi_of_anchor
    assert all(p > PHI_APP_MIN for p in phis)
    assert phis[0] > 0 and phis[-1] < 0


def test_phi_for_state_exact_at_anchors(fit):
    for anchor, phi in zip(fit.anchors, fit.phi_of_anchor):
        assert fit.phi_for_state(anchor.r_ref) == pytest.approx(phi, rel=1e-12)


def test_phi_for_state_linear_in_log_resistance(fit):
    for a, b, pa, pb in zip(fit.anchors, fit.anchors[1:],
                            fit.phi_of_anchor, fit.phi_of_anchor[1:]):
        r_geo = math.sqrt(a.r_ref * b.r_ref)
        assert fit.phi_for_state(r_geo) == pytest.approx(
            0.5 * (pa + pb), rel=1e-12)


def test_phi_for_state_clamps_outside_table(fit):
    assert fit.phi_for_state(30e6) == fit.phi_of_anchor[0]
    assert fit.phi_for_state(1.5e3) == fit.phi_of_anchor[-1]


def test_fit_rejects_empty_and_unsorted_tables():
    with pytest.raises(ValueError):
        ThermalFit(anchors=())
    with pytest.raises(ValueError, match="decreasing"):
        ThermalFit(anchors=(LevelAnchor("a", 1e6, 0.5),
                            LevelAnchor("b", 2e6, 0.4)))


# ---------------------------------------------------------------------------
# read-out


def test_read_identity_at_reference_temperature(fit):
    state = DeviceState(r_persistent=1.8e6)
    assert read_resistance(state, fit, 300.0) == pytest.approx(1.8e6, rel=1e-15)


def test_read_pristine_and_l4_drops(fit):
    pristine = DeviceState(r_persistent=3e6)
    l4 = DeviceState(r_persistent=8e3)
    assert read_resistance(pristine, fit, 360.0) / 3e6 == pytest.approx(
        0.39, abs=1e-9)
    assert read_resistance(l4, fit, 360.0) / 8e3 == pytest.approx(
        0.89, abs=1e-9)


def test_reads_never_mutate_state(fit):
    state = DeviceState(r_persistent=1e6, r_volatile_excess=2e4, pulse_count=7)
    snapshot = replace(state)
    for T in (300.0, 325.0, 352.5, 360.0):
        read_resistance(state, fit, T)
    assert state == snapshot


# ---------------------------------------------------------------------------
# switching fraction


def test_fraction_zero_below_threshold(params):
    assert train_switch_fraction(0.2, 330.0, params) == 0.0
    assert train_switch_fraction(-0.49, 330.0, params) == 0.0


def test_fraction_anchor_values(params):
    assert train_switch_fraction(1.4, 310.0, params) == pytest.approx(0.22)
    assert train_switch_fraction(1.4, 360.0, params) == pytest.approx(0.27)


def test_fraction_sign_and_temperature_clamp(params):
    assert train_switch_fraction(-1.4, 310.0, params) == pytest.approx(-0.22)
    assert train_switch_fraction(1.4, 300.0, params) == pytest.approx(0.22)
    assert train_switch_fraction(1.4, 400.0, params) == pytest.approx(0.27)


def test_fraction_steepness_calibrated_at_lowest_amplitude(params):
    assert train_switch_fraction(0.7, 310.0, params) == pytest.approx(
        0.02, rel=1e-12)


def _spread(values):
    return (max(values) - min(values)) / np.mean(values)


def test_fraction_spread_is_voltage_dependent(params):
    temps = np.arange(310.0, 361.0, 10.0)
    at_14 = [train_switch_fraction(1.4, T, params) for T in temps]
    at_15 = [train_switch_fraction(1.5, T, params) for T in temps]
    # full 22->27 % ramp at the nullcline edge, tapered above it
    assert _spread(at_14) == pytest.approx((0.27 - 0.22) / 0.245, rel=1e-3)
    assert _spread(at_15) <= 0.10


@pytest.mark.parametrize("start, end", [(-1.0, 1.5), (0.0, 1.5), (1.5, 1.5)])
def test_switching_params_reject_taper_outside_positive_order(start, end):
    # the taper runs over 0 < taper_v_start < taper_v_end
    with pytest.raises(ValueError, match="taper"):
        SwitchingParams(taper_v_start=start, taper_v_end=end)


# ---------------------------------------------------------------------------
# pulse trains


def test_subthreshold_train_is_gated(fit, params):
    state = DeviceState(r_persistent=1e6)
    new, trace = apply_pulse_train(state, 0.2, 50, 330.0, params, fit)
    assert new == state
    assert len(set(trace)) == 1


def test_train_saturation_algebra(fit, params):
    state = DeviceState(r_persistent=1e6)
    new, _ = apply_pulse_train(state, 1.5, 200, 310.0, params, fit)
    achieved = new.r_eff / state.r_eff - 1.0
    target = train_switch_fraction(1.5, 310.0, params)
    assert achieved == pytest.approx(target * -math.expm1(-10.0), rel=1e-12)
    assert abs(achieved - target) / target < 5e-5
    assert new.pulse_count == 200


def test_split_train_equals_single_train(fit, params):
    state = DeviceState(r_persistent=1e6)
    a, _ = apply_pulse_train(state, 1.2, 100, 330.0, params, fit)
    a, _ = apply_pulse_train(a, 1.2, 100, 330.0, params, fit)
    b, _ = apply_pulse_train(state, 1.2, 200, 330.0, params, fit)
    assert a.r_persistent == pytest.approx(b.r_persistent, rel=1e-12)
    assert a.r_volatile_excess == pytest.approx(b.r_volatile_excess, rel=1e-12)
    # closed-form oracle for the same split
    f = train_switch_fraction(1.2, 330.0, params)
    expected = 1e6 * (1.0 + f * -math.expm1(-200.0 / params.n_tau))
    assert b.r_eff == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    split=st.integers(min_value=1, max_value=199),
    v=st.floats(min_value=0.7, max_value=1.5),
    T=st.floats(min_value=310.0, max_value=360.0),
)
def test_train_composition_property(split, v, T, fit, params):
    state = DeviceState(r_persistent=5e5)
    a, _ = apply_pulse_train(state, v, split, T, params, fit)
    a, _ = apply_pulse_train(a, v, 200 - split, T, params, fit)
    b, _ = apply_pulse_train(state, v, 200, T, params, fit)
    assert a.r_eff == pytest.approx(b.r_eff, rel=1e-12)


def test_new_amplitude_starts_a_new_curve(fit, params):
    state = DeviceState(r_persistent=1e6)
    a, _ = apply_pulse_train(state, 1.2, 50, 330.0, params, fit)
    b, _ = apply_pulse_train(a, 1.4, 1, 330.0, params, fit)
    assert b.era.n == 1
    assert b.era.r_start == pytest.approx(a.r_eff)


def test_burn_in_scales_first_train_only(fit):
    params = SwitchingParams(burn_in_gain=1.5)
    fresh = DeviceState(r_persistent=1e6)
    first, _ = apply_pulse_train(fresh, 1.4, 200, 310.0, params, fit)
    frac_first = first.r_eff / fresh.r_eff - 1.0

    pre_pulsed = DeviceState(r_persistent=1e6, pulse_count=10)
    later, _ = apply_pulse_train(pre_pulsed, 1.4, 200, 310.0, params, fit)
    frac_later = later.r_eff / pre_pulsed.r_eff - 1.0
    assert frac_first == pytest.approx(1.5 * frac_later, rel=1e-9)


def test_train_rejects_bad_pulses(fit, params):
    state = DeviceState(r_persistent=1e6)
    with pytest.raises(ValueError):
        apply_pulse_train(state, 1.0, 0, 330.0, params, fit)
    with pytest.raises(ValueError):
        apply_pulse_train(state, float("nan"), 10, 330.0, params, fit)


# ---------------------------------------------------------------------------
# retention


def test_retention_flat_without_volatile_part(fit, params):
    state = DeviceState(r_persistent=1e6, r_volatile_excess=0.0)
    _, trace = retention_run(state, 50, 330.0, params, fit)
    assert len(set(trace)) == 1


def test_retention_decay_limit(fit, params):
    state = DeviceState(r_persistent=1e6, r_volatile_excess=3e5)
    new, _ = retention_run(state, 5000, 330.0, params, fit)
    limit = 1e6 * rho_temperature_factor(330.0, fit.phi_for_state(1e6))
    assert read_resistance(new, fit, 330.0) == pytest.approx(limit, rel=1e-9)
    assert new.r_persistent == state.r_persistent


def test_retention_recovery_incomplete_with_defaults(fit, params):
    # closed form: 200 reads at tau_ret = 50 recover 1 - e^-4 of the
    # volatile part, hence (1 - eta_nv)*(1 - e^-4) < 1 of the total change
    state = DeviceState(r_persistent=1e6)
    trained, _ = apply_pulse_train(state, 1.5, 200, 330.0, params, fit)
    rested, trace = retention_run(trained, 200, 330.0, params, fit)
    recovered_volatile = 1.0 - rested.r_volatile_excess / trained.r_volatile_excess
    assert recovered_volatile == pytest.approx(0.98168436111126582, rel=1e-12)
    total_induced = trained.r_eff - state.r_eff
    total_recovered = trained.r_eff - rested.r_eff
    assert total_recovered / total_induced == pytest.approx(
        (1.0 - params.eta_nv) * 0.98168436111126582, rel=1e-12)
    assert rested.r_eff > state.r_eff
    # monotone partial recovery along the trace
    assert all(b < a for a, b in zip(trace, trace[1:]))


# ---------------------------------------------------------------------------
# reset


def test_reset_noop_when_already_at_target(fit, params):
    state = DeviceState(r_persistent=1e6)
    res = reset_to_reference(state, 1.0e6, params, fit)
    assert res.pulses == 0
    assert res.state == state


def test_reset_converges_from_above(fit, params):
    state = DeviceState(r_persistent=1.25e6)
    res = reset_to_reference(state, 1e6, params, fit)
    assert abs(res.state.r_persistent - 1e6) / 1e6 < 0.01
    assert res.state.r_volatile_excess == 0.0
    assert res.pulses > 0
    # forward oracle: drive the train model by the documented reset rule
    # (single pulses toward the target, curve restart on stall) and land
    # on the identical state and pulse count
    replay = DeviceState(r_persistent=1.25e6, r_volatile_excess=0.0)
    pulses = 0
    while abs(replay.r_persistent - 1e6) / 1e6 >= 0.01:
        v = -1.5 if replay.r_persistent > 1e6 else 1.5
        before = replay.r_persistent
        replay, _ = apply_pulse_train(replay, v, 1, 300.0, params, fit)
        pulses += 1
        if abs(replay.r_persistent - before) < 1e-5 * 1e6:
            replay = replace(replay, era=None)
        assert pulses <= 10_000
    assert pulses == res.pulses
    assert replay.r_persistent == pytest.approx(
        res.state.r_persistent, rel=1e-12)


def test_reset_converges_from_below(fit, params):
    state = DeviceState(r_persistent=0.8e6)
    res = reset_to_reference(state, 1e6, params, fit)
    assert abs(res.state.r_persistent - 1e6) / 1e6 < 0.01


def test_reset_rejects_target_below_hard_floor(fit, params):
    state = DeviceState(r_persistent=1e6)
    with pytest.raises(ResetError, match="hard bounds"):
        reset_to_reference(state, 500.0, params, fit)


def test_reset_error_carries_last_resistance(fit, params):
    # a target just above the floor is unreachable: the effective
    # resistance bottoms out before the persistent part can get there
    state = DeviceState(r_persistent=50e3)
    with pytest.raises(ResetError) as err:
        reset_to_reference(state, 1.05e3, params, fit, max_pulses=2000)
    assert err.value.last_resistance > 1.05e3
    assert err.value.pulses == 2000


# ---------------------------------------------------------------------------
# differential switching response


def test_barrier_shift_response_decreases_with_temperature(fit):
    for phi in fit.phi_of_anchor:
        d310 = barrier_shift_response(310.0, phi, 1e-4)
        d360 = barrier_shift_response(360.0, phi, 1e-4)
        assert abs(d310) > abs(d360)


def test_barrier_shift_response_matches_direct_difference():
    # oracle: difference of the resistance law at the shifted and original
    # barriers, normalised by the fixed pre-shift 300 K value, in mpmath
    from mpmath import exp, mp, mpf

    mp.dps = 40
    phi, dphi, T = mpf("0.05"), mpf("1e-4"), mpf("340")
    kb = mpf("8.617333262e-5")

    def resistance(phi_val, temp):
        return temp**-2 * exp(phi_val / (kb * temp))

    expected = float(
        (resistance(phi + dphi, T) - resistance(phi, T))
        / resistance(phi, mpf(300))
    )
    assert barrier_shift_response(340.0, 0.05, 1e-4) == pytest.approx(
        expected, rel=1e-9)
