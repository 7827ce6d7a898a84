"""Device-core model tests.

Expected values tagged as frozen oracles were computed with independent
methods (50-digit arithmetic for the conduction law, pure-Python
bisection for the barrier inversion, closed-form algebra for trains and
retention) before being pinned here.
"""
import math
import re
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memthermo import device
from memthermo.config import resolve_config
from memthermo.constants import (K_B_EV, R_CEILING, R_FLOOR, T_MAX, T_MIN,
                                 T_REF, V_READ)
from memthermo.device import (
    DEFAULT_ANCHORS,
    LEVEL_ORDER,
    MAX_TOTAL_DROP,
    MIN_TOTAL_DROP,
    PHI_APP_MIN,
    RESET_MAX_PULSES,
    CalibrationError,
    DeviceState,
    LevelAnchor,
    ResetError,
    SwitchingParams,
    ThermalFit,
    ThermionicParams,
    TrainEra,
    apply_pulse_train,
    barrier_shift_response,
    calibrate_phi_from_drop,
    iv_preset,
    read_resistance,
    reset_to_reference,
    retention_run,
    rho_temperature_factor,
    thermionic_current,
    train_switch_fraction,
)
from memthermo.neuron import N_SYNAPSES, FeedforwardMap, NeuronSystem
from memthermo.thermal import (TemperatureSchedule, ThermalPlant,
                               scrambled_schedule)

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
@example(0.61)  # the five DEFAULT_ANCHORS drops
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


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("T, phi_app, message", [
    (_NAN, 0.1, "T must be finite, got nan"),
    (_INF, 0.1, "T must be finite, got inf"),
    (-_INF, 0.1, "T must be finite, got -inf"),
    (np.float64(_NAN), 0.1, "T must be finite, got nan"),
    (330.0, _NAN, "phi_app must be finite, got nan"),
    (330.0, _INF, "phi_app must be finite, got inf"),
    (330.0, -_INF, "phi_app must be finite, got -inf"),
    # T is checked first, and finiteness before the window
    (_NAN, _NAN, "T must be finite, got nan"),
    (_INF, -_INF, "T must be finite, got inf"),
    (400, _NAN, "phi_app must be finite, got nan"),
    (299.0, 0.1, "T=299.0 outside [300.0, 360.0] K"),
    (361.0, 0.1, "T=361.0 outside [300.0, 360.0] K"),
    (330.0, PHI_APP_MIN, "phi_app=-0.051704 eV at or below monotonicity "
                         "bound -0.051704 eV"),
    (330.0, PHI_APP_MIN - 1.0, "phi_app=-1.051704 eV at or below "
                               "monotonicity bound -0.051704 eV"),
])
def test_rho_keeps_its_error_messages(T, phi_app, message):
    with pytest.raises(ValueError) as info:
        rho_temperature_factor(T, phi_app)
    assert str(info.value) == message


@pytest.mark.parametrize("T, r_eff, message", [
    (_NAN, 1e6, "T must be finite, got nan"),
    (_INF, 1e6, "T must be finite, got inf"),
    (-_INF, 1e6, "T must be finite, got -inf"),
    (np.float64(_NAN), 1e6, "T must be finite, got nan"),
    (299.0, 1e6, "T=299.0 outside [300.0, 360.0] K"),
    (361.0, 1e6, "T=361.0 outside [300.0, 360.0] K"),
    # the barrier is looked up before T is checked
    (330.0, -1.0, "r_eff must be > 0"),
    (_NAN, 0.0, "r_eff must be > 0"),
])
def test_read_keeps_its_error_messages(fit, T, r_eff, message):
    # DeviceState rejects r_eff <= 0, so the bad state is a stand-in
    state = SimpleNamespace(r_persistent=r_eff + 1.0, r_volatile_excess=-1.0)
    with pytest.raises(ValueError) as info:
        read_resistance(state, fit, T)
    assert str(info.value) == message


_WINDOW_T = st.one_of(st.floats(T_MIN - 1e-9, T_MAX + 1e-9),
                      st.integers(int(T_MIN), int(T_MAX)))


@settings(max_examples=300, deadline=None)
@given(T=_WINDOW_T, phi=st.floats(PHI_APP_MIN, 2.0, exclude_min=True),
       r_eff=st.floats(R_FLOOR, R_CEILING))
@example(T=T_MIN - 1e-9, phi=math.nextafter(PHI_APP_MIN, 1.0), r_eff=1e6)
@example(T=T_MAX + 1e-9, phi=2.0, r_eff=1e6)
@example(T=int(T_MIN), phi=0.0, r_eff=1e6)
@example(T=int(T_MAX), phi=0.0, r_eff=1e6)
def test_passing_reads_are_the_kernel_bit_for_bit(fit, T, phi, r_eff):
    # the checked law's passing path is the unchecked kernel on float(T)
    assert rho_temperature_factor(T, phi) == device._ratio(float(T), phi)
    state = DeviceState(r_persistent=r_eff)
    assert read_resistance(state, fit, T) == r_eff * device._ratio(
        float(T), fit.phi_for_state(r_eff))


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
# the piecewise-linear kernel


@st.composite
def _table_and_points(draw):
    values = st.floats(-1e6, 1e6)
    xs = sorted(draw(st.lists(values, min_size=1, max_size=8, unique=True)))
    ys = draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
    below = st.floats(-1e9, xs[0])
    above = st.floats(xs[-1], 1e9)
    between = st.floats(xs[0], xs[-1])
    points = draw(st.lists(st.one_of(st.sampled_from(xs), below, above,
                                     between), min_size=1, max_size=20))
    return tuple(xs), tuple(ys), points


@settings(max_examples=300, deadline=None)
@given(_table_and_points())
def test_interp_equals_np_interp(table):
    xs, ys, points = table
    for x in points:
        assert device._interp(x, xs, ys) == float(np.interp(x, xs, ys))


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


def _phi_by_scan(fit, r_eff):
    """ThermalFit.phi_for_state as a linear scan of the table, in
    np.interp's arithmetic: slope times offset plus the left knot value."""
    x = math.log10(r_eff)
    xs, ys = fit._log_r, fit._phi_asc
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    for i in range(1, len(xs)):
        if x == xs[i]:
            return ys[i]
        if x < xs[i]:
            slope = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1])
            return slope * (x - xs[i - 1]) + ys[i - 1]
    return ys[-1]


@st.composite
def _fit_and_states(draw, drop=st.floats(0.05, 0.95)):
    r_refs = sorted(draw(st.lists(st.floats(1e3, 3e7), min_size=1,
                                  max_size=7, unique_by=math.log10)),
                    reverse=True)
    drops = draw(st.lists(drop, min_size=len(r_refs), max_size=len(r_refs)))
    fit = ThermalFit(anchors=tuple(
        LevelAnchor(f"a{k}", r, d) for k, (r, d) in enumerate(zip(r_refs, drops))))
    on_anchor = st.sampled_from(r_refs)
    between = st.floats(min(r_refs), max(r_refs))
    outside = st.one_of(st.floats(1e-3, min(r_refs)), st.floats(max(r_refs), 1e12))
    states = draw(st.lists(st.one_of(on_anchor, between, outside),
                           min_size=1, max_size=20))
    return fit, states


@settings(max_examples=200, deadline=None)
@given(_fit_and_states())
def test_phi_for_state_equals_table_scan(fit_states):
    fit, states = fit_states
    for r_eff in states:
        assert fit.phi_for_state(r_eff) == _phi_by_scan(fit, r_eff)


_EDGE_FIT = ThermalFit(anchors=(
    LevelAnchor("a", 1e6, math.nextafter(MIN_TOTAL_DROP, 1.0)),
    LevelAnchor("b", 1e4, math.nextafter(MAX_TOTAL_DROP, 0.0))))


@settings(max_examples=200, deadline=None)
@given(_fit_and_states(drop=st.floats(MIN_TOTAL_DROP, MAX_TOTAL_DROP,
                                      exclude_min=True, exclude_max=True)))
@example((_EDGE_FIT, [1e6, 1e5, 1e4, 1e3, 3e7]))
def test_every_fit_barrier_clears_the_monotonicity_bound(fit_states):
    # pulse trains and retention read through the unchecked _ratio
    fit, states = fit_states
    for r_eff in states:
        assert fit.phi_for_state(r_eff) > PHI_APP_MIN


def test_fit_rejects_anchors_sharing_a_log10():
    # 1000 and the next float up have one log10, so the table would hold
    # two barriers at one knot
    anchors = (LevelAnchor("a", 1000.0000000000001, 0.5),
               LevelAnchor("b", 1000.0, 0.2))
    assert math.log10(anchors[0].r_ref) == math.log10(anchors[1].r_ref)
    with pytest.raises(ValueError, match="strictly decreasing in r_ref"):
        ThermalFit(anchors=anchors)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([a.r_ref for a in DEFAULT_ANCHORS]
                                          + [2e6, 30e6, 1.5e3]),
                          st.floats(1e2, 1e8)),
                min_size=1, max_size=20),
       st.lists(st.sampled_from([0.0, 1e-12, -1e-6, 1e-3]), min_size=20,
                max_size=20))
def test_phi_for_state_remembers_nothing_but_its_answer(fit, rs, nudges):
    # repeats, near repeats and changes of r_eff, interleaved, read exactly
    # what a fit that has seen no earlier state reads
    for r_eff in (r * (1.0 + n) for r, n in zip(rs, nudges)):
        assert fit.phi_for_state(r_eff) == ThermalFit(
            anchors=fit.anchors).phi_for_state(r_eff)


# the IV half of the level table, as first calibrated; goldens and the
# benchmark run iv and signature at pristine only
_IV_FACTORS = {
    "pristine": (0.050, 0.030),
    "L1": (0.040, 0.025),
    "L2": (0.020, 0.020),
    "L3": (0.060, 0.060),
    "L4": (0.100, 0.100),
}


@pytest.mark.parametrize("level", LEVEL_ORDER)
def test_level_table_iv_half_is_consistent_with_its_thermal_half(fit, level):
    r_ref = next(a.r_ref for a in fit.anchors if a.label == level)
    iv = iv_preset(level, r_ref, fit)
    assert (iv.alpha_pos, iv.alpha_neg) == _IV_FACTORS[level]
    # R(0.2 V, 300 K) is the level's reference resistance ...
    assert V_READ / thermionic_current(V_READ, T_REF, iv) == pytest.approx(
        r_ref, rel=1e-12)
    # ... and the apparent barrier at the read voltage its fitted one
    assert iv.phi_b - iv.alpha_pos * math.sqrt(V_READ) == pytest.approx(
        fit.phi_for_state(r_ref), rel=1e-12, abs=1e-15)


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
    snapshot = DeviceState(state.r_persistent, state.r_volatile_excess,
                           state.pulse_count, state.era)
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


@pytest.mark.parametrize("T, message", [
    (_NAN, "T must be finite, got nan"),
    (299.0, "T=299.0 outside [300.0, 360.0] K"),
    (361.0, "T=361.0 outside [300.0, 360.0] K"),
])
def test_train_and_retention_check_their_temperatures(fit, params, T,
                                                      message):
    state = DeviceState(r_persistent=1e6, r_volatile_excess=1e5)
    for run in (lambda: apply_pulse_train(state, 0.2, 3, T, params, fit),
                lambda: apply_pulse_train(state, 1.5, 3, T, params, fit),
                lambda: retention_run(state, [330.0, T], params, fit)):
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# retention


def test_retention_flat_without_volatile_part(fit, params):
    state = DeviceState(r_persistent=1e6, r_volatile_excess=0.0)
    _, trace = retention_run(state, [330.0] * 50, params, fit)
    assert len(set(trace)) == 1


def test_retention_needs_a_read(fit, params):
    with pytest.raises(ValueError, match="at least one read temperature"):
        retention_run(DeviceState(r_persistent=1e6), [], params, fit)


def test_retention_decay_limit(fit, params):
    state = DeviceState(r_persistent=1e6, r_volatile_excess=3e5)
    new, _ = retention_run(state, [330.0] * 5000, params, fit)
    limit = 1e6 * rho_temperature_factor(330.0, fit.phi_for_state(1e6))
    assert read_resistance(new, fit, 330.0) == pytest.approx(limit, rel=1e-9)
    assert new.r_persistent == state.r_persistent


def test_retention_recovery_incomplete_with_defaults(fit, params):
    # closed form: 200 reads at tau_ret = 50 recover 1 - e^-4 of the
    # volatile part, hence (1 - eta_nv)*(1 - e^-4) < 1 of the total change
    state = DeviceState(r_persistent=1e6)
    trained, _ = apply_pulse_train(state, 1.5, 200, 330.0, params, fit)
    rested, trace = retention_run(trained, [330.0] * 200, params, fit)
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
            replay = DeviceState(replay.r_persistent,
                                 replay.r_volatile_excess, replay.pulse_count)
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
        reset_to_reference(state, 1.05e3, params, fit)
    assert err.value.last_resistance > 1.05e3
    assert err.value.pulses == RESET_MAX_PULSES


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


# ---------------------------------------------------------------------------
# every way of building a checked object runs its checks
#
# The copies with changes (a retention run, a stalled reset's curve
# restart, the configured plant and switching parameters, a schedule)
# each call the constructor; built without it, a value past a rule edge
# would pass. A train's era (`TrainEra._replace`) carries no rule.


def _built(build, *args, **kwargs):
    """What build returns, or the text of the ValueError it raises."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


def _fields(obj):
    if isinstance(obj, str):
        return obj
    return tuple(getattr(obj, name) for name in type(obj).__slots__
                 if not name.startswith("_"))


def _past(edges):
    """A value at one of edges, or one ulp either side of it."""
    return st.tuples(st.sampled_from(edges), st.sampled_from((-1, 0, 1))).map(
        lambda e: math.nextafter(e[0], math.copysign(math.inf, e[1]))
        if e[1] else e[0])


class _Stop(Exception):
    pass


@settings(max_examples=200, deadline=None)
@given(r_persistent=st.one_of(_past((0.0,)), st.sampled_from(
           (math.nan, math.inf)), st.floats(R_FLOOR, 1e7)),
       volatile=st.one_of(st.sampled_from((math.nan, math.inf, -math.inf)),
                          st.floats(-1.0, 1.0), st.floats(-1e7, 1e7)),
       at_edge=st.sampled_from((-1, 0, 1, None)))
def test_device_state_copies_check_what_the_constructor_checks(
        r_persistent, volatile, at_edge):
    if at_edge is not None and math.isfinite(r_persistent):
        # -r_persistent makes the effective resistance exactly 0
        volatile = -r_persistent if at_edge == 0 else math.nextafter(
            -r_persistent, at_edge * math.inf)
    direct = _fields(_built(DeviceState, r_persistent, volatile, 3))
    stub_fit = SimpleNamespace(phi_for_state=lambda r: 0.0)
    # a read interval of tau_ret = inf keeps the excess as it is
    relaxed = _built(retention_run, SimpleNamespace(
        r_persistent=r_persistent, r_volatile_excess=volatile, pulse_count=3,
        era=None), [T_REF], SwitchingParams(tau_ret=math.inf), stub_fit)
    assert _fields(relaxed if isinstance(relaxed, str) else relaxed[0]) \
        == direct
    if not (math.isfinite(r_persistent) and r_persistent > 0):
        return
    # a reset whose train leaves r_persistent where it was restarts the
    # curve from the train's state; the next train receives the restart
    trains = []

    def stalled_train(current, v, count, T, params, fit):
        if trains:
            raise _Stop(current)
        trains.append(v)
        return SimpleNamespace(r_persistent=current.r_persistent,
                               r_volatile_excess=volatile, pulse_count=3,
                               era=TrainEra(v, T, 0.1, 1, 1.0)), [1.0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(device, "apply_pulse_train", stalled_train)
        try:
            restarted = _built(reset_to_reference, DeviceState(r_persistent),
                               R_CEILING, SwitchingParams(), stub_fit)
        except _Stop as stop:
            restarted = stop.args[0]
    assert _fields(restarted) == direct


_SWITCHING_EDGES = {
    "v_th": (0.0, 0.7), "g_14_310": (0.0, 0.27), "g_14_360": (0.22,),
    "beta": (0.0,), "n_tau": (0.0,), "eta_nv": (0.0, 1.0),
    "tau_ret": (0.0,), "burn_in_gain": (0.0,), "taper_v_start": (0.0, 1.5),
    "taper_v_end": (1.4,), "taper_min": (0.0, 1.0),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SWITCHING_EDGES)).flatmap(
    lambda name: st.tuples(st.just(name), _past(_SWITCHING_EDGES[name]))))
def test_configured_switching_params_check_what_the_constructor_checks(edge):
    name, value = edge
    direct = _fields(_built(SwitchingParams, **{name: value}))
    key = "switching." + {"v_th": "v_th_v", "beta": "beta_per_v"}.get(name,
                                                                      name)
    configured = _built(resolve_config, overrides={key: repr(value)})
    if isinstance(direct, str):
        assert configured == f"switching: {direct}"
    elif not isinstance(configured, str):   # another key may reject it
        assert _fields(configured.switching) == direct
    else:
        assert not configured.startswith("switching: ")


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(("t_set", "t_air", "t_dev")),
              _past((T_MIN, T_MAX))),
    st.tuples(st.sampled_from(("tau_air_s", "tau_dev_s")), _past((0.0,)))),
    st.sampled_from(("packaged", "on_wafer")))
def test_plant_copies_check_what_the_constructor_checks(edge, preset):
    name, value = edge
    base = getattr(ThermalPlant, preset)()
    values = dict(zip(("t_set", "t_air", "t_dev", "tau_air_s", "tau_dev_s"),
                      _fields(base)), **{name: value})
    direct = _fields(_built(ThermalPlant, **values))
    assert _fields(_built(ThermalPlant.copy, SimpleNamespace(**values))) \
        == direct
    # no key sets a temperature; tau_dev_s = 0 picks the preset
    if name.startswith("t_") or value == 0.0:
        return
    configured = _built(resolve_config, overrides={
        "plant.preset": preset, f"plant.{name}": repr(value)})
    if isinstance(direct, str):
        assert configured == f"plant: {direct}"
    else:
        assert _fields(configured.plant) == direct


@settings(max_examples=150, deadline=None)
@given(st.lists(_past((T_MIN, 320.0, T_MAX)), min_size=1, max_size=3),
       st.one_of(_past((0.0,)), st.just(3600.0)))
def test_schedules_check_what_the_constructor_checks(setpoints, hold_s):
    direct = _fields(_built(TemperatureSchedule, tuple(setpoints), hold_s))
    if hold_s > 0:   # the schedule.hold_s key rejects the rest itself
        configured = _built(resolve_config, overrides={
            "schedule.setpoints": ",".join(map(repr, setpoints)),
            "schedule.hold_s": repr(hold_s)})
        assert (configured == f"schedule.setpoints: {direct}"
                if isinstance(direct, str)
                else _fields(configured.schedule) == direct)
    scrambled = _built(scrambled_schedule, 0, hold_s)
    assert _fields(scrambled) == _fields(_built(
        TemperatureSchedule, getattr(scrambled, "setpoints", (T_MIN,)),
        hold_s))


_SWITCHING_RULE = "beta >= 0, n_tau > 0, tau_ret > 0 required"
_NEURON_RULE = "window >= 1 and dt_s > 0 required"
_PLANT_TEMPS_RULE = "air and device temperatures must be finite"
_neuron = partial(NeuronSystem, [DeviceState(r_persistent=1e6)] * N_SYNAPSES,
                  ThermalFit(DEFAULT_ANCHORS), ThermalPlant(), theta=1.0,
                  dt_s=1.0, window=100)


@pytest.mark.parametrize("build, field, message", [
    pytest.param(build, field, message, id=f"{name}-{field}")
    for name, build, field, message in [
        ("plant", ThermalPlant, "tau_air_s", "time constants must be > 0"),
        ("plant", ThermalPlant, "tau_dev_s", "time constants must be > 0"),
        ("plant", ThermalPlant, "t_air", _PLANT_TEMPS_RULE),
        ("plant", ThermalPlant, "t_dev", _PLANT_TEMPS_RULE),
        ("plant", lambda dt_s: ThermalPlant().step(dt_s), "dt_s",
         "dt_s must be > 0"),
        ("switching", SwitchingParams, "beta", _SWITCHING_RULE),
        ("switching", SwitchingParams, "n_tau", _SWITCHING_RULE),
        ("switching", SwitchingParams, "tau_ret", _SWITCHING_RULE),
        ("switching", SwitchingParams, "burn_in_gain",
         "burn_in_gain must be > 0"),
        ("feedforward", FeedforwardMap, "kappa",
         "kappa must be >= 0 (heating with load)"),
        ("neuron", _neuron, "theta", "theta must be > 0"),
        ("neuron", _neuron, "dt_s", _NEURON_RULE),
        ("schedule", partial(TemperatureSchedule, (T_MIN,)), "hold_s",
         "hold must be > 0 s"),
        ("fit", lambda r_ref: ThermalFit((LevelAnchor("a", r_ref, 0.5),)),
         "r_ref", "anchor resistances must be > 0"),
        ("fit", lambda r_ref: ThermalFit((LevelAnchor("a", 1e6, 0.5),
                                          LevelAnchor("b", r_ref, 0.3))),
         "r_ref", "anchor resistances must be > 0"),
        ("fit", lambda r_eff: ThermalFit(DEFAULT_ANCHORS).phi_for_state(r_eff),
         "r_eff", "r_eff must be > 0"),
    ]])
def test_rules_reject_nan(build, field, message):
    # a rule written as a rejection of x <= 0 would let NaN through
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(**{field: math.nan})
