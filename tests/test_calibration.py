"""Extraction, sensitivity, thermometry and nullcline-fit tests.

Round-trip oracles: the forward model generates the synthetic data, the
fits must recover the generating parameters.
"""
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from memthermo.calibration import (
    ExtractionError,
    ThermometerRangeError,
    _linear_fit,
    extract_thermionic,
    fit_switch_curve,
    invert_temperature,
    sensitivity_percent_per_K,
    thermometer_guard,
)
from memthermo.constants import T_MAX, T_MIN
from memthermo.device import (
    LEVEL_ORDER,
    MAX_TOTAL_DROP,
    MIN_TOTAL_DROP,
    PHI_APP_MIN,
    DeviceState,
    IVCurveSet,
    SwitchingParams,
    ThermionicParams,
    _brentq,
    read_resistance,
    rho_temperature_factor,
    thermionic_current,
    train_switch_fraction,
)
from memthermo.rng import substream
from memthermo.thermal import GRID_TEMPS, scrambled_schedule

TEMPS = (300.0, 330.0, 360.0)
VOLTAGES = [0.05 + 0.05 * k for k in range(8)]


def _synthetic_ivs(params: ThermionicParams,
                   temps=TEMPS, voltages=VOLTAGES) -> IVCurveSet:
    vs = tuple(-v for v in reversed(voltages)) + tuple(voltages)
    currents = tuple(
        tuple(thermionic_current(v, T, params) for v in vs)
        for T in temps
    )
    return IVCurveSet(temperatures=tuple(temps), voltages=vs,
                      currents=currents)


def test_extraction_round_trip_noise_free():
    truth = ThermionicParams(a_prefactor=2.4e-11, phi_b=0.112,
                             alpha_pos=0.05, alpha_neg=0.03)
    res = extract_thermionic(_synthetic_ivs(truth))
    assert res.physical
    assert res.params.a_prefactor == pytest.approx(truth.a_prefactor, rel=5e-3)
    assert res.params.phi_b == pytest.approx(truth.phi_b, rel=5e-3)
    assert res.params.alpha_pos == pytest.approx(truth.alpha_pos, rel=5e-3)
    assert res.params.alpha_neg == pytest.approx(truth.alpha_neg, rel=5e-3)
    assert res.stage1_r2_min > 0.999
    assert res.stage2_r2_pos > 0.999 and res.stage2_r2_neg > 0.999
    assert res.intercept_spread < 1e-9


def test_extraction_regenerates_currents_within_one_percent():
    truth = ThermionicParams(a_prefactor=1e-9, phi_b=0.2,
                             alpha_pos=0.03, alpha_neg=0.02)
    ivs = _synthetic_ivs(truth)
    fitted = extract_thermionic(ivs).params
    worst = 0.0
    for T, row in zip(ivs.temperatures, ivs.currents):
        for v, i in zip(ivs.voltages, row):
            regenerated = thermionic_current(v, T, fitted)
            worst = max(worst, abs(regenerated - i) / abs(i))
    assert worst <= 0.01


def test_extraction_zero_alpha_degenerate_case():
    truth = ThermionicParams(a_prefactor=5e-8, phi_b=0.15)
    res = extract_thermionic(_synthetic_ivs(truth))
    assert abs(res.alpha_pos) < 1e-9
    assert abs(res.alpha_neg) < 1e-9


def test_extraction_exposes_ohmic_misfit():
    # ohmic data: current independent of temperature, linear in voltage
    vs = tuple(-v for v in reversed(VOLTAGES)) + tuple(VOLTAGES)
    currents = tuple(tuple(v / 1e5 for v in vs) for _ in TEMPS)
    res = extract_thermionic(IVCurveSet(temperatures=TEMPS, voltages=vs,
                                        currents=currents))
    assert not res.physical
    assert res.params is None
    assert res.phi_b_pos < 0   # wrong-sign slope betrays the misfit
    # the per-voltage intercepts no longer share one ln(A)
    assert res.intercept_spread > 1.0
    thermionic = extract_thermionic(_synthetic_ivs(
        ThermionicParams(a_prefactor=1e-9, phi_b=0.2, alpha_pos=0.03)))
    assert res.stage1_r2_min < thermionic.stage1_r2_min


def test_extraction_rejects_nonpositive_currents():
    vs = (0.1, 0.2, 0.3)
    currents = tuple(tuple(0.0 for v in vs) for _ in TEMPS)
    with pytest.raises(ExtractionError, match="stage 1"):
        extract_thermionic(IVCurveSet(temperatures=TEMPS, voltages=vs,
                                      currents=currents))


def test_extraction_requires_minimum_coverage():
    truth = ThermionicParams(a_prefactor=1e-9, phi_b=0.2)
    with pytest.raises(ExtractionError, match="temperatures"):
        extract_thermionic(_synthetic_ivs(truth, temps=(300.0, 360.0)))
    with pytest.raises(ExtractionError, match="voltages"):
        extract_thermionic(_synthetic_ivs(truth, voltages=[0.1, 0.2]))


# ---------------------------------------------------------------------------
# sensitivity


def test_sensitivity_pristine_near_one_percent_per_kelvin(fit):
    state = DeviceState(r_persistent=3e6)
    temps = np.arange(300.0, 361.0, 10.0)
    reads = [read_resistance(state, fit, T) for T in temps]
    slope = sensitivity_percent_per_K(temps, reads)
    assert 0.85 <= abs(slope) <= 1.15
    assert slope < 0


def test_sensitivity_low_levels_within_band(fit):
    temps = np.arange(300.0, 361.0, 10.0)
    for r_ref in (250e3, 15e3):
        state = DeviceState(r_persistent=r_ref)
        reads = [read_resistance(state, fit, T) for T in temps]
        assert 0.28 <= abs(sensitivity_percent_per_K(temps, reads)) <= 0.66


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    drop=st.floats(0.0, 0.12),
    r300=st.floats(1e3, 1e7),
    steps=st.lists(st.floats(0.0, 1.0), min_size=len(GRID_TEMPS) - 1,
                   max_size=len(GRID_TEMPS) - 1),
)
# the extremal case: the whole 12 % drop in one step between 330 and 340 K
@example(seed=0, drop=0.12, r300=8e3, steps=[0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
def test_sensitivity_ceiling_for_bounded_monotone_drop(cfg, seed, drop, r300,
                                                       steps):
    # For a monotone non-increasing R(T) the least-squares slope is largest
    # when the whole drop is one step between 330 and 340 K. On the nine
    # scrambled holds (300 and 360 K visited twice) that is
    # 100 * drop * 90 / 4600, with 90 the sum of T - mean(T) above the step
    # and 4600 the sum of (T - mean(T))^2: 0.235 %/K at a 12 % drop. So the
    # lowest level's 11 % drop can never reach the 0.28 %/K band floor.
    total = sum(steps)
    cum = np.concatenate(([0.0], np.cumsum(steps)))
    cum = cum / total if total > 0 else cum
    r_of_t = dict(zip(GRID_TEMPS, r300 * (1.0 - drop * cum)))
    temps = scrambled_schedule(seed, cfg["schedule.hold_s"]).setpoints
    slope = sensitivity_percent_per_K(temps, [r_of_t[t] for t in temps])
    assert abs(slope) <= 0.236


def test_sensitivity_constant_trace_is_zero():
    temps = [300.0, 320.0, 340.0, 360.0]
    assert sensitivity_percent_per_K(temps, [1e6] * 4) == pytest.approx(0.0)


def test_sensitivity_requires_300K_baseline():
    with pytest.raises(ValueError, match="300"):
        sensitivity_percent_per_K([310.0, 320.0], [1e6, 9e5])


# ---------------------------------------------------------------------------
# thermometer


def test_invert_round_trip_at_anchor(fit):
    state = DeviceState(r_persistent=3e6)
    r = read_resistance(state, fit, 300.0)
    assert invert_temperature(r, fit, 3e6, guard=0.02) == 300.0


@pytest.mark.parametrize("r_eff", [3e6, 8e3])
def test_invert_round_trip_noise_free(fit, r_eff):
    state = DeviceState(r_persistent=r_eff)
    for T in range(300, 361, 10):
        r = read_resistance(state, fit, float(T))
        assert abs(invert_temperature(r, fit, r_eff, guard=0.02) - T) <= 0.5


def test_invert_monotone_decreasing_in_resistance(fit):
    state = DeviceState(r_persistent=3e6)
    rs = np.linspace(read_resistance(state, fit, 360.0),
                     read_resistance(state, fit, 300.0), 40)
    ts = [invert_temperature(r, fit, 3e6, guard=0.02) for r in rs]
    assert all(b < a for a, b in zip(ts, ts[1:]))


@pytest.mark.parametrize("r_eff", [0.0, -1.0, math.nan, math.inf])
def test_invert_rejects_a_bad_device_resistance(fit, r_eff):
    with pytest.raises(ValueError) as err:
        invert_temperature(1e6, fit, r_eff, guard=0.02)
    assert err.type is ValueError   # not a reading outside the band


def test_invert_guard_clamps_band_edges(fit):
    state = DeviceState(r_persistent=3e6)
    r300 = read_resistance(state, fit, 300.0)
    r360 = read_resistance(state, fit, 360.0)
    assert invert_temperature(r300 * 1.015, fit, 3e6, guard=0.02) == 300.0
    assert invert_temperature(r360 * 0.985, fit, 3e6, guard=0.02) == 360.0
    with pytest.raises(ThermometerRangeError) as err:
        invert_temperature(r300 * 1.05, fit, 3e6, guard=0.02)
    lo, hi = err.value.band
    assert lo == pytest.approx(r360) and hi == pytest.approx(r300)


def test_invert_noisy_monte_carlo_within_two_kelvin(fit):
    # 1 % multiplicative read noise, clipped log-normal, seeded stream;
    # the ~1-1.8 %/K pristine sensitivity bounds the error under 2 K.
    # Guard widened to the noise clip so band-edge readings clamp.
    rng = substream(123, "noise")
    state = DeviceState(r_persistent=3e6)
    guard = thermometer_guard(0.01, 0.0)
    worst = 0.0
    for T in range(300, 361, 10):
        r_true = read_resistance(state, fit, float(T))
        for _ in range(100):
            z = min(max(rng.standard_normal(), -2.5), 2.5)
            t_est = invert_temperature(r_true * math.exp(0.01 * z), fit, 3e6,
                                       guard=guard)
            worst = max(worst, abs(t_est - T))
    assert worst <= 2.0


# ---------------------------------------------------------------------------
# switching-curve fit


def _fraction_grid(params):
    rows = []
    for v in [round(0.7 + 0.1 * k, 1) for k in range(8)]:
        for T in range(310, 361, 10):
            rows.append((v, float(T), train_switch_fraction(v, float(T), params)))
    return rows


def test_switch_curve_exact_recovery(params):
    fitres = fit_switch_curve(_fraction_grid(params))
    assert fitres.g_14_310 == pytest.approx(params.g_14_310, abs=1e-9)
    assert fitres.g_14_360 == pytest.approx(params.g_14_360, abs=1e-9)
    assert fitres.beta == pytest.approx(params.beta, abs=1e-9)
    rebuilt = SwitchingParams(**{
        name: getattr(params, name) for name in SwitchingParams.__slots__
    } | dict(g_14_310=fitres.g_14_310, g_14_360=fitres.g_14_360,
             beta=fitres.beta))
    assert train_switch_fraction(1.4, 310.0, rebuilt) == pytest.approx(0.22)
    assert train_switch_fraction(1.4, 360.0, rebuilt) == pytest.approx(0.27)


def test_switch_curve_rejects_all_zero_grid():
    rows = [(0.1, 310.0, 0.0), (0.2, 330.0, 0.0), (0.3, 360.0, 0.0)]
    with pytest.raises(ExtractionError, match="below threshold|zero"):
        fit_switch_curve(rows)


def test_switch_curve_requires_anchor_coverage(params):
    rows = [(v, 310.0, train_switch_fraction(v, 310.0, params))
            for v in (0.8, 1.0, 1.2, 1.4)]
    with pytest.raises(ExtractionError, match="1.4 V"):
        fit_switch_curve(rows)


# ---------------------------------------------------------------------------
# the closed-form line fit against numpy's least squares


def _polyfit_line(x, y):
    """(slope, intercept, r2) as the fit was written on np.polyfit, with
    the deviations and residuals shifted by the power of two that brings
    the largest deviation into [0.5, 1) before squaring."""
    x, y = np.asarray(x), np.asarray(y)
    slope, intercept = np.polyfit(x, y, 1)
    e = -math.frexp(np.max(np.abs(y - y.mean())))[1]
    ss_res = np.sum(np.ldexp(y - (slope * x + intercept), e) ** 2)
    ss_tot = np.sum(np.ldexp(y - y.mean(), e) ** 2)
    return slope, intercept, 1.0 - ss_res / ss_tot


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=50, unique=True),
       st.floats(1e-3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
       st.floats(-1e3, 1e3), st.floats(0.0, 1e2),
       st.lists(st.floats(-1.0, 1.0), min_size=50, max_size=50))
def test_linear_fit_matches_polyfit(ks, x_scale, x_offset, slope, intercept,
                                    noise_scale, noise):
    x = [x_offset + k * x_scale for k in ks]
    y = [slope * xi + intercept + noise_scale * e for xi, e in zip(x, noise)]
    # well conditioned: the target varies well above its round-off, which
    # below the normal range is the absolute 5e-324 grid
    assume(max(y) - min(y) > max(1e-6 * max(map(abs, y)), sys.float_info.min))
    got, want = _linear_fit(x, y), _polyfit_line(x, y)
    y_scale = max(map(abs, y))
    # a slope or intercept below the normal range rounds on that grid
    tol = 1e-9 * np.maximum([y_scale / (max(x) - min(x)), y_scale, 1.0],
                            sys.float_info.min)
    for g, w, t in zip(got, want, tol):
        assert math.isclose(g, w, rel_tol=1e-9, abs_tol=t)


def test_linear_fit_tiny_target_keeps_a_finite_r2():
    # the squared deviations of this target underflow to 0 unscaled: the
    # fit once raised ZeroDivisionError here
    y = [0.0, 1.150578019349456e-175]
    assert _linear_fit([0.0, 1.0], y) == (y[1], 0.0, 1.0)
    assert math.isclose(_polyfit_line([0.0, 1.0], y)[2], 1.0, rel_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50, unique=True),
       st.floats(-1e6, 1e6))
def test_linear_fit_constant_target_is_a_perfect_flat_line(x, c):
    assert _linear_fit(x, [c] * len(x)) == (0.0, c, 1.0)


@pytest.mark.parametrize("x, y, match", [
    ([1.0], [2.0], "at least two"),
    ([3.0, 3.0, 3.0], [1.0, 2.0, 3.0], "abscissae identical"),
    ([1.0, 2.0, math.nan], [1.0, 2.0, 3.0], "non-finite"),
    ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0], "non-finite"),
    ([1.0, 2.0, 3.0], [math.nan] * 3, "non-finite"),
])
def test_linear_fit_rejects_degenerate_input(x, y, match):
    with pytest.raises(ExtractionError, match=match):
        _linear_fit(x, y)


# ---------------------------------------------------------------------------
# in-package Brent solver: same floats and errors as scipy.optimize.brentq


def _same_as_scipy(f, a, b, xtol):
    assert _brentq(f, a, b, xtol=xtol) == brentq(f, a, b, xtol=xtol)


@settings(max_examples=300, deadline=None)
@given(st.floats(MIN_TOTAL_DROP, MAX_TOTAL_DROP,
                 exclude_min=True, exclude_max=True),
       st.sampled_from([1e-14, 2e-12]))
def test_brentq_parity_barrier_residual(drop, xtol):
    def residual(phi):
        return rho_temperature_factor(T_MAX, phi) - (1.0 - drop)
    _same_as_scipy(residual, PHI_APP_MIN + 1e-12, 2.0, xtol)


@settings(max_examples=300, deadline=None)
@given(st.floats(math.log10(8e3), math.log10(3e6)),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.sampled_from([1e-3, 2e-12]))
def test_brentq_parity_thermometer_residual(fit, log_r, u, xtol):
    state = DeviceState(r_persistent=10.0 ** log_r)
    r_hi = read_resistance(state, fit, T_MIN)
    r_lo = read_resistance(state, fit, T_MAX)
    r_measured = r_lo + u * (r_hi - r_lo)
    _same_as_scipy(lambda T: read_resistance(state, fit, T) - r_measured,
                   T_MIN, T_MAX, xtol)


@pytest.fixture(scope="module")
def systems(build_system, state_at):
    return {level: build_system(device=state_at(level))
            for level in LEVEL_ORDER}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LEVEL_ORDER),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.sampled_from([1e-6, 2e-12]))
def test_brentq_parity_weight_sum_residual(systems, level, u, xtol):
    system = systems[level]
    s_hot = math.fsum(system.weights_at(T_MAX))
    s_cold = math.fsum(system.weights_at(T_MIN))
    target_sum = s_hot + u * (s_cold - s_hot)
    _same_as_scipy(lambda T: math.fsum(system.weights_at(T)) - target_sum,
                   T_MIN, T_MAX, xtol)


@pytest.mark.parametrize("f, a, b, kwargs", [
    pytest.param(lambda x: x * x + 1.0, -1.0, 2.0, {}, id="same-sign"),
    pytest.param(lambda x: 1e-200 if x < 1 else 2e-200, 0.0, 2.0, {},
                 id="same-sign-product-underflows"),
    pytest.param(lambda x: math.nan, 300.0, 360.0, {}, id="nan-at-a"),
    pytest.param(lambda x: math.nan if x > 1.5 else x - 1.2, 0.0, 2.0, {},
                 id="nan-at-b"),
    pytest.param(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.55,
                 0.0, 1.0, {}, id="nan-mid-run"),
    pytest.param(lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0, {"maxiter": 6},
                 id="no-convergence"),  # converges at maxiter=7
])
def test_brentq_errors_match_scipy(f, a, b, kwargs):
    with pytest.raises((ValueError, RuntimeError)) as theirs:
        brentq(f, a, b, **kwargs)
    with pytest.raises((ValueError, RuntimeError)) as ours:
        _brentq(f, a, b, **kwargs)
    assert type(ours.value) is type(theirs.value)
    assert str(ours.value) == str(theirs.value)
