"""Acceptance suite: one test per headline criterion, each printing a
machine-readable PASS/FAIL line (run with `pytest -s` to see them inline)
and then asserting its named checks.

Criterion 2 (per-level sensitivity) bands the levels the paper and the
device design give sensitivity targets for: pristine and L1 at
0.85-1.15 %/K, L2 and L3 at 0.28-0.66 %/K. The lowest level, L4, is
checked by its ratio to pristine instead. Its settled drop is pinned at
11 % over 300->360 K (criterion 1), and for any monotone R(T) on the
default scrambled schedule that drop caps the least-squares sensitivity
at 0.215 %/K (0.236 %/K on the plain 10 K grid; see the property test in
test_calibration.py), so L4 can never sit in the 0.28 %/K band. The
paper instead calls pristine vs L4 "a factor of roughly 6 in thermal
sensitivity", which criterion 2 checks as a pristine/L4 ratio in
[5.0, 7.0], the band criterion 1 applies to the drop ratio.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from memthermo.calibration import (
    extract_thermionic,
    invert_temperature,
    thermometer_guard,
)
from memthermo.cli import cli_dispatch
from memthermo.device import (
    DeviceState,
    IVCurveSet,
    ThermionicParams,
    apply_pulse_train,
    read_resistance,
    thermionic_current,
)
from memthermo.experiments import run_nullcline_sweep
from memthermo.neuron import FeedforwardMap, baseline_curve
from memthermo.rng import substream
from memthermo.thermal import TemperatureSchedule, settled

from golden import RUNS


def _claim(number: int, name: str, detail: str, **checks: bool) -> None:
    """Print the criterion's ACCEPTANCE line, then assert every check;
    the failure names each check that failed."""
    failed = [check for check, ok in checks.items() if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert not failed, f"{name}: {', '.join(failed)} failed ({detail})"


@pytest.fixture(scope="module")
def level_sweep(level_runs, fit):
    """Each level's drop and sensitivity, as `levels` writes them."""
    runs = level_runs(0, fit=fit)
    return SimpleNamespace(
        drops={lvl: res.total_drop() for lvl, res in runs.items()},
        sensitivities={lvl: res.sensitivity() for lvl, res in runs.items()})


def test_c01_static_sensitivity_regression(level_sweep):
    pristine = level_sweep.drops["pristine"]
    l4 = level_sweep.drops["L4"]
    ratio = pristine / l4
    _claim(1, "static-drops",
           f"pristine {pristine:.4f}, L4 {l4:.4f}, ratio {ratio:.2f}",
           pristine=abs(pristine - 0.61) <= 0.01, L4=abs(l4 - 0.11) <= 0.01,
           ratio=5.0 <= ratio <= 7.0)


def test_c02_per_level_sensitivity(level_sweep):
    sens = {k: abs(v) for k, v in level_sweep.sensitivities.items()}
    ratio = sens["pristine"] / sens["L4"]
    by_level = [sens[lvl] for lvl in ("pristine", "L1", "L2", "L3", "L4")]
    _claim(2, "per-level-sensitivity",
           ", ".join(f"{lvl} {sens[lvl]:.3f}" for lvl in sens)
           + f", pristine/L4 {ratio:.2f}",
           high_band=all(0.85 <= sens[lvl] <= 1.15
                         for lvl in ("pristine", "L1")),
           low_band=all(0.28 <= sens[lvl] <= 0.66 for lvl in ("L2", "L3")),
           # L4 is out of the low band: its 11 % drop (criterion 1) caps it
           # near 0.2 %/K. The paper's pristine/L4 factor of ~6 is checked.
           ratio=5.0 <= ratio <= 7.0,
           # |sensitivity| shrinks with the programmed resistance
           ordered=all(a > b for a, b in zip(by_level, by_level[1:])))


def test_c03_settling_criterion(cycle, fit):
    staircase = TemperatureSchedule(tuple(
        float(t)
        for t in [310, 320, 330, 340, 350, 360, 350, 340, 330, 320, 310, 300]
    ), 3600.0)
    res = cycle(schedule=staircase, fit=fit)
    at_hour, at_ten_minutes = [], []
    t_prev = 0.0   # a hold's reads are those after the previous hold's end
    for hold in res.holds:
        in_hold = [(t, r) for t, r in zip(res.t_s, res.r_ohm)
                   if t_prev < t <= hold.t_end_s]
        t_prev = hold.t_end_s
        times = [t for t, _ in in_hold]
        reads = [r for _, r in in_hold]
        at_hour.append(settled(times, reads))
        n = sum(t <= times[0] + 600.0 - 1e-9 for t in times)
        at_ten_minutes.append(settled(times[:n], reads[:n]))
    passed = sum(a is True and b is False
                 for a, b in zip(at_hour, at_ten_minutes))
    _claim(3, "settling-criterion",
           f"{passed} ten-kelvin holds settled at 1 h, unsettled at 10 min",
           settled_at_1_h=all(a is True for a in at_hour),
           unsettled_at_10_min=all(b is False for b in at_ten_minutes))


def test_c04_revisit_repeatability(cycle, fit, revisit):
    with_drift = [revisit(cycle(seed, fit=fit, drift_scale=0.05), 300.0)
                  for seed in range(5)]
    without = revisit(cycle(0, fit=fit), 300.0)
    _claim(4, "revisit-repeatability",
           f"drift on max {max(with_drift):.4f}, drift off {without:.2e}",
           drift_on=max(with_drift) <= 0.05, drift_off=without <= 1e-9)


def test_c05_learning_rate_invariance(hsr_args, state_at, fit, params):
    temps = [310.0, 320.0, 330.0, 340.0, 350.0, 360.0]
    fractions = []
    for T in temps:
        state = DeviceState(r_persistent=1e6)
        after, _ = apply_pulse_train(state, 1.5, 200, T, params, fit)
        fractions.append(after.r_eff / state.r_eff - 1.0)
    spread = (max(fractions) - min(fractions)) / np.mean(fractions)

    grid = {(v, T): f
            for v, T, f in run_nullcline_sweep(**{
                **hsr_args, "state": state_at("L1"), "fit": fit,
                "params": params})}
    a310, a360 = grid[(1.4, 310.0)], grid[(1.4, 360.0)]
    _claim(5, "learning-rate-invariance",
           f"1.5 V spread {spread:.4f}, anchors {a310:.4f}/{a360:.4f}",
           spread=spread <= 0.10, anchor_310=abs(a310 - 0.22) <= 0.01,
           anchor_360=abs(a360 - 0.27) <= 0.01)


def test_c06_read_purity(fit):
    state = DeviceState(r_persistent=1e6, r_volatile_excess=1.5e4,
                        pulse_count=3)
    snapshot = DeviceState(state.r_persistent, state.r_volatile_excess,
                           state.pulse_count, state.era)
    for k in range(10_000):
        read_resistance(state, fit, 300.0 + (k % 61))
    _claim(6, "read-purity", "10^4 reads at 0.2 V, state bit-identical",
           unchanged=state == snapshot)


def test_c07_signature_round_trip(physical):
    truth = ThermionicParams(a_prefactor=2.4e-11, phi_b=0.112,
                             alpha_pos=0.05, alpha_neg=0.03)
    voltages = [0.05 + 0.05 * k for k in range(8)]
    vs = tuple(-v for v in reversed(voltages)) + tuple(voltages)
    ivs = IVCurveSet(
        temperatures=(300.0, 330.0, 360.0),
        voltages=vs,
        currents=tuple(tuple(thermionic_current(v, T, truth) for v in vs)
                       for T in (300.0, 330.0, 360.0)),
    )
    rows = extract_thermionic(ivs)
    fitted = physical(rows)
    errs = [
        abs(fitted.a_prefactor / truth.a_prefactor - 1.0),
        abs(fitted.phi_b / truth.phi_b - 1.0),
        abs(fitted.alpha_pos / truth.alpha_pos - 1.0),
        abs(fitted.alpha_neg / truth.alpha_neg - 1.0),
    ]
    r2s = [rows[0].r2_stage1_min, *(row.r2_stage2 for row in rows)]
    _claim(7, "signature-round-trip",
           f"max rel err {max(errs):.2e}, min r2 {min(r2s):.6f}",
           rel_err=max(errs) <= 0.005, r2=min(r2s) > 0.999)


def test_c08_thermometer_round_trip(fit):
    state = DeviceState(r_persistent=3e6)
    worst_clean = 0.0
    for T in range(300, 361, 10):
        r = read_resistance(state, fit, float(T))
        worst_clean = max(worst_clean,
                          abs(invert_temperature(r, fit, 3e6, guard=0.02)
                              - T))

    rng = substream(2024, "noise")
    guard = thermometer_guard(0.01, 0.0)
    worst_noisy = 0.0
    for T in range(300, 361, 10):
        r_true = read_resistance(state, fit, float(T))
        for _ in range(100):
            z = min(max(rng.standard_normal(), -2.5), 2.5)
            t_est = invert_temperature(r_true * math.exp(0.01 * z), fit, 3e6,
                                       guard=guard)
            worst_noisy = max(worst_noisy, abs(t_est - T))
    _claim(8, "thermometer-round-trip",
           f"noise-free {worst_clean:.3f} K, 1 % noise {worst_noisy:.3f} K",
           noise_free=worst_clean <= 0.5, noisy=worst_noisy <= 2.0)


def test_c09_homeostasis_properties(build_system, table_map, step_response):
    base_up, first_up, peak_up, resid_up = step_response(0.20, 0.30)
    base_dn, first_dn, peak_dn, resid_dn = step_response(0.30, 0.20)

    curve = baseline_curve((0.15, 0.20, 0.25, 0.30, 0.35, 0.40),
                           build_system(), table_map,
                           settle_steps=5000, measure_steps=2000)
    rates = [r for _, r in curve]
    monotone = all(b > a for a, b in zip(rates, rates[1:]))
    polarity = first_up > base_up and first_dn < base_dn
    _claim(9, "homeostasis-properties",
           f"polarity {polarity}, peak/residual "
           f"{peak_up / abs(resid_up):.2f} up / "
           f"{peak_dn / abs(resid_dn):.2f} down, monotone {monotone}",
           polarity=polarity, monotone=monotone,
           dominance=(peak_up >= 3.0 * abs(resid_up)
                      and peak_dn >= 3.0 * abs(resid_dn)))


def test_c10_baseline_linearity(build_system):
    curve = baseline_curve((0.15, 0.20, 0.25, 0.30, 0.35, 0.40),
                           build_system(), FeedforwardMap(kappa=0.0),
                           settle_steps=500, measure_steps=2000)
    loads = np.array([l for l, _ in curve])
    rates = np.array([r for _, r in curve])
    monotone = all(b > a for a, b in zip(rates, rates[1:]))
    slope, intercept = np.polyfit(loads, rates, 1)
    pred = slope * loads + intercept
    r2 = 1.0 - float(np.sum((rates - pred) ** 2)
                     / np.sum((rates - rates.mean()) ** 2))
    _claim(10, "baseline-linearity", f"monotone {monotone}, r2 {r2:.5f}",
           monotone=monotone, r2=r2 >= 0.95)


def test_c11_determinism_all_subcommands(tmp_path, capsys):
    codes, same = [], []
    for command, extra in RUNS.items():
        first, second = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
        codes.append(cli_dispatch([command, "--out", str(first),
                                   "--seed", "17", *extra]))
        codes.append(cli_dispatch([command, "--config",
                                   str(first / "manifest.txt"),
                                   "--out", str(second)]))
        for csv in sorted(first.glob("*.csv")):
            rerun = second / csv.name
            same.append(rerun.is_file()
                        and csv.read_bytes() == rerun.read_bytes())
    capsys.readouterr()
    _claim(11, "determinism",
           f"{sum(same)} CSV files byte-identical across manifest reruns",
           runs_exit_0=codes == [0] * len(codes), reruns_identical=all(same))


def test_c12_differential_response_shrinks_with_temperature(fit,
                                                            shift_response):
    shrinking = []
    for phi in fit.phi_of_anchor:
        d310 = shift_response(310.0, phi, 1e-4)
        d360 = shift_response(360.0, phi, 1e-4)
        shrinking.append(abs(d310) > abs(d360))
    _claim(12, "differential-response",
           f"all {len(shrinking)} calibrated barriers shrink 310->360 K",
           shrinking=all(shrinking))
