"""Acceptance suite: one test per headline criterion, each printing a
machine-readable PASS/FAIL line (run with `pytest -s` to see them inline).

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
    barrier_shift_response,
    read_resistance,
    thermionic_current,
)
from memthermo.experiments import run_nullcline_sweep
from memthermo.neuron import (
    FeedforwardMap,
    InputPattern,
    baseline_curve,
    calibrate_gain,
    run_homeostasis,
)
from memthermo.rng import substream
from memthermo.thermal import TemperatureSchedule, settled

from test_golden import RUNS


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")


@pytest.fixture(scope="module")
def level_sweep(level_runs, fit):
    """Each level's drop and sensitivity, as `levels` writes them."""
    runs = level_runs(0, fit=fit)
    return SimpleNamespace(
        drops={lvl: res.total_drop() for lvl, res in runs.items()},
        sensitivities={lvl: res.sensitivity() for lvl, res in runs.items()})


@pytest.fixture(scope="module")
def table_map(cfg, build_system):
    return calibrate_gain(cfg.floats("calibrate.loads"), build_system(),
                          mode="table", kappa_grid=cfg.kappa_grid,
                          gamma=cfg["neuron.gamma"]).fmap


def test_c01_static_sensitivity_regression(level_sweep):
    pristine = level_sweep.drops["pristine"]
    l4 = level_sweep.drops["L4"]
    ratio = pristine / l4
    ok = (abs(pristine - 0.61) <= 0.01 and abs(l4 - 0.11) <= 0.01
          and 5.0 <= ratio <= 7.0)
    _report(1, "static-drops", ok,
            f"pristine {pristine:.4f}, L4 {l4:.4f}, ratio {ratio:.2f}")
    assert abs(pristine - 0.61) <= 0.01
    assert abs(l4 - 0.11) <= 0.01
    assert 5.0 <= ratio <= 7.0


def test_c02_per_level_sensitivity(level_sweep):
    sens = {k: abs(v) for k, v in level_sweep.sensitivities.items()}
    high_ok = all(0.85 <= sens[lvl] <= 1.15 for lvl in ("pristine", "L1"))
    low_ok = all(0.28 <= sens[lvl] <= 0.66 for lvl in ("L2", "L3"))
    # L4 is out of the low band: its 11 % drop (criterion 1) caps it near
    # 0.2 %/K. The paper's pristine/L4 factor of ~6 is checked instead.
    ratio = sens["pristine"] / sens["L4"]
    ratio_ok = 5.0 <= ratio <= 7.0
    # |sensitivity| shrinks with the programmed resistance
    by_level = [sens[lvl] for lvl in ("pristine", "L1", "L2", "L3", "L4")]
    ordered = all(a > b for a, b in zip(by_level, by_level[1:]))
    detail = (", ".join(f"{lvl} {sens[lvl]:.3f}" for lvl in sens)
              + f", pristine/L4 {ratio:.2f}")
    _report(2, "per-level-sensitivity",
            high_ok and low_ok and ratio_ok and ordered, detail)
    assert high_ok, detail
    assert low_ok, detail
    assert ratio_ok, detail
    assert ordered, detail


def test_c03_settling_criterion(cycle, fit):
    staircase = TemperatureSchedule(tuple(
        float(t)
        for t in [310, 320, 330, 340, 350, 360, 350, 340, 330, 320, 310, 300]
    ), 3600.0)
    res = cycle(schedule=staircase, fit=fit)
    checked = 0
    for hold in res.holds:
        in_hold = [(t, r) for t, r in zip(res.t_s, res.r_ohm)
                   if hold.t_start_s <= t <= hold.t_end_s]
        times = [t for t, _ in in_hold]
        reads = [r for _, r in in_hold]
        assert settled(times, reads) is True
        ten_minutes = [i for i, t in enumerate(times)
                       if t <= times[0] + 600.0 - 1e-9]
        assert settled(times[:len(ten_minutes)],
                       reads[:len(ten_minutes)]) is False
        checked += 1
    _report(3, "settling-criterion", True,
            f"{checked} ten-kelvin holds settled at 1 h, unsettled at 10 min")


def test_c04_revisit_repeatability(cycle, fit):
    with_drift = [
        cycle(seed, fit=fit, drift_scale=0.05).revisit_discrepancy(300.0)
        for seed in range(5)
    ]
    without = cycle(0, fit=fit).revisit_discrepancy(300.0)
    ok = max(with_drift) <= 0.05 and without <= 1e-9
    _report(4, "revisit-repeatability", ok,
            f"drift on max {max(with_drift):.4f}, drift off {without:.2e}")
    assert max(with_drift) <= 0.05
    assert without <= 1e-9


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
    ok = (spread <= 0.10 and abs(a310 - 0.22) <= 0.01
          and abs(a360 - 0.27) <= 0.01)
    _report(5, "learning-rate-invariance", ok,
            f"1.5 V spread {spread:.4f}, anchors {a310:.4f}/{a360:.4f}")
    assert spread <= 0.10
    assert a310 == pytest.approx(0.22, abs=0.01)
    assert a360 == pytest.approx(0.27, abs=0.01)


def test_c06_read_purity(fit):
    state = DeviceState(r_persistent=1e6, r_volatile_excess=1.5e4,
                        pulse_count=3)
    snapshot = DeviceState(state.r_persistent, state.r_volatile_excess,
                           state.pulse_count, state.era)
    for k in range(10_000):
        read_resistance(state, fit, 300.0 + (k % 61))
    ok = state == snapshot
    _report(6, "read-purity", ok, "10^4 reads at 0.2 V, state bit-identical")
    assert state == snapshot


def test_c07_signature_round_trip():
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
    res = extract_thermionic(ivs)
    errs = [
        abs(res.params.a_prefactor / truth.a_prefactor - 1.0),
        abs(res.params.phi_b / truth.phi_b - 1.0),
        abs(res.params.alpha_pos / truth.alpha_pos - 1.0),
        abs(res.params.alpha_neg / truth.alpha_neg - 1.0),
    ]
    r2s = [res.stage1_r2_min, res.stage2_r2_pos, res.stage2_r2_neg]
    ok = max(errs) <= 0.005 and min(r2s) > 0.999
    _report(7, "signature-round-trip", ok,
            f"max rel err {max(errs):.2e}, min r2 {min(r2s):.6f}")
    assert max(errs) <= 0.005
    assert min(r2s) > 0.999


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
    ok = worst_clean <= 0.5 and worst_noisy <= 2.0
    _report(8, "thermometer-round-trip", ok,
            f"noise-free {worst_clean:.3f} K, 1 % noise {worst_noisy:.3f} K")
    assert worst_clean <= 0.5
    assert worst_noisy <= 2.0


def _step_response(build_system, table_map, load_a, load_b):
    system = build_system()
    pattern = InputPattern(segments=((6000, load_a), (6000, load_b)))
    res = run_homeostasis(pattern, system, table_map)
    rates = res.window_rates()
    w = res.window
    base = float(np.mean([r for k, _, r in rates
                          if 5000 <= (k + 1) * w <= 6000]))
    first_post = next(r for k, _, r in rates if k * w >= 6000)
    peak = max(abs(r - base) for k, _, r in rates
               if 6000 <= k * w < 6000 + 10 * w)
    tail = [r for k, _, r in rates
            if k * w >= 6000 + 5 * system.plant.tau_dev_s / system.dt_s]
    residual = float(np.mean(tail)) - base
    return base, first_post, peak, residual


def test_c09_homeostasis_properties(build_system, table_map):
    base_up, first_up, peak_up, resid_up = _step_response(
        build_system, table_map, 0.20, 0.30)
    base_dn, first_dn, peak_dn, resid_dn = _step_response(
        build_system, table_map, 0.30, 0.20)

    curve = baseline_curve((0.15, 0.20, 0.25, 0.30, 0.35, 0.40),
                           build_system(), table_map,
                           settle_steps=5000, measure_steps=2000)
    rates = [r for _, r in curve]
    monotone = all(b > a for a, b in zip(rates, rates[1:]))

    polarity = first_up > base_up and first_dn < base_dn
    dominance = (peak_up >= 3.0 * abs(resid_up)
                 and peak_dn >= 3.0 * abs(resid_dn))
    ok = polarity and dominance and monotone
    _report(9, "homeostasis-properties", ok,
            f"polarity {polarity}, peak/residual "
            f"{peak_up / abs(resid_up):.2f} up / "
            f"{peak_dn / abs(resid_dn):.2f} down, monotone {monotone}")
    assert polarity
    assert dominance
    assert monotone


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
    ok = monotone and r2 >= 0.95
    _report(10, "baseline-linearity", ok, f"monotone {monotone}, r2 {r2:.5f}")
    assert monotone
    assert r2 >= 0.95


def test_c11_determinism_all_subcommands(tmp_path, capsys):
    checked = 0
    for command, extra in RUNS.items():
        first = tmp_path / f"{command}_a"
        assert cli_dispatch([command, "--out", str(first), "--seed", "17",
                             *extra]) == 0
        second = tmp_path / f"{command}_b"
        assert cli_dispatch([command, "--config",
                             str(first / "manifest.txt"),
                             "--out", str(second)]) == 0
        for csv_a in sorted(first.glob("*.csv")):
            csv_b = second / csv_a.name
            assert csv_a.read_bytes() == csv_b.read_bytes(), (
                f"{command}/{csv_a.name} differs between identical runs")
            checked += 1
    capsys.readouterr()
    _report(11, "determinism", True,
            f"{checked} CSV files byte-identical across manifest reruns")


def test_c12_differential_response_shrinks_with_temperature(fit):
    shrinking = []
    for phi in fit.phi_of_anchor:
        d310 = barrier_shift_response(310.0, phi, 1e-4)
        d360 = barrier_shift_response(360.0, phi, 1e-4)
        shrinking.append(abs(d310) > abs(d360))
    ok = all(shrinking)
    _report(12, "differential-response", ok,
            f"all {len(shrinking)} calibrated barriers shrink 310->360 K")
    assert ok
