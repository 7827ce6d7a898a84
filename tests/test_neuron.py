"""Homeostatic neuron system tests."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memthermo.cli import _trace_rows
from memthermo.config import REGISTRY
from memthermo.constants import K_B_EV, T_MAX, T_MIN, T_REF
from memthermo.csvio import emit_csv
from memthermo.device import CalibrationError, DeviceState
from memthermo.neuron import (
    N_SYNAPSES,
    FeedforwardMap,
    InputPattern,
    NeuronSystem,
    affine_gains,
    baseline_curve,
    calibrate_gain,
    run_homeostasis,
    settled_rate,
)
from memthermo.thermal import ThermalPlant


@pytest.fixture(scope="module")
def calibrate(cfg):
    """calibrate_gain with the configured loads, grid and gamma; keywords
    override."""
    def run(system, mode, **kwargs):
        return calibrate_gain(**{
            "loads": cfg.floats("calibrate.loads"), "system": system,
            "mode": mode, "kappa_grid": cfg.kappa_grid,
            "gamma": cfg["neuron.gamma"], **kwargs})
    return run


# the map of a baseline run without feedforward
_NO_FEEDFORWARD = FeedforwardMap(kappa=0.0)


def _per_step(res, column):
    """A column of res.segments (1: mean load, 2: setpoint), once per
    step of its segment."""
    return [seg[column] for seg in res.segments for _ in range(seg[0])]


# ---------------------------------------------------------------------------
# weights


def test_pristine_weight_at_hot_end(build_system, fit):
    system = build_system()
    w = system.weights_at(360.0)
    assert w == pytest.approx(np.full(25, 0.39), abs=1e-9)


def test_weights_strictly_decreasing_in_temperature(build_system):
    system = build_system()
    temps = np.arange(300.0, 361.0, 5.0)
    sums = [math.fsum(system.weights_at(T)) for T in temps]
    assert all(b < a for a, b in zip(sums, sums[1:]))


# ---------------------------------------------------------------------------
# stepping


def test_zero_input_never_spikes(build_system):
    system = build_system()
    drive = system.drive(0.0, _NO_FEEDFORWARD)
    for _ in range(100):
        assert system.step(drive) == 0
    assert system.accumulator == 0.0


def test_drive_equal_to_threshold_spikes_every_step(build_system):
    system = build_system(theta=25.0)   # drive = 25 * 1.0 at full load, 300 K
    drive = system.drive(1.0, _NO_FEEDFORWARD)
    fired = [system.step(drive) for _ in range(20)]
    assert all(f == 1 for f in fired[:3])   # before any heating bites


def test_long_run_rate_matches_drive_over_theta(build_system):
    # fixed temperature, constant load: spike count follows the exact
    # carry-over accumulator, verified against a brute-force loop
    system = build_system()
    fmap = FeedforwardMap(mode="fixed", t_fixed=300.0)
    drive = math.fsum(system.weights_at(300.0)) * 0.25
    steps = 500
    spikes = sum(system.step(system.drive(0.25, fmap)) for _ in range(steps))
    acc, expected = 0.0, 0
    for _ in range(steps):
        acc += drive
        while acc >= system.theta:
            acc -= system.theta
            expected += 1
    assert spikes == expected
    assert abs(spikes / steps - drive / system.theta) <= 1.0 / system.window


def test_accumulator_invariant_under_heavy_drive(build_system):
    system = build_system(theta=3.0)
    drive = system.drive(1.0, _NO_FEEDFORWARD)
    for _ in range(50):
        system.step(drive)
        assert 0.0 <= system.accumulator < system.theta


# ---------------------------------------------------------------------------
# feedforward map


def test_affine_map_anchors():
    fmap = FeedforwardMap(kappa=60.0)
    assert fmap.setpoint(0.0) == 300.0
    assert fmap.setpoint(1.0) == 360.0
    assert fmap.setpoint(0.25) == 315.0


def test_affine_map_clamps_to_chamber():
    fmap = FeedforwardMap(kappa=200.0)
    assert fmap.setpoint(0.9) == 360.0


def test_map_validation():
    with pytest.raises(ValueError):
        FeedforwardMap(kappa=-1.0)
    with pytest.raises(ValueError):
        FeedforwardMap(mode="table", table_loads=(0.1,), table_temps=(310.0,))
    with pytest.raises(ValueError, match="non-decreasing"):
        FeedforwardMap(mode="table", table_loads=(0.1, 0.2),
                       table_temps=(320.0, 310.0))
    fmap = FeedforwardMap()
    with pytest.raises(ValueError):
        fmap.setpoint(1.5)


@pytest.mark.parametrize("loads, temps, message", [
    pytest.param((0.1, math.nan), (300.0, 310.0),
                 "loads must be strictly increasing", id="load-nan"),
    pytest.param((0.1, 0.2), (math.nan, 310.0),
                 "temps must be non-decreasing", id="first-temp-nan"),
    pytest.param((0.1, 0.2), (300.0, math.nan),
                 "temps must be non-decreasing", id="last-temp-nan"),
])
def test_table_map_rejects_nan(loads, temps, message):
    # a rule written as a rejection of b <= a would let NaN through
    with pytest.raises(ValueError, match=f"^table {message}$"):
        FeedforwardMap(mode="table", table_loads=loads, table_temps=temps)


# ---------------------------------------------------------------------------
# gain calibration


@pytest.mark.parametrize("kappa_max, step, points", [
    (0.7, 0.1, 8), (0.3, 0.1, 4), (4.3, 0.1, 44),   # 0.7 / 0.1 = 6.999...
    (0.8, 0.1, 9), (240.0, 1.0, 241), (240.0, 0.1, 2401),
    (2401 * 0.1 - 1e-12, 0.1, 2401),   # a rounding short of the cap
])
def test_affine_gains_reach_kappa_max(kappa_max, step, points):
    assert affine_gains(kappa_max, step) == [k * step for k in range(points)]


def test_calibrate_single_load_tie_breaks_to_smallest_kappa(build_system,
                                                           calibrate):
    cal = calibrate(build_system(), "affine", loads=[0.25])
    assert cal.kappa == 0.0


def test_uncompensated_rates_strictly_increase_with_load(build_system,
                                                         calibrate):
    cal = calibrate(build_system(), "affine")
    assert all(b > a for a, b in
               zip(cal.rates_uncompensated, cal.rates_uncompensated[1:]))


@pytest.mark.parametrize("mode", ["affine", "table"])
def test_calibration_shrinks_cross_load_spread(build_system, calibrate, mode):
    cal = calibrate(build_system(), mode)
    assert cal.spread_calibrated < cal.spread_uncompensated
    # compensation must not destroy the monotone residual read-out
    assert all(b > a for a, b in
               zip(cal.rates_calibrated, cal.rates_calibrated[1:]))


def test_table_calibration_infeasible_range_raises(build_system, calibrate):
    with pytest.raises(CalibrationError, match="feasible"):
        calibrate(build_system(), "table", loads=[0.10, 0.25, 0.40])


def test_settled_rate_fixed_point_matches_simulation(build_system, calibrate):
    cal = calibrate(build_system(), "table")
    system = build_system()
    predicted = settled_rate(system, 0.30, cal.fmap)
    curve = baseline_curve([0.30], system, cal.fmap, settle_steps=6000,
                           measure_steps=4000)
    assert curve[0][1] == pytest.approx(predicted, abs=2e-3)


# ---------------------------------------------------------------------------
# homeostasis runs


@pytest.fixture(scope="module")
def table_map(build_system, calibrate):
    return calibrate(build_system(), "table").fmap


def test_negative_feedback_sign(build_system):
    cold = FeedforwardMap(mode="fixed", t_fixed=320.0)
    hot = FeedforwardMap(mode="fixed", t_fixed=350.0)
    system = build_system()
    assert settled_rate(system, 0.3, hot) < settled_rate(system, 0.3, cold)


def test_constant_pattern_rate_constant_after_settling(build_system,
                                                       table_map):
    system = build_system()
    res = run_homeostasis(InputPattern.constant(0.25, 6000), system,
                          table_map)
    rates = [r for _, t, r in res.window_rates() if t > 5000.0]
    assert max(rates) - min(rates) <= 1.0 / system.window + 1e-12


def _step_response(build_system, table_map, load_a, load_b):
    system = build_system()
    pattern = InputPattern(segments=((6000, load_a), (6000, load_b)))
    res = run_homeostasis(pattern, system, table_map)
    rates = res.window_rates()
    w = res.window
    pre = [r for k, _, r in rates if 5000 <= (k + 1) * w <= 6000]
    base = float(np.mean(pre))
    first_post = next(r for k, _, r in rates if k * w >= 6000)
    post_peak = max(abs(r - base) for k, _, r in rates
                    if 6000 <= k * w < 6000 + 10 * w)
    tail = [r for k, _, r in rates if k * w >= 6000 + 5 * 720]
    residual = float(np.mean(tail)) - base
    return base, first_post, post_peak, residual


def test_step_up_polarity_and_transient_dominance(build_system, table_map):
    base, first_post, peak, residual = _step_response(
        build_system, table_map, 0.20, 0.30)
    assert first_post > base          # polarity matches the input change
    assert residual > 0               # small distinct baseline shift
    assert peak >= 3.0 * abs(residual)


def test_step_down_polarity(build_system, table_map):
    base, first_post, peak, residual = _step_response(
        build_system, table_map, 0.30, 0.20)
    assert first_post < base
    assert residual < 0
    assert peak >= 3.0 * abs(residual)


def test_homeostasis_deterministic(build_system, table_map):
    pattern = InputPattern(segments=((500, 0.2), (500, 0.3)))
    a = run_homeostasis(pattern, build_system(), table_map)
    b = run_homeostasis(pattern, build_system(), table_map)
    assert np.array_equal(a.spikes, b.spikes)
    assert np.array_equal(a.t_dev, b.t_dev)


def test_both_windowings_emitted(build_system, table_map):
    system = build_system()
    res = run_homeostasis(InputPattern.constant(0.3, 2000), system, table_map)
    assert len(res.window_rates()) == 2000 // 25
    spike_windows = res.spike_count_windows()
    assert spike_windows, "no spike-count windows recorded"
    total_spikes = sum(res.spikes)
    assert len(spike_windows) == total_spikes // 25


# ---------------------------------------------------------------------------
# baseline curve


def test_baseline_zero_load_is_silent(build_system):
    curve = baseline_curve([0.0], build_system(), _NO_FEEDFORWARD,
                           settle_steps=50, measure_steps=200)
    assert curve[0][1] == 0.0


def test_baseline_without_feedforward_is_linear(cfg, build_system):
    curve = baseline_curve(cfg.floats("calibrate.loads"), build_system(),
                           _NO_FEEDFORWARD, settle_steps=200,
                           measure_steps=2000)
    loads = np.array([l for l, _ in curve])
    rates = np.array([r for _, r in curve])
    assert all(b > a for a, b in zip(rates, rates[1:]))
    slope, intercept = np.polyfit(loads, rates, 1)
    pred = slope * loads + intercept
    r2 = 1.0 - np.sum((rates - pred) ** 2) / np.sum((rates - rates.mean()) ** 2)
    assert r2 >= 0.95


def test_baseline_flattens_then_knees_above_operating_range(build_system,
                                                           table_map):
    # within the calibrated band compensation keeps the slope shallow;
    # past 0.40 the table clamps and the rate climbs uncompensated
    system = build_system()
    curve = baseline_curve([0.30, 0.40, 0.50, 0.60], system, table_map,
                           settle_steps=5000, measure_steps=2000)
    rates = dict(curve)
    slope_inside = (rates[0.40] - rates[0.30]) / 0.10
    slope_outside = (rates[0.60] - rates[0.50]) / 0.10
    assert slope_outside > 2.0 * slope_inside


def test_vector_loads_drive_the_same_mean_feedforward(build_system,
                                                      table_map):
    # a concentrated input and a uniform input with equal mean heat the
    # chamber identically but drive different synapse subsets
    hot = np.zeros(25)
    hot[:5] = 1.0
    uniform = InputPattern.constant(0.2, 300)
    concentrated = InputPattern(segments=((300, tuple(hot)),))
    res_u = run_homeostasis(uniform, build_system(), table_map)
    res_c = run_homeostasis(concentrated, build_system(), table_map)
    assert np.allclose(_per_step(res_u, 2), _per_step(res_c, 2))
    # identical synapses: equal drive, equal spike trains
    assert np.array_equal(res_u.spikes, res_c.spikes)


def test_pattern_parsing_and_validation():
    pattern = InputPattern.parse("0.20:100,0.35:50")
    assert pattern.total_steps == 150
    with pytest.raises(ValueError):
        InputPattern.parse("0.2")
    with pytest.raises(ValueError):
        InputPattern(segments=((0, 0.5),))
    with pytest.raises(ValueError):
        InputPattern(segments=((10, 1.5),))
    vec = InputPattern(segments=((5, tuple([0.5] * 25)),))
    assert vec.total_steps == 5


@pytest.mark.parametrize("load", [
    0.25, [0.5] * N_SYNAPSES, np.linspace(0.0, 1.0, N_SYNAPSES),
], ids=["scalar", "list", "ndarray"])
def test_pattern_accepts_scalar_and_vector_loads(load):
    assert InputPattern(segments=((3, load),)).total_steps == 3


@pytest.mark.parametrize("load, message", [
    pytest.param([0.5] * (N_SYNAPSES - 1), "load must be scalar or length 25",
                 id="length-24"),
    pytest.param([0.5] * (N_SYNAPSES - 1) + [1.5], "loads must lie in [0, 1]",
                 id="element-1.5"),
    pytest.param(float("nan"), "loads must lie in [0, 1]", id="nan"),
    pytest.param([0.5] * (N_SYNAPSES - 1) + [float("nan")],
                 "loads must lie in [0, 1]", id="element-nan"),
])
def test_pattern_rejects_bad_loads_as_before(load, message):
    # the messages of the numpy check the plain-Python one replaced
    with pytest.raises(ValueError) as exc:
        InputPattern(segments=((3, load),))
    assert str(exc.value) == message


def test_pattern_parses_the_default_pattern():
    assert (InputPattern.parse(REGISTRY["homeostasis.pattern"].default)
            == InputPattern(segments=((6000, 0.2), (6000, 0.3))))


def test_system_requires_exactly_25_synapses(cfg, fit):
    with pytest.raises(ValueError, match="25"):
        NeuronSystem(
            synapses=[DeviceState(r_persistent=1e6)] * 10,
            fit=fit, plant=ThermalPlant.packaged(), theta=cfg["neuron.theta"],
            dt_s=cfg["neuron.dt_s"], window=cfg["neuron.window"],
        )


# ---------------------------------------------------------------------------
# per-segment drives against the per-step loop


def _per_step_reference(pattern, system, fmap):
    """Transcription of the loop that rebuilds everything every step: it
    broadcasts the input, divides phi by kB, weighs each distinct barrier
    with one exp, adds the correctly rounded sum of weight times the sum
    of the loads on that barrier, and sets the plant from the feedforward
    map fmap on the correctly rounded input mean. Steps a copy of the system's
    plant; returns (spikes, mean_loads, t_dev, t_set, acc)."""
    phi = [system.fit.phi_for_state(s.r_eff) / K_B_EV
           for s in system.synapses]
    plant, acc = system.plant.copy(), system.accumulator
    spikes, mean_loads, t_dev, t_set = [], [], [], []
    for duration, load in pattern.segments:
        x = np.broadcast_to(np.atleast_1d(np.asarray(load, dtype=float)),
                            (N_SYNAPSES,)).tolist()
        for _ in range(int(duration)):
            T = plant.t_dev
            t_dev.append(T)
            acc += math.fsum(
                (T_REF / T) ** 2 * math.exp(b * (1.0 / T - 1.0 / T_REF))
                * math.fsum(xi for p, xi in zip(phi, x) if p == b)
                for b in sorted(set(phi)))
            n = 0
            if acc >= system.theta:
                n = int(acc // system.theta)
                acc -= n * system.theta
            spikes.append(n)
            mean = math.fsum(x) / N_SYNAPSES
            plant.set_setpoint(fmap.setpoint(mean))
            plant.step(system.dt_s)
            mean_loads.append(mean)
            t_set.append(plant.t_set)
    return spikes, mean_loads, t_dev, t_set, acc


_loads = st.one_of(
    st.floats(0.0, 1.0),
    st.lists(st.floats(0.0, 1.0), min_size=N_SYNAPSES,
             max_size=N_SYNAPSES).map(tuple),
)
_maps = st.one_of(
    st.builds(FeedforwardMap, kappa=st.floats(0.0, 200.0)),
    st.lists(st.floats(T_MIN, T_MAX), min_size=3, max_size=3).map(
        lambda temps: FeedforwardMap(mode="table",
                                     table_loads=(0.0, 0.4, 1.0),
                                     table_temps=tuple(sorted(temps)))),
    st.builds(FeedforwardMap, mode=st.just("fixed"),
              t_fixed=st.floats(T_MIN, T_MAX)),
)
# build_system keywords, and the run's map under "fmap"
_system_args = st.fixed_dictionaries(dict(
    fmap=_maps, spread_sigma=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1)))


# a warm-up (steps, load) runs the system before the test reads it, so
# the runs continue mid-run: the original and a copy taken there
_warmups = st.tuples(st.integers(0, 100), st.floats(0.0, 1.0))
# the plant at rest at 300 K, under the affine map at zero gain or the
# fixed map; and a plant that moves
_at_rest = dict(fmap=FeedforwardMap(kappa=0.0), spread_sigma=0.0, seed=0)
_fixed_300 = dict(fmap=FeedforwardMap(mode="fixed", t_fixed=T_REF),
                  spread_sigma=0.3, seed=1)
_moving = dict(fmap=FeedforwardMap(kappa=60.0), spread_sigma=0.3, seed=2)


def _build(build_system, system_args):
    """(system, map) of _system_args."""
    args = dict(system_args)
    fmap = args.pop("fmap")
    return build_system(**args), fmap


def _warm_up(system, warmup, fmap):
    """Run warmup = (steps, load[, map]) under its own map, if it names
    one, else under fmap."""
    steps, load, *own = warmup
    drive = system.drive(load, *own or [fmap])
    for _ in range(steps):
        system.step(drive)
    return system


@settings(max_examples=40, deadline=None)
@given(system_args=_system_args,
       segments=st.lists(st.tuples(st.integers(1, 300), _loads),
                         min_size=1, max_size=4),
       warmup=_warmups)
@example(system_args=_at_rest, segments=[(300, 0.3)], warmup=(0, 0.0))
@example(system_args=_fixed_300, segments=[(300, 0.6)], warmup=(0, 0.0))
# the drive changes while the device temperature stays at 300 K
@example(system_args=_at_rest, segments=[(50, 0.2), (50, 0.7)],
         warmup=(0, 0.0))
@example(system_args=_fixed_300, segments=[(50, 0.7)], warmup=(50, 0.2))
@example(system_args=_moving, segments=[(100, 0.5), (100, 0.2)],
         warmup=(100, 0.5))
# the device at the setpoint but the air not: the plant is off its fixed
# point, so it steps
@example(system_args=dict(_at_rest, plant=ThermalPlant(t_air=330.0)),
         segments=[(50, 0.3)], warmup=(0, 0.0))
# one system under two maps back to back: warmed up at a fixed 300 K, it
# runs at a fixed 360 K
@example(system_args=dict(_fixed_300,
                          fmap=FeedforwardMap(mode="fixed", t_fixed=T_MAX)),
         segments=[(100, 0.3)], warmup=(100, 0.3, _fixed_300["fmap"]))
def test_homeostasis_equals_per_step_loop_exactly(build_system, system_args,
                                                  segments, warmup):
    system, fmap = _build(build_system, system_args)
    system = _warm_up(system, warmup, fmap)
    pattern = InputPattern(segments=tuple(segments))
    spikes, mean_loads, t_dev, t_set, acc = _per_step_reference(
        pattern, system, fmap)
    for sim in (system.copy(), system):
        res = run_homeostasis(pattern, sim, fmap)
        assert res.spikes == spikes
        assert res.t_dev == t_dev
        assert _per_step(res, 2) == t_set
        assert _per_step(res, 1) == mean_loads
        assert sim.accumulator == acc


@settings(max_examples=60, deadline=None)
@given(system_args=_system_args | st.fixed_dictionaries(dict(
           fmap=st.builds(FeedforwardMap, mode=st.just("fixed"),
                          t_fixed=st.integers(300, 360)))),
       segments=st.lists(st.tuples(st.integers(1, 50), st.one_of(
           st.sampled_from([0.0, 1.0, 0.3]), _loads)), min_size=1,
           max_size=6))
def test_trace_rows_equal_the_per_row_writer(build_system, tmp_path_factory,
                                             system_args, segments):
    # the trace formats each segment's load and setpoint once; its bytes
    # are those of the rows built one step at a time
    pattern = InputPattern(segments=tuple(segments))
    res = run_homeostasis(pattern, *_build(build_system, system_args))
    out = tmp_path_factory.mktemp("trace")
    mean_loads, t_set = _per_step(res, 1), _per_step(res, 2)
    per_row = ((k, k * res.dt_s, mean_loads[k], t_set[k],
                res.t_dev[k], int(res.spikes[k])) for k in range(res.steps))
    for name, rows in (("per_row", per_row),
                       ("segments", _trace_rows(res))):
        emit_csv(out / f"{name}.csv", "homeostasis_trace", rows)
    assert ((out / "segments.csv").read_bytes()
            == (out / "per_row.csv").read_bytes())


@settings(max_examples=40, deadline=None)
@given(system_args=_system_args,
       loads=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       settle=st.integers(0, 200), measure=st.integers(1, 200),
       warmup=_warmups)
@example(system_args=_at_rest, loads=[0.3], settle=100, measure=100,
         warmup=(0, 0.0))
@example(system_args=_fixed_300, loads=[0.6], settle=100, measure=100,
         warmup=(0, 0.0))
@example(system_args=_at_rest, loads=[0.2, 0.7], settle=50, measure=50,
         warmup=(0, 0.0))
@example(system_args=_fixed_300, loads=[0.7], settle=50, measure=50,
         warmup=(50, 0.2))
@example(system_args=_moving, loads=[0.5, 0.2], settle=100, measure=100,
         warmup=(100, 0.5))
def test_baseline_curve_equals_per_step_loop_exactly(build_system,
                                                     system_args, loads,
                                                     settle, measure,
                                                     warmup):
    system, fmap = _build(build_system, system_args)
    system = _warm_up(system, warmup, fmap)
    expected = []
    for load in loads:
        segments = ((settle, load),) if settle else ()
        spikes = _per_step_reference(
            InputPattern(segments=segments + ((measure, load),)), system,
            fmap)[0]
        expected.append((load, sum(spikes[settle:]) / measure))
    assert baseline_curve(loads, system, fmap, settle, measure) == expected


@settings(max_examples=200, deadline=None)
@given(T=st.floats(T_MIN, T_MAX), spread_sigma=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1), load=_loads)
def test_step_increment_within_1e_12_of_the_array_formula(
        build_system, T, spread_sigma, seed, load):
    # the increment the step made as `float(weights_at(T) @ x)` on arrays:
    # np.exp and a BLAS dot against one exp per barrier and fsum
    system = build_system(theta=1e300, spread_sigma=spread_sigma, seed=seed)
    system.plant.t_dev = T
    system.step(system.drive(load, _NO_FEEDFORWARD))
    phi = np.array([system.fit.phi_for_state(s.r_eff)
                    for s in system.synapses]) / K_B_EV
    w = (T_REF / T) ** 2 * np.exp(phi * (1.0 / T - 1.0 / T_REF))
    x = np.broadcast_to(np.asarray(load, dtype=float), (N_SYNAPSES,))
    # below the normal range each product rounds on the 5e-324 grid
    assert math.isclose(system.accumulator, float(w @ x), rel_tol=1e-12,
                        abs_tol=N_SYNAPSES * 5e-324)


_knots = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6, unique=True)


@settings(max_examples=300, deadline=None)
@given(table=_knots.flatmap(lambda loads: st.tuples(
           st.just(tuple(sorted(loads))),
           st.lists(st.floats(T_MIN, T_MAX), min_size=len(loads),
                    max_size=len(loads)).map(lambda t: tuple(sorted(t))))),
       drawn=st.lists(st.floats(0.0, 1.0), max_size=5))
def test_table_setpoint_equals_np_interp(table, drawn):
    loads, temps = table
    fmap = FeedforwardMap(mode="table", table_loads=loads, table_temps=temps)
    # the knots, the ends of the load range (outside the table unless a
    # knot sits there) and loads between
    for load in [*loads, 0.0, 1.0, *drawn]:
        assert fmap.setpoint(load) == float(np.interp(load, loads, temps))
