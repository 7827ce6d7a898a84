"""Thermal plant, settling criterion, and schedule generation."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from memthermo.constants import T_MAX, T_MIN
from memthermo.thermal import (
    PRESET_TAU_DEV_S,
    SETTLE_THRESHOLD,
    SETTLE_WINDOW_S,
    TemperatureSchedule,
    ThermalPlant,
    scrambled_schedule,
    settled,
)


def _ode_oracle(plant: ThermalPlant, dt: float):
    """Independent high-accuracy integration of the cascade ODEs."""
    def rhs(_, y):
        t_air, t_dev = y
        return [(plant.t_set - t_air) / plant.tau_air_s,
                (t_air - t_dev) / plant.tau_dev_s]

    sol = solve_ivp(rhs, (0.0, dt), [plant.t_air, plant.t_dev],
                    rtol=1e-12, atol=1e-12, dense_output=False)
    return sol.y[0][-1], sol.y[1][-1]


_TAUS = st.one_of(st.sampled_from([1e-3, 60.0, 180.0, 720.0, 1e6]),
                 st.floats(1e-3, 1e6))


@settings(max_examples=300, deadline=None)
@given(tau_air=_TAUS, tau_dev=_TAUS, equal=st.booleans(),
       dt=st.one_of(st.sampled_from([1e-9, 0.1, 1.0, 123.0, 1e9]),
                    st.floats(1e-9, 1e9)),
       t=st.one_of(st.sampled_from([T_MIN, T_MAX]), st.floats(T_MIN, T_MAX)),
       steps=st.integers(1, 200))
@example(tau_air=180.0, tau_dev=720.0, equal=False, dt=123.0, t=330.0,
         steps=1)
def test_plant_fixed_point(tau_air, tau_dev, equal, dt, t, steps):
    # a plant with air and device at the setpoint steps to itself, bit for
    # bit, for any time constants (equal, air slower or faster) and dt: the
    # neuron loop skips such steps
    plant = ThermalPlant(t_set=t, t_air=t, t_dev=t, tau_air_s=tau_air,
                         tau_dev_s=tau_air if equal else tau_dev)
    for k in range(steps):
        plant.step(dt)
        assert (plant.t_set, plant.t_air, plant.t_dev) == (t, t, t), k


def test_plant_long_step_reaches_setpoint():
    plant = ThermalPlant()
    plant.set_setpoint(360.0)
    plant.step(1e9)
    assert plant.t_air == pytest.approx(360.0, abs=1e-9)
    assert plant.t_dev == pytest.approx(360.0, abs=1e-9)


def test_plant_ten_kelvin_step_settles_within_tenth_kelvin():
    plant = ThermalPlant()
    plant.set_setpoint(310.0)
    plant.step(3600.0)
    assert abs(plant.t_dev - 310.0) < 0.1
    # cross-check against an independent ODE integration
    fresh = ThermalPlant()
    fresh.set_setpoint(310.0)
    air, dev = _ode_oracle(fresh, 3600.0)
    assert plant.t_air == pytest.approx(air, abs=1e-8)
    assert plant.t_dev == pytest.approx(dev, abs=1e-8)


def test_plant_matches_ode_oracle_mid_transient():
    plant = ThermalPlant(t_set=352.0, t_air=311.5, t_dev=304.25)
    oracle_air, oracle_dev = _ode_oracle(plant, 457.0)
    plant.step(457.0)
    assert plant.t_air == pytest.approx(oracle_air, abs=1e-8)
    assert plant.t_dev == pytest.approx(oracle_dev, abs=1e-8)


def test_plant_equal_time_constants_branch():
    plant = ThermalPlant(t_set=340.0, tau_air_s=200.0, tau_dev_s=200.0)
    oracle_air, oracle_dev = _ode_oracle(plant, 600.0)
    plant.step(600.0)
    assert plant.t_air == pytest.approx(oracle_air, abs=1e-8)
    assert plant.t_dev == pytest.approx(oracle_dev, abs=1e-8)


@settings(max_examples=80, deadline=None)
@given(
    dt=st.floats(min_value=1.0, max_value=7200.0),
    t_set=st.floats(min_value=300.0, max_value=360.0),
    t_air=st.floats(min_value=300.0, max_value=360.0),
    t_dev=st.floats(min_value=300.0, max_value=360.0),
)
def test_plant_substep_invariance(dt, t_set, t_air, t_dev):
    one = ThermalPlant(t_set=t_set, t_air=t_air, t_dev=t_dev)
    two = one.copy()
    one.step(dt)
    two.step(dt / 2.0)
    two.step(dt / 2.0)
    assert one.t_dev == pytest.approx(two.t_dev, rel=1e-12, abs=1e-10)
    assert one.t_air == pytest.approx(two.t_air, rel=1e-12, abs=1e-10)


def _step_uncached(plant: ThermalPlant, dt_s: float):
    """ThermalPlant.step as written before it kept its decay factors."""
    ta, td = plant.tau_air_s, plant.tau_dev_s
    ea = math.exp(-dt_s / ta)
    ed = math.exp(-dt_s / td)
    b = plant.t_air - plant.t_set
    if abs(ta - td) < 1e-9 * max(ta, td):
        dev = (b * dt_s / td) * ed + (plant.t_dev - plant.t_set) * ed
    else:
        k = b * ta / (ta - td)
        c = (plant.t_dev - plant.t_set) - k
        dev = k * ea + c * ed
    plant.t_air = plant.t_set + b * ea
    plant.t_dev = plant.t_set + dev


_OP_TAUS = st.one_of(st.sampled_from([60.0, 180.0, 720.0]),
                     st.floats(1.0, 1e4))
_PLANT_OPS = st.lists(st.one_of(
    st.tuples(st.just("step"), st.one_of(st.sampled_from([0.1, 6.0, 30.0]),
                                         st.floats(1e-3, 1e4))),
    st.tuples(st.just("tau_air_s"), _OP_TAUS),
    st.tuples(st.just("tau_dev_s"), _OP_TAUS),
    st.tuples(st.just("t_set"), st.sampled_from([300.0, 330.0, 360.0])),
), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(_PLANT_OPS)
def test_plant_step_reuses_factors_bit_for_bit(ops):
    # steps of mixed dt between edits of the time constants (equal ones
    # included) track the uncached form with ==
    plant, oracle = ThermalPlant(), ThermalPlant()
    for op, value in ops:
        if op == "step":
            plant.step(value)
            _step_uncached(oracle, value)
        else:
            setattr(plant, op, value)
            setattr(oracle, op, value)
        assert (plant.t_air, plant.t_dev) == (oracle.t_air, oracle.t_dev)


@settings(max_examples=40, deadline=None)
@given(
    setpoints=st.lists(
        st.sampled_from([300.0, 310.0, 320.0, 330.0, 340.0, 350.0, 360.0]),
        min_size=1, max_size=6),
    dt=st.floats(min_value=5.0, max_value=600.0),
)
def test_plant_never_overshoots_setpoint_envelope(setpoints, dt):
    plant = ThermalPlant()
    lo, hi = plant.t_dev, plant.t_dev
    for t_set in setpoints:
        plant.set_setpoint(t_set)
        lo, hi = min(lo, t_set), max(hi, t_set)
        for _ in range(20):
            plant.step(dt)
            assert lo - 1e-9 <= plant.t_dev <= hi + 1e-9
            assert lo - 1e-9 <= plant.t_air <= hi + 1e-9


def test_plant_validates_setpoint_and_constants():
    with pytest.raises(ValueError):
        ThermalPlant(t_set=290.0)
    with pytest.raises(ValueError):
        ThermalPlant(tau_air_s=0.0)
    with pytest.raises(ValueError, match="must be finite"):
        ThermalPlant(t_air=math.inf)
    with pytest.raises(ValueError, match="must be finite"):
        ThermalPlant(t_dev=-math.inf)
    with pytest.raises(ValueError, match=r"must lie in \[300.0, 360.0\] K"):
        ThermalPlant(t_air=299.0)
    with pytest.raises(ValueError, match=r"must lie in \[300.0, 360.0\] K"):
        ThermalPlant(t_dev=361.0)
    plant = ThermalPlant()
    with pytest.raises(ValueError):
        plant.set_setpoint(365.0)


def test_on_wafer_preset_is_faster():
    assert PRESET_TAU_DEV_S["on_wafer"] == 60.0 < \
        PRESET_TAU_DEV_S["packaged"] == ThermalPlant().tau_dev_s == 720.0


# ---------------------------------------------------------------------------
# settling criterion


def _simulated_hold(hold_s, dt=6.0, t_from=300.0, t_to=310.0, phi=0.0895):
    plant = ThermalPlant(t_set=t_from, t_air=t_from, t_dev=t_from)
    plant.set_setpoint(t_to)
    times, reads = [], []
    t = 0.0
    for _ in range(int(hold_s / dt)):
        plant.step(dt)
        t += dt
        times.append(t)
        rho = (300.0 / plant.t_dev) ** 2 * math.exp(
            (phi / 8.617333262e-5) * (1.0 / plant.t_dev - 1.0 / 300.0))
        reads.append(1e6 * rho)
    return times, reads


def test_settled_true_for_flat_history():
    times = list(np.arange(6.0, 1200.0, 6.0))
    assert settled(times, [5e5] * len(times)) is True


def test_settled_after_one_hour_false_at_ten_minutes():
    times, reads = _simulated_hold(3600.0)
    assert settled(times, reads) is True
    ten_min = 100   # 600 s at 6 s cadence
    assert settled(times[:ten_min], reads[:ten_min]) is False


def test_settled_insufficient_history_is_not_false():
    times, reads = _simulated_hold(300.0)
    assert settled(times, reads) is None
    assert settled([1.0], [2.0]) is None


def test_settled_rejects_non_monotonic_time():
    with pytest.raises(ValueError):
        settled([0.0, 10.0, 5.0, 400.0], [1.0, 2.0, 3.0, 4.0])


def _settled_numpy(times_s, resistances):
    """settled as it was written on numpy arrays, before it ran on lists."""
    t = np.asarray(times_s, dtype=float)
    r = np.asarray(resistances, dtype=float)
    if t.size != r.size or t.size < 2:
        return None
    if np.any(np.diff(t) <= 0):
        raise ValueError("timestamps must be strictly increasing")
    span = t[-1] - t[0]
    if span < SETTLE_WINDOW_S:
        return None
    idx = int(np.searchsorted(t, t[-1] - SETTLE_WINDOW_S, side="right")) - 1
    trailing = abs(r[-1] - r[idx])
    total = abs(r[-1] - r[0])
    return bool(trailing <= SETTLE_THRESHOLD * total)


@st.composite
def _histories(draw, increasing=True):
    """(times, resistances): 2-200 strictly increasing times whose span
    falls on either side of the trailing window, some at a read cadence
    that puts a sample exactly at the window start; arbitrary
    resistances, now and then one more or one fewer than the times."""
    cadence = draw(st.sampled_from([None, 6.0, 40.0, 120.0]))
    longest = draw(st.sampled_from([6.0, 60.0, 600.0]))
    gap = st.just(cadence) if cadence else st.floats(1e-3, longest)
    gaps = draw(st.lists(gap, min_size=1, max_size=199))
    times = [float(draw(st.integers(0, 10_000)))]
    for step in gaps:
        times.append(times[-1] + step)
    if not increasing:
        k = draw(st.integers(1, len(times) - 1))
        times[k] = times[k - 1] - draw(st.sampled_from([0.0, 1e-3, 30.0]))
    n = len(times) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return times, draw(st.lists(st.floats(), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(history=_histories())
def test_settled_matches_the_numpy_form(history):
    with np.errstate(all="ignore"):   # inf - inf in the reference
        expected = _settled_numpy(*history)
    assert settled(*history) is expected


@settings(max_examples=100, deadline=None)
@given(history=_histories(increasing=False))
def test_settled_rejects_what_the_numpy_form_rejects(history):
    times, resistances = history
    resistances = resistances[:len(times)] + [1.0] * (len(times)
                                                      - len(resistances))
    message = "^timestamps must be strictly increasing$"
    with pytest.raises(ValueError, match=message):
        _settled_numpy(times, resistances)
    with pytest.raises(ValueError, match=message):
        settled(times, resistances)


# ---------------------------------------------------------------------------
# schedules


def test_scrambled_schedule_deterministic(cfg):
    hold_s = cfg["schedule.hold_s"]
    assert scrambled_schedule(42, hold_s) == scrambled_schedule(42, hold_s)


def test_scrambled_schedule_multiset_and_revisits(cfg):
    sched = scrambled_schedule(7, cfg["schedule.hold_s"])
    counts = {}
    for t in sched.setpoints:
        counts[t] = counts.get(t, 0) + 1
    assert counts == {300.0: 2, 310.0: 1, 320.0: 1, 330.0: 1, 340.0: 1,
                      350.0: 1, 360.0: 2}
    assert sched.hold_s == 3600.0


def test_scrambled_schedule_orders_differ_between_seeds(cfg):
    hold_s = cfg["schedule.hold_s"]
    assert (scrambled_schedule(1, hold_s).setpoints
            != scrambled_schedule(2, hold_s).setpoints)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_scrambled_schedule_never_repeats_adjacent_setpoints(cfg, seed):
    points = scrambled_schedule(seed, cfg["schedule.hold_s"]).setpoints
    assert all(a != b for a, b in zip(points, points[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        TemperatureSchedule((), 3600.0)
    with pytest.raises(ValueError, match="10 K grid"):
        TemperatureSchedule((315.0,), 3600.0)
    with pytest.raises(ValueError):
        TemperatureSchedule((370.0,), 3600.0)
    with pytest.raises(ValueError):
        TemperatureSchedule((310.0,), 0.0)
