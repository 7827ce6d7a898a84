import functools
import math

import numpy as np
import pytest

from memthermo.cli import _hsr_args
from memthermo.config import resolve_config
from memthermo.constants import K_B_EV
from memthermo.device import (DEFAULT_ANCHORS, LEVEL_ORDER, DeviceState,
                              SwitchingParams, ThermalFit, ThermionicParams,
                              rho_temperature_factor)
from memthermo.experiments import (run_heat_stimulate_retention,
                                   run_thermal_cycling)
from memthermo.neuron import (InputPattern, NeuronSystem, calibrate_gain,
                              run_homeostasis)
from memthermo.thermal import scrambled_schedule


@pytest.fixture(scope="session")
def cfg():
    """The default configuration: every runner argument a test does not
    set itself comes from here, as the CLI passes it."""
    return resolve_config()


@pytest.fixture(scope="session")
def fit():
    return ThermalFit(anchors=DEFAULT_ANCHORS)


@pytest.fixture(scope="session")
def params():
    return SwitchingParams()


@pytest.fixture(scope="session")
def state_at(fit):
    """The reference state of a level of the default table."""
    return lambda level: DeviceState(r_persistent=fit.anchor(level).r_ref)


@pytest.fixture(scope="session")
def cycle_args(cfg):
    """The keywords `cycle` and `levels` pass at a seed."""
    return lambda seed: dict(
        schedule=scrambled_schedule(seed, cfg["schedule.hold_s"]), seed=seed,
        fit=cfg.fit, plant=cfg.plant,
        read_period_s=cfg["schedule.read_period_s"],
        drift_scale=cfg["cycle.drift_scale"])


@pytest.fixture(scope="session")
def cycle(cfg, cycle_args):
    """run_thermal_cycling as `cycle` calls it, reading one state: its
    CycleResult, the trace as columns; keywords override."""
    def run(seed=0, state=cfg.device, **kwargs):
        [res] = run_thermal_cycling(
            **{**cycle_args(seed), "states": [state], **kwargs})
        return res
    return run


@pytest.fixture(scope="session")
def revisit():
    """A CycleResult's relative difference between its first and last
    settled holds at t_set."""
    def discrepancy(res, t_set):
        first, *_, last = res.steady_values(t_set)
        return abs(last - first) / first
    return discrepancy


@pytest.fixture(scope="session")
def level_runs(cycle_args, state_at):
    """run_thermal_cycling as `levels` calls it: {level: CycleResult},
    the levels sharing one list per chamber column; keywords override."""
    def run(seed=0, **kwargs):
        states = [state_at(level) for level in LEVEL_ORDER]
        return dict(zip(LEVEL_ORDER, run_thermal_cycling(
            **{**cycle_args(seed), "states": states, **kwargs})))
    return run


@pytest.fixture(scope="session")
def shift_response():
    """The fractional read-out change at T that a barrier shift dphi
    causes, over the fixed pre-shift 300 K resistance: the ratio-space
    form of the differential switching response."""
    return lambda T, phi_app, dphi: (rho_temperature_factor(T, phi_app)
                                     * math.expm1(dphi / (K_B_EV * T)))


@pytest.fixture(scope="session")
def physical():
    """The ThermionicParams of extract_thermionic's (pos, neg) rows, or
    None unless they are physical: A > 0, phi_b (the mean of both
    polarities) >= 0 and both alphas >= 0."""
    def params(rows):
        pos, neg = rows
        phi_b = 0.5 * (pos.phi_b_eV + neg.phi_b_eV)
        alpha_pos, alpha_neg = pos.alpha_eV_per_sqrtV, neg.alpha_eV_per_sqrtV
        if not (pos.a_per_K2 > 0 and phi_b >= 0 and alpha_pos >= 0
                and alpha_neg >= 0):
            return None
        return ThermionicParams(a_prefactor=pos.a_per_K2, phi_b=phi_b,
                                alpha_pos=alpha_pos, alpha_neg=alpha_neg)
    return params


@pytest.fixture(scope="session")
def hsr_args(cfg):
    """The keywords `hsr` and `nullcline` pass to each hsr run."""
    return _hsr_args(cfg)


@pytest.fixture(scope="session")
def hsr(cfg, hsr_args):
    """run_heat_stimulate_retention as `hsr` calls it; keywords override."""
    def run(**kwargs):
        return run_heat_stimulate_retention(**{
            **hsr_args, "t_test": cfg["hsr.t_test_k"],
            "v_prog": cfg["hsr.v_prog_v"], **kwargs})
    return run


@pytest.fixture(scope="session")
def build_system(cfg):
    """NeuronSystem.build with the configured arguments; keywords override."""
    def build(**kwargs):
        return NeuronSystem.build(**{
            "device": cfg.device, "fit": cfg.fit, "plant": cfg.plant,
            "theta": cfg["neuron.theta"], "dt_s": cfg["neuron.dt_s"],
            "window": cfg["neuron.window"],
            "spread_sigma": cfg["neuron.spread_sigma"],
            "seed": cfg["run.seed"], **kwargs})
    return build


@pytest.fixture(scope="session")
def table_map(cfg, build_system):
    """The feedforward table `homeostasis` calibrates at default config."""
    return calibrate_gain(cfg.floats("calibrate.loads"), build_system(),
                          mode="table", kappa_grid=cfg.kappa_grid,
                          gamma=cfg["neuron.gamma"]).fmap


@pytest.fixture(scope="session")
def step_response(build_system, table_map):
    """(base, first_post, peak, residual) rates of a homeostasis run under
    the table map that steps from load_a to load_b at step 6000; each
    pair of loads runs once per session."""
    @functools.cache
    def response(load_a, load_b):
        system = build_system()
        pattern = InputPattern(segments=((6000, load_a), (6000, load_b)))
        res = run_homeostasis(pattern, system, table_map)
        rates, w = res.window_rates(), res.window
        base = float(np.mean([r for k, _, r in rates
                              if 5000 <= (k + 1) * w <= 6000]))
        first_post = next(r for k, _, r in rates if k * w >= 6000)
        peak = max(abs(r - base) for k, _, r in rates
                   if 6000 <= k * w < 6000 + 10 * w)
        tail = [r for k, _, r in rates
                if k * w >= 6000 + 5 * system.plant.tau_dev_s / system.dt_s]
        return base, first_post, peak, float(np.mean(tail)) - base
    return response
