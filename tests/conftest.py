import pytest

from memthermo.cli import _hsr_args
from memthermo.config import resolve_config
from memthermo.device import (DEFAULT_ANCHORS, LEVEL_ORDER, DeviceState,
                              SwitchingParams, ThermalFit)
from memthermo.experiments import (run_heat_stimulate_retention,
                                   run_thermal_cycling)
from memthermo.neuron import NeuronSystem
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
def level_runs(cycle_args, state_at):
    """run_thermal_cycling as `levels` calls it: {level: CycleResult},
    the levels sharing one list per chamber column; keywords override."""
    def run(seed=0, **kwargs):
        states = [state_at(level) for level in LEVEL_ORDER]
        return dict(zip(LEVEL_ORDER, run_thermal_cycling(
            **{**cycle_args(seed), "states": states, **kwargs})))
    return run


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
