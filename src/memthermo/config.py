"""Flat key-value run configuration.

One plain-text format everywhere: `section.key = value` lines, `#`
comments. Flat keys keep the files diffable and the parser dependency
free. REGISTRY is the one home of every default: a key either states it
or reads it from the model field it sets (SwitchingParams, the level
anchors, ThermalPlant.tau_air_s, FeedforwardMap's kappa and t_fixed),
and the runners and builders take every argument from the caller.
Unknown keys are rejected rather than ignored. A run's values come from
the defaults, the config file and the explicit CLI overrides, each on
top of the one before, and from nowhere else. Each key checks its own
domain; relations between keys are left to the constructors:
resolve_config builds each configured object once, the neuron template
too, and reads the input files on every command; the run uses those
objects, and a neuron run passes the feedforward map it uses to the runner.
It counts the command's steps and refuses more than MAX_RUN_STEPS. The
input files are read, and pinned in the manifest, by memthermo.inputs.
"""
from __future__ import annotations

import math
import os
from typing import NamedTuple

from .constants import R_CEILING, R_FLOOR, T_MAX, T_MIN
from .device import (DEFAULT_ANCHORS, LEVEL_ORDER, DeviceState,
                     SwitchingParams, ThermalFit, sweep_voltages)
from .neuron import (FeedforwardMap, InputPattern, NeuronSystem,
                     affine_gains, calibration_loads)
from .thermal import (GRID_TEMPS, NULLCLINE_TEMPS, NULLCLINE_VOLTAGES,
                      ThermalPlant, TemperatureSchedule, hold_steps)

# Steps (plant steps, pulses, thermometer inversions, neuron steps) a run
# may take, ~13x nullcline's 76,848; RESET_MAX_PULSES bounds the resets.
MAX_RUN_STEPS = 10**6


# Keys that name an input file, read by memthermo.inputs; resolve_config
# echoes a set one as an absolute path.
INPUT_KEYS = ("homeostasis.pattern_csv", "iv.input_csv")


class ConfigError(ValueError):
    pass


def checked(what: str, build, *args, **kwargs):
    """build(*args, **kwargs), with its ValueError a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _rule(ok, text):
    return lambda value: None if ok(value) else text


positive = _rule(lambda v: v > 0, "> 0")
nonneg = _rule(lambda v: v >= 0, ">= 0")


def within(lo, hi):
    return _rule(lambda v: lo <= v <= hi, f"in [{lo}, {hi}]")


def choice(*options):
    return _rule(lambda v: v in options, "one of " + ", ".join(options))


def _float_list(raw: str) -> list[float]:
    return [float(part) for part in raw.split(",")] if raw.strip() else []


def floats(each=None, nonempty=False):
    """Check of a comma-separated list of finite floats that pass `each`."""
    def check(raw):
        try:
            values = _float_list(raw)
        except ValueError:
            return "a comma-separated float list"
        if nonempty and not values:
            return "a non-empty float list"
        if not all(map(math.isfinite, values)):
            return "finite"
        return next(filter(None, map(each, values)), None) if each else None
    return check


def distinct(check):
    """A float-list check that also rejects a repeated value."""
    return lambda raw: check(raw) or (
        None if len(set(_float_list(raw))) == len(_float_list(raw))
        else "a list without repeats")


class _Key(NamedTuple):
    name: str
    type: type
    default: object
    help: str
    check: object = None   # value -> None, or the text after "must be"


_k = _Key


def _fit_keys(label: str) -> tuple[str, str]:
    """Config keys of one level anchor: (resistance, drop)."""
    tag = label.lower()
    return f"fit.r_{tag}_ohm", f"fit.drop_{tag}"


def _fit_entries():
    for a in DEFAULT_ANCHORS:
        r_key, drop_key = _fit_keys(a.label)
        yield _k(r_key, float, a.r_ref, f"{a.label} anchor resistance",
                 within(R_FLOOR, R_CEILING))
        yield _k(drop_key, float, a.total_drop, f"{a.label} 300->360 K drop")


# SwitchingParams fields whose config key carries a unit suffix
_SWITCHING_UNITS = {"v_th": "v_th_v", "beta": "beta_per_v"}


def _switching_key(field: str) -> str:
    return f"switching.{_SWITCHING_UNITS.get(field, field)}"


REGISTRY: dict[str, _Key] = {k.name: k for k in [
    _k("run.experiment", str, "", "subcommand that produced the run"),
    _k("run.seed", int, 0, "seed of every named rng sub-stream", nonneg),
    _k("run.out_dir", str, "out", "output directory",
       _rule(bool, "non-empty")),

    _k("device.level", str, "pristine", "resistive level preset",
       choice(*LEVEL_ORDER)),
    _k("device.r_ohm", float, 0.0, "explicit 300 K resistance, read by "
       "every command but levels; 0 uses the level preset",
       _rule(lambda v: v == 0 or R_FLOOR <= v <= R_CEILING,
             f"0 or in [{R_FLOOR}, {R_CEILING}]")),

    *_fit_entries(),

    _k("plant.preset", str, "packaged", "packaged or on_wafer",
       choice("packaged", "on_wafer")),
    _k("plant.tau_air_s", float, ThermalPlant().tau_air_s,
       "chamber air time constant"),
    _k("plant.tau_dev_s", float, 0.0, "device time constant; 0 uses the "
       "preset (720 packaged, 60 on-wafer)"),

    *(_k(_switching_key(name), float, getattr(SwitchingParams(), name),
         f"SwitchingParams.{name}")
      for name in SwitchingParams.__slots__),

    _k("schedule.hold_s", float, 3600.0, "hold per setpoint", positive),
    _k("schedule.read_period_s", float, 6.0, "read cadence during holds",
       positive),
    _k("schedule.setpoints", str, "", "explicit comma-separated setpoints "
       "(K); empty scrambles the 300-360 K grid from the seed", floats()),

    # at 0.1 two holds differ by at most 10 %, under L4's whole 11 % drop
    _k("cycle.drift_scale", float, 0.0, "slow drift bound per cycle; 0=off, "
       "0.05 reproduces the 5 % revisit discrepancy", within(0, 0.1)),

    _k("hsr.t_test_k", float, 360.0, "test temperature", within(T_MIN, T_MAX)),
    _k("hsr.v_prog_v", float, 1.5, "programming amplitude"),
    _k("hsr.pulse_count", int, 200, "programming pulses", positive),
    _k("hsr.retention_reads", int, 200, "retention reads", nonneg),
    _k("hsr.retention_period_s", float, 6.0, "retention read interval",
       positive),

    _k("iv.temps_k", str, "300,330,360", "IV sweep temperatures",
       distinct(floats(within(T_MIN, T_MAX), nonempty=True))),
    _k("iv.v_min_v", float, 0.05, "smallest sweep amplitude"),
    _k("iv.v_max_v", float, 0.4, "largest sweep amplitude (< threshold)"),
    _k("iv.points", int, 8, "points per polarity"),
    _k("iv.input_csv", str, "", "extract from this IV CSV instead of "
       "simulating (signature command)"),

    # at 0.1 the clipped scatter moves R by up to 28 %, over L4's 11 % drop
    _k("thermometer.noise_sigma", float, 0.0, "relative read noise",
       within(0, 0.1)),
    _k("thermometer.trials", int, 1, "noisy inversions per settled hold",
       positive),

    _k("neuron.theta", float, 12.5, "spike threshold; 12.5 gives a settled "
       "rate of 0.5 spikes/step at load 0.25, 300 K"),
    _k("neuron.window", int, 25, "steps (and spikes) per rate window"),
    _k("neuron.dt_s", float, 1.0, "seconds per step"),
    _k("neuron.map_mode", str, "table", "feedforward: affine, table, fixed",
       choice("affine", "table", "fixed")),
    _k("neuron.kappa", float, FeedforwardMap().kappa,
       "affine feedforward gain, K per load"),
    _k("neuron.t_fixed_k", float, FeedforwardMap().t_fixed,
       "setpoint in fixed mode"),
    _k("neuron.gamma", float, 0.3, "residual slope of the table target"),
    # at sigma = 1 the 25 draws already span about two decades
    _k("neuron.spread_sigma", float, 0.0, "device-to-device log-normal "
       "spread of synapse resistance", within(0, 1)),

    _k("homeostasis.pattern", str, "0.20:6000,0.30:6000",
       "inline segments load:steps,..."),
    _k("homeostasis.pattern_csv", str, "", "optional CSV (step,load) "
       "overriding the inline pattern"),

    _k("baseline.loads", str, "0.15,0.20,0.25,0.30,0.35,0.40",
       "loads for the baseline curve", floats(within(0, 1), nonempty=True)),
    _k("baseline.feedforward", str, "off", "off (gain 0) or calibrated",
       choice("off", "calibrated")),
    _k("baseline.settle_steps", int, 4000, "settling steps per load", nonneg),
    _k("baseline.measure_steps", int, 2000, "measurement steps per load",
       positive),

    _k("calibrate.mode", str, "table", "gain calibration mode: table or "
       "affine"),
    _k("calibrate.loads", str, "0.15,0.20,0.25,0.30,0.35,0.40",
       "calibration loads", floats(within(0, 1))),
    _k("calibrate.kappa_max", float, 240.0, "affine grid upper edge"),
    _k("calibrate.kappa_step", float, 1.0, "affine grid step"),
]}


def _parse_value(key: _Key, raw: str):
    raw = raw.strip()
    try:
        if key.type is int:
            return int(raw)
        if key.type is not float:
            return raw
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"bad value for {key.name}: {raw!r} is not {key.type.__name__}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key.name} must be finite, got {raw!r}")
    return value


def _format_value(value) -> str:
    # repr round-trips floats exactly, so a manifest reproduces the run
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        values[key.strip()] = value.strip()
    return values


class RunConfig:
    """Resolved configuration: the value of every key, and the model
    objects built from them once. The rules between keys live in the
    constructors, so every run rejects what any of them rejects, and the
    run uses the very objects that passed."""

    def __init__(self, values: dict[str, object], pinned: dict[str, int]):
        self._values = values
        self.switching = checked("switching", SwitchingParams,
                                 **{name: self[_switching_key(name)]
                                    for name in SwitchingParams.__slots__})
        explicit = self.floats("schedule.setpoints")
        # None: the run draws the scrambled schedule (the "schedule" stream)
        self.schedule = checked(
            "schedule.setpoints", TemperatureSchedule, tuple(explicit),
            self["schedule.hold_s"]) if explicit else None
        anchors = tuple(a._replace(r_ref=self[r], total_drop=self[d])
                        for a in DEFAULT_ANCHORS
                        for r, d in [_fit_keys(a.label)])
        # CalibrationError (an unreachable drop) is a ValueError too
        self.fit = checked("fit", ThermalFit, anchors=anchors)
        base = getattr(ThermalPlant, self["plant.preset"])()
        self.plant = checked(
            "plant", ThermalPlant, base.t_set, base.t_air, base.t_dev,
            tau_air_s=self["plant.tau_air_s"],
            tau_dev_s=self["plant.tau_dev_s"] or base.tau_dev_s)
        hold = checked("schedule.hold_s, schedule.read_period_s", hold_steps,
                       self["schedule.hold_s"], self["schedule.read_period_s"])
        reads, period = self["hsr.retention_reads"], self["hsr.retention_period_s"]
        retention = reads and checked(   # no reads: no retention hold
            "hsr.retention_reads, hsr.retention_period_s", hold_steps,
            # 1e308 reads or more: an infinite hold, past the float range
            reads * period if reads < 1e308 else math.inf, period)
        self.device = DeviceState(r_persistent=self["device.r_ohm"] or
                                  self.fit.anchor(self["device.level"]).r_ref)
        self.system = checked(
            "neuron", NeuronSystem.build, device=self.device, fit=self.fit,
            plant=self.plant, theta=self["neuron.theta"],
            dt_s=self["neuron.dt_s"], window=self["neuron.window"],
            spread_sigma=self["neuron.spread_sigma"], seed=self["run.seed"])
        self.affine_map = checked("neuron", FeedforwardMap,
                                  kappa=self["neuron.kappa"])
        self.fixed_map = checked("neuron", FeedforwardMap, mode="fixed",
                                 t_fixed=self["neuron.t_fixed_k"])
        self.voltages = checked("iv", sweep_voltages, self["iv.v_min_v"],
                                self["iv.v_max_v"], self["iv.points"],
                                self.switching.v_th)
        # the table feedforward reads the calibration loads in any mode
        for mode in (self["calibrate.mode"], "table"):
            checked("calibrate", calibration_loads,
                    self.floats("calibrate.loads"), mode, self["neuron.gamma"])
        self.kappa_grid = checked("calibrate", affine_gains,
                                  self["calibrate.kappa_max"],
                                  self["calibrate.kappa_step"])
        self.pattern = checked("homeostasis.pattern", InputPattern.parse,
                               self["homeostasis.pattern"])
        # every command reads the input files, before it writes anything;
        # no iv.input_csv: signature sweeps its curves
        self.ivs, self.pins = None, []
        if pinned or any(self[key] for key in INPUT_KEYS):
            from . import inputs
            pattern, self.ivs, self.pins = inputs.load(self, pinned)
            self.pattern = pattern or self.pattern
        keys, self.steps = self._budget(hold, retention)
        if self.steps > MAX_RUN_STEPS:   # ints throughout: no float overflow
            raise ConfigError(
                f"{', '.join(keys)}: {self['run.experiment']} takes "
                f"{self.steps if self.steps < 10**18 else 'over 1e18'} steps, "
                f"more than the {MAX_RUN_STEPS} a run may take")

    def _budget(self, hold: int, retention: int) -> tuple[tuple, int]:
        """The keys behind the command's steps, and the steps; iv, signature
        and calibrate bound their lists where they are built, and count 0."""
        schedule = ("schedule.hold_s", "schedule.read_period_s",
                    "schedule.setpoints")
        n = (len(self.schedule.setpoints) if self.schedule
             else len(GRID_TEMPS) + 2)   # the grid and two revisits
        hsr = (*schedule[:2], "hsr.pulse_count", "hsr.retention_reads")
        # two holds, the pulses, the plant step over the train, retention
        train = 2 * hold + self["hsr.pulse_count"] + 1 + retention
        pattern = ("homeostasis.pattern_csv" if self["homeostasis.pattern_csv"]
                   else "homeostasis.pattern")
        return {
            "cycle": (schedule, n * hold), "levels": (schedule, n * hold),
            "thermometer": ((*schedule, "thermometer.trials"),
                            n * (hold + self["thermometer.trials"])),
            "hsr": (hsr, train),
            "nullcline": (hsr, len(NULLCLINE_VOLTAGES) * len(NULLCLINE_TEMPS)
                          * train),
            "baseline": (("baseline.loads", "baseline.settle_steps",
                          "baseline.measure_steps"),
                         len(self.floats("baseline.loads"))
                         * (self["baseline.settle_steps"]
                            + self["baseline.measure_steps"])),
            "homeostasis": ((pattern,), self.pattern.total_steps),
        }.get(self["run.experiment"], ((), 0))

    def __getitem__(self, name: str):
        try:
            return self._values[name]
        except KeyError:
            raise ConfigError(f"unknown config key '{name}'") from None

    def floats(self, name: str) -> list[float]:
        return _float_list(self[name])

    def serialize(self) -> str:
        lines = self.pins + [f"{name} = {_format_value(self._values[name])}"
                             for name in REGISTRY]
        return "\n".join(lines) + "\n"


def resolve_config(
    config_path: str | None = None,
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    values: dict[str, object] = {k.name: k.default for k in REGISTRY.values()}

    def apply(raw_values: dict[str, str], source: str):
        for name, raw in raw_values.items():
            key = REGISTRY.get(name)
            if key is None:
                raise ConfigError(f"unknown config key '{name}' ({source})")
            values[name] = _parse_value(key, raw)

    pinned = {}
    if config_path:   # a missing file is an OSError, as for the input files
        with open(config_path, encoding="utf-8") as fh:
            text = fh.read()
        apply(parse_config_text(text, source=config_path), config_path)
        from .inputs import pins   # a manifest pins its input files
        pinned = pins(text, config_path)

    if overrides:
        apply(overrides, "command line")
        for key in overrides:   # a file named here is not the pinned one
            pinned.pop(key, None)
    for key in INPUT_KEYS:   # a manifest names the file from anywhere
        if values[key]:
            values[key] = os.path.abspath(values[key])

    for key in REGISTRY.values():
        value = values[key.name]
        problem = key.check and key.check(value)
        if problem:
            raise ConfigError(f"{key.name} must be {problem}, got {value!r}")
    return RunConfig(values, pinned)
