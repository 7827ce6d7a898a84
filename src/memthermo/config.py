"""Flat key-value run configuration.

One plain-text format everywhere: `section.key = value` lines, `#`
comments. Flat keys keep the files diffable and the parser dependency
free. Every physical parameter carries its documented default; unknown
keys are rejected rather than ignored. Environment variables prefixed
MEMTHERMO_ override file values (run.seed -> MEMTHERMO_RUN_SEED), and
explicit CLI overrides sit on top.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

from .device import DEFAULT_ANCHORS, LevelAnchor, SwitchingParams, ThermalFit
from .thermal import ThermalPlant


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class _Key:
    name: str
    type: type
    default: object
    help: str


def _k(name, type_, default, help_):
    return _Key(name=name, type=type_, default=default, help=help_)


def _fit_keys(label: str) -> tuple[str, str]:
    """Config keys of one level anchor: (resistance, drop)."""
    tag = label.lower()
    return f"fit.r_{tag}_ohm", f"fit.drop_{tag}"


def _fit_entries():
    for a in DEFAULT_ANCHORS:
        r_key, drop_key = _fit_keys(a.label)
        yield _k(r_key, float, a.r_ref, f"{a.label} anchor resistance")
        yield _k(drop_key, float, a.total_drop, f"{a.label} 300->360 K drop")


# SwitchingParams fields whose config key carries a unit suffix
_SWITCHING_UNITS = {"v_th": "v_th_v", "beta": "beta_per_v"}


def _switching_key(field: str) -> str:
    return f"switching.{_SWITCHING_UNITS.get(field, field)}"


REGISTRY: dict[str, _Key] = {k.name: k for k in [
    _k("run.experiment", str, "", "subcommand that produced the run"),
    _k("run.seed", int, 0, "single seed feeding all named rng sub-streams"),
    _k("run.out_dir", str, "out", "output directory"),

    _k("device.level", str, "pristine", "resistive level preset: one of "
       "the DEFAULT_ANCHORS labels"),
    _k("device.r_ohm", float, 0.0, "explicit 300 K resistance; 0 uses the "
       "level preset"),

    *_fit_entries(),

    _k("plant.preset", str, "packaged", "packaged or on_wafer"),
    _k("plant.tau_air_s", float, 180.0, "chamber air time constant"),
    _k("plant.tau_dev_s", float, 0.0, "device time constant; 0 uses the "
       "preset (720 packaged, 60 on-wafer)"),

    *(_k(_switching_key(f.name), float, f.default,
         f"SwitchingParams.{f.name}")
      for f in fields(SwitchingParams)),

    _k("schedule.hold_s", float, 3600.0, "hold per setpoint"),
    _k("schedule.read_period_s", float, 6.0, "read cadence during holds"),
    _k("schedule.setpoints", str, "", "explicit comma-separated setpoints "
       "(K); empty scrambles the 300-360 K grid from the seed"),

    _k("cycle.drift_scale", float, 0.0, "slow drift bound per cycle; 0=off, "
       "0.05 reproduces the 5 % revisit discrepancy"),

    _k("hsr.t_test_k", float, 360.0, "test temperature"),
    _k("hsr.v_prog_v", float, 1.5, "programming amplitude"),
    _k("hsr.pulse_count", int, 200, "programming pulses"),
    _k("hsr.retention_reads", int, 200, "retention reads"),
    _k("hsr.retention_period_s", float, 6.0, "retention read interval"),

    _k("iv.temps_k", str, "300,330,360", "IV sweep temperatures"),
    _k("iv.v_min_v", float, 0.05, "smallest sweep amplitude"),
    _k("iv.v_max_v", float, 0.4, "largest sweep amplitude (< threshold)"),
    _k("iv.points", int, 8, "points per polarity"),
    _k("iv.input_csv", str, "", "extract from this IV CSV instead of "
       "simulating (signature command)"),

    _k("thermometer.noise_sigma", float, 0.0, "relative read noise"),
    _k("thermometer.trials", int, 1, "noisy inversions per settled hold"),

    _k("neuron.theta", float, 12.5, "spike threshold"),
    _k("neuron.window", int, 25, "steps (and spikes) per rate window"),
    _k("neuron.dt_s", float, 1.0, "seconds per step"),
    _k("neuron.map_mode", str, "table", "feedforward: affine, table, fixed"),
    _k("neuron.kappa", float, 60.0, "affine feedforward gain, K per load"),
    _k("neuron.t_fixed_k", float, 300.0, "setpoint in fixed mode"),
    _k("neuron.gamma", float, 0.3, "residual slope of the table target"),
    _k("neuron.spread_sigma", float, 0.0, "device-to-device log-normal "
       "spread of synapse resistance"),

    _k("homeostasis.pattern", str, "0.20:6000,0.30:6000",
       "inline segments load:steps,..."),
    _k("homeostasis.pattern_csv", str, "", "optional CSV (step,load) "
       "overriding the inline pattern"),

    _k("baseline.loads", str, "0.15,0.20,0.25,0.30,0.35,0.40",
       "loads for the baseline curve"),
    _k("baseline.feedforward", str, "off", "off (gain 0) or calibrated"),
    _k("baseline.settle_steps", int, 4000, "settling steps per load"),
    _k("baseline.measure_steps", int, 2000, "measurement steps per load"),

    _k("calibrate.mode", str, "table", "gain calibration mode"),
    _k("calibrate.loads", str, "0.15,0.20,0.25,0.30,0.35,0.40",
       "calibration loads"),
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
    """Resolved configuration: defaults, file, environment, overrides."""

    def __init__(self, values: dict[str, object]):
        self._values = values

    def __getitem__(self, name: str):
        try:
            return self._values[name]
        except KeyError:
            raise ConfigError(f"unknown config key '{name}'") from None

    def floats(self, name: str) -> list[float]:
        raw = str(self[name]).strip()
        if not raw:
            return []
        try:
            values = [float(part) for part in raw.split(",")]
        except ValueError:
            raise ConfigError(f"bad float list for {name}: {raw!r}") from None
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{name} must be finite, got {raw!r}")
        return values

    def serialize(self) -> str:
        lines = [f"{name} = {_format_value(self._values[name])}"
                 for name in REGISTRY]
        return "\n".join(lines) + "\n"

    # --- builders -------------------------------------------------------

    def thermal_fit(self) -> ThermalFit:
        anchors = tuple(
            LevelAnchor(a.label, *(self[k] for k in _fit_keys(a.label)))
            for a in DEFAULT_ANCHORS)
        # an anchor table the fit rejects is a configuration mistake
        # (CalibrationError is a ValueError too)
        try:
            return ThermalFit(anchors=anchors)
        except ValueError as exc:
            raise ConfigError(f"fit: {exc}") from None

    def switching_params(self) -> SwitchingParams:
        return SwitchingParams(**{f.name: self[_switching_key(f.name)]
                                  for f in fields(SwitchingParams)})

    def plant(self) -> ThermalPlant:
        preset = self["plant.preset"]
        if preset not in ("packaged", "on_wafer"):
            raise ConfigError(f"plant.preset must be packaged or on_wafer, "
                              f"got {preset!r}")
        base = getattr(ThermalPlant, preset)()
        return replace(base, tau_air_s=self["plant.tau_air_s"],
                       tau_dev_s=self["plant.tau_dev_s"] or base.tau_dev_s)


def resolve_config(
    config_path: str | None = None,
    env: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    values: dict[str, object] = {k.name: k.default for k in REGISTRY.values()}

    def apply(raw_values: dict[str, str], source: str):
        for name, raw in raw_values.items():
            key = REGISTRY.get(name)
            if key is None:
                raise ConfigError(f"unknown config key '{name}' ({source})")
            values[name] = _parse_value(key, raw)

    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from None
        apply(parse_config_text(text, source=config_path), config_path)

    env = os.environ if env is None else env
    env_lookup = {k.replace(".", "_").upper(): k for k in REGISTRY}
    for var, raw in env.items():
        if not var.startswith("MEMTHERMO_"):
            continue
        name = env_lookup.get(var[len("MEMTHERMO_"):])
        if name is None:
            raise ConfigError(f"unknown config key in environment: {var}")
        values[name] = _parse_value(REGISTRY[name], raw)

    if overrides:
        apply(overrides, "command line")

    return RunConfig(values)
