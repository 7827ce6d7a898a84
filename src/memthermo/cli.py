"""Command-line surface.

One experiment per invocation; each run validates its configuration,
simulates, and writes CSV files plus a manifest into the output
directory. Exit codes: 0 success, 1 configuration error, 2 protocol or
convergence error, 3 I/O error; failures print one machine-parsable line
on stderr.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .calibration import (
    ExtractionError,
    IVCurveSet,
    ThermometerRangeError,
    extract_thermionic,
    fit_switch_curve,
    invert_temperature,
)
from .config import ConfigError, RunConfig, resolve_config
from .csvio import emit_csv, parse_csv, write_manifest
from .device import CalibrationError, DeviceState, ResetError, ThermalFit
from .experiments import (
    CycleResult,
    ProtocolError,
    run_heat_stimulate_retention,
    run_iv_sweep,
    run_level_sweep,
    run_nullcline_sweep,
    run_thermal_cycling,
)
from .neuron import (
    FeedforwardMap,
    InputPattern,
    NeuronSystem,
    baseline_curve,
    calibrate_gain,
    run_homeostasis,
)
from .presets import LEVEL_ORDER, device_preset
from .rng import substream
from .thermal import TemperatureSchedule, scrambled_schedule

EXPERIMENTS = ("cycle", "levels", "iv", "signature", "hsr", "nullcline",
               "thermometer", "baseline", "homeostasis", "calibrate")


def _positive(cfg: RunConfig, key: str):
    value = cfg[key]
    if value <= 0:
        raise ConfigError(f"{key} must be > 0, got {value!r}")
    return value


def _schedule(cfg: RunConfig):
    hold = _positive(cfg, "schedule.hold_s")
    explicit = cfg.floats("schedule.setpoints")
    if explicit:
        try:
            return TemperatureSchedule(
                entries=tuple((t, hold) for t in explicit))
        except ValueError as exc:
            raise ConfigError(f"schedule.setpoints: {exc}") from None
    return scrambled_schedule(cfg["run.seed"], hold_s=hold)


def _level(cfg: RunConfig) -> str:
    level = cfg["device.level"]
    if level not in LEVEL_ORDER:
        raise ConfigError(f"device.level must be one of {LEVEL_ORDER}, "
                          f"got {level!r}")
    return level


def _device(cfg: RunConfig, fit: ThermalFit) -> DeviceState:
    r = cfg["device.r_ohm"]
    if r > 0:
        return DeviceState(r_persistent=r)
    return device_preset(_level(cfg), fit)


def _feedforward(cfg: RunConfig, system: NeuronSystem) -> FeedforwardMap:
    mode = cfg["neuron.map_mode"]
    if mode == "affine":
        return FeedforwardMap(kappa=cfg["neuron.kappa"])
    if mode == "fixed":
        return FeedforwardMap(mode="fixed", t_fixed=cfg["neuron.t_fixed_k"])
    if mode == "table":
        cal = calibrate_gain(cfg.floats("calibrate.loads"), system,
                             mode="table", gamma=cfg["neuron.gamma"])
        return cal.fmap
    raise ConfigError(f"neuron.map_mode must be affine, table or fixed, "
                      f"got {mode!r}")


def _build_system(cfg: RunConfig, fmap: FeedforwardMap | None = None) -> NeuronSystem:
    return NeuronSystem.build(
        level=_level(cfg),
        fmap=fmap or FeedforwardMap(kappa=0.0),
        fit=cfg.thermal_fit(),
        plant=cfg.plant(),
        theta=cfg["neuron.theta"],
        dt_s=cfg["neuron.dt_s"],
        window=cfg["neuron.window"],
        spread_sigma=cfg["neuron.spread_sigma"],
        seed=cfg["run.seed"],
    )


def _cycle(cfg: RunConfig) -> CycleResult:
    fit = cfg.thermal_fit()
    return run_thermal_cycling(
        level=_level(cfg),
        schedule=_schedule(cfg),
        seed=cfg["run.seed"],
        fit=fit,
        plant=cfg.plant(),
        state=_device(cfg, fit),
        read_period_s=_positive(cfg, "schedule.read_period_s"),
        drift_scale=cfg["cycle.drift_scale"],
    )


def _cmd_cycle(cfg: RunConfig, out: str) -> list[str]:
    res = _cycle(cfg)
    return [
        emit_csv(os.path.join(out, "cycle.csv"), "cycle",
                 (r[:6] for r in res.records)),
        emit_csv(os.path.join(out, "cycle_holds.csv"), "cycle_holds",
                 ((h.index, h.t_set_K, h.r_steady_ohm, h.r_first_ohm,
                   h.r_last_ohm, h.settled) for h in res.holds)),
    ]


def _cmd_levels(cfg: RunConfig, out: str) -> list[str]:
    sweep = run_level_sweep(
        schedule=_schedule(cfg), seed=cfg["run.seed"], fit=cfg.thermal_fit(),
        read_period_s=_positive(cfg, "schedule.read_period_s"),
        drift_scale=cfg["cycle.drift_scale"],
    )
    files = [emit_csv(
        os.path.join(out, "levels.csv"), "levels",
        ((level, res.state.r_eff, sweep.drops[level],
          sweep.sensitivities[level])
         for level, res in sweep.results.items()),
    )]
    for level, res in sweep.results.items():
        files.append(emit_csv(
            os.path.join(out, f"cycle_{level}.csv"), "cycle",
            (r[:6] for r in res.records)))
    return files


def _iv_sweep(cfg: RunConfig):
    return run_iv_sweep(
        level=_level(cfg),
        temperatures=cfg.floats("iv.temps_k"),
        v_min=cfg["iv.v_min_v"], v_max=cfg["iv.v_max_v"],
        points_per_polarity=cfg["iv.points"],
        switching=cfg.switching_params(),
        fit=cfg.thermal_fit(),
    )


def _cmd_iv(cfg: RunConfig, out: str,
            ivs: IVCurveSet | None = None) -> list[str]:
    if ivs is None:
        ivs = _iv_sweep(cfg)
    level = _level(cfg)
    return [emit_csv(
        os.path.join(out, "iv.csv"), "iv",
        ((level, T, v, i)
         for T, curve in zip(ivs.temperatures, ivs.curves)
         for v, i in curve),
    )]


def _cmd_signature(cfg: RunConfig, out: str) -> list[str]:
    input_csv = cfg["iv.input_csv"]
    if input_csv:
        _, rows = parse_csv(input_csv, "iv")
        ivs = IVCurveSet.from_rows((T, v, i) for _, T, v, i in rows)
        files = []
    else:
        ivs = _iv_sweep(cfg)
        files = _cmd_iv(cfg, out, ivs)
    fitres = extract_thermionic(ivs)
    files.append(emit_csv(
        os.path.join(out, "signature.csv"), "signature",
        [("pos", fitres.a_prefactor, fitres.phi_b_pos, fitres.alpha_pos,
          fitres.stage1_r2_min, fitres.stage2_r2_pos,
          fitres.intercept_spread),
         ("neg", fitres.a_prefactor, fitres.phi_b_neg, fitres.alpha_neg,
          fitres.stage1_r2_min, fitres.stage2_r2_neg,
          fitres.intercept_spread)],
    ))
    return files


def _hsr_args(cfg: RunConfig) -> dict:
    """run_heat_stimulate_retention keywords shared by hsr and nullcline."""
    return dict(
        level=_level(cfg),
        fit=cfg.thermal_fit(),
        params=cfg.switching_params(),
        pulse_count=cfg["hsr.pulse_count"],
        retention_reads=cfg["hsr.retention_reads"],
        retention_period_s=_positive(cfg, "hsr.retention_period_s"),
        hold_s=_positive(cfg, "schedule.hold_s"),
        read_period_s=_positive(cfg, "schedule.read_period_s"),
    )


def _cmd_hsr(cfg: RunConfig, out: str) -> list[str]:
    args = _hsr_args(cfg)
    res = run_heat_stimulate_retention(
        t_test=cfg["hsr.t_test_k"],
        v_prog=cfg["hsr.v_prog_v"],
        plant=cfg.plant(),
        state=_device(cfg, args["fit"]),
        **args,
    )
    return [
        emit_csv(os.path.join(out, "hsr.csv"), "hsr", res.records),
        emit_csv(os.path.join(out, "hsr_summary.csv"), "hsr_summary",
                 [(res.t_test_K, res.v_prog_V, res.frac_state, res.frac_at_t,
                   res.frac_vs_300, res.recovered_frac, res.reset_pulses)]),
    ]


def _cmd_nullcline(cfg: RunConfig, out: str) -> list[str]:
    res = run_nullcline_sweep(**_hsr_args(cfg))
    curve = fit_switch_curve(res.rows)
    return [
        emit_csv(os.path.join(out, "nullcline.csv"), "nullcline", res.rows),
        emit_csv(os.path.join(out, "nullcline_fit.csv"), "nullcline_fit",
                 [(curve.g_14_310, curve.g_14_360, curve.beta,
                   curve.r2_voltage_min, curve.r2_temperature)]),
    ]


def _cmd_thermometer(cfg: RunConfig, out: str) -> list[str]:
    trials = _positive(cfg, "thermometer.trials")
    res = _cycle(cfg)
    sigma = cfg["thermometer.noise_sigma"]
    rng = substream(cfg["run.seed"], "noise")
    # guard sized to the clipped noise so band-edge readings clamp
    guard = max(0.02, 2.5 * sigma + 0.005)
    rows = []
    for hold in res.holds:
        for trial in range(trials):
            r = hold.r_steady_ohm
            if sigma > 0:
                # clipped log-normal read scatter: bounded instrument noise
                z = min(max(rng.standard_normal(), -2.5), 2.5)
                r *= math.exp(sigma * z)
            t_est = invert_temperature(r, res.fit, res.state.r_eff,
                                       guard=guard)
            rows.append((hold.t_end_s, hold.t_set_K, trial, r, t_est,
                         t_est - hold.t_set_K))
    return [emit_csv(os.path.join(out, "thermometer.csv"), "thermometer", rows)]


def _cmd_baseline(cfg: RunConfig, out: str) -> list[str]:
    system = _build_system(cfg)
    mode = cfg["baseline.feedforward"]
    if mode == "off":
        system.fmap = FeedforwardMap(kappa=0.0)
    elif mode == "calibrated":
        system.fmap = _feedforward(cfg, system)
    else:
        raise ConfigError(f"baseline.feedforward must be off or calibrated, "
                          f"got {mode!r}")
    rows = baseline_curve(
        cfg.floats("baseline.loads"), system,
        settle_steps=cfg["baseline.settle_steps"],
        measure_steps=cfg["baseline.measure_steps"],
    )
    return [emit_csv(os.path.join(out, "baseline.csv"), "baseline", rows)]


def _load_pattern(cfg: RunConfig) -> InputPattern:
    """Inline segments, or CSV breakpoint rows (step, load) where each
    load holds until the next breakpoint; the final load holds for the
    longest preceding segment (one window for a single-row file)."""
    path = cfg["homeostasis.pattern_csv"]
    if path:
        _, rows = parse_csv(path)
        try:
            breakpoints = [(int(step), float(load)) for step, load in rows]
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if not breakpoints:
            raise ConfigError(f"{path}: no pattern rows")
        if any(b[0] <= a[0] for a, b in zip(breakpoints, breakpoints[1:])):
            raise ConfigError(f"{path}: breakpoint steps must increase")
        durations = [b[0] - a[0] for a, b in zip(breakpoints, breakpoints[1:])]
        tail = max(durations, default=cfg["neuron.window"])
        segments = tuple(
            (duration, load)
            for (_, load), duration in zip(breakpoints, durations + [tail])
        )
        return InputPattern(segments=segments)
    try:
        return InputPattern.parse(cfg["homeostasis.pattern"])
    except ValueError as exc:
        raise ConfigError(f"homeostasis.pattern: {exc}") from None


def _cmd_homeostasis(cfg: RunConfig, out: str) -> list[str]:
    system = _build_system(cfg)
    system.fmap = _feedforward(cfg, system)
    pattern = _load_pattern(cfg)
    res = run_homeostasis(pattern, system)
    return [
        emit_csv(os.path.join(out, "homeostasis_rates.csv"),
                 "homeostasis_rates", res.window_rates()),
        emit_csv(os.path.join(out, "homeostasis_spike_windows.csv"),
                 "homeostasis_spike_windows", res.spike_count_windows()),
        emit_csv(os.path.join(out, "homeostasis_trace.csv"),
                 "homeostasis_trace",
                 ((k, k * res.dt_s, res.mean_loads[k], res.t_set[k],
                   res.t_dev[k], int(res.spikes[k]))
                  for k in range(res.steps))),
    ]


def _cmd_calibrate(cfg: RunConfig, out: str) -> list[str]:
    system = _build_system(cfg)
    cal = calibrate_gain(
        cfg.floats("calibrate.loads"), system, mode=cfg["calibrate.mode"],
        gamma=cfg["neuron.gamma"],
        kappa_grid=None if cfg["calibrate.mode"] == "table" else
        [k * cfg["calibrate.kappa_step"] for k in
         range(int(cfg["calibrate.kappa_max"] / cfg["calibrate.kappa_step"]) + 1)],
    )
    fit = system.fit
    files = [
        emit_csv(os.path.join(out, "calibrate_gain.csv"), "calibrate_gain",
                 [(cal.mode, cal.kappa, cal.spread_uncompensated,
                   cal.spread_calibrated)]),
        emit_csv(os.path.join(out, "calibrate_barriers.csv"),
                 "calibrate_barriers",
                 ((a.label, a.r_ref, a.total_drop, phi)
                  for a, phi in zip(fit.anchors, fit.phi_of_anchor))),
    ]
    if cal.mode == "table":
        files.append(emit_csv(
            os.path.join(out, "calibrate_table.csv"), "calibrate_table",
            zip(cal.fmap.table_loads, cal.fmap.table_temps)))
    return files


_HANDLERS = {
    "cycle": _cmd_cycle,
    "levels": _cmd_levels,
    "iv": _cmd_iv,
    "signature": _cmd_signature,
    "hsr": _cmd_hsr,
    "nullcline": _cmd_nullcline,
    "thermometer": _cmd_thermometer,
    "baseline": _cmd_baseline,
    "homeostasis": _cmd_homeostasis,
    "calibrate": _cmd_calibrate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memthermo",
        description="Temperature-dependent memristor simulator and "
                    "calibration toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"memthermo {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="config or manifest file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="run seed")
        p.add_argument("--preset", choices=LEVEL_ORDER,
                       help="device level preset")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       dest="assignments", help="override one config key")
    return parser


def cli_dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        overrides = {"run.experiment": args.experiment}
        for assignment in args.assignments:
            key, sep, value = assignment.partition("=")
            if not sep:
                raise ConfigError(f"--set expects key=value, got {assignment!r}")
            overrides[key.strip()] = value.strip()
        if args.seed is not None:
            overrides["run.seed"] = str(args.seed)
        if args.out is not None:
            overrides["run.out_dir"] = args.out
        if args.preset is not None:
            overrides["device.level"] = args.preset
        cfg = resolve_config(config_path=args.config, overrides=overrides)

        out = cfg["run.out_dir"]
        os.makedirs(out, exist_ok=True)
        files = _HANDLERS[args.experiment](cfg, out)
        files.append(write_manifest(os.path.join(out, "manifest.txt"), cfg,
                                    experiment=args.experiment,
                                    version=__version__))
        for path in files:
            print(path)
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except (ProtocolError, ResetError, CalibrationError, ExtractionError,
            ThermometerRangeError, ValueError) as exc:
        print(f"error: protocol: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
