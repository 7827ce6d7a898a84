"""Command-line surface.

One experiment per invocation, named by the subcommand; `--out`,
`--seed` and `--preset` spell the config keys `run.out_dir`, `run.seed`
and `device.level`. Each run validates its configuration, simulates, and
writes CSV files plus a manifest into the output directory. A
subcommand's handler yields its tables as (file stem, schema, rows) and
`cli_dispatch` writes them. Exit codes: 0 success, 1 configuration error
(a malformed command line too), 2 protocol, convergence,
numeric-overflow or out-of-memory error, 3 I/O error; failures print one
machine-parsable line on stderr. Only the protocol handlers import
`experiments` and `calibration`, so a neuron command never loads them.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import repeat

from . import __version__, rng
from .config import ConfigError, RunConfig, resolve_config
from .csvio import emit_csv, format_value, write_manifest
from .device import LEVEL_ORDER, DeviceState, ResetError
from .neuron import (
    FeedforwardMap,
    baseline_curve,
    calibrate_gain,
    run_homeostasis,
)
from .thermal import ProtocolError, TemperatureSchedule, scrambled_schedule

def _feedforward(cfg: RunConfig) -> FeedforwardMap:
    mode = cfg["neuron.map_mode"]
    if mode == "affine":
        return cfg.affine_map
    if mode == "fixed":
        return cfg.fixed_map
    return calibrate_gain(cfg.floats("calibrate.loads"), cfg.system,
                          mode="table", kappa_grid=cfg.kappa_grid,
                          gamma=cfg["neuron.gamma"]).fmap


def _schedule(cfg: RunConfig) -> TemperatureSchedule:
    return cfg.schedule or scrambled_schedule(cfg["run.seed"],
                                              hold_s=cfg["schedule.hold_s"])


def _cycle(cfg: RunConfig, states):
    """run_thermal_cycling of the configured run, reading states."""
    from .experiments import run_thermal_cycling
    return run_thermal_cycling(
        schedule=_schedule(cfg),
        seed=cfg["run.seed"],
        fit=cfg.fit,
        plant=cfg.plant,
        states=states,
        read_period_s=cfg["schedule.read_period_s"],
        drift_scale=cfg["cycle.drift_scale"],
    )


def _cmd_cycle(cfg: RunConfig):
    from .experiments import PHASE_READ
    [res] = _cycle(cfg, [cfg.device])
    yield "cycle", "cycle", zip(*res[:5], repeat(PHASE_READ))
    yield "cycle_holds", "cycle_holds", (
        (h.index, h.t_set_K, h.r_steady_ohm, h.r_first_ohm, h.r_last_ohm,
         h.settled) for h in res.holds)


def _cmd_levels(cfg: RunConfig):
    from .experiments import PHASE_READ
    r_refs = [cfg.fit.anchor(level).r_ref for level in LEVEL_ORDER]
    results = _cycle(cfg, [DeviceState(r_persistent=r) for r in r_refs])
    yield "levels", "levels", [
        (level, r_ref, res.total_drop(), res.sensitivity())
        for level, r_ref, res in zip(LEVEL_ORDER, r_refs, results)]
    # every level shares the chamber columns, floats only: format them once,
    # not per file, as format_value formats a float
    chamber_text = [list(map(format, col, repeat(".9g")))
                    for col in results[0][:4]]
    for level, res in zip(LEVEL_ORDER, results):
        yield f"cycle_{level}", "cycle", zip(*chamber_text, res.r_ohm,
                                            repeat(PHASE_READ))


def _cmd_iv(cfg: RunConfig):
    """Yield the iv table, then return the swept curves."""
    from .experiments import run_iv_sweep
    ivs = run_iv_sweep(level=cfg["device.level"], r_ohm=cfg.device.r_eff,
                       temperatures=cfg.floats("iv.temps_k"),
                       voltages=cfg.voltages, fit=cfg.fit)
    yield "iv", "iv", ((cfg["device.level"], *row) for row in ivs.rows())
    return ivs


def _cmd_signature(cfg: RunConfig):
    from .calibration import extract_thermionic
    ivs = cfg.ivs
    if ivs is None:   # no input file: sweep, and write the iv table too
        ivs = yield from _cmd_iv(cfg)
    fitres = extract_thermionic(ivs)
    yield "signature", "signature", [
        ("pos", fitres.a_prefactor, fitres.phi_b_pos, fitres.alpha_pos,
         fitres.stage1_r2_min, fitres.stage2_r2_pos, fitres.intercept_spread),
        ("neg", fitres.a_prefactor, fitres.phi_b_neg, fitres.alpha_neg,
         fitres.stage1_r2_min, fitres.stage2_r2_neg, fitres.intercept_spread)]


def _hsr_args(cfg: RunConfig) -> dict:
    """run_heat_stimulate_retention keywords shared by hsr and nullcline."""
    return dict(
        fit=cfg.fit,
        params=cfg.switching,
        plant=cfg.plant,
        state=cfg.device,
        pulse_count=cfg["hsr.pulse_count"],
        retention_reads=cfg["hsr.retention_reads"],
        retention_period_s=cfg["hsr.retention_period_s"],
        hold_s=cfg["schedule.hold_s"],
        read_period_s=cfg["schedule.read_period_s"],
    )


def _cmd_hsr(cfg: RunConfig):
    from .experiments import run_heat_stimulate_retention
    t_test, v_prog = cfg["hsr.t_test_k"], cfg["hsr.v_prog_v"]
    res = run_heat_stimulate_retention(t_test=t_test, v_prog=v_prog,
                                       **_hsr_args(cfg))
    yield "hsr", "hsr", res.records
    yield "hsr_summary", "hsr_summary", [
        (t_test, v_prog, res.frac_state, res.frac_at_t, res.frac_vs_300,
         res.recovered_frac, res.reset_pulses)]


def _cmd_nullcline(cfg: RunConfig):
    from .calibration import fit_switch_curve
    from .experiments import run_nullcline_sweep
    rows = run_nullcline_sweep(**_hsr_args(cfg))
    curve = fit_switch_curve(rows)
    yield "nullcline", "nullcline", rows
    yield "nullcline_fit", "nullcline_fit", [
        (curve.g_14_310, curve.g_14_360, curve.beta, curve.r2_voltage_min,
         curve.r2_temperature)]


def _cmd_thermometer(cfg: RunConfig):
    from .calibration import NOISE_CLIP, invert_temperature, thermometer_guard
    trials = cfg["thermometer.trials"]
    [res] = _cycle(cfg, [cfg.device])
    sigma = cfg["thermometer.noise_sigma"]
    noise = rng.substream(cfg["run.seed"], "noise") if sigma > 0 else None
    guard = thermometer_guard(sigma, cfg["cycle.drift_scale"])
    rows = []
    for hold in res.holds:
        for trial in range(trials):
            r = hold.r_steady_ohm
            if sigma > 0:
                # clipped log-normal read scatter: bounded instrument noise
                z = min(max(noise.standard_normal(), -NOISE_CLIP), NOISE_CLIP)
                r *= math.exp(sigma * z)
            t_est = invert_temperature(r, cfg.fit, cfg.device.r_eff,
                                       guard=guard)
            rows.append((hold.t_end_s, hold.t_set_K, trial, r, t_est,
                         t_est - hold.t_set_K))
    yield "thermometer", "thermometer", rows


def _cmd_baseline(cfg: RunConfig):
    calibrated = cfg["baseline.feedforward"] == "calibrated"
    yield "baseline", "baseline", baseline_curve(
        cfg.floats("baseline.loads"), cfg.system,
        _feedforward(cfg) if calibrated else FeedforwardMap(kappa=0.0),
        settle_steps=cfg["baseline.settle_steps"],
        measure_steps=cfg["baseline.measure_steps"],
    )


def _cmd_homeostasis(cfg: RunConfig):
    res = run_homeostasis(cfg.pattern, cfg.system, _feedforward(cfg))
    yield "homeostasis_rates", "homeostasis_rates", res.window_rates()
    yield ("homeostasis_spike_windows", "homeostasis_spike_windows",
           res.spike_count_windows())
    yield "homeostasis_trace", "homeostasis_trace", _trace_rows(res)


def _trace_rows(res):
    """Trace rows; each segment's load and setpoint is formatted once."""
    loads, t_sets = [], []
    for steps, load, t_set in res.segments:
        loads += repeat(format_value(load), steps)
        t_sets += repeat(format_value(t_set), steps)
    return zip(range(res.steps), (k * res.dt_s for k in range(res.steps)),
               loads, t_sets, res.t_dev, res.spikes)


def _cmd_calibrate(cfg: RunConfig):
    cal = calibrate_gain(
        cfg.floats("calibrate.loads"), cfg.system, mode=cfg["calibrate.mode"],
        gamma=cfg["neuron.gamma"], kappa_grid=cfg.kappa_grid,
    )
    yield "calibrate_gain", "calibrate_gain", [
        (cal.mode, cal.kappa, cal.spread_uncompensated,
         cal.spread_calibrated)]
    yield "calibrate_barriers", "calibrate_barriers", (
        (a.label, a.r_ref, a.total_drop, phi)
        for a, phi in zip(cfg.fit.anchors, cfg.fit.phi_of_anchor))
    if cal.mode == "table":
        yield "calibrate_table", "calibrate_table", zip(
            cal.fmap.table_loads, cal.fmap.table_temps)


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
EXPERIMENTS = tuple(_HANDLERS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a command-line mistake is a config mistake
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="memthermo", description="Temperature-dependent "
                     "memristor simulator and calibration toolkit")
    parser.add_argument("--version", action="version",
                        version=f"memthermo {__version__}")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="config or manifest file")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="assignments", help="override one config key")
    parser.add_argument("--out", dest="run.out_dir", help="output directory")
    parser.add_argument("--seed", dest="run.seed", help="run seed")
    parser.add_argument("--preset", dest="device.level",
                        help="device level preset")
    return parser


def cli_dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
        overrides = {}
        for assignment in args.assignments:
            key, sep, value = assignment.partition("=")
            if not sep:
                raise ConfigError(f"--set expects key=value, got {assignment!r}")
            overrides[key.strip()] = value.strip()
        # a flag beats --set, and the subcommand names the run
        overrides.update((key, value) for key, value in vars(args).items()
                         if "." in key and value is not None)
        overrides["run.experiment"] = args.experiment
        cfg = resolve_config(config_path=args.config, overrides=overrides)

        out = cfg["run.out_dir"]
        os.makedirs(out, exist_ok=True)
        rng.numpy_version = "not imported"   # until this run imports it
        # a handler yields each table once the run has computed it, so
        # the files of a failed run are those written before it failed
        files = [emit_csv(os.path.join(out, f"{stem}.csv"), schema, rows)
                 for stem, schema, rows in _HANDLERS[args.experiment](cfg)]
        files.append(write_manifest(os.path.join(out, "manifest.txt"), cfg,
                                    numpy=rng.numpy_version))
        for path in files:
            print(path)
        return 0
    except SystemExit:   # --help or --version printed its text
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, MemoryError) as exc:
        tb = exc.__traceback__  # name the function that raised it
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = tb.tb_frame.f_code.co_name
        problem = (f"out of memory in {where}" if isinstance(exc, MemoryError)
                   else f"{where}: {exc}")
        print(f"error: protocol: {problem}", file=sys.stderr)
        return 2
    except (ProtocolError, ResetError, ValueError) as exc:
        # the configuration passed every check before the handler ran, so
        # a ValueError from the model (CalibrationError, ExtractionError,
        # ThermometerRangeError or a bare one) is a failure of the run
        print(f"error: protocol: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
