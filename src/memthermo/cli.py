"""Command-line surface.

One experiment per invocation, named by the subcommand; `--out`,
`--seed` and `--preset` spell the config keys `run.out_dir`, `run.seed`
and `device.level`. The command line is read here: a general-purpose
parser cost every cold run ~3-4 ms of imports and set-up before its
config was resolved. Each run validates its configuration, simulates,
and writes CSV files plus a manifest into the output directory. A
subcommand's handler yields its tables as (file stem, schema, rows) and
`cli_dispatch` writes them. Exit codes: 0 success, 1 configuration error
(a malformed command line too), 2 protocol, convergence,
numeric-overflow or out-of-memory error, 3 I/O error; failures print one
machine-parsable line on stderr. Only the protocol handlers import
`experiments` and `calibration`, so a neuron command never loads them.
"""
from __future__ import annotations

import math
import os
import sys
from itertools import repeat

from . import __version__, rng
from .config import ConfigError, RunConfig, resolve_config
from .csvio import FLOAT_FORMAT, emit_csv, format_value, write_manifest
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
    # each hold's leading fields are its row; t_end_s is not written
    yield "cycle_holds", "cycle_holds", (hold[:-1] for hold in res.holds)


def _cmd_levels(cfg: RunConfig):
    from .experiments import PHASE_READ
    r_refs = [cfg.fit.anchor(level).r_ref for level in LEVEL_ORDER]
    results = _cycle(cfg, [DeviceState(r_persistent=r) for r in r_refs])
    yield "levels", "levels", [
        (level, r_ref, res.total_drop(), res.sensitivity())
        for level, r_ref, res in zip(LEVEL_ORDER, r_refs, results)]
    # every level shares the chamber columns, floats only: format them once,
    # not per file, as format_value formats a float
    chamber_text = [list(map(format, col, repeat(FLOAT_FORMAT)))
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
    yield "signature", "signature", extract_thermionic(ivs)


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
    res = run_heat_stimulate_retention(t_test=cfg["hsr.t_test_k"],
                                       v_prog=cfg["hsr.v_prog_v"],
                                       **_hsr_args(cfg))
    yield "hsr", "hsr", res.records
    yield "hsr_summary", "hsr_summary", [res.summary]


def _cmd_nullcline(cfg: RunConfig):
    from .calibration import fit_switch_curve
    from .experiments import run_nullcline_sweep
    rows = run_nullcline_sweep(**_hsr_args(cfg))
    curve = fit_switch_curve(rows)
    yield "nullcline", "nullcline", rows
    yield "nullcline_fit", "nullcline_fit", [curve]


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
    # its leading fields are the row; the map and the rates are not written
    yield "calibrate_gain", "calibrate_gain", [cal[:4]]
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


# each option's metavar, None for a flag, in the order an ambiguous
# prefix lists them; a dotted metavar is the config key, upper-cased
_OPTIONS = {"--help": None, "--version": None, "--config": "CONFIG",
            "--set": "K=V", "--out": "RUN.OUT_DIR", "--seed": "RUN.SEED",
            "--preset": "DEVICE.LEVEL"}


def _usage() -> str:
    flags = [f"[{opt} {meta}]" for opt, meta in _OPTIONS.items() if meta]
    pad = "\n" + " " * len("usage: memthermo ")
    return ("usage: memthermo [-h] [--version] " + " ".join(flags[:2]) + pad
            + " ".join(flags[2:]) + pad + "{" + ",".join(EXPERIMENTS) + "}")


def _option(token):
    """(option, its `=` value or None) of a token; option is None for a
    positional or a negative number, "" for an unknown option."""
    if token[:1] != "-" or token == "-":
        return None, None
    name, eq, value = token.partition("=")
    name = "--help" if name == "-h" else name
    found = [name] if name in _OPTIONS else [
        opt for opt in _OPTIONS if token[1] == "-" and opt.startswith(name)]
    if len(found) > 1:
        raise ConfigError(f"ambiguous option: {token} could match "
                          + ", ".join(found))
    if found:
        return found[0], value if eq else None
    number = token[1:].replace(".", "", 1).isdecimal() and token[-1] != "."
    return (None if number or " " in token else ""), None


def _parse_args(tokens):
    """(--config, overrides) of the tokens, or None once --help or
    --version has printed. An ambiguous prefix fails first, then the
    first mistake from the left, a missing subcommand, and leftovers.
    `--` ends the options, and is dropped next to the subcommand."""
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(token) for token in tokens[:end]]   # ambiguity first
    kinds += [("--", None)] + [(None, None)] * (len(tokens) - end)
    experiment, values, extras, k = None, {}, [], 0
    while k < len(tokens):
        token, (option, value), k = tokens[k], kinds[k], k + 1
        if option is None and experiment is None:
            if token not in EXPERIMENTS:
                raise ConfigError(
                    f"argument experiment: invalid choice: {token!r} (choose "
                    f"from {', '.join(map(repr, EXPERIMENTS))})")
            experiment, k = token, k + (k == end)   # with a "--" right after
        elif option == "--" and not experiment and k < len(tokens):
            continue   # or right before
        elif option in (None, "", "--"):   # left over
            extras.append(token)
        elif not _OPTIONS[option]:   # --help or --version
            if value is not None:
                name = "-h/--help" if option == "--help" else option
                raise ConfigError(f"argument {name}: ignored explicit "
                                  f"argument {value!r}")
            print(_usage() if option == "--help" else f"memthermo {__version__}")
            return None
        else:
            if value is None and kinds[k][0] is not None:
                raise ConfigError(f"argument {option}: expected one argument")
            if value is None:
                value, k = tokens[k], k + 1
            values.setdefault(option, []).append(value)
    if experiment is None:
        raise ConfigError("the following arguments are required: experiment")
    if extras:
        raise ConfigError("unrecognized arguments: " + " ".join(extras))
    overrides = {}
    for assignment in values.pop("--set", []):
        key, sep, value = assignment.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {assignment!r}")
        overrides[key.strip()] = value.strip()
    # the last value of a flag beats --set, and the subcommand names the run
    config_path = values.pop("--config", [None])[-1]
    overrides.update((_OPTIONS[opt].lower(), given[-1])
                     for opt, given in values.items())
    overrides["run.experiment"] = experiment
    return config_path, overrides


def cli_dispatch(argv) -> int:
    try:
        parsed = _parse_args(argv)
        if parsed is None:   # --help or --version printed its text
            return 0
        cfg = resolve_config(*parsed)

        out = cfg["run.out_dir"]
        os.makedirs(out, exist_ok=True)
        rng.numpy_version = "not imported"   # until this run imports it
        # a handler yields each table once the run has computed it, so
        # the files of a failed run are those written before it failed
        files = [emit_csv(os.path.join(out, f"{stem}.csv"), schema, rows)
                 for stem, schema, rows in _HANDLERS[cfg["run.experiment"]](cfg)]
        files.append(write_manifest(os.path.join(out, "manifest.txt"), cfg,
                                    numpy=rng.numpy_version))
        for path in files:
            print(path)
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
    except (ProtocolError, ResetError, ValueError, ImportError) as exc:
        # the configuration passed every check before the handler ran, so
        # a ValueError from the model (CalibrationError, ExtractionError,
        # ThermometerRangeError or a bare one) is a failure of the run, as
        # is an ImportError: no numpy for the signature fit, which needs it
        print(f"error: protocol: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
