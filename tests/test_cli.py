"""Command-line contract tests: exit codes, outputs, reproducibility."""
import inspect
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from memthermo import __version__, cli, config, rng
from memthermo.cli import EXPERIMENTS, cli_dispatch
from memthermo.config import REGISTRY, ConfigError, resolve_config
from memthermo.csvio import parse_csv
from memthermo.device import (DEFAULT_ANCHORS, LEVEL_ORDER, SwitchingParams,
                              ThermalFit, iv_preset)
from memthermo.neuron import N_SYNAPSES, NeuronSystem, settled_rate
from test_golden import RUNS


def _run(*argv):
    return cli_dispatch(list(argv))


def test_cycle_writes_trace_holds_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    assert _run("cycle", "--out", str(out), "--seed", "5") == 0
    header, rows = parse_csv(out / "cycle.csv", "cycle")
    assert header == ("t_s", "t_set_K", "t_air_K", "t_dev_K", "r_ohm", "phase")
    assert rows and all(r[5] == "read" for r in rows)
    manifest = (out / "manifest.txt").read_text()
    assert "run.seed = 5" in manifest
    assert "run.experiment = cycle" in manifest


def test_unknown_config_key_exits_one_naming_it(tmp_path, capsys):
    code = _run("cycle", "--out", str(tmp_path), "--set", "bogus.key=3")
    captured = capsys.readouterr()
    assert code == 1
    assert "bogus.key" in captured.err
    assert captured.err.startswith("error: config:")


def test_protocol_failure_exits_two(tmp_path, capsys):
    # a 15-minute hold cannot satisfy the settling criterion
    code = _run("cycle", "--out", str(tmp_path),
                "--set", "schedule.hold_s=900")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: protocol:")


def test_io_failure_exits_three(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = _run("cycle", "--out", str(blocker / "sub"))
    assert code == 3
    assert capsys.readouterr().err.startswith("error: io:")


def test_manifest_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("iv", "--out", str(a), "--seed", "3", "--preset", "L1") == 0
    assert _run("iv", "--config", str(a / "manifest.txt"),
                "--out", str(b)) == 0
    assert (a / "iv.csv").read_bytes() == (b / "iv.csv").read_bytes()


def test_manifest_rerun_ignores_the_environment(tmp_path, monkeypatch,
                                               capsys):
    # a MEMTHERMO_* variable once overrode the manifest (a different iv.csv)
    # or, naming no key, failed every run with exit 1
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("iv", "--out", str(a)) == 0
    monkeypatch.setenv("MEMTHERMO_DEVICE_LEVEL", "L4")
    monkeypatch.setenv("MEMTHERMO_HOME", "/tmp")
    assert _run("iv", "--config", str(a / "manifest.txt"),
                "--out", str(b)) == 0
    assert (a / "iv.csv").read_bytes() == (b / "iv.csv").read_bytes()


def test_homeostasis_emits_both_windowings(tmp_path, capsys):
    out = tmp_path / "hom"
    assert _run("homeostasis", "--out", str(out),
                "--set", "homeostasis.pattern=0.25:400") == 0
    _, rates = parse_csv(out / "homeostasis_rates.csv", "homeostasis_rates")
    assert len(rates) == 400 // 25
    header, _ = parse_csv(out / "homeostasis_spike_windows.csv",
                          "homeostasis_spike_windows")
    assert header[0] == "window"


def test_pattern_csv_input(tmp_path, capsys):
    pattern = tmp_path / "pattern.csv"
    pattern.write_text("step,load\n0,0.2\n200,0.3\n")
    out = tmp_path / "hom2"
    assert _run("homeostasis", "--out", str(out),
                "--set", f"homeostasis.pattern_csv={pattern}") == 0
    _, trace = parse_csv(out / "homeostasis_trace.csv", "homeostasis_trace")
    loads = {row[2] for row in trace}
    assert loads == {"0.2", "0.3"}


def test_manifest_pins_the_input_file(tmp_path, monkeypatch, capsys):
    # the manifest echoed the path as given, so a rerun read whatever file
    # was there: from another directory none, after an edit another input
    (tmp_path / "a").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    Path("pattern.csv").write_text("step,load\n0,0.2\n200,0.3\n")
    assert _run("homeostasis", "--out", "run",
                "--set", "homeostasis.pattern_csv=pattern.csv") == 0
    run, pattern = tmp_path / "a" / "run", tmp_path / "a" / "pattern.csv"
    crc = f"{zlib.crc32(pattern.read_bytes()):08x}"
    lines = (run / "manifest.txt").read_text().splitlines()
    assert lines[5] == f"# input homeostasis.pattern_csv crc32 = {crc}"
    assert f"homeostasis.pattern_csv = {pattern}" in lines
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "b")
    assert _run("homeostasis", "--config", str(run / "manifest.txt"),
                "--out", "rerun") == 0
    for name in ("homeostasis_rates.csv", "homeostasis_spike_windows.csv",
                 "homeostasis_trace.csv"):
        assert (tmp_path / "b" / "rerun" / name).read_bytes() == (
            run / name).read_bytes()
    capsys.readouterr()
    pattern.write_text("step,load\n0,0.25\n200,0.3\n")
    edited = f"{zlib.crc32(pattern.read_bytes()):08x}"
    assert (_run("homeostasis", "--config", str(run / "manifest.txt"),
                 "--out", "edited"), capsys.readouterr().err) == (
        1, f"error: config: homeostasis.pattern_csv: {pattern} has crc32 "
           f"{edited}, but the config pins crc32 {crc}\n")
    assert not (tmp_path / "b" / "edited").exists()
    # a file named on the command line is not the pinned one
    assert _run("homeostasis", "--config", str(run / "manifest.txt"),
                "--set", f"homeostasis.pattern_csv={pattern}",
                "--out", "named") == 0


_PIN_FORM = "2: expected '# input <file key> crc32 = <8 hex digits>', got "


@pytest.mark.parametrize("line, reason", [
    pytest.param("# input homeostasis.pattern_csv crc32 = 0000000g",
                 _PIN_FORM + "'# input homeostasis.pattern_csv crc32 = "
                 "0000000g'", id="not-hex"),
    pytest.param("# input run.seed crc32 = 00000000",
                 _PIN_FORM + "'# input run.seed crc32 = 00000000'",
                 id="not-a-file-key"),
    pytest.param("# input iv.input_csv crc32 = 00000000",
                 "iv.input_csv: no file is set, but the config pins crc32 "
                 "00000000", id="unset-key"),
])
def test_bad_input_pin_fails_as_config_error(tmp_path, capsys, line, reason):
    path = tmp_path / "run.cfg"
    path.write_text(f"run.seed = 1\n{line}\n")
    source = "" if reason.startswith("iv.") else f"{path}:"
    assert (_run("iv", "--config", str(path), "--out", str(tmp_path / "o")),
            capsys.readouterr().err) == (1, f"error: config: {source}{reason}\n")


@pytest.mark.parametrize("cmd", EXPERIMENTS)
def test_default_manifest_pins_no_input(tmp_path, capsys, cmd):
    # a run that sets no file key writes the manifest it wrote before
    # inputs were pinned: the five header lines, then the configuration
    out = tmp_path / cmd
    assert _run(cmd, "--out", str(out), *(f"--set={kv}" for kv in _SHORT)) == 0
    overrides = {"run.experiment": cmd, "run.out_dir": str(out),
                 **dict(kv.split("=") for kv in _SHORT)}
    python = ".".join(map(str, sys.version_info[:3]))
    numpy = np.__version__ if cmd == "signature" else "not imported"
    assert (out / "manifest.txt").read_text() == (
        f"# memthermo run manifest\n# version = {__version__}\n"
        f"# python = {python}\n# numpy = {numpy}\n# experiment = {cmd}\n"
        + resolve_config(overrides=overrides).serialize())
    assert "# input" not in (out / "manifest.txt").read_text()


def test_nullcline_schema_matches_contract(tmp_path, capsys):
    out = tmp_path / "nc"
    assert _run("nullcline", "--out", str(out), "--preset", "L1") == 0
    header, rows = parse_csv(out / "nullcline.csv", "nullcline")
    assert header == ("v_V", "T_K", "frac")
    assert len(rows) == 8 * 6


def test_thermometer_errors_within_bounds(tmp_path, capsys):
    out = tmp_path / "thermo"
    assert _run("thermometer", "--out", str(out), "--seed", "8",
                "--set", "thermometer.noise_sigma=0.01",
                "--set", "thermometer.trials=20") == 0
    _, rows = parse_csv(out / "thermometer.csv", "thermometer")
    errors = [abs(float(r[5])) for r in rows]
    assert max(errors) <= 2.0


def test_explicit_schedule_setpoints(tmp_path, capsys):
    out = tmp_path / "explicit"
    assert _run("cycle", "--out", str(out),
                "--set", "schedule.setpoints=300,330,360") == 0
    _, holds = parse_csv(out / "cycle_holds.csv", "cycle_holds")
    assert [h[1] for h in holds] == ["300", "330", "360"]
    # the manifest reproduces the explicit order exactly
    rerun = tmp_path / "explicit2"
    assert _run("cycle", "--config", str(out / "manifest.txt"),
                "--out", str(rerun)) == 0
    assert (out / "cycle.csv").read_bytes() == (rerun / "cycle.csv").read_bytes()


def test_explicit_schedule_rejects_off_grid_setpoint(tmp_path, capsys):
    code = _run("cycle", "--out", str(tmp_path / "x"),
                "--set", "schedule.setpoints=300,315")
    assert code == 1
    assert "schedule.setpoints" in capsys.readouterr().err


def test_signature_accepts_external_iv_csv(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert _run("signature", "--out", str(sim), "--preset", "L1") == 0
    external = tmp_path / "ext"
    assert _run("signature", "--out", str(external),
                "--set", f"iv.input_csv={sim / 'iv.csv'}") == 0
    # extraction from the emitted CSV matches the in-memory fit to the
    # 9 significant digits the wire format carries
    _, sim_rows = parse_csv(sim / "signature.csv", "signature")
    _, ext_rows = parse_csv(external / "signature.csv", "signature")
    for a, b in zip(sim_rows, ext_rows):
        assert float(a[2]) == pytest.approx(float(b[2]), rel=1e-6)
        assert float(a[3]) == pytest.approx(float(b[3]), rel=1e-6)


def test_signature_reads_back_its_own_four_temperature_iv_csv(tmp_path,
                                                              capsys):
    # every temperature is a curve of its own, so the read-back fits the
    # same curves; the file carries 9 significant digits, and the
    # round-off column intercept_spread follows them
    sim, back = tmp_path / "sim", tmp_path / "back"
    assert _run("signature", "--out", str(sim),
                "--set", "iv.temps_k=300,310,330,360") == 0
    assert _run("signature", "--out", str(back),
                "--set", f"iv.input_csv={sim / 'iv.csv'}") == 0
    _, sim_rows = parse_csv(sim / "signature.csv", "signature")
    _, back_rows = parse_csv(back / "signature.csv", "signature")
    assert [r[0] for r in back_rows] == [r[0] for r in sim_rows] != []
    for a, b in zip(sim_rows, back_rows):
        assert [float(v) for v in b[1:6]] == pytest.approx(
            [float(v) for v in a[1:6]], rel=1e-6)
        assert float(b[6]) < 1e-6


def test_signature_reads_back_voltages_1e_14_v_apart(tmp_path, capsys):
    # a second sample 1e-14 V above 0.05 V at every temperature is a
    # voltage of its own; the fit once merged the two and failed the run,
    # "voltage 0.05 V missing at some temperatures" (exit 2)
    sim, back = tmp_path / "sim", tmp_path / "back"
    assert _run("signature", "--out", str(sim)) == 0
    path = sim / "iv.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines) + "".join(
        line.replace(",0.05,", f",{0.05 + 1e-14!r},")
        for line in lines if ",0.05," in line))
    assert _run("signature", "--out", str(back),
                "--set", f"iv.input_csv={path}") == 0
    _, sim_rows = parse_csv(sim / "signature.csv", "signature")
    _, back_rows = parse_csv(back / "signature.csv", "signature")
    assert [r[0] for r in back_rows] == ["pos", "neg"]
    for a, b in zip(sim_rows, back_rows):
        assert float(b[2]) == pytest.approx(float(a[2]), rel=1e-6)
        assert float(b[3]) == pytest.approx(float(a[3]), rel=1e-6)


def test_version_flag(capsys):
    assert _run("--version") == 0
    assert "memthermo" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["cycle", "--help"]])
def test_help_and_version_exit_zero_without_stderr(capsys, argv):
    assert _run(*argv) == 0
    captured = capsys.readouterr()
    assert "memthermo" in captured.out and captured.err == ""


@pytest.mark.parametrize("argv, reason", [
    # all but seed-neg and set-no-value once printed a usage block and
    # "memthermo: error: ..." (the parser's own type and choices restated
    # the key checks)
    pytest.param(["cycle", "--seed", "abc"],
                 "bad value for run.seed: 'abc' is not int", id="seed-abc"),
    pytest.param(["cycle", "--seed", "-1"],
                 "run.seed must be >= 0, got -1", id="seed-neg"),
    pytest.param(["cycle", "--preset", "L9"],
                 "device.level must be one of pristine, L1, L2, L3, L4, got "
                 "'L9'", id="preset-L9"),
    pytest.param(["nosuch"], "argument experiment: invalid choice: 'nosuch'",
                 id="nosuch"),
    pytest.param([], "the following arguments are required: experiment",
                 id="no-arguments"),
    pytest.param(["cycle", "--bogus"], "unrecognized arguments: --bogus",
                 id="bogus-flag"),
    pytest.param(["cycle", "extra"], "unrecognized arguments: extra",
                 id="extra-argument"),
    pytest.param(["iv", "--se", "3"], "ambiguous option: --se could match",
                 id="ambiguous-se"),
    pytest.param(["iv", "--set", "run.seed"],
                 "--set expects key=value, got 'run.seed'", id="set-no-value"),
])
def test_command_line_mistake_fails_as_config_error_on_one_line(
        tmp_path, capsys, monkeypatch, argv, reason):
    # argparse words some messages differently across Python versions, so
    # the reason is the start of the line; a run would write into ./out
    monkeypatch.chdir(tmp_path)
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {reason}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "usage:" not in err and not list(tmp_path.iterdir())
    if argv in (["cycle", "--seed", "abc"], ["nosuch"]):
        run = _cli_process(*argv)
        assert (run.returncode, run.stdout, run.stderr) == (1, "", err)


def test_flags_and_subcommand_beat_set(tmp_path, capsys):
    # a flag beats --set for its key, and the manifest names the
    # subcommand that ran, whatever --set said
    assert _run("iv", "--out", str(tmp_path), "--seed", "3",
                "--set", "run.seed=5", "--set", "run.experiment=levels") == 0
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert "# experiment = iv" in manifest
    assert "run.experiment = iv" in manifest and "run.seed = 3" in manifest


@pytest.mark.parametrize("argv, key, raw", [
    # each once reached the simulation: a NaN in the gain table's root
    # find (exit 2), an OverflowError traceback, a silent zero-spike run
    pytest.param(["calibrate", "--set", "neuron.theta=nan"],
                 "neuron.theta", "nan", id="calibrate-theta-nan"),
    pytest.param(["cycle", "--set", "schedule.hold_s=inf"],
                 "schedule.hold_s", "inf", id="cycle-hold-inf"),
    pytest.param(["homeostasis", "--set", "neuron.theta=nan",
                  "--set", "neuron.map_mode=affine"],
                 "neuron.theta", "nan", id="homeostasis-affine-theta-nan"),
    # non-finite entries of the float-list keys once reached the protocol
    pytest.param(["iv", "--set", "iv.temps_k=300,nan"],
                 "iv.temps_k", "300,nan", id="iv-temps-nan"),
    pytest.param(["baseline", "--set", "baseline.loads=nan"],
                 "baseline.loads", "nan", id="baseline-loads-nan"),
    pytest.param(["cycle", "--set", "schedule.setpoints=300,inf"],
                 "schedule.setpoints", "300,inf", id="cycle-setpoints-inf"),
])
def test_non_finite_float_fails_as_config_error_on_one_line(
        tmp_path, capsys, argv, key, raw):
    code = _run(*argv, "--out", str(tmp_path))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: config: {key} must be finite, got '{raw}'\n"


@pytest.mark.parametrize("argv, reason", [
    # each once ended in a traceback, a silent run (exit 0) or exit 2
    pytest.param(["cycle", "--set", "schedule.hold_s=0"],
                 "schedule.hold_s must be > 0, got 0.0", id="cycle-hold-0"),
    pytest.param(["hsr", "--set", "schedule.hold_s=-5"],
                 "schedule.hold_s must be > 0, got -5.0", id="hsr-hold-neg"),
    *(pytest.param([cmd, "--set", "schedule.read_period_s=0"],
                   "schedule.read_period_s must be > 0, got 0.0",
                   id=f"{cmd}-read-period-0")
      for cmd in ("cycle", "levels", "hsr", "nullcline", "thermometer")),
    pytest.param(["hsr", "--set", "hsr.retention_period_s=0"],
                 "hsr.retention_period_s must be > 0, got 0.0",
                 id="hsr-retention-period-0"),
    # a step count that overflows to infinity once failed the run as
    # "_hold: cannot convert float infinity to integer" (exit 2)
    pytest.param(["cycle", "--set", "schedule.read_period_s=1e-308"],
                 "schedule.hold_s, schedule.read_period_s: hold (3600.0 s) "
                 "/ read period (1e-308 s) must be a finite step count",
                 id="cycle-read-period-1e-308"),
    pytest.param(["hsr", "--set", "hsr.retention_period_s=1e308"],
                 "hsr.retention_reads, hsr.retention_period_s: hold (inf s) "
                 "/ read period (1e+308 s) must be a finite step count",
                 id="hsr-retention-period-1e308"),
    pytest.param(["thermometer", "--set", "thermometer.trials=0"],
                 "thermometer.trials must be > 0, got 0",
                 id="thermometer-trials-0"),
    pytest.param(["levels", "--set", "fit.r_l1_ohm=5e6"],
                 "fit: anchors must be strictly decreasing in r_ref",
                 id="levels-fit-unordered"),
    pytest.param(["levels", "--set", "fit.drop_l4=0.02"],
                 "fit: total_drop=0.0200 outside achievable range "
                 "(0.0308, 1.0000) for the 300->360 K window",
                 id="levels-fit-drop-unreachable"),
    pytest.param(["baseline", "--set", "baseline.measure_steps=0"],
                 "baseline.measure_steps must be > 0, got 0",
                 id="baseline-measure-steps-0"),
    pytest.param(["calibrate", "--set", "calibrate.mode=affine",
                  "--set", "calibrate.kappa_step=0"],
                 "calibrate: kappa grid needs step > 0 and 0 <= kappa_max "
                 "< 2401 steps",
                 id="calibrate-affine-kappa-step-0"),
    # 1e9 K/load at 1 K/load once built a billion-entry grid
    pytest.param(["calibrate", "--set", "calibrate.mode=affine",
                  "--set", "calibrate.kappa_max=1e9"],
                 "calibrate: kappa grid needs step > 0 and 0 <= kappa_max "
                 "< 2401 steps",
                 id="calibrate-affine-kappa-max-1e9"),
    pytest.param(["hsr", "--set", "hsr.pulse_count=0"],
                 "hsr.pulse_count must be > 0, got 0", id="hsr-pulses-0"),
    pytest.param(["calibrate", "--set", "calibrate.mode=abc"],
                 "calibrate: unknown calibration mode 'abc'",
                 id="calibrate-mode-abc"),
    pytest.param(["calibrate", "--set", "neuron.theta=-1"],
                 "neuron: theta must be > 0", id="theta-neg"),
    # a near-zero threshold once asked np.repeat for hundreds of GiB of
    # spike times (1e-9) or failed the run on a spike count past int64
    # (1e-300, exit 2)
    *(pytest.param(["homeostasis", "--set", f"neuron.theta={v}",
                    "--set", "homeostasis.pattern=0.2:10",
                    "--set", "neuron.map_mode=affine"],
                   "neuron: theta must be >= 25/window = 1.0",
                   id=f"homeostasis-theta-{v}") for v in ("1e-9", "1e-300")),
    pytest.param(["calibrate", "--set", "neuron.gamma=1.5"],
                 "calibrate: gamma must be in (0, 1)", id="gamma-1.5"),
    # 1e9 overflowed in exp; at a few hundred one of the 25 factors
    # overflows or, at some seeds, underflows to a zero-ohm synapse
    *(pytest.param(["homeostasis", "--set", f"neuron.spread_sigma={v}"],
                   f"neuron.spread_sigma must be in [0, 1], got {float(v)!r}",
                   id=f"homeostasis-spread-{v}") for v in ("1e9", "320")),
    pytest.param(["thermometer", "--set", "thermometer.noise_sigma=-0.01"],
                 "thermometer.noise_sigma must be in [0, 0.1], got -0.01",
                 id="thermometer-noise-neg"),
    # the clamp band exp(2.5 * sigma) once overflowed (exit 2)
    pytest.param(["thermometer", "--set", "thermometer.noise_sigma=1e9"],
                 "thermometer.noise_sigma must be in [0, 0.1], got "
                 "1000000000.0",
                 id="thermometer-noise-1e9"),
    pytest.param(["cycle", "--set", "device.r_ohm=-5"],
                 "device.r_ohm must be 0 or in [1000.0, 30000000.0], got -5.0",
                 id="r-ohm-neg"),
    pytest.param(["iv", "--seed", "-1"],
                 "run.seed must be >= 0, got -1", id="iv-seed-neg"),
    pytest.param(["hsr", "--set", "hsr.t_test_k=400"],
                 "hsr.t_test_k must be in [300.0, 360.0], got 400.0",
                 id="hsr-t-test-400"),
    pytest.param(["cycle", "--set", "plant.tau_air_s=0"],
                 "plant: time constants must be > 0", id="tau-air-0"),
    pytest.param(["cycle", "--set", "schedule.setpoints=300,400"],
                 "schedule.setpoints: setpoint 400.0 K outside chamber "
                 "range [300.0, 360.0] K", id="cycle-setpoint-400"),
    pytest.param(["iv", "--set", "iv.temps_k=-1,300,360"],
                 "iv.temps_k must be in [300.0, 360.0], got '-1,300,360'",
                 id="iv-temps-neg"),
    # an empty list once failed the run as "empty curve set" (exit 2)
    pytest.param(["iv", "--set", "iv.temps_k="],
                 "iv.temps_k must be a non-empty float list, got ''",
                 id="iv-temps-empty"),
    # signature could not read back the iv.csv such a run wrote (exit 2)
    pytest.param(["signature", "--set", "iv.temps_k=300,300,330,360"],
                 "iv.temps_k must be a list without repeats, got "
                 "'300,300,330,360'", id="signature-temps-repeated"),
    # once a singular stage-1 fit (exit 2)
    pytest.param(["signature", "--set", "iv.temps_k=300,300,300"],
                 "iv.temps_k must be a list without repeats, got "
                 "'300,300,300'", id="iv-temps-thrice"),
    # relations between keys: the constructors' checks, as config errors
    pytest.param(["hsr", "--set", "switching.v_th_v=0.9"],
                 "switching: v_th must sit between reads (0.2 V) and the "
                 "lowest programming amplitude (0.7 V)", id="hsr-v-th-0.9"),
    pytest.param(["iv", "--set", "switching.taper_v_start=1.6"],
                 "switching: invalid thermal-ramp taper",
                 id="iv-taper-start-above-end"),
    pytest.param(["iv", "--set", "iv.v_min_v=0.5"],
                 "iv: need 0 < v_min < v_max", id="iv-v-min-above-v-max"),
    pytest.param(["calibrate", "--set", "calibrate.loads=0.2,0.2,0.3"],
                 "calibrate: table mode needs >= 3 distinct loads",
                 id="calibrate-repeated-load"),
    pytest.param(["baseline", "--set", "baseline.loads=1.5"],
                 "baseline.loads must be in [0, 1], got '1.5'",
                 id="baseline-load-1.5"),
    # an empty list once wrote a header-only baseline.csv (exit 0)
    pytest.param(["baseline", "--set", "baseline.loads="],
                 "baseline.loads must be a non-empty float list, got ''",
                 id="baseline-loads-empty"),
    # a key the command does not read is still checked: the manifest
    # echoes it
    pytest.param(["calibrate", "--set", "neuron.map_mode=abc"],
                 "neuron.map_mode must be one of affine, table, fixed, "
                 "got 'abc'", id="calibrate-map-mode-abc"),
    pytest.param(["hsr", "--set", "schedule.setpoints=abc"],
                 "schedule.setpoints must be a comma-separated float list, "
                 "got 'abc'", id="hsr-setpoints-abc"),
    pytest.param(["hsr", "--set", "schedule.setpoints=305"],
                 "schedule.setpoints: setpoint 305.0 K not on the 10 K grid",
                 id="hsr-setpoint-off-grid"),
    pytest.param(["calibrate", "--set", "homeostasis.pattern=abc"],
                 "homeostasis.pattern: bad pattern segment 'abc'; expected "
                 "load:steps", id="calibrate-pattern-abc"),
    # the table feedforward of homeostasis reads the loads in any mode
    pytest.param(["calibrate", "--set", "calibrate.mode=affine",
                  "--set", "calibrate.loads=0.25"],
                 "calibrate: table mode needs >= 3 distinct loads",
                 id="calibrate-affine-one-load"),
    # once exit 3, "No such file or directory: ''"
    pytest.param(["iv", "--out", ""], "run.out_dir must be non-empty, got ''",
                 id="iv-out-empty"),
    # both once ran: at 1e308 cycle wrote r_steady_ohm of 1.6e-40 down to
    # 1.3e-148 Ohm; at 1 the thermometer's worst error was 22 K
    *(pytest.param([cmd, "--set", f"cycle.drift_scale={v}"],
                   f"cycle.drift_scale must be in [0, 0.1], got {float(v)!r}",
                   id=f"drift-{v}")
      for cmd, v in (("thermometer", "1"), ("cycle", "1e308"))),
])
def test_config_mistake_fails_as_config_error_on_one_line(
        tmp_path, capsys, argv, reason):
    # the default --out comes first, so a case's own --out beats it
    code = _run("--out", str(tmp_path), *argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: config: {reason}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, reason", [
    # both once ended in an OverflowError traceback; the message names
    # the function that overflowed
    pytest.param(["hsr", "--set", "hsr.v_prog_v=1e9"],
                 "train_switch_fraction: math range error",
                 id="hsr-v-prog-1e9"),
    pytest.param(["nullcline", "--set", "switching.beta_per_v=1e9",
                  "--set", "schedule.hold_s=800"],
                 "train_switch_fraction: math range error",
                 id="nullcline-beta-1e9"),
])
def test_numeric_overflow_fails_as_protocol_error_on_one_line(
        tmp_path, capsys, argv, reason):
    code = _run(*argv, "--out", str(tmp_path))
    assert (code, capsys.readouterr().err) == (
        2, f"error: protocol: {reason}\n")


@pytest.mark.filterwarnings("error")   # numpy only warns of a bad fit
def test_signature_rank_deficient_fit_fails_on_one_line(tmp_path, capsys):
    # three distinct temperatures within a few ulps: the numpy stage-1
    # fit is rank-deficient, and once exited 0 after four RankWarning
    # lines with r2_stage1_min = -11
    argv = ("signature", "--out", str(tmp_path),
            "--set", "iv.temps_k=300,300.00000000000006,300.0000000000001")
    reason = ("error: protocol: stage 1: temperatures too close for a line "
              "fit (rank-deficient)\n")
    run = _cli_process(*argv)
    assert (run.returncode, run.stderr) == (2, reason)
    assert (_run(*argv), capsys.readouterr().err) == (2, reason)


@pytest.mark.filterwarnings("error")   # an unguarded overflow only warns
@pytest.mark.parametrize("cmd", ["baseline", "calibrate", "cycle",
                                 "homeostasis", "levels", "signature",
                                 "thermometer"])
def test_numpy_overflow_in_a_numpy_command_fails_on_one_line(
        tmp_path, capsys, monkeypatch, cmd):
    # only the signature fit imports numpy now, and its arithmetic runs
    # under rng.raising(); the other cases, once commands that drew from
    # numpy streams, pin that the guard fails any command on one line
    def handler(cfg):
        np = rng.numpy()
        with rng.raising():
            np.exp(np.float64(1e3))
        return []
    monkeypatch.setitem(cli._HANDLERS, cmd, handler)
    code = _run(cmd, "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: protocol: handler: overflow")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv, reason", [
    # an infeasible table is an outcome of the run, not of one key
    pytest.param(["calibrate", "--set", "calibrate.loads=0.10,0.25,0.40"],
                 "empty feasible range: the chamber span cannot flatten "
                 "these loads with the requested residual slope",
                 id="calibrate-infeasible"),
    pytest.param(["signature", "--set", "iv.temps_k=300,360"],
                 "stage 1: need at least three temperatures",
                 id="signature-two-temperatures"),
])
def test_run_failure_fails_as_protocol_error_on_one_line(
        tmp_path, capsys, argv, reason):
    code = _run(*argv, "--out", str(tmp_path))
    assert (code, capsys.readouterr().err) == (
        2, f"error: protocol: {reason}\n")


def test_failed_run_keeps_only_the_tables_written_before_it(tmp_path, capsys):
    # signature writes iv.csv before its extraction fails; no manifest is
    # written and no path is printed
    assert _run("signature", "--set", "iv.temps_k=300,360",
                "--out", str(tmp_path)) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["iv.csv"]
    assert capsys.readouterr().out == ""


def test_model_value_error_fails_as_protocol_error_on_one_line(
        tmp_path, capsys, monkeypatch):
    # a ValueError from the model on a configuration that passed every
    # check is a failed run: one error line, never a traceback
    def handler(cfg):
        raise ValueError("r_persistent must be > 0")
    monkeypatch.setitem(cli._HANDLERS, "cycle", handler)
    assert (_run("cycle", "--out", str(tmp_path)),
            capsys.readouterr().err) == (
        2, "error: protocol: r_persistent must be > 0\n")


def test_out_of_memory_fails_as_protocol_error_on_one_line(
        tmp_path, capsys, monkeypatch):
    # once a MemoryError traceback from emit_csv, exiting 1 as if the
    # configuration were wrong; the line names the function that raised it
    def handler(cfg):
        raise MemoryError
    monkeypatch.setitem(cli._HANDLERS, "homeostasis", handler)
    assert (_run("homeostasis", "--out", str(tmp_path)),
            capsys.readouterr().err) == (
        2, "error: protocol: out of memory in handler\n")


@pytest.mark.parametrize("name, text, key, command, reason", [
    pytest.param("iv.csv", "level,T_K,v_V\npristine,300,0.1\n",
                 "iv.input_csv", "signature",
                 "header does not match schema iv", id="iv-header"),
    pytest.param("iv.csv", "", "iv.input_csv", "signature", "empty file",
                 id="iv-empty"),
    pytest.param("pattern.csv", "", "homeostasis.pattern_csv",
                 "homeostasis", "empty file", id="pattern-empty"),
    # T_K=0 once failed as a division by zero (exit 2)
    *(pytest.param("iv.csv", f"level,T_K,v_V,i_A\npristine,{T},{v},1e-6\n",
                   "iv.input_csv", "signature",
                   f"T={float(T)!r} K: need T in [300.0, 360.0] K and "
                   "finite v and i", id=f"iv-T-{T}-v-{v}")
      for T, v in (("nan", 0.1), ("inf", 0.1), (0, 0.1), (300, "inf"))),
    # once merged into one curve of twice the length (exit 0)
    pytest.param("iv.csv", "level,T_K,v_V,i_A\npristine,300,0.1,1e-6\n"
                 "pristine,300,0.1,2e-6\n", "iv.input_csv", "signature",
                 "T=300.0 K, v=0.1 V: sample given twice", id="iv-row-twice"),
    # each nan is a key of its own: values are checked before the grid
    pytest.param("iv.csv", "level,T_K,v_V,i_A\npristine,nan,0.1,1e-6\n"
                 "pristine,nan,0.2,1e-6\n", "iv.input_csv", "signature",
                 "T=nan K: need T in [300.0, 360.0] K and finite v and i",
                 id="iv-T-nan-curve"),
    # once failed the run, "voltage 0.1 V missing at some temperatures"
    # (exit 2)
    pytest.param("iv.csv", "level,T_K,v_V,i_A\n" + "".join(
        f"pristine,{T},{v},1e-6\n" for T in (300, 330, 360)
        for v in (0.1, 0.2, 0.3) if (T, v) != (330, 0.1)),
        "iv.input_csv", "signature",
        "T=330.0 K: voltages differ from those at T=300.0 K", id="iv-ragged"),
    # both once ran, the first shifted 100 steps early
    *(pytest.param("pattern.csv", f"step,load\n{step},0.2\n150,0.3\n",
                   "homeostasis.pattern_csv", "homeostasis",
                   f"first breakpoint must be at step 0, got {step}",
                   id=f"pattern-first-step-{step}") for step in (100, -50)),
    # every command reads the file keys: cycle and iv once ran (exit 0)
    pytest.param("pattern.csv", "", "homeostasis.pattern_csv", "cycle",
                 "empty file", id="pattern-empty-on-cycle"),
    pytest.param("iv.csv", "", "iv.input_csv", "iv", "empty file",
                 id="iv-empty-on-iv"),
])
def test_malformed_input_file_fails_as_config_error(
        tmp_path, capsys, name, text, key, command, reason):
    path = tmp_path / name
    path.write_text(text)
    code = _run(command, "--out", str(tmp_path / "out"),
                "--set", f"{key}={path}")
    assert (code, capsys.readouterr().err) == (
        1, f"error: config: {path}: {reason}\n")
    assert not (tmp_path / "out").exists()   # refused before --out is made


@pytest.mark.parametrize("column, value, bad_T", [
    ("i_A", "nan", 300.0), ("T_K", "-300", -300.0), ("T_K", "5", 5.0),
    ("T_K", "1e-300", 1e-300)])
def test_iv_file_with_one_bad_value_fails_as_config_error(
        tmp_path, capsys, column, value, bad_T):
    # each once ran: nan in both signature rows or a fit on a temperature
    # outside the chamber (exit 0), or a division by zero at 1e-300 K
    # (exit 2); the first row's value is replaced wherever it occurs
    assert _run("iv", "--out", str(tmp_path)) == 0
    path = tmp_path / "iv.csv"
    header, *rows = path.read_text().splitlines()
    k = header.split(",").index(column)
    cells = [row.split(",") for row in rows]
    first = cells[0][k]
    for row in cells:
        row[k] = value if row[k] == first else row[k]
    path.write_text("\n".join([header, *map(",".join, cells)]) + "\n")
    capsys.readouterr()
    code = _run("signature", "--out", str(tmp_path / "sig"),
                "--set", f"iv.input_csv={path}")
    assert (code, capsys.readouterr().err) == (
        1, f"error: config: {path}: T={bad_T!r} K: need T in [300.0, 360.0] "
           "K and finite v and i\n")


def test_missing_input_file_fails_as_io_error(tmp_path, capsys):
    # on any command, also one that does not read the key; a missing
    # --config file once exited 1
    missing = tmp_path / "missing.csv"
    for command, *option in [
            ("signature", "--set", f"iv.input_csv={missing}"),
            ("homeostasis", "--set", f"homeostasis.pattern_csv={missing}"),
            ("cycle", "--set", f"homeostasis.pattern_csv={missing}"),
            ("levels", "--config", str(missing))]:
        out = tmp_path / command
        code = _run(command, "--out", str(out), *option)
        assert code == 3
        assert capsys.readouterr().err.startswith("error: io:")
        assert not out.exists()


@pytest.mark.parametrize("override", ["plant.preset=on_wafer",
                                      "device.r_ohm=2.9e7"])
def test_nullcline_honours_plant_and_device(tmp_path, capsys, override):
    # a declared change: nullcline once ignored plant.* and device.r_ohm
    # (r_ohm shows once the +27 % train meets the 30 MOhm ceiling)
    short = ["--preset", "L1", "--set", "schedule.hold_s=600"]
    assert _run("nullcline", "--out", str(tmp_path / "a"), *short) == 0
    assert _run("nullcline", "--out", str(tmp_path / "b"), *short,
                "--set", override) == 0
    assert ((tmp_path / "a" / "nullcline.csv").read_bytes()
            != (tmp_path / "b" / "nullcline.csv").read_bytes())


def test_levels_honours_plant(tmp_path, capsys):
    # a declared change: levels once cycled packaged plants whatever
    # plant.* said; levels.csv is built from steady values, so it stays
    slow = ["--set", "schedule.read_period_s=30"]
    assert _run("levels", "--out", str(tmp_path / "a"), *slow) == 0
    assert _run("levels", "--out", str(tmp_path / "b"), *slow,
                "--set", "plant.preset=on_wafer") == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert ((a / "levels.csv").read_bytes()
            == (b / "levels.csv").read_bytes())
    for level in LEVEL_ORDER:
        name = f"cycle_{level}.csv"
        assert (a / name).read_bytes() != (b / name).read_bytes()


def test_levels_cycle_files_share_the_chamber_columns(tmp_path, capsys):
    # one chamber run is read by every level: the five cycle files agree in
    # t_s, t_set_K, t_air_K and t_dev_K, and each is `cycle` of its level
    run = ["--set", "schedule.read_period_s=30",
           "--set", "cycle.drift_scale=0.05"]
    assert _run("levels", "--out", str(tmp_path / "levels"), *run) == 0
    chambers = set()
    for level in LEVEL_ORDER:
        written = (tmp_path / "levels" / f"cycle_{level}.csv").read_bytes()
        chambers.add(tuple(line.rsplit(b",", 2)[0]
                           for line in written.splitlines()))
        assert _run("cycle", "--out", str(tmp_path / level), *run,
                    "--preset", level) == 0
        assert written == (tmp_path / level / "cycle.csv").read_bytes()
    assert len(chambers) == 1


def test_hsr_logs_each_reset_pulse_at_its_polarity(tmp_path, capsys):
    # a declared change: reset pulses were all logged at -1.5 V; after a
    # depressing train the reset potentiates, so each R step is upward
    assert _run("hsr", "--out", str(tmp_path), "--preset", "L1",
                "--set", "hsr.v_prog_v=-1.5") == 0
    _, rows = parse_csv(tmp_path / "hsr.csv", "hsr")
    # the reset is the program block that ends the trace
    start = max(k for k, r in enumerate(rows) if r[5] != "program") + 1
    assert len(rows) - start > 1
    for before, row in zip(rows[start - 1:], rows[start:]):
        v, step = float(row[7]), float(row[4]) - float(before[4])
        assert v == 1.5 and step > 0


@pytest.mark.parametrize("extra", [
    pytest.param(["--set", "thermometer.noise_sigma=0.05",
                  "--set", "thermometer.trials=200"], id="noise"),
    pytest.param(["--set", "cycle.drift_scale=0.05"], id="drift"),
])
def test_thermometer_guard_covers_clipped_noise_and_drift(tmp_path, capsys,
                                                          extra):
    # both once failed a reading as outside the calibrated band (exit 2):
    # the guard was below the clipped noise and ignored the drift
    assert _run("thermometer", "--out", str(tmp_path), *extra) == 0
    assert capsys.readouterr().err == ""


def test_thermometer_reads_the_drifted_cycle(tmp_path, capsys):
    # with the drift on and no read noise, each reading is its hold's
    # drifted steady resistance, exactly as the cycle reports it
    drift = ["--seed", "1", "--set", "cycle.drift_scale=0.01"]
    assert _run("cycle", "--out", str(tmp_path / "cycle"), *drift) == 0
    assert _run("thermometer", "--out", str(tmp_path / "thermo"), *drift) == 0
    _, holds = parse_csv(tmp_path / "cycle" / "cycle_holds.csv", "cycle_holds")
    _, rows = parse_csv(tmp_path / "thermo" / "thermometer.csv", "thermometer")
    assert [(r[1], r[3]) for r in rows] == [(h[1], h[2]) for h in holds]
    r300 = [h[2] for h in holds if h[1] == "300"]
    assert r300[0] != r300[-1]   # the drift is on


def test_fit_override_moves_the_level_table(tmp_path, capsys, build_system):
    # the levels read their resistance from the configured fit
    override = ["--set", "fit.r_l1_ohm=2e6"]
    levels = tmp_path / "levels"
    assert _run("levels", "--out", str(levels), *override,
                "--set", "schedule.read_period_s=30") == 0
    _, rows = parse_csv(levels / "levels.csv", "levels")
    l1 = next(r for r in rows if r[0] == "L1")
    assert float(l1[1]) == 2e6
    assert float(l1[2]) == pytest.approx(0.58, abs=1e-6)

    iv = tmp_path / "iv"
    assert _run("iv", "--out", str(iv), "--preset", "L1", *override) == 0
    _, rows = parse_csv(iv / "iv.csv", "iv")
    (v, i), = [(float(r[2]), float(r[3])) for r in rows
               if float(r[1]) == 300.0 and float(r[2]) == 0.2]
    assert v / i == pytest.approx(2e6, rel=1e-9)

    l1 = resolve_config(overrides={"fit.r_l1_ohm": "2e6",
                                   "device.level": "L1"})
    system = build_system(device=l1.device, fit=l1.fit)
    assert [s.r_persistent for s in system.synapses] == [2e6] * N_SYNAPSES


# every command but levels, which reads its five anchors by design, at the
# golden sizes, and the calibrated baseline
_ONE_DEVICE_RUNS = {
    **{cmd: RUNS[cmd] for cmd in EXPERIMENTS if cmd != "levels"},
    "baseline calibrated": RUNS["baseline"] + [
        "--set", "baseline.feedforward=calibrated"],
}


@pytest.mark.parametrize("run", _ONE_DEVICE_RUNS)
def test_every_command_runs_the_configured_device(tmp_path, capsys, run):
    # device.r_ohm once reached only the commands that read cfg.device; the
    # neuron and IV commands rebuilt the preset's resistance from its level
    cmd, args = run.split()[0], _ONE_DEVICE_RUNS[run]
    level = (args[args.index("--preset") + 1] if "--preset" in args
             else REGISTRY["device.level"].default)
    r_ref = ThermalFit(anchors=DEFAULT_ANCHORS).anchor(level).r_ref

    def csvs(*extra):
        out = tmp_path / "-".join(extra or ["preset"])
        assert _run(cmd, "--out", str(out), *args, *extra) == 0
        return {path.name: path.read_bytes() for path in out.glob("*.csv")}

    preset = csvs()
    assert csvs("--set", f"device.r_ohm={r_ref!r}") == preset
    # no byte can move in two runs: with no feedforward the baseline's
    # chamber stays at 300 K, where every synapse weight is 1 whatever its
    # barrier, and a nullcline fraction, a train's change relative to the
    # state it starts from, does not depend on that state away from the
    # resistance bounds
    if run not in ("baseline", "nullcline"):
        assert csvs("--set", "device.r_ohm=2e6") != preset


def _filled_from_cfg():
    """The functions cli and RunConfig call with values from cfg, and the
    ones those reach with a cfg value."""
    for mod in (cli, config):
        for obj in vars(mod).values():
            if inspect.isfunction(obj) and obj.__module__ in (
                    "memthermo.calibration", "memthermo.device",
                    "memthermo.experiments", "memthermo.neuron",
                    "memthermo.thermal"):
                yield obj
    yield from (NeuronSystem.__init__, NeuronSystem.build, iv_preset,
                settled_rate)


def test_arguments_filled_from_cfg_have_no_default():
    # REGISTRY is the one home of each default: a second one in a
    # signature would be read only by the tests; keep_records is no key
    defaults = {(fn.__qualname__, name)
                for fn in _filled_from_cfg()
                for name, p in inspect.signature(fn).parameters.items()
                if p.default is not p.empty and name != "keep_records"}
    assert defaults == set()


def _python(code, *argv, block_numpy=False, timeout=None):
    """Run `code` with argv in a fresh interpreter on the checkout's src;
    with block_numpy, a None entry in sys.modules makes every
    `import numpy` fail loudly."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    if block_numpy:
        code = "import sys\nsys.modules['numpy'] = None\n" + code
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _cli_process(*argv, block_numpy=False, timeout=None):
    """cli_dispatch(argv) in a fresh interpreter."""
    return _python("import sys\nfrom memthermo.cli import cli_dispatch\n"
                   "sys.exit(cli_dispatch(sys.argv[1:]))", *argv,
                   block_numpy=block_numpy, timeout=timeout)


_SCHEDULE_KEYS = "schedule.hold_s, schedule.read_period_s, schedule.setpoints"
_THERMOMETER_KEYS = f"{_SCHEDULE_KEYS}, thermometer.trials"
_HSR_KEYS = ("schedule.hold_s, schedule.read_period_s, hsr.pulse_count, "
             "hsr.retention_reads")
_BASELINE_KEYS = "baseline.loads, baseline.settle_steps, baseline.measure_steps"
_HUGE_RETENTION = ("hsr.retention_reads, hsr.retention_period_s: hold (inf s) "
                   "/ read period (6.0 s) must be a finite step count")


def _over_budget(keys, cmd, steps):
    return (f"{keys}: {cmd} takes {steps} steps, more than the 1000000 a run "
            "may take")


# a finite but huge run once passed resolve, and ran until killed (a hold of
# 3.6e303 plant steps, 1e9 thermometer trials, 48 trains of 1e6 pulses,
# 2,000 holds, a baseline of 1e12 settling steps per load) or ended in a
# MemoryError traceback (1e8 pulses, a pattern of 1e12 steps); a fresh
# interpreter with a timeout fails such a run instead of hanging the suite
@pytest.mark.parametrize("argv, reason", [
    *(pytest.param([cmd, "--set", "schedule.read_period_s=1e-300"],
                   _over_budget(keys, cmd, "over 1e18"),
                   id=f"{cmd}-read-period-1e-300")
      for cmd, keys in [("cycle", _SCHEDULE_KEYS),
                        ("thermometer", _THERMOMETER_KEYS)]),
    pytest.param(["hsr", "--set", f"hsr.retention_reads={10**9}"],
                 _over_budget(_HSR_KEYS, "hsr", 1000001401),
                 id="hsr-retention-reads-1e9"),
    pytest.param(["hsr", "--set", "hsr.pulse_count=100000000"],
                 _over_budget(_HSR_KEYS, "hsr", 100001401),
                 id="hsr-pulse-count-1e8"),
    pytest.param(["homeostasis", "--set",
                  "homeostasis.pattern=0.2:1000000000000"],
                 _over_budget("homeostasis.pattern", "homeostasis",
                              1000000000000), id="pattern-1e12"),
    pytest.param(["homeostasis", "--set", "homeostasis.pattern_csv={csv}"],
                 _over_budget("homeostasis.pattern_csv", "homeostasis",
                              2000000000000), id="pattern-csv-1e12"),
    pytest.param(["baseline", "--set", "baseline.settle_steps=1000000000000"],
                 _over_budget(_BASELINE_KEYS, "baseline", 6000000012000),
                 id="baseline-settle-1e12"),
    pytest.param(["thermometer", "--set", "thermometer.trials=1000000000"],
                 _over_budget(_THERMOMETER_KEYS, "thermometer", 9000005400),
                 id="thermometer-trials-1e9"),
    pytest.param(["nullcline", "--set", "hsr.pulse_count=1000000"],
                 _over_budget(_HSR_KEYS, "nullcline", 48 * 1001401),
                 id="nullcline-pulse-count-1e6"),
    pytest.param(["cycle", "--set",
                  "schedule.setpoints=" + ",".join(["300", "310"] * 1000)],
                 _over_budget(_SCHEDULE_KEYS, "cycle", 2000 * 600),
                 id="cycle-2000-setpoints"),
    # a 401-digit int once overflowed in float as exit 2, on any command
    *(pytest.param([cmd, "--set", f"hsr.retention_reads={10**400}"],
                   _HUGE_RETENTION, id=f"{cmd}-retention-reads-1e400")
      for cmd in ("cycle", "hsr")),
])
def test_huge_run_fails_at_once_as_config_error(tmp_path, argv, reason):
    # the final breakpoint holds for the longest preceding segment
    csv = tmp_path / "pattern.csv"
    csv.write_text("step,load\n0,0.2\n1000000000000,0.3\n")
    out = tmp_path / "out"
    run = _cli_process(*(a.format(csv=csv) for a in argv), "--out", str(out),
                       timeout=10)
    assert (run.returncode, run.stderr) == (1, f"error: config: {reason}\n")
    assert not out.exists()


_ONE_HOLD = {"schedule.setpoints": "300", "schedule.read_period_s": "1"}
_SHORT_TRAIN = {"schedule.hold_s": "1", "schedule.read_period_s": "1",
                "hsr.retention_reads": "0"}


# per command family, the most steps the budget admits and one step more;
# nullcline runs 48 equal trains, so its counts are multiples of 48
_BUDGET_EDGES = [
    ("cycle", _ONE_HOLD, "schedule.hold_s", 10**6, 10**6),
    ("levels", _ONE_HOLD, "schedule.hold_s", 10**6, 10**6),
    ("thermometer", {**_ONE_HOLD, "schedule.hold_s": "1"},
     "thermometer.trials", 10**6 - 1, 10**6),
    # two one-step holds and the plant step over the train
    ("hsr", _SHORT_TRAIN, "hsr.pulse_count", 10**6 - 3, 10**6),
    ("nullcline", _SHORT_TRAIN, "hsr.pulse_count", 10**6 // 48 - 3,
     48 * (10**6 // 48)),
    ("baseline", {"baseline.loads": "0.2", "baseline.measure_steps": "2000"},
     "baseline.settle_steps", 10**6 - 2000, 10**6),
    ("homeostasis", {}, "homeostasis.pattern", "0.2:1000000", 10**6),
]


@pytest.mark.parametrize("cmd, values, key, at_cap, steps", _BUDGET_EDGES,
                         ids=[edge[0] for edge in _BUDGET_EDGES])
def test_run_may_take_exactly_the_step_budget(cmd, values, key, at_cap,
                                              steps):
    # resolved, not run
    def resolve(value):
        return resolve_config(overrides={
            "run.experiment": cmd, **values, key: str(value)})
    assert resolve(at_cap).steps == steps
    over = (f"{at_cap},0.3:1" if cmd == "homeostasis" else at_cap + 1)
    more = steps + (48 if cmd == "nullcline" else 1)
    with pytest.raises(ConfigError, match=f": {cmd} takes {more} steps, "):
        resolve(over)


# worked out by hand from the protocols at default config: a hold is
# 3600 s / 6 s = 600 plant steps, and cycle, levels and thermometer hold
# nine times; hsr holds twice, steps the plant once over its 200 pulses and
# holds 200 retention steps; nullcline runs hsr on its 8 x 6 (v, T) grid;
# baseline runs six loads of 4000 + 2000 neuron steps; the default pattern
# is 6000 + 6000 steps; the thermometer inverts each hold's reading once
# per trial
@pytest.mark.parametrize("cmd, values, steps", [
    pytest.param("thermometer", {"thermometer.trials": "50"}, 5400 + 9 * 50,
                 id="thermometer-trials-50"),
    *(pytest.param(cmd, {}, steps, id=cmd) for cmd, steps in [
        ("cycle", 5400),
        ("levels", 5400),
        ("hsr", 1401 + 200),
        ("nullcline", 48 * 1601),
        ("baseline", 36000),
        ("homeostasis", 12000),
        ("thermometer", 5400 + 9),
        ("iv", 0),
        ("signature", 0),
        ("calibrate", 0)]),
])
def test_default_run_steps_are_the_hand_counts(cmd, values, steps):
    assert resolve_config(overrides={"run.experiment": cmd,
                                     **values}).steps == steps


def _imported_by_cli(package):
    return _python(
        "import memthermo.cli, sys; print(sorted("
        f"m for m in sys.modules if m.split('.')[0] == {package!r}))")


def test_cli_import_pulls_in_no_scipy():
    # scipy.optimize alone costs ~0.4 s of import on every cold CLI run
    assert _imported_by_cli("scipy").stdout.strip() == "[]"


def test_cli_import_pulls_in_no_numpy():
    # numpy costs ~0.1 s of import, paid only by a run of the signature
    # fit
    assert _imported_by_cli("numpy").stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_cli_import_pulls_in_no_dataclasses(module):
    # dataclasses imports inspect, ast, dis and tokenize, and execs the
    # generated methods of each class: ~25 ms of every cold run
    assert _imported_by_cli(module).stdout.strip() == "[]"


def test_neuron_commands_load_no_protocol_module(tmp_path):
    # compiling experiments and calibration costs a cold neuron run ~7 ms,
    # so only the protocol handlers import them
    code = """import sys
from memthermo.cli import cli_dispatch
protocol = {"memthermo.experiments", "memthermo.calibration"}
loaded = [sorted(protocol & sys.modules.keys())]
out, *short = sys.argv[1:]
for cmd in ("baseline", "calibrate", "homeostasis"):
    code = cli_dispatch([cmd, "--out", f"{out}/{cmd}", *short])
    loaded.append((cmd, code, sorted(protocol & sys.modules.keys())))
print(loaded)
"""
    run = _python(code, str(tmp_path), *(f"--set={kv}" for kv in _SHORT))
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-1] == str(
        [[], *((cmd, 0, []) for cmd in ("baseline", "calibrate",
                                        "homeostasis"))])


def test_hsr_and_cycle_load_no_calibration(tmp_path):
    # compiling calibration costs a cold hsr, cycle or iv run ~3 ms, so
    # only the commands that fit, invert or take a sensitivity load it
    code = """import sys
from memthermo.cli import cli_dispatch
out, *short = sys.argv[1:]
loaded = []
for cmd in ("hsr", "cycle", "iv"):
    code = cli_dispatch([cmd, "--out", f"{out}/{cmd}", *short])
    loaded.append((cmd, code, sorted({"memthermo.experiments",
                                      "memthermo.calibration"}
                                     & sys.modules.keys())))
print(loaded)
"""
    run = _python(code, str(tmp_path), *(f"--set={kv}" for kv in _SHORT))
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-1] == str(
        [(cmd, 0, ["memthermo.experiments"])
         for cmd in ("hsr", "cycle", "iv")])


# runs that fit no signature: every command but signature at default
# config, the cycle commands again on explicit setpoints, which draw
# nothing, and the three runs that draw normals (read noise, drift and
# device spread); every stream is the pure-Python `pcg64`
_NUMPY_FREE_RUNS = {
    "hsr": ("hsr", "--preset", "L1"),
    "iv": ("iv", "--preset", "L1"),
    "nullcline": ("nullcline", "--preset", "L1"),
    "baseline": ("baseline",),
    "calibrate": ("calibrate",),
    "homeostasis": ("homeostasis",),
    "cycle": ("cycle",),
    "levels": ("levels",),
    "thermometer": ("thermometer",),
    **{f"{cmd}-setpoints": (cmd, "--set", "schedule.setpoints=300,360,300")
       for cmd in ("cycle", "levels", "thermometer")},
    "thermometer-noise": ("thermometer", "--set",
                          "thermometer.noise_sigma=0.01"),
    "cycle-drift": ("cycle", "--set", "cycle.drift_scale=0.05"),
    "baseline-spread": ("baseline", "--set", "neuron.spread_sigma=0.3"),
}


@pytest.mark.parametrize("case", _NUMPY_FREE_RUNS)
def test_numpy_free_commands_run_with_numpy_blocked(tmp_path, capsys, case):
    blocked, ordinary = tmp_path / "blocked", tmp_path / "ordinary"
    cmd, *args = _NUMPY_FREE_RUNS[case]
    run = _cli_process(cmd, *args, "--out", str(blocked), block_numpy=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert "# numpy = not imported\n" in (blocked / "manifest.txt").read_text()
    assert _run(cmd, *args, "--out", str(ordinary)) == 0
    names = sorted(p.name for p in ordinary.glob("*.csv"))
    assert names == sorted(p.name for p in blocked.glob("*.csv")) != []
    for name in names:
        assert (blocked / name).read_bytes() == (ordinary / name).read_bytes()


def test_manifest_names_python_and_numpy(tmp_path, capsys):
    python = ".".join(map(str, sys.version_info[:3]))
    # the line names the numpy the run imported, whether or not the
    # calling process had loaded it, as this one has
    runs = {"hsr": ("hsr", "not imported"),
            "baseline": ("baseline", "not imported"),
            "spread": ("baseline", "not imported",
                       "--set", "neuron.spread_sigma=0.3"),
            "cycle": ("cycle", "not imported"),
            "drift": ("cycle", "not imported",
                      "--set", "cycle.drift_scale=0.05"),
            "signature": ("signature", np.__version__)}
    for out, (cmd, numpy, *args) in runs.items():
        assert _run(cmd, "--out", str(tmp_path / out), *args,
                    *(f"--set={kv}" for kv in _SHORT)) == 0
        head = (tmp_path / out / "manifest.txt").read_text().splitlines()[:5]
        assert head == ["# memthermo run manifest",
                        f"# version = {__version__}", f"# python = {python}",
                        f"# numpy = {numpy}", f"# experiment = {cmd}"]
    spread, rerun = tmp_path / "spread", tmp_path / "rerun"
    assert _run("baseline", "--config", str(spread / "manifest.txt"),
                "--out", str(rerun)) == 0
    assert (rerun / "baseline.csv").read_bytes() == (
        spread / "baseline.csv").read_bytes()


@pytest.mark.parametrize("cmd", EXPERIMENTS)
def test_bad_neuron_value_fails_every_command(tmp_path, capsys, cmd):
    # every run checks the neuron rules, though only three build a neuron
    assert (_run(cmd, "--out", str(tmp_path), "--set", "neuron.theta=0"),
            capsys.readouterr().err) == (
        1, "error: config: neuron: theta must be > 0\n")


# ---------------------------------------------------------------------------
# sweep gate: every key, every subcommand that reads its section


_CALIBRATED = "baseline baseline.feedforward=calibrated"
_AFFINE = "calibrate calibrate.mode=affine"

# each way a section is read: a subcommand, with the mode key that routes
# it through other code
_READERS = {
    "run": EXPERIMENTS,
    "device": tuple(c for c in EXPERIMENTS if c != "levels"),
    "fit": EXPERIMENTS,
    "plant": ("cycle", "levels", "hsr", "nullcline", "thermometer",
              "baseline", "homeostasis", "calibrate"),
    "switching": ("iv", "signature", "hsr", "nullcline"),
    "schedule": ("cycle", "levels", "hsr", "nullcline", "thermometer"),
    "cycle": ("cycle", "levels", "thermometer"),
    "hsr": ("hsr", "nullcline"),
    "iv": ("iv", "signature"),
    "thermometer": ("thermometer",),
    "neuron": ("baseline", "homeostasis", "calibrate", _CALIBRATED, _AFFINE,
               "homeostasis neuron.map_mode=affine",
               "homeostasis neuron.map_mode=fixed"),
    "homeostasis": ("homeostasis",),
    "baseline": ("baseline", _CALIBRATED),
    # the default table feedforward of homeostasis reads calibrate.loads
    "calibrate": ("calibrate", "homeostasis", _CALIBRATED, _AFFINE),
}

# short holds on a fast plant, few pulses and neuron steps
_SHORT = [
    "schedule.hold_s=800", "schedule.read_period_s=40",
    "plant.tau_air_s=20", "plant.tau_dev_s=30",
    "hsr.pulse_count=5", "hsr.retention_reads=5",
    "baseline.settle_steps=5", "baseline.measure_steps=5",
    "homeostasis.pattern=0.2:25,0.3:25",
]


def _sweep_cases():
    for key in REGISTRY:
        if key in ("run.experiment", "run.out_dir"):
            continue
        for value in ("0", "-1", "nan", "abc", "1e9"):
            yield pytest.param(key, value, id=f"{key}={value}")


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep")


@pytest.mark.filterwarnings("error")   # a warning is a second stderr line
@pytest.mark.parametrize("key, value", _sweep_cases())
def test_every_key_and_value_keeps_the_exit_contract(
        sweep_dir, capsys, key, value):
    readers = _READERS[key.partition(".")[0]]
    try:
        resolve_config(overrides=dict(
            kv.partition("=")[::2] for kv in _SHORT + [f"{key}={value}"]))
    except (ConfigError, OSError):   # OSError: a missing input file
        # rejected before any subcommand runs, so alike on all of them
        readers = readers[:1]
    broken = []
    for reader in readers:
        cmd, *mode = reader.split()
        code = _run(cmd, "--out", str(sweep_dir / cmd),
                    *(f"--set={kv}" for kv in _SHORT + mode),
                    "--set", f"{key}={value}")
        err = capsys.readouterr().err
        if code == 0:
            ok = err == ""
        else:
            ok = (code in (1, 2, 3) and err.startswith("error: ")
                  and err.count("\n") == 1 and err.endswith("\n"))
        if not ok:
            broken.append((reader, code, err))
    assert broken == []


@pytest.mark.parametrize("cmd", EXPERIMENTS)
def test_each_configured_object_is_built_once(tmp_path, capsys, monkeypatch,
                                              cmd):
    # the run uses the objects resolve_config checked; it builds no second
    counts = {}
    for cls in (ThermalFit, SwitchingParams):
        def counted(self, *args, name=cls.__name__, init=cls.__init__,
                    **kwargs):
            counts[name] = counts.get(name, 0) + 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    assert _run(cmd, "--out", str(tmp_path),
                *(f"--set={kv}" for kv in _SHORT)) == 0
    assert counts == {"ThermalFit": 1, "SwitchingParams": 1}
