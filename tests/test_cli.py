"""Command-line contract tests: exit codes, outputs, reproducibility."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from memthermo import cli
from memthermo.cli import EXPERIMENTS, cli_dispatch
from memthermo.config import REGISTRY, ConfigError, resolve_config
from memthermo.csvio import parse_csv
from memthermo.neuron import N_SYNAPSES, NeuronSystem


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


def test_env_override_applies(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MEMTHERMO_RUN_SEED", "99")
    out = tmp_path / "env"
    assert _run("iv", "--out", str(out)) == 0
    assert "run.seed = 99" in (out / "manifest.txt").read_text()


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


def test_version_flag(capsys):
    assert _run("--version") == 0
    assert "memthermo" in capsys.readouterr().out


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
    pytest.param(["calibrate", "--set", "neuron.gamma=1.5"],
                 "calibrate: gamma must be in (0, 1)", id="gamma-1.5"),
    # 1e9 overflowed in exp; at a few hundred one of the 25 factors
    # overflows or, at some seeds, underflows to a zero-ohm synapse
    *(pytest.param(["homeostasis", "--set", f"neuron.spread_sigma={v}"],
                   f"neuron.spread_sigma must be in [0, 1], got {float(v)!r}",
                   id=f"homeostasis-spread-{v}") for v in ("1e9", "320")),
    pytest.param(["thermometer", "--set", "thermometer.noise_sigma=-0.01"],
                 "thermometer.noise_sigma must be >= 0, got -0.01",
                 id="thermometer-noise-neg"),
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
])
def test_config_mistake_fails_as_config_error_on_one_line(
        tmp_path, capsys, argv, reason):
    code = _run(*argv, "--out", str(tmp_path))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: config: {reason}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, reason", [
    # both once ended in an OverflowError traceback
    pytest.param(["hsr", "--set", "hsr.v_prog_v=1e9"],
                 "math range error", id="hsr-v-prog-1e9"),
    pytest.param(["nullcline", "--set", "switching.beta_per_v=1e9",
                  "--set", "schedule.hold_s=800"],
                 "math range error", id="nullcline-beta-1e9"),
])
def test_numeric_overflow_fails_as_protocol_error_on_one_line(
        tmp_path, capsys, argv, reason):
    code = _run(*argv, "--out", str(tmp_path))
    assert (code, capsys.readouterr().err) == (
        2, f"error: protocol: {reason}\n")


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


def test_model_value_error_fails_as_protocol_error_on_one_line(
        tmp_path, capsys, monkeypatch):
    # a ValueError from the model on a configuration that passed every
    # check is a failed run: one error line, never a traceback
    def handler(cfg, out):
        raise ValueError("r_persistent must be > 0")
    monkeypatch.setitem(cli._HANDLERS, "cycle", handler)
    assert (_run("cycle", "--out", str(tmp_path)),
            capsys.readouterr().err) == (
        2, "error: protocol: r_persistent must be > 0\n")


@pytest.mark.parametrize("name, text, key, command, reason", [
    pytest.param("iv.csv", "level,T_K,v_V\npristine,300,0.1\n",
                 "iv.input_csv", "signature",
                 "header does not match schema iv", id="iv-header"),
    pytest.param("iv.csv", "", "iv.input_csv", "signature", "empty file",
                 id="iv-empty"),
    pytest.param("pattern.csv", "", "homeostasis.pattern_csv",
                 "homeostasis", "empty file", id="pattern-empty"),
])
def test_malformed_input_file_fails_as_config_error(
        tmp_path, capsys, name, text, key, command, reason):
    path = tmp_path / name
    path.write_text(text)
    code = _run(command, "--out", str(tmp_path / "out"),
                "--set", f"{key}={path}")
    assert (code, capsys.readouterr().err) == (
        1, f"error: config: {path}: {reason}\n")


def test_missing_input_file_fails_as_io_error(tmp_path, capsys):
    code = _run("signature", "--out", str(tmp_path),
                "--set", f"iv.input_csv={tmp_path / 'missing.csv'}")
    assert code == 3
    assert capsys.readouterr().err.startswith("error: io:")


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


def test_fit_override_moves_the_level_presets(tmp_path, capsys):
    # the level presets read their resistance from the configured fit
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

    fit = resolve_config(env={}, overrides={"fit.r_l1_ohm": "2e6"}).thermal_fit()
    system = NeuronSystem.build("L1", fit=fit)
    assert [s.r_persistent for s in system.synapses] == [2e6] * N_SYNAPSES


def test_cli_import_pulls_in_no_scipy():
    # scipy.optimize alone costs ~0.4 s of import on every cold CLI run
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", "import memthermo.cli, sys; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


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
    "plant": ("cycle", "hsr", "nullcline", "thermometer", "baseline",
              "homeostasis", "calibrate"),
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
            marks = ()
            if (key, value) == ("schedule.hold_s", "1e9"):
                marks = pytest.mark.skip(
                    reason="valid, but each 1e9 s hold is 25M plant steps "
                           "at the sweep's 40 s read period")
            yield pytest.param(key, value, marks=marks, id=f"{key}={value}")


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
    except ConfigError:
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
