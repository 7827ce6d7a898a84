"""Command-line contract tests: exit codes, outputs, reproducibility."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from memthermo.cli import cli_dispatch
from memthermo.config import resolve_config
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
])
def test_config_mistake_fails_as_config_error_on_one_line(
        tmp_path, capsys, argv, reason):
    code = _run(*argv, "--out", str(tmp_path))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: config: {reason}\n"


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
