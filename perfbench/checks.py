"""Output checks against stored references.

`refs.tar.xz` holds every CSV of every invocation for the reference seeds,
as `<seed>/<experiment>/<file>`. Strings and integers must match exactly,
floats to a relative 1e-8 (one unit in the ninth printed digit). The
thermometer's `T_est_K` and `err_K` come from a root find with a 1e-3 K
tolerance, so they match to 1e-3 K absolute.

On a seed without references, outputs that do not depend on the seed are
still compared against the default seed's references. The seeded outputs
are checked against what must hold for any schedule or load pattern: the
time columns, the exact two-stage plant recursion, the read-out law of
each level fitted to the reference trace, the thermometer inversion and
its noise bound, the table setpoints, and the rate files derived from the
spike train.
"""
from __future__ import annotations

import fnmatch
import io
import math
import os
import tarfile

import numpy as np

import spec

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.tar.xz")

REL_TOL = 1e-8
ABS_TOL = {("thermometer.csv", "T_est_K"): 1e-3, ("thermometer.csv", "err_K"): 1e-3}
INT_COLUMNS = {"hold", "trial", "step", "spikes", "window", "pulse_index", "reset_pulses"}

# Packaged plant defaults (plant.tau_air_s, plant.tau_dev_s) and start.
TAU_AIR_S, TAU_DEV_S, T_START_K = 180.0, 720.0, 300.0
PLANT_TOL_K = 1e-6      # twice the rounding of nine printed digits at ~330 K
LAW_TOL = 3e-8          # of ln r; nine printed digits of r and T give ~1e-8
INVERT_TOL_K = 2e-3     # root-find tolerance of the program, twice


def load_refs(seed: int) -> dict[tuple[str, str], str]:
    """{(experiment, file): text} stored for `seed`."""
    out = {}
    with tarfile.open(REFS, "r:xz") as tar:
        for member in tar.getmembers():
            s, exp, name = member.name.split("/")
            if member.isfile() and s == str(seed):
                out[(exp, name)] = tar.extractfile(member).read().decode()
    return out


def seeded(name: str) -> bool:
    return any(fnmatch.fnmatch(name, pat) for pat in spec.SEEDED_FILES)


def _close(name: str, col: str, a: str, b: str) -> bool:
    if col in INT_COLUMNS:
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    tol = ABS_TOL.get((name, col))
    if tol is not None:
        return abs(x - y) <= tol
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare(name: str, got: str, ref: str) -> str | None:
    """None when `got` matches `ref` within tolerance, else the first
    mismatch."""
    if got == ref:
        return None
    g, r = got.split("\n"), ref.split("\n")
    if len(g) != len(r):
        return f"{name}: {len(g) - 2} rows, reference has {len(r) - 2}"
    header = r[0].split(",")
    if g[0] != r[0]:
        return f"{name}: header {g[0]!r}, reference {r[0]!r}"
    for lineno, (gl, rl) in enumerate(zip(g, r), start=1):
        if gl == rl:
            continue
        gc, rc = gl.split(","), rl.split(",")
        if len(gc) != len(rc):
            return f"{name} line {lineno}: {len(gc)} fields, reference {len(rc)}"
        for col, a, b in zip(header, gc, rc):
            if a != b and not _close(name, col, a, b):
                return f"{name} line {lineno} {col}: {a} != reference {b}"
    return None


class _Csv:
    def __init__(self, text: str):
        lines = text.rstrip("\n").split("\n")
        self.header = lines[0].split(",")
        self.rows = [line.split(",") for line in lines[1:]]

    def col(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]

    def floats(self, name: str) -> np.ndarray:
        return np.array([float(v) for v in self.col(name)])


def _plant(t_set, dt_s: float):
    """Exact two-stage cascade from T_START_K: (t_air, t_dev) after each
    step at the given setpoints."""
    ea, ed = math.exp(-dt_s / TAU_AIR_S), math.exp(-dt_s / TAU_DEV_S)
    air = dev = T_START_K
    out_air, out_dev = [], []
    for s in t_set:
        b = air - s
        k = b * TAU_AIR_S / (TAU_AIR_S - TAU_DEV_S)
        dev = s + k * ea + ((dev - s) - k) * ed
        air = s + b * ea
        out_air.append(air)
        out_dev.append(dev)
    return np.array(out_air), np.array(out_dev)


def _law(trace: _Csv) -> tuple[float, float]:
    """Fit ln(r T^2) = a + b/T, the read-out law with a fixed barrier."""
    t, r = trace.floats("t_dev_K"), trace.floats("r_ohm")
    b, a = np.polyfit(1.0 / t, np.log(r * t * t), 1)
    return float(a), float(b)


def _law_r(law, t):
    a, b = law
    return np.exp(a + b / t) / (t * t)


def _holds(trace: _Csv) -> list[tuple[float, int, int]]:
    """(setpoint, first row, end row) of each hold; holds never repeat a
    setpoint back to back."""
    t_set = trace.col("t_set_K")
    out, start = [], 0
    for i in range(1, len(t_set) + 1):
        if i == len(t_set) or t_set[i] != t_set[start]:
            out.append((float(t_set[start]), start, i))
            start = i
    return out


def _check_trace(name: str, got: _Csv, ref: _Csv) -> list[str]:
    if got.header != ref.header or len(got.rows) != len(ref.rows):
        return [f"{name}: shape differs from the reference"]
    problems = []
    if got.col("t_s") != ref.col("t_s"):
        problems.append(f"{name}: t_s column differs")
    if set(got.col("phase")) != {"read"}:
        problems.append(f"{name}: phase other than read")
    if sorted((s, e - b) for s, b, e in _holds(got)) != \
            sorted((s, e - b) for s, b, e in _holds(ref)):
        problems.append(f"{name}: holds are not a reordering of the reference")
    air, dev = _plant(got.floats("t_set_K"), 6.0)
    if np.max(np.abs(air - got.floats("t_air_K"))) > PLANT_TOL_K or \
            np.max(np.abs(dev - got.floats("t_dev_K"))) > PLANT_TOL_K:
        problems.append(f"{name}: plant trajectory off the two-stage cascade")
    t = got.floats("t_dev_K")
    resid = np.log(got.floats("r_ohm") / _law_r(_law(ref), t))
    if np.max(np.abs(resid)) > LAW_TOL:
        problems.append(f"{name}: reads off the level's read-out law "
                        f"(worst {np.max(np.abs(resid)):.2e})")
    return problems


def _check_holds(got: _Csv, ref: _Csv, trace: _Csv) -> list[str]:
    if got.header != ref.header or len(got.rows) != len(ref.rows):
        return ["cycle_holds.csv: shape differs from the reference"]
    steady = dict(zip(ref.col("t_set_K"), ref.col("r_steady_ohm")))
    r = trace.col("r_ohm")
    holds = _holds(trace)
    problems = []
    if got.col("hold") != ref.col("hold") or got.col("settled") != ref.col("settled"):
        problems.append("cycle_holds.csv: hold or settled column differs")
    for row, (t_set, b, e) in zip(got.rows, holds):
        _, t, r_steady, r_first, r_last, _ = row
        if float(t) != t_set or (r_first, r_last) != (r[b], r[e - 1]):
            problems.append(f"cycle_holds.csv: hold {row[0]} disagrees with cycle.csv")
        elif t not in steady or not _close("", "r_steady_ohm", r_steady, steady[t]):
            problems.append(f"cycle_holds.csv: hold {row[0]} steady value {r_steady}")
    return problems


def _invert(law, r: float) -> float:
    lo, hi = 300.0, 360.0
    if r >= _law_r(law, lo):
        return lo
    if r <= _law_r(law, hi):
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _law_r(law, mid) > r else (lo, mid)
    return 0.5 * (lo + hi)


def _check_thermometer(got: _Csv, ref: _Csv, holds: list[float], law) -> list[str]:
    if got.header != ref.header or len(got.rows) != len(ref.rows):
        return ["thermometer.csv: shape differs from the reference"]
    problems = []
    if got.col("t_s") != ref.col("t_s") or got.col("trial") != ref.col("trial"):
        problems.append("thermometer.csv: t_s or trial column differs")
    trials = len(got.rows) // len(holds)
    t_true = got.floats("T_true_K")
    if list(t_true) != [t for t in holds for _ in range(trials)]:
        problems.append("thermometer.csv: T_true_K order differs from cycle_holds.csv")
    r, t_est, err = got.floats("r_ohm"), got.floats("T_est_K"), got.floats("err_K")
    noise = np.abs(np.log(r / _law_r(law, t_true)))
    if np.max(noise) > 2.5 * spec.NOISE_SIGMA + 1e-6:
        problems.append(f"thermometer.csv: read noise {np.max(noise):.4f} beyond the clip")
    expect = np.array([_invert(law, x) for x in r])
    if np.max(np.abs(expect - t_est)) > INVERT_TOL_K:
        problems.append(f"thermometer.csv: inversion off by {np.max(np.abs(expect - t_est)):.2e} K")
    if np.max(np.abs(err - (t_est - t_true))) > 1e-6:
        problems.append("thermometer.csv: err_K is not T_est_K - T_true_K")
    return problems


def _check_homeostasis(out, ref, table: _Csv, pattern) -> list[str]:
    trace, rtrace = _Csv(out["homeostasis_trace.csv"]), _Csv(ref["homeostasis_trace.csv"])
    if trace.header != rtrace.header or len(trace.rows) != len(rtrace.rows):
        return ["homeostasis_trace.csv: shape differs from the reference"]
    problems = []
    if trace.col("step") != rtrace.col("step") or trace.col("t_s") != rtrace.col("t_s"):
        problems.append("homeostasis_trace.csv: step or t_s column differs")
    loads = np.array(spec.pattern_loads(pattern))
    if np.max(np.abs(trace.floats("load") - loads)) > REL_TOL:
        problems.append("homeostasis_trace.csv: loads differ from the input pattern")
    temps = dict(zip(np.round(table.floats("load"), 9), table.floats("t_set_K")))
    want = np.array([temps.get(round(x, 9), np.nan) for x in loads])
    t_set = trace.floats("t_set_K")
    if not np.all(np.abs(t_set - want) <= REL_TOL * want):
        problems.append("homeostasis_trace.csv: setpoints differ from the gain table")
    _, dev = _plant(t_set, 1.0)
    dev = np.concatenate(([T_START_K], dev[:-1]))   # t_dev is logged before the step
    if np.max(np.abs(dev - trace.floats("t_dev_K"))) > PLANT_TOL_K:
        problems.append("homeostasis_trace.csv: t_dev off the two-stage cascade")
    spikes = np.array([int(s) for s in trace.col("spikes")])
    if np.any(spikes < 0):
        problems.append("homeostasis_trace.csv: negative spike count")
    w = 25
    rates = [[str(k), format((k + 0.5) * w, ".9g"), format(spikes[k * w:(k + 1) * w].sum() / w, ".9g")]
             for k in range(spikes.size // w)]
    times = np.repeat(np.arange(spikes.size, dtype=float), spikes)
    windows = []
    for k in range(times.size // w):
        t0, t1 = times[k * w], times[(k + 1) * w - 1]
        windows.append([str(k), format(t0, ".9g"), format(t1, ".9g"),
                        format(w / max(t1 - t0, 1.0), ".9g")])
    for name, rows in (("homeostasis_rates.csv", rates),
                       ("homeostasis_spike_windows.csv", windows)):
        got = _Csv(out[name])
        if got.rows != rows:
            problems.append(f"{name}: not derived from the spike train")
    return problems


def check_workload(workload: str, seed: int, outputs, refs, pattern) -> dict[str, list[str]]:
    """Problems per experiment for one pass of `workload`.

    `outputs` is {(experiment, file): text}; `refs` holds the references
    for `seed` when it has them, else those of the default seed.
    """
    exact = seed in spec.REFERENCE_SEEDS
    problems: dict[str, list[str]] = {}
    experiments = {inv[0] for inv in spec.WORKLOADS[workload]["invocations"]}
    ref_files = {key for key in refs if key[0] in experiments}
    for exp, name in sorted(set(outputs) | ref_files):
        got, ref = outputs.get((exp, name)), refs.get((exp, name))
        if got is None or ref is None:
            problems.setdefault(exp, []).append(f"{name}: missing "
                                                f"{'output' if got is None else 'reference'}")
        elif exact or not seeded(name):
            msg = compare(name, got, ref)
            if msg:
                problems.setdefault(exp, []).append(msg)
    if exact or problems:
        return problems
    try:
        _check_seeded(workload, outputs, refs, pattern, problems)
    except (KeyError, ValueError, IndexError) as exc:
        problems.setdefault("malformed", []).append(f"{type(exc).__name__}: {exc}")
    return problems


def _check_seeded(workload, outputs, refs, pattern, problems) -> None:
    def add(exp, found):
        if found:
            problems.setdefault(exp, []).extend(found)

    if workload == "protocol-read":
        for (exp, name), text in outputs.items():
            if fnmatch.fnmatch(name, "cycle*.csv") and name != "cycle_holds.csv":
                add(exp, _check_trace(name, _Csv(text), _Csv(refs[(exp, name)])))
        trace = _Csv(outputs[("cycle", "cycle.csv")])
        add("cycle", _check_holds(_Csv(outputs[("cycle", "cycle_holds.csv")]),
                                  _Csv(refs[("cycle", "cycle_holds.csv")]), trace))
        holds = [float(t) for t in _Csv(outputs[("cycle", "cycle_holds.csv")]).col("t_set_K")]
        add("thermometer", _check_thermometer(
            _Csv(outputs[("thermometer", "thermometer.csv")]),
            _Csv(refs[("thermometer", "thermometer.csv")]), holds,
            _law(_Csv(refs[("cycle", "cycle.csv")]))))
    elif workload == "neuron":
        out = {name: text for (exp, name), text in outputs.items() if exp == "homeostasis"}
        ref = {name: text for (exp, name), text in refs.items() if exp == "homeostasis"}
        add("homeostasis", _check_homeostasis(
            out, ref, _Csv(refs[("calibrate", "calibrate_table.csv")]), pattern))


def read_outputs(out_dirs: dict[str, str]) -> dict[tuple[str, str], str]:
    """{(experiment, file): text} of every CSV in each experiment's directory."""
    outputs = {}
    for exp, d in out_dirs.items():
        for name in sorted(os.listdir(d)):
            if name.endswith(".csv"):
                with io.open(os.path.join(d, name), encoding="utf-8", newline="") as fh:
                    outputs[(exp, name)] = fh.read()
    return outputs
