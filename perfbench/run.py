#!/usr/bin/env python3
"""memthermo benchmark: cold CLI invocations, one workload per run.

    python3 perfbench/run.py --workload protocol-read --seed 0 --seconds 20 --trace 0

Each invocation of the workload is a fresh `memthermo` process built from
the checkout's `src/`, run one at a time. A run fills `__pycache__` and
the file cache with one untimed warm-up pass, checks every CSV of that
pass against the stored references, reruns one invocation from its
`manifest.txt`, then repeats passes for `--seconds` seconds and requires
every later pass to write the same bytes.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics; the tracer wraps the
package's public functions from outside (see tracer.py).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Working files go to `.perfbench_out/`
at the root of the checkout.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True   # keep the benchmark directory clean

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import time

import checks
import spec
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

CHILD_TIMEOUT_S = 60
RUN_LIMIT_S = 140      # start no pass after this, so a run ends within 180 s
MIN_PASSES = 3         # timed passes of an untraced run
MIN_TRACED_PASSES = 2  # traced passes, so counts can be seen to repeat
IMPORT_SAMPLES = 5

# The shared host's speed drifts by 10-30 % from second to second and from
# run to run, and every timing drifts with it. A fixed loop of interpreter
# start, numpy import and small numpy calls runs in a fresh process right
# after every untraced invocation, and that invocation's timings are scaled
# by CALIBRATION_REF_S / (the loop's time): they read as seconds on a host
# where the loop takes CALIBRATION_REF_S. Traced runs scale by the median.
CALIBRATION = """
import math
import numpy as np
x = np.ones(25)
acc = 0.0
for i in range(30000):
    acc += float(x @ x) * math.exp(-i * 1e-6)
"""
CALIBRATION_REF_S = 0.25


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def child_env() -> dict[str, str]:
    """The caller's environment without MEMTHERMO_* overrides, with
    single-threaded BLAS and OpenMP."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMTHERMO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


def spawn(argv: list[str], log: str, env: dict[str, str]):
    """Run `python3 argv...` to completion; (exit code, spawn ns, exit ns,
    max RSS in KiB). Output goes to `log`."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    t0 = _now()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
        t1 = _now()
        code = os.waitstatus_to_exitcode(status)
    except BaseException as exc:
        os.kill(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
        if not isinstance(exc, _Timeout):
            raise
        t1, code = _now(), "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, t0, t1, usage.ru_maxrss


def _last_line(path: str) -> str:
    with open(path, errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def _digests(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and memthermo (cumulative, so
    memthermo includes the numpy and scipy it pulls in)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue   # the column header
        name = parts[2].strip()
        depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        entries.append((depth, name, cumulative))
    # output is in post-order: a module's parent is the next shallower line
    parent, stack = [None] * len(entries), []
    for i in reversed(range(len(entries))):
        while stack and entries[stack[-1]][0] >= entries[i][0]:
            stack.pop()
        parent[i] = stack[-1] if stack else None
        stack.append(i)

    def within(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    out = {}
    for pkg in ("numpy", "scipy", "memthermo"):
        out[f"import.{pkg}_s"] = 1e-6 * sum(
            cum for i, (_, name, cum) in enumerate(entries)
            if within(name, pkg) and (parent[i] is None or not within(entries[parent[i]][1], pkg)))
    return out


def stats(values: list[float], scale: float = 1.0) -> dict[str, float]:
    values = sorted(v * scale for v in values)
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75, "n": len(values)}


class Bench:
    """One run of one workload at one seed."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.env = child_env()
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.pattern = spec.homeostasis_pattern(seed)
        pattern_path = os.path.join(self.work, "pattern.csv")
        with open(pattern_path, "w") as fh:
            fh.write("step,load\n" + "".join(f"{s},{x!r}\n" for s, x in self.pattern))
        self.invocations = [[a.replace("{pattern}", pattern_path) for a in inv]
                            for inv in spec.WORKLOADS[workload]["invocations"]]
        self.out_dirs = {inv[0]: os.path.join(self.work, inv[0]) for inv in self.invocations}
        self.digests: dict[str, dict[str, str]] = {}
        self.wrong: set[str] = set()   # experiments whose checked outputs were wrong
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.calibration: list[float] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _fail(self, exp: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{exp}: {why}")

    def invoke(self, args: list[str], out_dir: str, spans: str | None = None) -> dict:
        """One cold invocation; the record holds its timings or `error`."""
        exp = args[0]
        shutil.rmtree(out_dir, ignore_errors=True)
        timing = os.path.join(self.work, "timing")
        if os.path.exists(timing):
            os.remove(timing)
        log = os.path.join(self.work, f"{exp}.log")
        argv = [CHILD] + (["--trace", spans] if spans else []) + [timing, "--", *args, "--out", out_dir]
        code, t0, t1, rss_kib = spawn(argv, log, self.env)
        self.attempted += 1
        rec = {"exp": exp, "wall": (t1 - t0) * 1e-9, "rss_mb": rss_kib / 1024.0}
        if code != 0 or not os.path.exists(timing):
            rec["error"] = f"exit {code}: {_last_line(log)}"
            self._fail(exp, rec["error"])
            return rec
        with open(timing) as fh:
            resolved, done = (int(x) for x in fh.read().split())
        rec["setup"], rec["sim"] = (resolved - t0) * 1e-9, (done - resolved) * 1e-9
        return rec

    def _args(self, inv: list[str]) -> list[str]:
        return [*inv, "--seed", str(self.seed)]

    def warm_up(self, refs) -> None:
        """Untimed pass whose outputs are checked against the references."""
        for inv in self.invocations:
            self.invoke(self._args(inv), self.out_dirs[inv[0]])
        outputs = checks.read_outputs({e: d for e, d in self.out_dirs.items() if os.path.isdir(d)})
        found = checks.check_workload(self.workload, self.seed, outputs, refs, self.pattern)
        for exp, problems in found.items():
            self.wrong.add(exp)
            self._fail(exp, "; ".join(problems[:3]))
        for exp, d in self.out_dirs.items():
            if os.path.isdir(d):
                self.digests[exp] = _digests(d)

    def rerun(self) -> None:
        """Rerun one invocation from its manifest; its CSVs must not change."""
        exp = spec.WORKLOADS[self.workload]["rerun"]
        out = os.path.join(self.work, "rerun")
        manifest = os.path.join(self.out_dirs[exp], "manifest.txt")
        rec = self.invoke([exp, "--config", manifest], out)
        if "error" not in rec and (exp in self.wrong or _digests(out) != self.digests.get(exp)):
            self._fail(exp, "rerun from manifest.txt changed the CSVs, or they failed their check")

    def calibrate(self) -> float:
        """Time one run of the calibration loop; returns the speed factor."""
        log = os.path.join(self.work, "calibration.log")
        code, t0, t1, _ = spawn(["-c", CALIBRATION], log, self.env)
        if code != 0:
            raise RuntimeError(f"calibration loop failed: {_last_line(log)}")
        self.calibration.append((t1 - t0) * 1e-9)
        return CALIBRATION_REF_S / self.calibration[-1]

    def speed_factor(self) -> float:
        return CALIBRATION_REF_S / statistics.median(self.calibration)

    def run_pass(self, traced: bool = False) -> list[dict]:
        recs = []
        for inv in self.invocations:
            exp = inv[0]
            spans = os.path.join(self.work, f"{exp}.npz") if traced else None
            rec = self.invoke(self._args(inv), self.out_dirs[exp], spans)
            if not traced:
                rec["factor"] = self.calibrate()
            if "error" not in rec:
                if _digests(self.out_dirs[exp]) != self.digests.get(exp):
                    rec["error"] = "CSVs differ from the checked warm-up pass"
                    self._fail(exp, rec["error"])
                elif exp in self.wrong:
                    rec["error"] = "same CSVs as the warm-up pass, which failed its check"
                    self._fail(exp, rec["error"])
                elif traced:
                    rec["layers"] = tracer.analyse(spans)
                    os.remove(spans)
            recs.append(rec)
        return recs

    def import_times(self) -> dict[str, list[float]]:
        code = f"import sys; sys.path.insert(0, {SRC!r}); import memthermo.cli"
        log = os.path.join(self.work, "importtime.log")
        samples: dict[str, list[float]] = {}
        for _ in range(IMPORT_SAMPLES):
            status, *_ = spawn(["-X", "importtime", "-c", code], log, self.env)
            if status != 0:
                raise RuntimeError(f"import of memthermo failed: {_last_line(log)}")
            with open(log) as fh:
                for key, value in parse_importtime(fh.read()).items():
                    samples.setdefault(key, []).append(value)
        return samples


def _ok(recs):
    return all("error" not in r for r in recs)


def end_to_end(passes: list[list[dict]]) -> dict[str, dict]:
    """Each invocation's timings scaled by its own speed factor; memory as
    measured."""
    good = [p for p in passes if _ok(p)] or [[dict.fromkeys(
        ("wall", "sim", "setup", "rss_mb", "factor"), 0.0)]]
    return {
        "wall_s": stats([sum(r["wall"] * r["factor"] for r in p) for p in good]),
        "setup_s": stats([r["setup"] * r["factor"] for p in good for r in p]),
        "sim_s": stats([sum(r["sim"] * r["factor"] for r in p) for p in good]),
        "peak_rss_mb": stats([max(r["rss_mb"] for r in p) for p in good]),
    }


def layer_value(name: str, m: dict[str, float]) -> float:
    """One per-layer metric from the summed analysis of a traced pass."""
    base, measure = name.rsplit(".", 1)
    calls = m.get(base + ".calls", 0.0)
    if measure == "builds":
        return m.get(base + ".__post_init__.calls", 0.0)
    if measure == "discarded_frac":
        return m.get(base + ".discarded", 0.0) / calls if calls else 0.0
    if measure == "us_per_call":
        return 1e6 * m.get(base + ".incl_s", 0.0) / calls if calls else 0.0
    return m.get(name, 0.0)


def per_layer(traced: list[list[dict]], untraced: list[list[dict]],
              imports: dict[str, list[float]], factor: float) -> dict[str, dict]:
    """Medians over traced passes; times scaled by the host speed factor."""
    values: dict[str, list[float]] = {}
    for p in traced:
        summed: dict[str, float] = {}
        for rec in p:
            for key, value in rec["layers"].items():
                summed[key] = summed.get(key, 0.0) + value
        for name, *_ in spec.LAYER_METRICS:
            if not name.startswith(("import.", "trace.")):
                values.setdefault(name, []).append(layer_value(name, summed))
    timed = {name for name, unit, *_ in spec.LAYER_METRICS if unit in ("s", "us")}
    out = {name: stats(v, factor if name in timed else 1.0) for name, v in values.items()}
    out.update({name: stats(v, factor) for name, v in imports.items()})
    sim_traced = statistics.median(sum(r["sim"] for r in p) for p in traced)
    sim_plain = statistics.median(sum(r["sim"] for r in p) for p in untraced)
    out["trace.overhead_s"] = {"median": factor * (sim_traced - sim_plain), "p25": None,
                               "p75": None, "n": min(len(traced), len(untraced))}
    return out


def check_counts(bench: Bench, traced: list[list[dict]]) -> None:
    """Hand counts hold and every count repeats exactly across passes."""
    for i, inv in enumerate(bench.invocations):
        exp = inv[0]
        counts = [{k: v for k, v in p[i]["layers"].items()
                   if not k.endswith("_s")} for p in traced]
        if any(c != counts[0] for c in counts[1:]):
            bench._fail(exp, "traced counts differ between passes")
        for fn, want in spec.HAND_COUNTS.get(exp, {}).items():
            got = counts[0].get(f"{fn}.calls", 0.0)
            if got != want:
                bench._fail(exp, f"{fn} called {got:.0f} times, expected {want}")


def environment() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> None:
    """One run: set up, measure for `seconds`, print the report and the
    JSON result as the last line."""
    t_start = time.monotonic()
    env_info = environment()
    exact = seed in spec.REFERENCE_SEEDS
    refs = checks.load_refs(seed if exact else spec.REFERENCE_SEEDS[0])
    bench = Bench(workload, seed)
    try:
        bench.warm_up(refs)
        bench.rerun()
        setup_done = time.monotonic()

        def more(done: int, least: int) -> bool:
            elapsed = time.monotonic() - setup_done
            return (elapsed < seconds or done < least) and \
                time.monotonic() - t_start < RUN_LIMIT_S

        untraced, traced = [], []
        if trace:
            imports = bench.import_times()
            while more(len(traced), MIN_TRACED_PASSES):
                untraced.append(bench.run_pass())
                traced.append(bench.run_pass(traced=True))
            traced = [p for p in traced if _ok(p)]
            untraced = [p for p in untraced if _ok(p)]
            metrics = {}
            if traced and untraced:
                check_counts(bench, traced)
                metrics = per_layer(traced, untraced, imports, bench.speed_factor())
        else:
            while more(len(untraced), MIN_PASSES):
                untraced.append(bench.run_pass())
            metrics = end_to_end(untraced)
    finally:
        bench.close()

    failed_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    factor = bench.speed_factor() if bench.calibration else float("nan")
    print(f"perfbench workload={workload} seed={seed} trace={trace} "
          f"check={'reference' if exact else 'invariant'} "
          + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"  host speed factor {factor:.4f}: calibration loop median "
          f"{CALIBRATION_REF_S / factor:.4f} s over {len(bench.calibration)} runs; "
          f"times below are scaled to a {CALIBRATION_REF_S} s loop")
    for inv in bench.invocations:
        print("  memthermo " + " ".join(inv).replace(bench.work, "<work>"))
    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.LAYER_METRICS}
    for name, s in metrics.items():
        print(f"  {name:<50} {_fmt(s['median']):>12} {units[name]:<8} "
              f"p25 {_fmt(s['p25'])} p75 {_fmt(s['p75'])} n={s['n']}")
    print(f"  {'failed_frac':<50} {failed_frac:>12.6g} fraction "
          f"({bench.failed} of {bench.attempted} invocations, "
          f"{len(traced) if trace else len(untraced)} passes)")
    for problem in bench.problems:
        print(f"  FAILED {problem}")

    listed = [name for name, *_, listed in (spec.LAYER_METRICS if trace else spec.END_TO_END)
              if listed]
    result = {
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name]["median"], "unit": units[name]}
                    for name in listed if name in metrics},
    }
    record = dict(result, workload=workload, seed=seed, trace=trace, environment=env_info,
                  failed_frac=failed_frac, problems=bench.problems, detail=metrics,
                  calibration_s=bench.calibration, speed_factor=factor,
                  passes=[[{k: v for k, v in rec.items() if k != "layers"} for rec in p]
                          for p in untraced])
    with open(os.path.join(WORK_ROOT, f"result-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"],
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "memthermo", "cli.py")):
        print(f"perfbench: no memthermo sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    # turn SIGTERM into an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for workload in spec.WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
