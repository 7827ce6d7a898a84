#!/usr/bin/env python3
"""Run every experiment with default settings and print headline numbers.

Outputs land in out/<experiment>/ next to this repository; each directory
carries a manifest.txt that reproduces it byte for byte via
`memthermo <experiment> --config out/<experiment>/manifest.txt`.
"""
import argparse
import contextlib
import csv
import io
import pathlib
import sys

from memthermo.cli import EXPERIMENTS, cli_dispatch


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def headline(experiment: str, out: pathlib.Path) -> str:
    if experiment == "levels":
        rows = {r["level"]: r for r in _read(out / "levels.csv")}
        return (f"drops pristine {float(rows['pristine']['drop_frac']):.3f} "
                f"vs L4 {float(rows['L4']['drop_frac']):.3f}")
    if experiment == "cycle":
        # first vs last settled visit at 300 K; 0 unless cycle.drift_scale > 0
        r300 = [float(r["r_steady_ohm"])
                for r in _read(out / "cycle_holds.csv")
                if float(r["t_set_K"]) == 300.0]
        drift = abs(r300[-1] - r300[0]) / r300[0]
        return f"300 K revisit discrepancy {drift:.3%} over {len(r300)} visits"
    if experiment == "nullcline":
        rows = {(r["v_V"], r["T_K"]): float(r["frac"])
                for r in _read(out / "nullcline.csv")}
        return (f"1.4 V anchors {rows[('1.4', '310')]:.3f} @310 K, "
                f"{rows[('1.4', '360')]:.3f} @360 K")
    if experiment == "hsr":
        row = _read(out / "hsr_summary.csv")[0]
        return (f"train {float(row['frac_state']):+.3f}, recovered "
                f"{float(row['recovered_frac']):.3f} of volatile part")
    if experiment == "thermometer":
        rows = _read(out / "thermometer.csv")
        worst = max(abs(float(r["err_K"])) for r in rows)
        return f"worst inversion error {worst:.3f} K over {len(rows)} reads"
    if experiment == "baseline":
        rows = _read(out / "baseline.csv")
        return (f"rates {float(rows[0]['rate_spikes_per_step']):.3f} -> "
                f"{float(rows[-1]['rate_spikes_per_step']):.3f} "
                f"across loads")
    if experiment == "homeostasis":
        rows = _read(out / "homeostasis_rates.csv")
        return f"{len(rows)} rate windows"
    if experiment == "calibrate":
        row = _read(out / "calibrate_gain.csv")[0]
        return (f"{row['mode']} map, settled-rate spread "
                f"{float(row['spread_uncompensated']):.3f} -> "
                f"{float(row['spread_calibrated']):.3f}")
    if experiment == "signature":
        row = _read(out / "signature.csv")[0]
        return (f"phi_b {float(row['phi_b_eV']):.4f} eV, stage-1 r2 "
                f"{float(row['r2_stage1_min']):.6f}")
    if experiment == "iv":
        return f"{len(_read(out / 'iv.csv'))} IV points"
    return "done"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output root directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    root = pathlib.Path(args.out)
    for experiment in EXPERIMENTS:
        out = root / experiment
        argv = [experiment, "--out", str(out), "--seed", str(args.seed)]
        if experiment in ("hsr", "nullcline"):
            argv += ["--preset", "L1"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_dispatch(argv)
        if code != 0:
            print(f"{experiment}: FAILED with exit code {code}")
            return code
        print(f"{experiment:12s} {headline(experiment, out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
