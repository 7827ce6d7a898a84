#!/usr/bin/env python3
"""Tracer self-test: exact hand counts that repeat across traced runs.

    python3 perfbench/selftest.py

Runs default `hsr`, `nullcline`, `cycle` and `baseline` twice each under
the tracer. The counts in spec.HAND_COUNTS only come out right if every
`from .x import` binding and every method is wrapped, and every count must
be identical in both runs. Exits 1 on any mismatch.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import os

import run
import spec
import tracer


def main() -> int:
    bench = run.Bench("protocol-write", 0)
    failures = 0
    try:
        for exp, want in spec.HAND_COUNTS.items():
            counts = []
            for attempt in range(2):
                spans = os.path.join(bench.work, f"{exp}.npz")
                rec = bench.invoke([exp, "--seed", "0"], os.path.join(bench.work, exp), spans)
                if "error" in rec:
                    print(f"FAIL {exp}: {rec['error']}")
                    failures += 1
                    break
                layers = tracer.analyse(spans)
                counts.append({k: v for k, v in layers.items()
                               if not k.endswith("_s")})
            if len(counts) < 2:
                continue
            for fn, n in want.items():
                got = counts[0].get(f"{fn}.calls", 0.0)
                ok = got == n
                failures += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {exp}: {fn} {got:.0f} calls, expected {n}")
            same = counts[0] == counts[1]
            failures += not same
            print(f"{'ok  ' if same else 'FAIL'} {exp}: {len(counts[0])} counts "
                  f"{'repeat exactly' if same else 'differ between runs'}")
    finally:
        bench.close()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
