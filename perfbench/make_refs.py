#!/usr/bin/env python3
"""Write refs.tar.xz: every CSV of every workload at the reference seeds.

    python3 perfbench/make_refs.py

Run it only when a change to the program's outputs is intended and
declared; the references are what every benchmark run is checked against.
Files outside spec.SEEDED_FILES must come out the same for every seed.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import io
import lzma
import os
import tarfile

import checks
import run
import spec


def main() -> int:
    files: dict[tuple[int, str, str], bytes] = {}
    for seed in spec.REFERENCE_SEEDS:
        for workload in spec.WORKLOADS:
            bench = run.Bench(workload, seed)
            try:
                for inv in bench.invocations:
                    exp = inv[0]
                    rec = bench.invoke(bench._args(inv), bench.out_dirs[exp])
                    if "error" in rec:
                        print(f"{workload} {exp}: {rec['error']}", file=sys.stderr)
                        return 1
                    for name in sorted(os.listdir(bench.out_dirs[exp])):
                        if name.endswith(".csv"):
                            with open(os.path.join(bench.out_dirs[exp], name), "rb") as fh:
                                files[(seed, exp, name)] = fh.read()
            finally:
                bench.close()
    first = spec.REFERENCE_SEEDS[0]
    for (seed, exp, name), data in files.items():
        if not checks.seeded(name) and data != files[(first, exp, name)]:
            print(f"{exp}/{name} differs between seeds but is not in SEEDED_FILES",
                  file=sys.stderr)
            return 1
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        for (seed, exp, name), data in sorted(files.items()):
            info = tarfile.TarInfo(f"{seed}/{exp}/{name}")
            info.size, info.mode = len(data), 0o644
            tar.addfile(info, io.BytesIO(data))
    with open(checks.REFS, "wb") as fh:
        fh.write(lzma.compress(buf.getvalue(), preset=9 | lzma.PRESET_EXTREME))
    print(f"{checks.REFS}: {len(files)} files, {os.path.getsize(checks.REFS)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
