"""A run's input files: the load pattern that `homeostasis.pattern_csv`
names and the IV curves that `iv.input_csv` names.

resolve_config has every command read each set file once, before
anything is written. The manifest pins each file's bytes with one
`# input <key> crc32 = <8 hex digits>` line, and a config file that
carries such a line is checked against the file its key names. config
imports this module only for a run with an input file or a config file,
so no other run compiles it.
"""
from __future__ import annotations

import zlib

from .config import INPUT_KEYS, ConfigError, checked
from .csvio import parse_csv_text
from .device import IVCurveSet
from .neuron import InputPattern

_PIN = "# input "


def pins(text: str, source: str) -> dict[str, int]:
    """The crc32 each `# input <key> crc32 = <8 hex digits>` line pins."""
    pinned = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith(_PIN):
            key, _, crc = line[len(_PIN):].partition(" crc32 = ")
            if (key not in INPUT_KEYS or len(crc) != 8
                    or not set(crc) <= set("0123456789abcdef")):
                raise ConfigError(f"{source}:{lineno}: expected '{_PIN}"
                                  f"<file key> crc32 = <8 hex digits>', "
                                  f"got {line!r}")
            pinned[key] = int(crc, 16)
    return pinned


def load(cfg, pinned: dict[str, int]):
    """(pattern, ivs, pin lines) of the run's input files, each read once
    and checked against its pin; pattern or ivs is None when its key is
    unset."""
    files = {}
    for key in INPUT_KEYS:
        if cfg[key]:
            with open(cfg[key], "rb") as fh:
                files[key] = fh.read()
    crcs = {key: zlib.crc32(data) for key, data in files.items()}
    for key, crc in pinned.items():
        if crcs.get(key) != crc:
            found = (f"{cfg[key]} has crc32 {crcs[key]:08x}" if key in crcs
                     else "no file is set")
            raise ConfigError(f"{key}: {found}, but the config pins crc32 "
                              f"{crc:08x}")
    pattern = ivs = None
    if path := cfg["homeostasis.pattern_csv"]:
        pattern = checked(path, _pattern, files["homeostasis.pattern_csv"],
                          cfg["neuron.window"])
    if path := cfg["iv.input_csv"]:
        ivs = checked(path, _ivs, files["iv.input_csv"])
    return pattern, ivs, [f"{_PIN}{key} crc32 = {crc:08x}"
                          for key, crc in crcs.items()]


def _pattern(data: bytes, window: int) -> InputPattern:
    """CSV breakpoint rows (step, load), the first at step 0: each load
    holds until the next breakpoint, the final one for the longest
    preceding segment (one window for a single-row file)."""
    _, rows = parse_csv_text(data.decode("utf-8"))
    breakpoints = [(int(step), float(load)) for step, load in rows]
    if breakpoints and breakpoints[0][0] != 0:
        raise ValueError(f"first breakpoint must be at step 0, got "
                         f"{breakpoints[0][0]}")
    if any(b[0] <= a[0] for a, b in zip(breakpoints, breakpoints[1:])):
        raise ValueError("breakpoint steps must increase")
    durations = [b[0] - a[0] for a, b in zip(breakpoints, breakpoints[1:])]
    tail = max(durations, default=window)
    return InputPattern(segments=tuple(
        (duration, load)
        for (_, load), duration in zip(breakpoints, durations + [tail])))


def _ivs(data: bytes) -> IVCurveSet:
    _, rows = parse_csv_text(data.decode("utf-8"), "iv")
    return IVCurveSet.from_rows((T, v, i) for _, T, v, i in rows)
