"""CSV emission with a fixed, locale-free wire format.

Headers are pinned per schema; each cell is format_value's text (floats
to 9 significant digits), newline '\\n', encoding UTF-8, written one
chunk of rows per format call. Identical runs give identical bytes.
"""
from __future__ import annotations

import sys
from itertools import chain, islice

from . import __version__

SCHEMAS: dict[str, tuple[str, ...]] = {
    "cycle": ("t_s", "t_set_K", "t_air_K", "t_dev_K", "r_ohm", "phase"),
    "cycle_holds": ("hold", "t_set_K", "r_steady_ohm", "r_first_ohm",
                    "r_last_ohm", "settled"),
    "levels": ("level", "r_ref_ohm", "drop_frac", "sensitivity_pct_per_K"),
    "iv": ("level", "T_K", "v_V", "i_A"),
    "signature": ("polarity", "a_per_K2", "phi_b_eV", "alpha_eV_per_sqrtV",
                  "r2_stage1_min", "r2_stage2", "intercept_spread"),
    "hsr": ("t_s", "t_set_K", "t_air_K", "t_dev_K", "r_ohm", "phase",
            "pulse_index", "v_V"),
    "hsr_summary": ("T_test_K", "v_prog_V", "frac_state", "frac_at_T",
                    "frac_vs_300", "recovered_frac", "reset_pulses"),
    "nullcline": ("v_V", "T_K", "frac"),
    "nullcline_fit": ("g_14_310", "g_14_360", "beta_per_V",
                      "r2_voltage_min", "r2_temperature"),
    "thermometer": ("t_s", "T_true_K", "trial", "r_ohm", "T_est_K", "err_K"),
    "baseline": ("load", "rate_spikes_per_step"),
    "homeostasis_rates": ("window", "t_mid_s", "rate_spikes_per_step"),
    "homeostasis_spike_windows": ("window", "t_start_s", "t_end_s",
                                  "rate_spikes_per_step"),
    "homeostasis_trace": ("step", "t_s", "load", "t_set_K", "t_dev_K",
                          "spikes"),
    "calibrate_gain": ("mode", "kappa", "spread_uncompensated",
                       "spread_calibrated"),
    "calibrate_table": ("load", "t_set_K"),
    "calibrate_barriers": ("level", "r_ref_ohm", "total_drop", "phi_app_eV"),
}


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


# rows per %-call: a table's cells are held one chunk at a time
CHUNK_ROWS = 4096
# format_value's text of a cell of each exact type ("%.0s" % None is "")
_CODES = {float: "%.9g", int: "%d", str: "%s", type(None): "%.0s"}


def emit_csv(path, schema_id: str, rows) -> str:
    """Write rows under the schema's pinned header; returns the path. Each
    chunk of CHUNK_ROWS rows is one %-call: a column of one exact type in
    _CODES gets its code, any other is format_value's text cell by cell.
    The file is opened after the last chunk: a bad row writes nothing."""
    header = SCHEMAS.get(schema_id)
    if header is None:
        raise ValueError(f"unknown CSV schema {schema_id!r}")
    width, texts, rows = len(header), [",".join(header) + "\n"], iter(rows)
    while chunk := list(map(tuple, islice(rows, CHUNK_ROWS))):
        if set(map(len, chunk)) != {width}:
            row = next(row for row in chunk if len(row) != width)
            raise ValueError(f"schema {schema_id}: row has {len(row)} "
                             f"fields, expected {width}")
        flat, codes = list(chain.from_iterable(chunk)), []
        for j in range(width):
            types = set(map(type, flat[j::width]))
            code = _CODES.get(types.pop()) if len(types) == 1 else None
            if code is None:   # mixed types, or one with no code
                flat[j::width] = map(format_value, flat[j::width])
            codes.append(code or "%s")
        texts.append((",".join(codes) + "\n") * len(chunk) % tuple(flat))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(texts)
    return str(path)


def parse_csv(path, schema_id: str | None = None):
    """Read a CSV written by emit_csv; returns (header, rows of strings)."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        return parse_csv_text(fh.read(), schema_id)


def parse_csv_text(text: str, schema_id: str | None = None):
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty file")
    header = tuple(lines[0].split(","))
    if schema_id is not None and header != SCHEMAS[schema_id]:
        raise ValueError(f"header does not match schema {schema_id}")
    return header, [tuple(line.split(",")) for line in lines[1:]]


def write_manifest(path, config, numpy: str) -> str:
    """Echo the versions of memthermo, Python and the numpy the run imported
    (`numpy` is that version, or "not imported"), the run's experiment and
    its configuration, each input file's crc32 included: the manifest alone
    is enough to reproduce the run byte for byte."""
    python = ".".join(map(str, sys.version_info[:3]))
    text = (f"# memthermo run manifest\n# version = {__version__}\n"
            f"# python = {python}\n# numpy = {numpy}\n"
            f"# experiment = {config['run.experiment']}\n"
            + config.serialize())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return str(path)
