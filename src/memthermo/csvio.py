"""CSV emission with a fixed, locale-free wire format.

Headers are pinned per schema; floats are serialized with 9 significant
digits, newline is '\\n', encoding UTF-8. Bit-exact text is the contract:
identical runs must produce identical bytes.
"""
from __future__ import annotations

import sys

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


def _row_template(types) -> str | None:
    """The %-template writing rows of these types as format_value does."""
    exact = {int: "%d", str: "%s", type(None): "%.0s"}   # "%.0s" % None: ""
    codes = ["%.9g" if issubclass(t, float) else exact.get(t) for t in types]
    return None if None in codes else ",".join(codes)


def emit_csv(path, schema_id: str, rows) -> str:
    """Write rows under the schema's pinned header; returns the path."""
    header = SCHEMAS.get(schema_id)
    if header is None:
        raise ValueError(f"unknown CSV schema {schema_id!r}")
    lines = [",".join(header)]
    templates = {}
    for row in rows:
        row = tuple(row)
        if len(row) != len(header):
            raise ValueError(
                f"schema {schema_id}: row has {len(row)} fields, "
                f"expected {len(header)}"
            )
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = _row_template(types)
        template = templates[types]   # None: some cell needs format_value
        lines.append(template % row if template
                     else ",".join(map(format_value, row)))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return str(path)


def parse_csv(path, schema_id: str | None = None):
    """Read a CSV written by emit_csv; returns (header, rows of strings)."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty file")
    header = tuple(lines[0].split(","))
    if schema_id is not None and header != SCHEMAS[schema_id]:
        raise ValueError(f"header does not match schema {schema_id}")
    rows = [tuple(line.split(",")) for line in lines[1:]]
    return header, rows


def write_manifest(path, config, experiment: str, version: str,
                   numpy: str) -> str:
    """Echo the fully resolved configuration under the versions of Python
    and of the numpy the run imported (`numpy` is that version, or
    "not imported"); the manifest alone is enough to reproduce the run
    byte for byte."""
    python = ".".join(map(str, sys.version_info[:3]))
    text = (
        f"# memthermo run manifest\n"
        f"# version = {version}\n"
        f"# python = {python}\n"
        f"# numpy = {numpy}\n"
        f"# experiment = {experiment}\n"
        + config.serialize()
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return str(path)
