"""Configuration resolution and CSV wire-format tests."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memthermo import csvio
from memthermo.config import (
    ConfigError,
    REGISTRY,
    parse_config_text,
    resolve_config,
)
from memthermo.csvio import SCHEMAS, emit_csv, format_value, parse_csv


def test_defaults_match_documented_values():
    cfg = resolve_config()
    assert cfg["run.seed"] == 0
    assert cfg["switching.v_th_v"] == 0.5
    assert cfg["switching.g_14_310"] == 0.22
    assert cfg["switching.g_14_360"] == 0.27
    assert cfg["switching.beta_per_v"] == pytest.approx(math.log(11.0) / 0.7)
    assert cfg["switching.n_tau"] == 20.0
    assert cfg["switching.eta_nv"] == 0.4
    assert cfg["switching.tau_ret"] == 50.0
    assert cfg["plant.tau_air_s"] == 180.0
    assert cfg["schedule.hold_s"] == 3600.0
    assert cfg["fit.drop_pristine"] == 0.61
    assert cfg["fit.drop_l4"] == 0.11


def test_unknown_keys_rejected_everywhere(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense.key = 1\n")
    with pytest.raises(ConfigError, match="nonsense.key"):
        resolve_config(config_path=str(bad))
    with pytest.raises(ConfigError, match="run.sneed"):
        resolve_config(overrides={"run.sneed": "1"})


def test_non_finite_floats_rejected_everywhere(tmp_path):
    cfg_file = tmp_path / "inf.cfg"
    cfg_file.write_text("schedule.hold_s = inf\n")
    with pytest.raises(ConfigError,
                       match="^schedule.hold_s must be finite, got 'inf'$"):
        resolve_config(config_path=str(cfg_file))
    with pytest.raises(ConfigError,
                       match="^neuron.theta must be finite, got '-inf'$"):
        resolve_config(overrides={"neuron.theta": "-inf"})
    with pytest.raises(ConfigError,
                       match="^fit.drop_l1 must be finite, got 'NaN'$"):
        resolve_config(overrides={"fit.drop_l1": "NaN"})
    # a bad spelling is still reported as a type error
    with pytest.raises(ConfigError, match="is not float"):
        resolve_config(overrides={"fit.drop_l1": "nope"})


def test_precedence_file_env_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("run.seed = 1\nschedule.hold_s = 1800\n")
    cfg = resolve_config(config_path=str(cfg_file),
                         overrides={"run.seed": "3"})
    assert cfg["run.seed"] == 3
    assert cfg["schedule.hold_s"] == 1800.0


def test_bad_value_type_reports_key(tmp_path):
    with pytest.raises(ConfigError, match="run.seed"):
        resolve_config(overrides={"run.seed": "abc"})


def test_parse_config_text_rejects_garbage():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")
    parsed = parse_config_text("# comment\nrun.seed = 5\n\n")
    assert parsed == {"run.seed": "5"}


def test_serialize_round_trips_exact_floats():
    cfg = resolve_config(overrides={"switching.beta_per_v":
                                            repr(math.log(11.0) / 0.7)})
    text = cfg.serialize()
    reparsed = parse_config_text(text)
    assert len(reparsed) == len(REGISTRY)
    cfg2 = resolve_config(overrides=reparsed)
    assert cfg2["switching.beta_per_v"] == cfg["switching.beta_per_v"]
    assert cfg2.serialize() == text


def test_float_list_parser():
    cfg = resolve_config(overrides={"baseline.loads": "0.1, 0.2,0.3"})
    assert cfg.floats("baseline.loads") == [0.1, 0.2, 0.3]
    with pytest.raises(ConfigError, match="baseline.loads"):
        resolve_config(overrides={"baseline.loads": "a,b"}).floats(
            "baseline.loads")


def test_builders_construct_model_objects():
    cfg = resolve_config()
    assert [a.label for a in cfg.fit.anchors] == ["pristine", "L1", "L2",
                                                  "L3", "L4"]
    assert cfg.switching.g_14_310 == 0.22
    assert cfg.plant.tau_dev_s == 720.0
    wafer = resolve_config(overrides={"plant.preset": "on_wafer"})
    assert wafer.plant.tau_dev_s == 60.0
    with pytest.raises(ConfigError, match="plant.preset"):
        resolve_config(overrides={"plant.preset": "floating"})


# ---------------------------------------------------------------------------
# CSV


def test_empty_rows_give_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(path, "nullcline", [])
    assert path.read_bytes() == b"v_V,T_K,frac\n"


def test_schema_headers_pinned():
    assert SCHEMAS["cycle"] == ("t_s", "t_set_K", "t_air_K", "t_dev_K",
                                "r_ohm", "phase")
    assert SCHEMAS["nullcline"] == ("v_V", "T_K", "frac")


def test_float_formatting_nine_significant_digits():
    assert format_value(0.6944444444444444) == "0.694444444"
    assert format_value(1234567891.0) == "1.23456789e+09"
    assert format_value(3600.0) == "3600"
    assert format_value(True) == "true"
    assert format_value(None) == ""


def test_csv_round_trip_to_nine_digits(tmp_path):
    rows = [(0.7, 310.0, 0.019999092), (1.4, 360.0, 0.269448731)]
    path = tmp_path / "grid.csv"
    emit_csv(path, "nullcline", rows)
    header, parsed = parse_csv(path, "nullcline")
    assert header == SCHEMAS["nullcline"]
    for raw, row in zip(parsed, rows):
        for text, value in zip(raw, row):
            assert float(text) == pytest.approx(value, rel=1e-9)
    # re-emitting the parsed floats reproduces identical bytes
    emit_csv(tmp_path / "again.csv", "nullcline",
             [tuple(float(x) for x in row) for row in parsed])
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


_CELLS = {
    "none": st.none(),
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "int": st.integers(-2**70, 2**70),
    "np.int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "float": st.one_of(st.floats(), st.sampled_from(
        (math.nan, math.inf, -math.inf, -0.0, 0.0))),
    "np.float64": st.floats().map(np.float64),
    "np.float32": st.floats(width=32).map(np.float32),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
}


# kinds a column changes between, from one chunk to the next
_SWITCHES = [("none", "int"), ("float", "bool"), ("float", "np.float64")]


@settings(max_examples=200, deadline=None)
@given(schema_id=st.sampled_from(sorted(SCHEMAS)), chunk=st.integers(1, 5),
       per_row=st.booleans(), data=st.data())
def test_emit_csv_equals_per_cell_writer(tmp_path_factory, schema_id, chunk,
                                         per_row, data):
    header = SCHEMAS[schema_id]
    # each column cycles through its kinds chunk by chunk, so its chunks
    # alternate between a type code and format_value per cell (a bool or
    # numpy scalar has no code); per_row draws each cell's kind afresh,
    # so a chunk's column mixes kinds and is written cell by cell
    kinds = st.one_of(st.sampled_from(_SWITCHES), st.lists(
        st.sampled_from(sorted(_CELLS)), min_size=1, max_size=3))
    columns = data.draw(st.lists(kinds, min_size=len(header),
                                 max_size=len(header)))

    def kind(col, k):   # of the column's cell in row k
        if per_row:
            return data.draw(st.sampled_from(col))
        return col[k // chunk % len(col)]
    rows = [tuple(data.draw(_CELLS[kind(col, k)]) for col in columns)
            for k in range(data.draw(st.integers(0, 12)))]
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "CHUNK_ROWS", chunk)
        emit_csv(path, schema_id, rows)
    lines = [",".join(header)] + [
        ",".join(format_value(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def _rows_then(failure):
    """Five nullcline rows, then the failure: a bad row, or a raise."""
    yield from [(0.7, 310.0, 0.02)] * 5
    if isinstance(failure, Exception):
        raise failure
    yield failure


@pytest.mark.parametrize("failure, match", [
    ((1.0, 2.0), "row has 2 fields, expected 3"),
    ((1.0, 2.0, 3.0, 4.0), "row has 4 fields, expected 3"),
    (RuntimeError("handler failed"), "handler failed"),
])
def test_failure_in_a_later_chunk_writes_nothing(tmp_path, monkeypatch,
                                                 failure, match):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    path = tmp_path / "late.csv"
    with pytest.raises((ValueError, RuntimeError), match=match):
        emit_csv(path, "nullcline", _rows_then(failure))
    assert not path.exists()


def test_emit_csv_memory_is_bounded_by_the_chunk(tmp_path):
    # 50,000 lazily made homeostasis trace rows (a 1.92 MB file): the
    # formatted text is held whole until the file is opened, the cells a
    # chunk at a time. tracemalloc peaks on Python 3.11.7: 3.40 MB chunked
    # (1.8x the file), 8.79 MB for one template per row (4.6x), 17.09 MB
    # for one format call over the whole table (8.9x)
    rows = ((k, k * 1.0, "0.2", "310.512345", 300.0 + k * 1e-5, k % 3)
            for k in range(50_000))
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        emit_csv(path, "homeostasis_trace", rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert 1.9e6 < size < 1.95e6
    assert peak < 3 * size


def test_emit_validates_schema_and_row_width(tmp_path):
    with pytest.raises(ValueError, match="unknown CSV schema"):
        emit_csv(tmp_path / "x.csv", "no_such_schema", [])
    with pytest.raises(ValueError, match="fields"):
        emit_csv(tmp_path / "x.csv", "nullcline", [(1.0, 2.0)])
    # the chunk's cell count is right, but neither row is
    with pytest.raises(ValueError, match="row has 2 fields, expected 3"):
        emit_csv(tmp_path / "x.csv", "nullcline",
                 [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])


def test_newlines_are_unix_and_utf8(tmp_path):
    path = tmp_path / "nl.csv"
    emit_csv(path, "nullcline", [(0.7, 310.0, 0.02)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").endswith("\n")


def test_rng_substreams_are_independent(cfg, cycle):
    # consuming one named stream never perturbs another, and the same
    # (seed, name) pair always replays identically
    from memthermo.rng import substream
    from memthermo.thermal import scrambled_schedule

    first = substream(7, "schedule").permutation(10)
    substream(7, "drift").standard_normal(1000)
    substream(7, "noise").standard_normal(17)
    second = substream(7, "schedule").permutation(10)
    assert list(first) == list(second)

    with pytest.raises(ValueError, match="unknown rng stream"):
        substream(7, "weather")

    # the drift stream consumer leaves the schedule untouched
    quiet = cycle(13)
    drifty = cycle(13, drift_scale=0.05)
    assert ([h.t_set_K for h in quiet.holds]
            == [h.t_set_K for h in drifty.holds]
            == list(scrambled_schedule(13, cfg["schedule.hold_s"]).setpoints))
