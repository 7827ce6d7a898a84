"""The golden tables of golden.py, checked under pytest; signature
included, as the test process has numpy."""
import pytest

from golden import (DEFAULT_CONFIG_SHA, GOLDEN, INTERIOR_GOLDEN,
                    INTERIOR_RUNS, KERNELS, MAP_GOLDEN, MAP_RUNS,
                    VARIANT_GOLDEN, VARIANT_RUNS, csv_hashes, kernel_bits,
                    seed_golden, sha)
from memthermo.config import resolve_config


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_csv_outputs_match_golden(seed, tmp_path, capsys):
    assert csv_hashes(tmp_path, seed) == seed_golden(seed)


def test_interior_outputs_match_golden(tmp_path, capsys):
    assert csv_hashes(tmp_path, 0, INTERIOR_RUNS) == INTERIOR_GOLDEN


def test_map_outputs_match_golden(tmp_path, capsys):
    assert csv_hashes(tmp_path, 0, MAP_RUNS) == MAP_GOLDEN


def test_variant_outputs_match_golden(tmp_path, capsys):
    assert csv_hashes(tmp_path, 0, VARIANT_RUNS) == VARIANT_GOLDEN


def test_kernel_bits_match_golden():
    assert kernel_bits() == KERNELS


def test_default_config_serialization_matches_golden():
    assert sha(resolve_config().serialize().encode()) == DEFAULT_CONFIG_SHA
