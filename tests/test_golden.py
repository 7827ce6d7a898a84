"""Golden outputs: SHA-256 of every CSV the ten subcommands write.

A refactor that is meant to keep behaviour must leave these bytes alone;
a change that moves one has to update the hash here and say why.
`manifest.txt` is not hashed because it embeds `run.out_dir`.
"""
import hashlib

import pytest

from memthermo.cli import cli_dispatch
from memthermo.config import resolve_config

# every subcommand at reduced step counts; test_c11 reruns each from its
# manifest
RUNS = {
    "cycle": [],
    "levels": ["--set", "schedule.read_period_s=30"],
    "iv": [],
    "signature": [],
    "hsr": [],
    "nullcline": ["--preset", "L1"],
    "thermometer": ["--set", "thermometer.noise_sigma=0.01",
                    "--set", "thermometer.trials=5"],
    "baseline": ["--set", "baseline.settle_steps=300",
                 "--set", "baseline.measure_steps=500"],
    "homeostasis": ["--set", "homeostasis.pattern=0.25:400"],
    "calibrate": [],
}


# runs whose bytes reach the interiors of the piecewise-linear curves, as
# no run above does: 1.45 V trains at 335 K sit inside the 1.4-1.5 V taper
# and the 310-360 K ramp and move L1 between barrier anchors, and loads
# 0.17 and 0.33 fall between the feedforward table's calibrated loads
INTERIOR_RUNS = {
    "hsr": ["--preset", "L1", "--set", "hsr.v_prog_v=1.45",
            "--set", "hsr.t_test_k=335"],
    "homeostasis": ["--set", "homeostasis.pattern=0.17:500,0.33:700"],
}

# runs under the feedforward maps no run above uses: the calibrated
# baseline, the affine and fixed homeostasis maps, a synapse spread (under
# the calibrated map, as at 300 K every weight is 1 whatever the spread)
# and the affine calibration; a key's first word names the subcommand
MAP_RUNS = {
    "baseline calibrated": ["--set", "baseline.feedforward=calibrated",
                            "--set", "baseline.settle_steps=300",
                            "--set", "baseline.measure_steps=500"],
    "homeostasis affine": ["--set", "neuron.map_mode=affine",
                           "--set", "homeostasis.pattern=0.17:500,0.33:700"],
    "homeostasis fixed": ["--set", "neuron.map_mode=fixed",
                          "--set", "homeostasis.pattern=0.17:500,0.33:700"],
    "baseline spread": ["--set", "neuron.spread_sigma=0.3",
                        "--set", "baseline.feedforward=calibrated",
                        "--set", "baseline.settle_steps=300",
                        "--set", "baseline.measure_steps=500"],
    "calibrate affine": ["--set", "calibrate.mode=affine"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_hashes(root, seed: int, runs=RUNS) -> dict[str, str]:
    """Run every run of runs under root; map 'name/file.csv' to its
    hash."""
    hashes = {}
    for name, extra in runs.items():
        out = root / name
        code = cli_dispatch([name.split()[0], "--out", str(out),
                             "--seed", str(seed), *extra])
        assert code == 0, name
        for path in sorted(out.glob("*.csv")):
            hashes[f"{name}/{path.name}"] = _sha(path.read_bytes())
    return hashes


GOLDEN = {
    0: {
        "cycle/cycle.csv":
            "91be6c10517a9a9c079fba5c9552e25bc30422be252e7755bf374a33507c707b",
        "cycle/cycle_holds.csv":
            "d7acf54a9c2da16957fc0df13eab1677b8209377f6086e4419a570560ed51c39",
        "levels/cycle_L1.csv":
            "92ace25c03d9122bce054dcda9e18777cd7026fa0e75ae5757a13ee269fde3f5",
        "levels/cycle_L2.csv":
            "fb322add4446081fd06463ff8f0967f1b4e6997edf6e19830f9d680da1fa149c",
        "levels/cycle_L3.csv":
            "475300010df3d5def155188dae3c3d51ac59b46ca1bd3eaf422e9a323bde221a",
        "levels/cycle_L4.csv":
            "e2188395bad40e19a0974ebd6848556ff1cc0fcf054f4fbde8fa9882c5e01b72",
        "levels/cycle_pristine.csv":
            "4517f61358e57eec2de70a2c48045ad4fd6449cebf8952b1cd3cc6e25a86c2d4",
        "levels/levels.csv":
            "efcbd1de831077517ddb0fbfc77cf124f6441af15831705bb1de93d98781ec30",
        "iv/iv.csv":
            "0fa159538efa64aa04d56988d44ab472fa842e52ae6eada5bde96b516a8c1a99",
        "signature/iv.csv":
            "0fa159538efa64aa04d56988d44ab472fa842e52ae6eada5bde96b516a8c1a99",
        "signature/signature.csv":
            "dee3134e79c57cbc63a9cd8343430ddd145aab71542356b1e3a8cef6218fb982",
        "hsr/hsr.csv":
            "ee202c91ab51dd63ed6489838a40f76b8f9aa0d2c07e3bd568b9b84b9e3c4e48",
        "hsr/hsr_summary.csv":
            "7f7dbae549d27d687138d5f497dcd1583c8de5a43530cb5a55a4b6cc3677e55f",
        "nullcline/nullcline.csv":
            "71007054e0cf7610dca84583a81f4c00aca2e69d6e5a0094e75528e6b5678435",
        "nullcline/nullcline_fit.csv":
            "e98836db49e208641538bedb67ebbc761c3174c013776d722feedb11978ddca9",
        "thermometer/thermometer.csv":
            "f3c666113680b8971db3ccf33110a6e95b3969c040ab7e05b522aa24d26f6dc8",
        "baseline/baseline.csv":
            "c48eb1027e869821917576f7edb03c6b93366d4532694a491bb0a446e008a975",
        "homeostasis/homeostasis_rates.csv":
            "3ea14433c720df633ac57857b48b74ed6bb41ce1dd77b7565b7dd2c2e65742b7",
        "homeostasis/homeostasis_spike_windows.csv":
            "ce513a2ae19c150cbc8b034a2b25e03fda0a84eb410ba77e83cfdaea3f58f00f",
        "homeostasis/homeostasis_trace.csv":
            "51049f75be4e3e169bbca200297b1664e75ffdbfd715d7a763a594387b9dbf24",
        "calibrate/calibrate_barriers.csv":
            "3b554bae2850d3542741cf8428cdb4d0a4bcf6dc7260d10909dd01777d6f1ba4",
        "calibrate/calibrate_gain.csv":
            "aab1f1cc557c8b1ad390aeaf29b6e3146299976f177198ef6b59e619da459d9d",
        "calibrate/calibrate_table.csv":
            "3fc0a59b6f67b005651d56972a4a3c2558965cc35e62afb2e5cfde3fe05a8cc2",
    },
    17: {
        "cycle/cycle.csv":
            "90be454cb6f5cc7553a14e62576d59a9b8617a8f6391f15b1b0bdf645d0e01b5",
        "cycle/cycle_holds.csv":
            "70a0ed4c2b47255c1042ebdb00940d1e9a6a1655363f5e1d6a812705a579869c",
        "levels/cycle_L1.csv":
            "d1322cb6c27f036889e614ea912b02513bc9e7e335d5a64bda4575026ede0516",
        "levels/cycle_L2.csv":
            "c576f3423157884c99eab8dd8fce2e0f88e734beec51475ee9be13f8595092ef",
        "levels/cycle_L3.csv":
            "da389933100f06e0be3706976a78ef994a637caf3706a202530b9cd8b718ff00",
        "levels/cycle_L4.csv":
            "f539754560acf9aa6841366492a01ef0311c5bfda5241dcd107072a87ecbfed8",
        "levels/cycle_pristine.csv":
            "864d03f9e7d4824eff272572289a0e82951786a9cb67996aeb3206502b17121f",
        "levels/levels.csv":
            "efcbd1de831077517ddb0fbfc77cf124f6441af15831705bb1de93d98781ec30",
        "iv/iv.csv":
            "0fa159538efa64aa04d56988d44ab472fa842e52ae6eada5bde96b516a8c1a99",
        "signature/iv.csv":
            "0fa159538efa64aa04d56988d44ab472fa842e52ae6eada5bde96b516a8c1a99",
        "signature/signature.csv":
            "dee3134e79c57cbc63a9cd8343430ddd145aab71542356b1e3a8cef6218fb982",
        "hsr/hsr.csv":
            "ee202c91ab51dd63ed6489838a40f76b8f9aa0d2c07e3bd568b9b84b9e3c4e48",
        "hsr/hsr_summary.csv":
            "7f7dbae549d27d687138d5f497dcd1583c8de5a43530cb5a55a4b6cc3677e55f",
        "nullcline/nullcline.csv":
            "71007054e0cf7610dca84583a81f4c00aca2e69d6e5a0094e75528e6b5678435",
        "nullcline/nullcline_fit.csv":
            "e98836db49e208641538bedb67ebbc761c3174c013776d722feedb11978ddca9",
        "thermometer/thermometer.csv":
            "1c1b097dc4936f578cb1b80f1536595b9e33908056e5ec85906d071981346bae",
        "baseline/baseline.csv":
            "c48eb1027e869821917576f7edb03c6b93366d4532694a491bb0a446e008a975",
        "homeostasis/homeostasis_rates.csv":
            "3ea14433c720df633ac57857b48b74ed6bb41ce1dd77b7565b7dd2c2e65742b7",
        "homeostasis/homeostasis_spike_windows.csv":
            "ce513a2ae19c150cbc8b034a2b25e03fda0a84eb410ba77e83cfdaea3f58f00f",
        "homeostasis/homeostasis_trace.csv":
            "51049f75be4e3e169bbca200297b1664e75ffdbfd715d7a763a594387b9dbf24",
        "calibrate/calibrate_barriers.csv":
            "3b554bae2850d3542741cf8428cdb4d0a4bcf6dc7260d10909dd01777d6f1ba4",
        "calibrate/calibrate_gain.csv":
            "aab1f1cc557c8b1ad390aeaf29b6e3146299976f177198ef6b59e619da459d9d",
        "calibrate/calibrate_table.csv":
            "3fc0a59b6f67b005651d56972a4a3c2558965cc35e62afb2e5cfde3fe05a8cc2",
    },
}

# the same at every seed: these runs draw no noise
INTERIOR_GOLDEN = {
    "hsr/hsr.csv":
        "7b24dc7dcc7a7dd33528f44e9c60572742f43d8c5a9c5ea505e902cf5a6862ff",
    "hsr/hsr_summary.csv":
        "1fa0a0b8ddc32a185b3e281cdf44f5ff80617a3e5c2b52d2ad1916f649d278d0",
    "homeostasis/homeostasis_rates.csv":
        "44dea21dc474c6ed3949540666adf905495a584cf314fc770ba3e4b1a77fe5b1",
    "homeostasis/homeostasis_spike_windows.csv":
        "2d00c6d5d2158704fb9b6ff39aa88c4c213578c9cd99d96b4863f5aff7c4846d",
    "homeostasis/homeostasis_trace.csv":
        "63f57e735ee2f91116f03cfeb46399f5b279340f9157e6ff36a25238a089b89d",
}

# at seed 0, the seed of the spread run's draws
MAP_GOLDEN = {
    "baseline calibrated/baseline.csv":
        "56863e650bfef9887675bbb7870cf9f195022878ae52d6326edf01fcb8d4f6b0",
    "homeostasis affine/homeostasis_rates.csv":
        "9b39d1fa2ce3b97fe446cb70aa5af2d158891037662bf5e0195637816f7ce52f",
    "homeostasis affine/homeostasis_spike_windows.csv":
        "6f8191a61d654fb925580bf9bbcfe92fecc0a230d84641db62c4b0f0c77cdb83",
    "homeostasis affine/homeostasis_trace.csv":
        "2314cc2c4f7564185821bf12c19428335dad215fb83d5fb8e15bbf96abb2beae",
    "homeostasis fixed/homeostasis_rates.csv":
        "ec5b4ddef42875a0306f91844fe591b136167355c396dfc39e1f05e6b540eb96",
    "homeostasis fixed/homeostasis_spike_windows.csv":
        "7e199954fa093dfa0ee9344480bd8b17cc8e57a33086bc814cd25e207aa40ee6",
    "homeostasis fixed/homeostasis_trace.csv":
        "be4fd910d0dab4e5c857f0b9493840c0079c6c3cfa179ecfb1ae95411aac630b",
    "baseline spread/baseline.csv":
        "f015a62cfb388d28d5dcf557e5bf2ddafbed6b34e2188a660135efec5af8a7a1",
    "calibrate affine/calibrate_barriers.csv":
        "3b554bae2850d3542741cf8428cdb4d0a4bcf6dc7260d10909dd01777d6f1ba4",
    "calibrate affine/calibrate_gain.csv":
        "5c7fa83ada51b44c17a09250bfa880d1bd41ebe68aba48390f64025f7acd5ab8",
}

DEFAULT_CONFIG_SHA = (
    "323ec31070e6c8cbfdbd3e1c8b99f8c3d0154ab0faecb6949e632798882e0770")


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_csv_outputs_match_golden(seed, tmp_path, capsys):
    assert csv_hashes(tmp_path, seed) == GOLDEN[seed]


def test_interior_outputs_match_golden(tmp_path, capsys):
    assert csv_hashes(tmp_path, 0, INTERIOR_RUNS) == INTERIOR_GOLDEN


def test_map_outputs_match_golden(tmp_path, capsys):
    assert csv_hashes(tmp_path, 0, MAP_RUNS) == MAP_GOLDEN


def test_default_config_serialization_matches_golden():
    text = resolve_config().serialize()
    assert _sha(text.encode()) == DEFAULT_CONFIG_SHA
