"""Golden outputs: SHA-256 of every CSV the ten subcommands write.

A refactor that is meant to keep behaviour must leave these bytes alone;
a change that moves one has to update the hash here and say why.
`manifest.txt` is not hashed because it embeds `run.out_dir`, but every
run except signature's must say `# numpy = not imported` in it.

Run as a script, with memthermo importable (`PYTHONPATH=src python
tests/golden.py`), it checks every table and the kernel bits, and needs
neither pytest nor numpy: it prints one line per table, names each
mismatched file or kernel, and exits 1 on any mismatch. Where `import
numpy` fails it skips signature, and says so.
"""
import contextlib
import hashlib
import io
import sys
import tempfile
import traceback
from pathlib import Path

from memthermo.calibration import invert_temperature
from memthermo.cli import cli_dispatch
from memthermo.config import resolve_config
from memthermo.device import DEFAULT_ANCHORS, ThermalFit, _ratio
from memthermo.neuron import FeedforwardMap
from memthermo.thermal import ThermalPlant

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


# runs at keys no run above sets (drift, an explicit device resistance,
# explicit setpoints, which draw no scramble), and hsr and iv on L1 and a
# noiseless thermometer, which the runs above reach only at other keys
VARIANT_RUNS = {
    "cycle drift": ["--set", "cycle.drift_scale=0.05"],
    "levels drift": ["--set", "cycle.drift_scale=0.05",
                     "--set", "schedule.read_period_s=30"],
    "iv r_ohm": ["--set", "device.r_ohm=2e6"],
    "homeostasis r_ohm": ["--set", "device.r_ohm=2e6",
                          "--set", "homeostasis.pattern=0.25:400"],
    "cycle setpoints": ["--set", "schedule.setpoints=300,360,300"],
    "levels setpoints": ["--set", "schedule.setpoints=300,360,300",
                         "--set", "schedule.read_period_s=30"],
    "thermometer setpoints": ["--set", "schedule.setpoints=300,360,300"],
    "hsr L1": ["--preset", "L1"],
    "iv L1": ["--preset", "L1"],
    "thermometer noiseless": [],
}


# by seed; seed 17 lists only the files that draw from the seed (the rule
# of perfbench's SEEDED_FILES), and seed_golden gives every other file its
# seed 0 hash
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
        "thermometer/thermometer.csv":
            "1c1b097dc4936f578cb1b80f1536595b9e33908056e5ec85906d071981346bae",
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

# at seed 0, the seed of the drift runs' draws
VARIANT_GOLDEN = {
    "cycle drift/cycle.csv":
        "db193116698ea302e0fceb820b6bc9bb9bf1ad56d4e9645cca38b4b36d79c6cf",
    "cycle drift/cycle_holds.csv":
        "08449c6263ec186a6c24dbb747b22e86246627ba1933228399116bc45d679f9f",
    "levels drift/cycle_L1.csv":
        "0300a33f35bf552dfa5a1509610d306f0084db224092332ef51f75287211626d",
    "levels drift/cycle_L2.csv":
        "32da3614acb9fa1aa1245c769abb4726b6c3b15b1da5fd68f2c9cd54fa4fa1a0",
    "levels drift/cycle_L3.csv":
        "90619a2671fe57758dd995219c16c64714b108c14bc9b7eccb24bc5b8ca2a2f1",
    "levels drift/cycle_L4.csv":
        "2529bf75a0376e3b744293e9cef88de6eb72e2b894422d455409aadf81b556e4",
    "levels drift/cycle_pristine.csv":
        "061964464a2ce95237dd7edb8a97c204fc89e31ba4f06029fff3e8021a9d4f8b",
    "levels drift/levels.csv":
        "c7b8a47b90440d5b0bf93c828e7d10444630009b572bdccae6d30e57c8696107",
    "iv r_ohm/iv.csv":
        "8fb739b35580c6084d8b5df0d1f5ccbb815c9b9492939d8ca27455b726e88558",
    "homeostasis r_ohm/homeostasis_rates.csv":
        "ae67a2bebdea34a32917da6b18a8e9cfaf2472c7247eaea3cefddb5c4a1cb40f",
    "homeostasis r_ohm/homeostasis_spike_windows.csv":
        "626acb800a2b8b8140fee7d689983fbaca03f0b6a8536a085beb76e7268bbd67",
    "homeostasis r_ohm/homeostasis_trace.csv":
        "f0d61a90ef7c546660f46448eaf3eb56623f6beb5e0c3f3a1df5c0a63200aaa5",
    "cycle setpoints/cycle.csv":
        "40e19be9045db112c4080ce123724d100d4460ea4066c02dbadb40e300103de5",
    "cycle setpoints/cycle_holds.csv":
        "d8524b6441828571e5ecce311771459511f80cc86182be2da295829815c410cf",
    "levels setpoints/cycle_L1.csv":
        "61821ee834a41a05cf528e3fa9403f72b31ec58c20c9fc0372f0c04a3d8674ba",
    "levels setpoints/cycle_L2.csv":
        "3e80c9d94f7ea6e22d77b239fdd2ba045f639fd1cb547c34ba941cb75a6b75ef",
    "levels setpoints/cycle_L3.csv":
        "bcbfca0ae2dffaf2199882318a6d985b2000a9b48d3752677df7a740645c5e55",
    "levels setpoints/cycle_L4.csv":
        "bcfe20a1a1e6d3c339c4dc6a393703339bfa6c10ad6835454bcd8608aa4d4284",
    "levels setpoints/cycle_pristine.csv":
        "8d2a3eae4884ebed7f16f2364c2281867574e1fad24b5e09e0b75120fadf1661",
    "levels setpoints/levels.csv":
        "a45b16eb26da8955c7ee8a3c31a6dfbd9d0d3d90dba80a30811627421acfff6a",
    "thermometer setpoints/thermometer.csv":
        "39567c2ea8c353d7f54f9d75f390913de5ee7ec01418d1b71f14164ef8cda47c",
    "hsr L1/hsr.csv":
        "4478811426d652065f866b378b3c304ea256879a788fa552e73272fe14ab94fb",
    "hsr L1/hsr_summary.csv":
        "053049679ecc7ae4e21fdf244d0fd97f42fe178a9f3d7dc9820433f6a5becf42",
    "iv L1/iv.csv":
        "5defdb3091b92c54c1711b086384644d3c84e17d3495d0453ab93b091411be6a",
    "thermometer noiseless/thermometer.csv":
        "48d1ee11ed772599920c46fe9558a691f2606e39ad3840d5b12b91efaf00ce0f",
}

DEFAULT_CONFIG_SHA = (
    "323ec31070e6c8cbfdbd3e1c8b99f8c3d0154ab0faecb6949e632798882e0770")

# kernel_bits(), the same on every interpreter 3.10-3.13
KERNELS = {
    "phi pristine": "0x1.6e91889d9b8b1p-4",
    "ratio pristine 310.0 K": "0x1.acd5fb642ede1p-1",
    "ratio pristine 333.3 K": "0x1.25846171fa6bbp-1",
    "ratio pristine 360.0 K": "0x1.8f5c28f5c28f2p-2",
    "phi L1": "0x1.3f7c1d788276ap-4",
    "ratio L1 310.0 K": "0x1.b307fc155282fp-1",
    "ratio L1 333.3 K": "0x1.32d9bb3c4ef82p-1",
    "ratio L1 360.0 K": "0x1.ae147ae147ac5p-2",
    "phi L2": "0x1.497ead008bff2p-6",
    "ratio L2 310.0 K": "0x1.d39e1942d80fdp-1",
    "ratio L2 333.3 K": "0x1.7fc8e19a45456p-1",
    "ratio L2 360.0 K": "0x1.3851eb851eb86p-1",
    "phi L3": "-0x1.2742531c26f6cp-6",
    "ratio L3 310.0 K": "0x1.ea67b4318575ep-1",
    "ratio L3 333.3 K": "0x1.bcb8e4d910a38p-1",
    "ratio L3 360.0 K": "0x1.8f5c28f5c28f6p-1",
    "phi L4": "-0x1.3b44538facea1p-5",
    "ratio L4 310.0 K": "0x1.f716a914fe10ep-1",
    "ratio L4 333.3 K": "0x1.e15245bd55828p-1",
    "ratio L4 360.0 K": "0x1.c7ae147ae145bp-1",
    "phi_for_state 5e5": "0x1.91dbc8b8a5766p-5",
    "plant step 1 t_air": "0x1.35360a6baffd1p+8",
    "plant step 1 t_dev": "0x1.2c31c94e3932ap+8",
    "plant step 2 t_air": "0x1.3d02143de7888p+8",
    "plant step 2 t_dev": "0x1.2cba21757574dp+8",
    "plant step 3 t_air": "0x1.439bb066aec6ap+8",
    "plant step 3 t_dev": "0x1.2d87e68173f87p+8",
    "neuron accumulator 5 steps": "0x1.8ffcc9caf9674p+2",
    "invert_temperature L1 0.8": "0x1.39d53ea986d1fp+8",
}


def kernel_bits() -> dict[str, str]:
    """float.hex of the kernels at fixed inputs: the read-out law and its
    barrier root finds, the plant step, the neuron step and the
    thermometer inversion. A CSV cell keeps 9 digits, so an ulp moved in
    one of these can leave every hash above unchanged."""
    fit, bits = ThermalFit(DEFAULT_ANCHORS), {}
    for anchor, phi in zip(fit.anchors, fit.phi_of_anchor):
        bits[f"phi {anchor.label}"] = phi.hex()
        for T in (310.0, 333.3, 360.0):
            bits[f"ratio {anchor.label} {T} K"] = _ratio(T, phi).hex()
    bits["phi_for_state 5e5"] = fit.phi_for_state(5e5).hex()
    plant = ThermalPlant()
    plant.set_setpoint(360.0)
    for k in range(1, 4):
        plant.step(30.0)
        bits[f"plant step {k} t_air"] = plant.t_air.hex()
        bits[f"plant step {k} t_dev"] = plant.t_dev.hex()
    system = resolve_config().system
    drive = system.drive(0.25, FeedforwardMap(kappa=60.0))
    for _ in range(5):
        system.step(drive)
    bits["neuron accumulator 5 steps"] = system.accumulator.hex()
    r_eff = fit.anchor("L1").r_ref
    bits["invert_temperature L1 0.8"] = invert_temperature(
        0.8 * r_eff, fit, r_eff, guard=0.02).hex()
    return bits


def seed_golden(seed: int) -> dict[str, str]:
    """The hash of every file RUNS write at seed."""
    return {**GOLDEN[0], **GOLDEN[seed]}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_hashes(root, seed: int, runs=RUNS) -> dict[str, str]:
    """Run every run of runs under root; map 'name/file.csv' to its hash.
    A run that fails, or that imports numpy and is not signature, adds a
    'name/manifest.txt' entry, which no golden holds."""
    hashes = {}
    for name, extra in runs.items():
        command, out = name.split()[0], root / name
        try:
            code = cli_dispatch([command, "--out", str(out),
                                 "--seed", str(seed), *extra])
        except Exception as exc:   # an import of a blocked numpy, say
            traceback.print_exc()
            code = repr(exc)
        for path in sorted(out.glob("*.csv")):
            hashes[f"{name}/{path.name}"] = sha(path.read_bytes())
        if code != 0:
            hashes[f"{name}/manifest.txt"] = f"failed: {code}"
        elif command != "signature" and "# numpy = not imported\n" not in (
                out / "manifest.txt").read_text():
            hashes[f"{name}/manifest.txt"] = "numpy imported"
    return hashes


TABLES = {  # name: (seed, runs, golden)
    "seed 0": (0, RUNS, seed_golden(0)),
    "seed 17": (17, RUNS, seed_golden(17)),
    "interior": (0, INTERIOR_RUNS, INTERIOR_GOLDEN),
    "map": (0, MAP_RUNS, MAP_GOLDEN),
    "variant": (0, VARIANT_RUNS, VARIANT_GOLDEN),
}


def main() -> int:
    skip = set()
    try:
        import numpy  # signature's fit needs it
    except ImportError:
        skip.add("signature")
        print("signature skipped: numpy is not importable")
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for table, (seed, runs, golden) in TABLES.items():
            runs = {name: extra for name, extra in runs.items()
                    if name.split()[0] not in skip}
            golden = {file: h for file, h in golden.items()
                      if file.split("/")[0] in runs}
            with contextlib.redirect_stdout(io.StringIO()):
                hashes = csv_hashes(Path(tmp) / table, seed, runs)
            wrong = sorted(file for file in golden.keys() | hashes.keys()
                           if golden.get(file) != hashes.get(file))
            print(f"{table}: {len(golden.keys() - set(wrong))} of "
                  f"{len(golden)} hashes matched")
            bad += [f"{table}: {file}" for file in wrong]
    bits = kernel_bits()
    wrong = sorted(name for name in KERNELS.keys() | bits.keys()
                   if KERNELS.get(name) != bits.get(name))
    print(f"kernels: {len(KERNELS.keys() - set(wrong))} of {len(KERNELS)} "
          "matched")
    bad += [f"kernel: {name}" for name in wrong]
    matched = sha(resolve_config().serialize().encode()) == DEFAULT_CONFIG_SHA
    print(f"default config: {int(matched)} of 1 hashes matched")
    if not matched:
        bad.append("default config serialization")
    for line in bad:
        print(f"mismatch: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
