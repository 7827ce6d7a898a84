"""What the benchmark runs and what it reports.

Each workload is a list of cold `memthermo` invocations run one after the
other, the way a user reproduces the paper's figures. Every layer does
most of its work in one workload and little or none in another, so a
change to one layer has a workload that should move and one that should
not.
"""
from __future__ import annotations

import random

# Seeds with stored reference outputs of every invocation: the default
# seed and one held out while the benchmark was written.
REFERENCE_SEEDS = (0, 17)

# Outputs that depend on the seed (schedule order, read noise, the
# generated homeostasis pattern). Every other output is the same for all
# seeds and is compared against the stored reference on every seed.
SEEDED_FILES = ("cycle*.csv", "thermometer.csv", "homeostasis_*.csv")

NOISE_SIGMA = 0.01   # thermometer read noise, relative

WORKLOADS = {
    "protocol-read": {
        "why": "device reads and plant steps with every record kept and "
               "written; no pulses and no neuron",
        "invocations": [
            ["cycle"],
            ["levels"],
            ["iv"],
            ["signature"],
            ["thermometer", "--set", f"thermometer.noise_sigma={NOISE_SIGMA}",
             "--set", "thermometer.trials=50"],
        ],
        "rerun": "thermometer",
    },
    "protocol-write": {
        "why": "the device layer used for writes: pulse trains, retention "
               "and resets, with most reads discarded",
        "invocations": [
            ["hsr", "--preset", "L1"],
            ["nullcline", "--preset", "L1"],
        ],
        "rerun": "hsr",
    },
    "neuron": {
        "why": "the 25-synapse homeostatic loop on a seeded load pattern; "
               "no device reads or pulses",
        "invocations": [
            ["baseline"],
            ["calibrate"],
            # {pattern} is the breakpoint CSV written from the seed
            ["homeostasis", "--set", "homeostasis.pattern_csv={pattern}"],
        ],
        "rerun": "homeostasis",
    },
}

# Exact per-invocation counts at default config, worked out by hand from
# the protocols: a hold is 3600 s / 6 s = 600 plant steps with one read
# each; hsr holds twice, steps once more for the train and reads once
# before heating and once before the train; nullcline runs hsr on a
# 8 x 6 (v, T) grid; cycle holds nine times; baseline runs six loads of
# 4000 + 2000 neuron steps.
HAND_COUNTS = {
    "hsr": {"thermal.ThermalPlant.step": 1401, "device.read_resistance": 1202},
    "nullcline": {"thermal.ThermalPlant.step": 48 * 1401,
                  "device.read_resistance": 48 * 1202},
    "cycle": {"thermal.ThermalPlant.step": 5400},
    "baseline": {"neuron.NeuronSystem.step": 36000},
}

PATTERN_LOADS = (0.15, 0.20, 0.25, 0.30, 0.35, 0.40)
PATTERN_STEPS = 12000
PATTERN_OUTER = 3000   # first and last sustained segment, the longest
PATTERN_CYCLES = 3     # transient then a new sustained load, in between


def homeostasis_pattern(seed: int) -> list[tuple[int, float]]:
    """Breakpoints (step, load): sustained steps with short transients.

    Always PATTERN_STEPS steps in total, so the work per pass does not
    depend on the seed. The program holds the last load for the longest
    preceding segment, so the first segment is made the longest.
    """
    rng = random.Random(seed)

    def pick(exclude):
        choices = [x for x in PATTERN_LOADS if x != exclude]
        return choices[int(rng.random() * len(choices))]

    transients = [25 + int(rng.random() * 76) for _ in range(PATTERN_CYCLES)]
    weights = [1.0 + rng.random() for _ in range(PATTERN_CYCLES)]
    middle = PATTERN_STEPS - 2 * PATTERN_OUTER - sum(transients)
    sustained = [int(middle * w / sum(weights)) for w in weights]
    sustained[-1] += middle - sum(sustained)
    load = pick(None)
    rows, step = [(0, load)], PATTERN_OUTER
    for transient, hold in zip(transients, sustained):
        rows.append((step, pick(load)))
        step += transient
        load = pick(load)
        rows.append((step, load))
        step += hold
    rows.append((step, pick(load)))
    return rows


def pattern_loads(rows, total: int = PATTERN_STEPS) -> list[float]:
    """Load at every step, holding each breakpoint's load to the next."""
    loads = []
    for (step, load), (nxt, _) in zip(rows, rows[1:] + [(total, None)]):
        loads.extend([load] * (nxt - step))
    return loads


# Per-layer metrics: layer, unit, the end-to-end metric it should move,
# the workload where it does most of its work and where it should not
# change. Time metrics marked `all` are non-zero on every workload and are
# listed in BENCHMARK.json; the others read exactly 0 on a workload that
# never calls the layer, so they are printed by the traced run only.
LAYER_METRICS = [
    # name, unit, moves, on, unchanged on, in BENCHMARK.json
    ("import.numpy_s", "s", "setup_s wall_s", "all", "sim_s everywhere", True),
    ("import.scipy_s", "s", "setup_s wall_s", "all", "sim_s everywhere", True),
    ("import.memthermo_s", "s", "setup_s wall_s", "all", "sim_s everywhere", True),
    ("config.resolve_config.self_s", "s", "setup_s", "all", "-", True),
    ("thermal.ThermalPlant.step.calls", "count", "sim_s", "protocol-write", "-", True),
    ("thermal.ThermalPlant.step.self_s", "s", "sim_s", "protocol-write", "-", True),
    ("device.read_resistance.calls", "count", "sim_s", "protocol-read protocol-write", "neuron", True),
    ("device.read_resistance.self_s", "s", "sim_s", "protocol-read protocol-write", "neuron", False),
    ("device.read_resistance.discarded_frac", "fraction", "sim_s", "protocol-write", "protocol-read neuron", True),
    ("device.apply_pulse_train.calls", "count", "sim_s", "protocol-write", "protocol-read neuron", True),
    ("device.apply_pulse_train.pulses", "count", "sim_s", "protocol-write", "protocol-read neuron", True),
    ("device.apply_pulse_train.self_s", "s", "sim_s", "protocol-write", "protocol-read neuron", False),
    ("device.retention_run.calls", "count", "sim_s", "protocol-write", "protocol-read neuron", True),
    ("device.retention_run.self_s", "s", "sim_s", "protocol-write", "protocol-read neuron", False),
    ("device.reset_to_reference.pulses", "count", "sim_s", "protocol-write", "protocol-read neuron", True),
    ("device.reset_to_reference.self_s", "s", "sim_s", "protocol-write", "protocol-read neuron", False),
    ("device.ThermalFit.builds", "count", "setup_s sim_s", "all", "-", True),
    ("device.calibrate_phi_from_drop.self_s", "s", "sim_s", "all", "-", True),
    ("experiments.run_thermal_cycling.self_s", "s", "sim_s peak_rss_mb", "protocol-read", "protocol-write neuron", False),
    ("experiments.run_heat_stimulate_retention.calls", "count", "sim_s", "protocol-write", "protocol-read neuron", True),
    ("experiments.run_heat_stimulate_retention.self_s", "s", "sim_s", "protocol-write", "protocol-read neuron", False),
    ("calibration.invert_temperature.calls", "count", "sim_s", "protocol-read", "protocol-write neuron", True),
    ("calibration.invert_temperature.evals", "count", "sim_s", "protocol-read", "protocol-write neuron", True),
    ("calibration.invert_temperature.self_s", "s", "sim_s", "protocol-read", "protocol-write neuron", False),
    ("neuron.NeuronSystem.step.calls", "count", "sim_s wall_s", "neuron", "protocol-read protocol-write", True),
    ("neuron.NeuronSystem.step.self_s", "s", "sim_s wall_s", "neuron", "protocol-read protocol-write", False),
    ("neuron.NeuronSystem.step.us_per_call", "us", "sim_s wall_s", "neuron", "protocol-read protocol-write", False),
    ("neuron.NeuronSystem.weights_at.calls", "count", "sim_s", "neuron", "protocol-read protocol-write", True),
    ("neuron.calibrate_gain.evals", "count", "sim_s", "neuron", "protocol-read protocol-write", True),
    ("neuron.calibrate_gain.self_s", "s", "sim_s", "neuron", "protocol-read protocol-write", False),
    ("neuron.run_homeostasis.self_s", "s", "sim_s", "neuron", "protocol-read protocol-write", False),
    ("neuron.baseline_curve.self_s", "s", "sim_s", "neuron", "protocol-read protocol-write", False),
    ("csvio.emit_csv.rows", "count", "sim_s peak_rss_mb", "protocol-read", "protocol-write", True),
    ("csvio.emit_csv.bytes", "B", "sim_s peak_rss_mb", "protocol-read", "protocol-write", True),
    ("csvio.emit_csv.self_s", "s", "sim_s peak_rss_mb", "protocol-read", "protocol-write", True),
    ("cli.cli_dispatch.self_s", "s", "sim_s", "all", "-", True),
    ("trace.overhead_s", "s", "none", "all", "-", True),
]

# End-to-end metrics, all lower-is-better: name, unit, description, in
# BENCHMARK.json. sim_s is printed but not listed: on the protocol workloads
# it is under 0.6 s a pass, and even after host-speed scaling its spread
# between runs of identical code reached 0.15 of the median.
END_TO_END = [
    ("wall_s", "s", "one pass, spawn to exit of every invocation, summed", True),
    ("setup_s", "s", "per invocation, spawn until the config is resolved", True),
    ("sim_s", "s", "one pass, config resolved until the CLI returns, summed", False),
    ("peak_rss_mb", "MB", "one pass, highest max-RSS of any invocation", True),
]
