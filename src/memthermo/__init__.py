"""memthermo: temperature-dependent metal-oxide memristor simulation.

Device physics (thermionic conduction, state-dependent thermal
sensitivity, pulse-train plasticity with volatile retention), a
micro-chamber thermal plant, calibration and thermometry inverses, the
characterisation protocols as runnable experiments, and a 25-synapse
homeostatic spiking neuron driven by feedforward thermal control.

Each name is imported from the module that defines it (`memthermo.device`,
`memthermo.thermal`, `memthermo.experiments`, ...); the package itself
exports only `__version__`.
"""

__version__ = "0.1.0"
