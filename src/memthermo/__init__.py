"""memthermo: temperature-dependent metal-oxide memristor simulation.

Device physics (thermionic conduction, state-dependent thermal
sensitivity, pulse-train plasticity with volatile retention), a
micro-chamber thermal plant, calibration and thermometry inverses, the
characterisation protocols as runnable experiments, and a 25-synapse
homeostatic spiking neuron driven by feedforward thermal control.
"""

__version__ = "0.1.0"

from .calibration import (
    IVCurveSet,
    SwitchCurveFit,
    ThermionicExtraction,
    extract_thermionic,
    fit_switch_curve,
    invert_temperature,
    sensitivity_percent_per_K,
)
from .constants import K_B_EV, R_CEILING, R_FLOOR, T_MAX, T_MIN, T_REF, V_READ
from .device import (
    DEFAULT_ANCHORS,
    LEVEL_ORDER,
    CalibrationError,
    DeviceState,
    LevelAnchor,
    ResetError,
    SwitchingParams,
    ThermalFit,
    ThermionicParams,
    apply_pulse_train,
    barrier_shift_response,
    calibrate_phi_from_drop,
    iv_preset,
    read_resistance,
    reset_to_reference,
    retention_run,
    rho_temperature_factor,
    thermionic_current,
    train_switch_fraction,
)
from .experiments import (
    ProtocolError,
    TraceRecord,
    run_heat_stimulate_retention,
    run_iv_sweep,
    run_level_sweep,
    run_nullcline_sweep,
    run_thermal_cycling,
)
from .neuron import (
    FeedforwardMap,
    InputPattern,
    NeuronSystem,
    baseline_curve,
    calibrate_gain,
    run_homeostasis,
    settled_rate,
)
from .thermal import (
    TemperatureSchedule,
    ThermalPlant,
    scrambled_schedule,
    settled,
)
