"""Resistive-level presets.

Electroforming itself is out of scope; programmed levels enter the model
as the 300 K reference resistances and calibrated thermal drops of a
ThermalFit's anchors (DEFAULT_ANCHORS unless configured), plus matching
thermionic IV parameters. The IV parameters are chosen so that

* R(0.2 V, 300 K) reproduces the level's reference resistance, and
* the apparent barrier at the read voltage (phi_b - alpha_pos*sqrt(0.2))
  equals the level's fitted thermal barrier,

which keeps the IV route and the read-out route mutually consistent.
Pristine and L1 get unequal barrier-lowering factors per polarity (the
high-resistance states show visibly asymmetric IVs); the low levels are
symmetric.
"""
from __future__ import annotations

import math

from .constants import K_B_EV, T_REF, V_READ
from .device import (
    DEFAULT_ANCHORS,
    DeviceState,
    ThermalFit,
    ThermionicParams,
    calibrate_phi_from_drop,
)

LEVEL_ORDER = tuple(a.label for a in DEFAULT_ANCHORS)

# label -> IV barrier-lowering factors (alpha_pos, alpha_neg)
_LEVELS = {
    "pristine": (0.050, 0.030),
    "L1": (0.040, 0.025),
    "L2": (0.020, 0.020),
    "L3": (0.060, 0.060),
    "L4": (0.100, 0.100),
}


def device_preset(level: str, fit: ThermalFit) -> DeviceState:
    """Fresh device at the level's reference resistance in fit."""
    return DeviceState(r_persistent=fit.r_ref(level))


def iv_preset(level: str, fit: ThermalFit | None = None) -> ThermionicParams:
    """Thermionic parameters consistent with the level's thermal fit."""
    fit = fit or ThermalFit.default()
    r_ref = fit.r_ref(level)
    alpha_pos, alpha_neg = _LEVELS[level]
    phi_app = fit.phi_for_state(r_ref)
    phi_b = phi_app + alpha_pos * math.sqrt(V_READ)
    if phi_b < 0:
        raise ValueError(f"level {level}: alpha_pos too small for its barrier")
    a = V_READ / (r_ref * T_REF**2 * math.exp(-phi_app / (K_B_EV * T_REF)))
    return ThermionicParams(
        a_prefactor=a, phi_b=phi_b, alpha_pos=alpha_pos, alpha_neg=alpha_neg
    )


__all__ = [
    "LEVEL_ORDER",
    "device_preset",
    "iv_preset",
    "calibrate_phi_from_drop",
]
