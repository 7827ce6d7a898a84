#!/usr/bin/env python3
"""Print the calibrated per-level table: reference resistance, thermal
drop, apparent barrier, settled-trace sensitivity, and IV parameters."""
from memthermo.calibration import sensitivity_percent_per_K
from memthermo.device import (
    DEFAULT_ANCHORS,
    DeviceState,
    ThermalFit,
    iv_preset,
    read_resistance,
)
from memthermo.thermal import GRID_TEMPS


def main() -> None:
    fit = ThermalFit(anchors=DEFAULT_ANCHORS)
    print(f"{'level':9s} {'R(300K)':>10s} {'drop':>6s} {'phi_app':>9s} "
          f"{'sens %/K':>9s} {'phi_b':>7s} {'a+':>6s} {'a-':>6s}")
    for anchor, phi in zip(fit.anchors, fit.phi_of_anchor):
        state = DeviceState(r_persistent=anchor.r_ref)
        reads = [read_resistance(state, fit, T) for T in GRID_TEMPS]
        sens = sensitivity_percent_per_K(GRID_TEMPS, reads)
        iv = iv_preset(anchor.label, anchor.r_ref, fit)
        print(f"{anchor.label:9s} {anchor.r_ref:10.3g} "
              f"{anchor.total_drop:6.2f} {phi:+9.5f} {sens:9.3f} "
              f"{iv.phi_b:7.4f} {iv.alpha_pos:6.3f} {iv.alpha_neg:6.3f}")


if __name__ == "__main__":
    main()
