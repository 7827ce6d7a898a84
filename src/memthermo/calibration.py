"""Parameter extraction and inverse problems.

Three fitting pipelines:

* signature-plot extraction of (A, phi_b, alpha) from non-switching IV
  curves: ln(I/T^2) against 1/T per voltage (stage 1), then the slopes
  against sqrt(v) per polarity (stage 2);
* settled-trace thermal sensitivity in %/K, normalised to the initial
  300 K resistance;
* resistance -> temperature inversion (memristor thermometer) and the
  switching nullcline fit recovering the train-fraction parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import K_B_EV, T_MAX, T_MIN
from .device import (
    DeviceState,
    ThermalFit,
    ThermionicParams,
    _brentq,
    read_resistance,
)


class ExtractionError(ValueError):
    """Regression input is unusable; the message names the failing stage."""


class ThermometerRangeError(ValueError):
    """Measured resistance outside the calibrated band (plus guard)."""

    def __init__(self, message: str, band: tuple[float, float]):
        super().__init__(message)
        self.band = band


def _linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, r_squared).

    A zero-variance target counts as perfectly fit when the residuals are
    zero (constant data is a valid degenerate line).
    """
    import numpy as np
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ExtractionError("need at least two points for a line fit")
    if np.ptp(x) == 0.0:
        raise ExtractionError("singular design: all abscissae identical")
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class IVCurveSet:
    """Per-temperature IV samples: curves[i] belongs to temperatures[i]."""

    temperatures: tuple[float, ...]
    curves: tuple[tuple[tuple[float, float], ...], ...]   # ((v, i), ...)

    def __post_init__(self):
        if len(self.temperatures) != len(self.curves):
            raise ValueError("one curve per temperature required")
        if len(self.temperatures) < 1:
            raise ValueError("empty curve set")

    @classmethod
    def from_rows(cls, rows) -> "IVCurveSet":
        """Build from flat (T, v, i) records, e.g. a parsed IV CSV."""
        by_temp: dict[float, list[tuple[float, float]]] = {}
        for T, v, i in rows:
            by_temp.setdefault(float(T), []).append((float(v), float(i)))
        if not by_temp:
            raise ValueError("no IV rows")
        temps = tuple(sorted(by_temp))
        return cls(temperatures=temps,
                   curves=tuple(tuple(by_temp[T]) for T in temps))


@dataclass(frozen=True)
class ThermionicExtraction:
    """Extraction output with per-stage diagnostics.

    `params` is populated only when the fitted values are physical
    (A > 0, phi_b >= 0, alpha >= 0); otherwise the raw fitted numbers and
    the diagnostics document the misfit instead of silently returning a
    parameter set. `intercept_spread` is the spread of the per-voltage
    stage-1 intercepts, which share a single ln(A) under the thermionic
    law and diverge under any other conduction mechanism.
    """

    params: ThermionicParams | None
    a_prefactor: float
    phi_b_pos: float
    phi_b_neg: float
    alpha_pos: float
    alpha_neg: float
    stage1_r2_min: float
    stage2_r2_pos: float
    stage2_r2_neg: float
    intercept_spread: float

    @property
    def phi_b(self) -> float:
        return 0.5 * (self.phi_b_pos + self.phi_b_neg)

    @property
    def physical(self) -> bool:
        return self.params is not None


def _stage1(ivs: IVCurveSet, polarity: int):
    """Per-voltage regressions of ln(|I|/T^2) on 1/T for one polarity."""
    import numpy as np
    temps = np.asarray(ivs.temperatures, dtype=float)
    if temps.size < 3:
        raise ExtractionError("stage 1: need at least three temperatures")
    by_voltage: dict[float, list[float]] = {}
    for T, curve in zip(temps, ivs.curves):
        for v, i in curve:
            if polarity > 0 and v <= 0:
                continue
            if polarity < 0 and v >= 0:
                continue
            if i * polarity <= 0:
                raise ExtractionError(
                    f"stage 1: non-positive current magnitude at v={v}, T={T}"
                )
            by_voltage.setdefault(round(abs(v), 12), []).append(
                math.log(abs(i) / T**2)
            )
    voltages = sorted(by_voltage)
    if len(voltages) < 3:
        raise ExtractionError(
            "stage 1: need at least three voltages per polarity"
        )
    slopes, intercepts, r2s = [], [], []
    inv_t = 1.0 / temps
    for v in voltages:
        ys = by_voltage[v]
        if len(ys) != temps.size:
            raise ExtractionError(
                f"stage 1: voltage {v} V missing at some temperatures"
            )
        slope, intercept, r2 = _linear_fit(inv_t, ys)
        slopes.append(slope)
        intercepts.append(intercept)
        r2s.append(r2)
    return np.array(voltages), np.array(slopes), np.array(intercepts), np.array(r2s)


def extract_thermionic(ivs: IVCurveSet) -> ThermionicExtraction:
    """Recover (A, phi_b, alpha_pos, alpha_neg) from non-switching IVs.

    Stage 1 fits ln(|I|/T^2) against 1/T at each voltage: slope
    m(v) = -(phi_b - alpha*sqrt(v))/kB, shared intercept ln(A). Stage 2
    fits -kB*m(v) against sqrt(v) per polarity: intercept phi_b, slope
    -alpha.
    """
    import numpy as np
    results = {}
    intercept_all = []
    stage1_r2 = []
    for polarity in (+1, -1):
        voltages, slopes, intercepts, r2s = _stage1(ivs, polarity)
        y = -K_B_EV * slopes
        slope2, phi_b, r2_2 = _linear_fit(np.sqrt(voltages), y)
        results[polarity] = (phi_b, -slope2, r2_2)
        intercept_all.extend(intercepts.tolist())
        stage1_r2.extend(r2s.tolist())

    a = math.exp(float(np.mean(intercept_all)))
    phi_pos, alpha_pos, r2_pos = results[+1]
    phi_neg, alpha_neg, r2_neg = results[-1]
    phi_b = 0.5 * (phi_pos + phi_neg)

    params = None
    if a > 0 and phi_b >= 0 and alpha_pos >= 0 and alpha_neg >= 0:
        params = ThermionicParams(
            a_prefactor=a, phi_b=phi_b,
            alpha_pos=alpha_pos, alpha_neg=alpha_neg,
        )
    return ThermionicExtraction(
        params=params,
        a_prefactor=a,
        phi_b_pos=phi_pos,
        phi_b_neg=phi_neg,
        alpha_pos=alpha_pos,
        alpha_neg=alpha_neg,
        stage1_r2_min=float(np.min(stage1_r2)),
        stage2_r2_pos=r2_pos,
        stage2_r2_neg=r2_neg,
        intercept_spread=float(np.ptp(intercept_all)),
    )


def sensitivity_percent_per_K(temps, resistances) -> float:
    """Least-squares slope of 100*(R(T)/R(300 K) - 1) against T - 300 K.

    The baseline is the first settled 300 K point in the trace.
    """
    import numpy as np
    temps = np.asarray(temps, dtype=float)
    resistances = np.asarray(resistances, dtype=float)
    if temps.size != resistances.size or temps.size < 2:
        raise ValueError("need >= 2 (T, R) pairs")
    baseline = np.flatnonzero(np.abs(temps - 300.0) < 1e-6)
    if baseline.size == 0:
        raise ValueError("trace lacks the 300 K baseline point")
    r300 = resistances[baseline[0]]
    slope, _, _ = _linear_fit(temps - 300.0, 100.0 * (resistances / r300 - 1.0))
    return slope


def invert_temperature(
    r_measured: float,
    fit: ThermalFit,
    r_eff: float,
    guard: float,
) -> float:
    """Temperature whose read-out equals r_measured (memristor thermometer).

    Valid band is [R(360 K), R(300 K)] for the device; readings within
    `guard` (relative) beyond an edge clamp to that edge, further out is
    an error carrying the band.
    """
    if r_eff <= 0:
        raise ValueError("r_eff must be > 0")
    state = DeviceState(r_persistent=r_eff)
    r_hi = read_resistance(state, fit, T_MIN)
    r_lo = read_resistance(state, fit, T_MAX)
    if r_measured > r_hi:
        if r_measured <= r_hi * (1.0 + guard):
            return T_MIN
        raise ThermometerRangeError(
            f"{r_measured:.6g} Ohm above calibrated band", band=(r_lo, r_hi)
        )
    if r_measured < r_lo:
        if r_measured >= r_lo * (1.0 - guard):
            return T_MAX
        raise ThermometerRangeError(
            f"{r_measured:.6g} Ohm below calibrated band", band=(r_lo, r_hi)
        )
    return _brentq(
        lambda T: read_resistance(state, fit, T) - r_measured,
        T_MIN, T_MAX, xtol=1e-3,
    )


@dataclass(frozen=True)
class SwitchCurveFit:
    """Recovered train-fraction parameters plus regression diagnostics."""

    g_14_310: float
    g_14_360: float
    beta: float
    r2_voltage_min: float
    r2_temperature: float


def fit_switch_curve(grid) -> SwitchCurveFit:
    """Fit the nullcline grid of (v, T, fraction) rows.

    Log-linear regression in v at each temperature pins beta; the
    fractions at 1.4 V regressed against T pin the two anchor values.
    """
    import numpy as np
    rows = [(float(v), float(T), float(f)) for v, T, f in grid]
    if not rows:
        raise ExtractionError("empty nullcline grid")
    if all(f == 0.0 for _, _, f in rows):
        raise ExtractionError(
            "all fractions are zero (every amplitude below threshold); "
            "no switching curve to fit"
        )
    active = [(v, T, f) for v, T, f in rows if f > 0.0]
    if not active:
        raise ExtractionError("no positive fractions to fit")

    by_temp: dict[float, list[tuple[float, float]]] = {}
    for v, T, f in active:
        by_temp.setdefault(T, []).append((v, f))
    slopes, r2s = [], []
    for T, pairs in sorted(by_temp.items()):
        if len({v for v, _ in pairs}) < 2:
            continue
        vs = np.array([v for v, _ in pairs])
        lf = np.log([f for _, f in pairs])
        slope, _, r2 = _linear_fit(vs, lf)
        slopes.append(slope)
        r2s.append(r2)
    if not slopes:
        raise ExtractionError("grid needs >= 2 voltages at some temperature")

    anchors = sorted((T, f) for v, T, f in active if abs(v - 1.4) < 1e-9)
    if len({T for T, _ in anchors}) < 2:
        raise ExtractionError("grid must include 1.4 V at >= 2 temperatures")
    t_slope, t_intercept, r2_t = _linear_fit(
        [T for T, _ in anchors], [f for _, f in anchors]
    )
    return SwitchCurveFit(
        g_14_310=t_intercept + t_slope * 310.0,
        g_14_360=t_intercept + t_slope * 360.0,
        beta=float(np.mean(slopes)),
        r2_voltage_min=float(np.min(r2s)),
        r2_temperature=r2_t,
    )
