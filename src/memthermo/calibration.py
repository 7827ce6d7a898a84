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
from typing import NamedTuple

from .constants import K_B_EV, T_MAX, T_MIN, T_REF
from .device import (
    T_ANCHORS,
    V_ANCHOR,
    IVCurveSet,
    ThermalFit,
    ThermionicParams,
    _brentq,
    _ratio,
)
from .rng import numpy, raising


class ExtractionError(ValueError):
    """Regression input is unusable; the message names the failing stage."""


class ThermometerRangeError(ValueError):
    """Measured resistance outside the calibrated band (plus guard)."""

    def __init__(self, message: str, band: tuple[float, float]):
        super().__init__(message)
        self.band = band


def _linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, r_squared).

    Centred closed form on correctly rounded sums: slope sum(dx*dy)/sum(dx^2)
    about the means; a constant target is a flat line with r^2 = 1.
    """
    x, y = [float(v) for v in x], [float(v) for v in y]
    n = len(x)
    if n < 2 or len(y) != n:
        raise ExtractionError("need at least two (x, y) points for a line fit")
    if not all(map(math.isfinite, x + y)):
        raise ExtractionError("non-finite sample in a line fit")
    if min(x) == max(x):
        raise ExtractionError("singular design: all abscissae identical")
    if min(y) == max(y):
        return 0.0, y[0], 1.0
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    dx, dy = [v - x_mean for v in x], [v - y_mean for v in y]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    intercept = y_mean - slope * x_mean
    e = -math.frexp(max(map(abs, dy)))[1]   # r^2 of y*2^e: no underflow
    ss_res = math.fsum(math.ldexp(b - (slope * a + intercept), e) ** 2
                       for a, b in zip(x, y))
    return slope, intercept, 1.0 - ss_res / math.fsum(
        d * d for d in (math.ldexp(d, e) for d in dy))


class ThermionicExtraction(NamedTuple):
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
    def physical(self) -> bool:
        return self.params is not None


def _stage1(ivs: IVCurveSet, polarity: int):
    """Regressions of ln(|I|/T^2) on 1/T at each voltage column of one
    polarity, in ascending |v|, one LAPACK solve for all: the spread of
    their intercepts is round-off, and its bytes follow the solver's
    operation order. Returns lists of |v|, slopes, intercepts and r^2."""
    np = numpy()
    temps = ivs.temperatures
    if len(temps) < 3:
        raise ExtractionError("stage 1: need at least three temperatures")
    cols = sorted((k for k, v in enumerate(ivs.voltages) if v * polarity > 0),
                  key=lambda k: abs(ivs.voltages[k]))
    for T, row in zip(temps, ivs.currents):
        for k in cols:
            if row[k] * polarity <= 0:
                raise ExtractionError("stage 1: non-positive current magnitude "
                                      f"at v={ivs.voltages[k]}, T={T}")
    if len(cols) < 3:
        raise ExtractionError(
            "stage 1: need at least three voltages per polarity"
        )
    inv_t = 1.0 / np.asarray(temps, dtype=float)
    ys = np.array([[math.log(abs(row[k]) / T**2)
                    for T, row in zip(temps, ivs.currents)]
                   for k in cols]).T   # F-order: fixes the sums' order
    # numpy only warns of a rank-deficient fit; full=True returns the rank
    (slopes, intercepts), _, rank, _, _ = np.polyfit(inv_t, ys, 1, full=True)
    if rank < 2:
        raise ExtractionError("stage 1: temperatures too close for a line "
                              "fit (rank-deficient)")
    ss_res = ((ys - (slopes * inv_t[:, None] + intercepts)) ** 2).sum(axis=0)
    ss_tot = ((ys - ys.mean(axis=0)) ** 2).sum(axis=0)
    r2s = [1.0 - a / b if b else float(a == 0.0)   # flat y: 1 if fit exactly
           for a, b in zip(ss_res.tolist(), ss_tot.tolist())]
    return ([abs(ivs.voltages[k]) for k in cols], slopes.tolist(),
            intercepts.tolist(), r2s)


def extract_thermionic(ivs: IVCurveSet) -> ThermionicExtraction:
    """Recover (A, phi_b, alpha_pos, alpha_neg) from non-switching IVs.

    Stage 1 fits ln(|I|/T^2) against 1/T at each voltage: slope
    m(v) = -(phi_b - alpha*sqrt(v))/kB, shared intercept ln(A). Stage 2
    fits -kB*m(v) against sqrt(v) per polarity: intercept phi_b, slope
    -alpha.
    """
    np = numpy()
    results = {}
    intercept_all = []
    stage1_r2 = []
    # an overflow in the numpy arithmetic fails the run, not just warns
    with raising():
        for polarity in (+1, -1):
            voltages, slopes, intercepts, r2s = _stage1(ivs, polarity)
            slope2, phi_b, r2_2 = _linear_fit(
                map(math.sqrt, voltages), [-K_B_EV * m for m in slopes])
            results[polarity] = (phi_b, -slope2, r2_2)
            intercept_all.extend(intercepts)
            stage1_r2.extend(r2s)
        a = math.exp(float(np.mean(intercept_all)))
        spread = float(np.ptp(intercept_all))
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
        stage1_r2_min=min(stage1_r2),
        stage2_r2_pos=r2_pos,
        stage2_r2_neg=r2_neg,
        intercept_spread=spread,
    )


def sensitivity_percent_per_K(temps, resistances) -> float:
    """Least-squares slope of 100*(R(T)/R(300 K) - 1) against T - 300 K.

    The baseline is the first settled 300 K point in the trace.
    """
    temps, resistances = list(map(float, temps)), list(map(float, resistances))
    if len(temps) != len(resistances) or len(temps) < 2:
        raise ValueError("need >= 2 (T, R) pairs")
    baseline = [r for T, r in zip(temps, resistances)
                if abs(T - T_REF) < 1e-6]
    if not baseline:
        raise ValueError("trace lacks the 300 K baseline point")
    return _linear_fit([T - T_REF for T in temps],
                       [100.0 * (r / baseline[0] - 1.0) for r in resistances])[0]


# Read noise is clipped at NOISE_CLIP standard deviations.
NOISE_CLIP = 2.5


def thermometer_guard(noise_sigma: float, drift_scale: float) -> float:
    """Relative clamp band for invert_temperature. In log space a reading
    is off the undrifted model by at most NOISE_CLIP * noise_sigma (the
    clipped read noise) plus the drift half-band; a guard that covers both
    clamps every band-edge reading."""
    return max(0.02, math.expm1(
        NOISE_CLIP * noise_sigma + 0.5 * math.log1p(drift_scale)) + 0.005)


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
    if not (0 < r_eff < math.inf):
        raise ValueError(f"r_eff must be finite and > 0, got {r_eff!r}")
    phi = fit.phi_for_state(r_eff)
    r_hi = r_eff * _ratio(T_MIN, phi)
    r_lo = r_eff * _ratio(T_MAX, phi)
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
        lambda T: r_eff * _ratio(T, phi) - r_measured,
        T_MIN, T_MAX, xtol=1e-3,
    )


class SwitchCurveFit(NamedTuple):
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
        slope, _, r2 = _linear_fit([v for v, _ in pairs],
                                   [math.log(f) for _, f in pairs])
        slopes.append(slope)
        r2s.append(r2)
    if not slopes:
        raise ExtractionError("grid needs >= 2 voltages at some temperature")

    anchors = sorted((T, f) for v, T, f in active if abs(v - V_ANCHOR) < 1e-9)
    if len({T for T, _ in anchors}) < 2:
        raise ExtractionError("grid must include 1.4 V at >= 2 temperatures")
    t_slope, t_intercept, r2_t = _linear_fit(
        [T for T, _ in anchors], [f for _, f in anchors]
    )
    t_lo, t_hi = T_ANCHORS
    return SwitchCurveFit(
        g_14_310=t_intercept + t_slope * t_lo,
        g_14_360=t_intercept + t_slope * t_hi,
        beta=math.fsum(slopes) / len(slopes),
        r2_voltage_min=min(r2s),
        r2_temperature=r2_t,
    )
