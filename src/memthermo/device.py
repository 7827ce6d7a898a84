"""Compact model of a temperature-dependent metal-oxide memristor.

Physics
-------
Conduction is interface-limited (thermionic emission over a Schottky-like
barrier), which gives three coupled facts the model reproduces:

* current:      I(v, T) = A * T^2 * exp(-(phi_b - alpha*sqrt(|v|)) / (kB*T))
* read-out:     R(T) / R(300 K) = (300/T)^2 * exp((phi_app/kB) * (1/T - 1/300))
* sensitivity:  the fractional R drop over 300->360 K shrinks as the
                programmed resistance drops (state-dependent apparent
                barrier phi_app).

State model
-----------
The plastic state variable is the resistance at 300 K under the read
voltage, split into a persistent part and a volatile excess that relaxes
during retention. Temperature enters read-out only through the ratio
factor above; programming moves the 300 K state. Supra-threshold pulse
trains follow a saturating curve; the asymptotic train fraction is
calibrated at 1.4 V to +22 % (310 K) and +27 % (360 K), and the
temperature ramp tapers above 1.4 V so that 1.5 V trains stay within a
10 % cross-temperature spread.

The ratio law is written once, in the unchecked kernel `_ratio`. Cycling,
the thermometer and the neuron bind a state's barrier once and call it on
temperatures `ThermalPlant` keeps in the window, and pulse trains and
retention once they have checked theirs; the rest reads through the
checked `rho_temperature_factor`, and hsr through `read_resistance`
once per read, since the benchmark's hand counts pin those calls.
Every clamped piecewise-linear curve goes through the one kernel
`_interp`: the barrier table `ThermalFit.phi_for_state`, the neuron's
feedforward table `FeedforwardMap.setpoint`, and the thermal ramp and
its voltage taper in `train_switch_fraction`.

All operations are pure functions of their inputs: none changes a
device state it is given, each returns a new one, so a state can be
shared across threads.
"""
from __future__ import annotations

import bisect
import math
import sys
from collections import namedtuple

from .constants import K_B_EV, R_CEILING, R_FLOOR, T_MAX, T_MIN, T_REF, V_READ

# phi_app at or below -2*kB*300 K would make R(T) non-monotone on the
# chamber window; everything below is rejected at construction.
PHI_APP_MIN = -2.0 * K_B_EV * T_REF


class CalibrationError(ValueError):
    """A fit target is outside the range the model can produce."""


class ResetError(RuntimeError):
    """Reset did not converge; carries the last achieved resistance."""

    def __init__(self, message: str, last_resistance: float, pulses: int):
        super().__init__(message)
        self.last_resistance = last_resistance
        self.pulses = pulses


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _same_slots(self, other):
    """self == other for value types: the same class, and equal values in
    every slot (as tuples compare: by identity, then ==)."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return ([getattr(self, name) for name in self.__slots__]
            == [getattr(other, name) for name in self.__slots__])


def _brentq(f, a, b, xtol=2e-12, rtol=4 * sys.float_info.epsilon, maxiter=100):
    """Root of f in the sign-changing bracket [a, b] by Brent's method.

    A step-for-step port of scipy.optimize.brentq (scipy's brentq.c, after
    Brent 1973, ch. 4) with the same defaults, stopping test and errors, so
    it returns the same float; tests compare the two with ==. Local so that
    importing the package does not pay for importing scipy.optimize.
    """
    def fx(x):
        y = float(f(x))
        if math.isnan(y):  # checked per evaluation, before any sign test
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue.")
        return y

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


class ThermionicParams:
    """Parameters of the thermionic IV law.

    a_prefactor folds the Richardson constant and the effective device
    area (A/K^2). alpha_pos/alpha_neg are the barrier-lowering factors
    (eV/sqrt(V)) for positive and negative bias; unequal values produce
    the asymmetric IV response seen on high-resistance states.
    """

    __slots__ = ("a_prefactor", "phi_b", "alpha_pos", "alpha_neg")

    def __init__(self, a_prefactor: float, phi_b: float,
                 alpha_pos: float = 0.0, alpha_neg: float = 0.0):
        self.a_prefactor, self.phi_b = a_prefactor, phi_b
        self.alpha_pos, self.alpha_neg = alpha_pos, alpha_neg
        for name in self.__slots__:
            _require_finite(name, getattr(self, name))
        if self.a_prefactor <= 0:
            raise ValueError("a_prefactor must be > 0")
        if self.phi_b < 0:
            raise ValueError("phi_b must be >= 0")
        if self.alpha_pos < 0 or self.alpha_neg < 0:
            raise ValueError("barrier-lowering factors must be >= 0")


def thermionic_current(v: float, T: float, p: ThermionicParams) -> float:
    """Current through the barrier at bias v and temperature T.

    The sign of the current follows the sign of v; the magnitude at v=0
    is the zero-bias emission A*T^2*exp(-phi_b/(kB*T)).
    """
    v = _require_finite("v", v)
    T = _require_finite("T", T)
    if T <= 0:
        raise ValueError("T must be > 0")
    alpha = p.alpha_pos if v >= 0 else p.alpha_neg
    barrier = p.phi_b - alpha * math.sqrt(abs(v))
    magnitude = p.a_prefactor * T * T * math.exp(-barrier / (K_B_EV * T))
    return -magnitude if v < 0 else magnitude


def _interp(x: float, xs, ys) -> float:
    """ys interpolated at x over the strictly increasing knots xs.

    As np.interp, arithmetic included, so the two agree by ==: end values
    outside the table, knot values on knots, linear between.
    """
    j = bisect.bisect_right(xs, x) - 1
    if j < 0 or j == len(xs) - 1 or xs[j] == x:
        return ys[max(j, 0)]
    return (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (x - xs[j]) + ys[j]


def _ratio(T: float, phi_app: float) -> float:
    return (T_REF / T) ** 2 * math.exp((phi_app / K_B_EV) * (1.0 / T - 1.0 / T_REF))


# The chamber window with round-off slack at both edges.
_T_LO, _T_HI = T_MIN - 1e-9, T_MAX + 1e-9


def _require_window(T: float) -> float:
    """T as a float, checked finite and inside the chamber window."""
    T = _require_finite("T", T)
    if not (_T_LO <= T <= _T_HI):
        raise ValueError(f"T={T} outside [{T_MIN}, {T_MAX}] K")
    return T


def rho_temperature_factor(T: float, phi_app: float) -> float:
    """Read-out resistance ratio R(T)/R(300 K) for apparent barrier phi_app.

    Equals 1 at 300 K and is strictly decreasing on [300, 360] K for any
    phi_app above the monotonicity bound.
    """
    if _T_LO <= T <= _T_HI and PHI_APP_MIN < phi_app < math.inf:
        return _ratio(float(T), phi_app)
    # a failing input: the checks below name its first fault
    if not math.isfinite(phi_app):  # T is checked first
        _require_finite("T", T)
        _require_finite("phi_app", phi_app)
    T = _require_window(T)
    if phi_app <= PHI_APP_MIN:
        raise ValueError(
            f"phi_app={phi_app:.6f} eV at or below monotonicity bound "
            f"{PHI_APP_MIN:.6f} eV"
        )
    return _ratio(T, phi_app)


# Achievable 300->360 K fractional drops: the T^-2 prefactor alone gives
# ~30.6 %; barriers below zero (down to the monotonicity bound) reduce it
# to ~3.1 %, positive barriers raise it toward 100 %.
_PHI_SEARCH_MAX = 2.0
MIN_TOTAL_DROP = 1.0 - rho_temperature_factor(T_MAX, PHI_APP_MIN + 1e-12)
MAX_TOTAL_DROP = 1.0 - rho_temperature_factor(T_MAX, _PHI_SEARCH_MAX)


def calibrate_phi_from_drop(total_drop: float) -> float:
    """Invert the ratio law: find phi_app with rho(360 K) = 1 - total_drop.

    Bracketed root find, converged to 1e-10 absolute in the ratio. The
    exact closed form kB*ln((1-d)*(T_MAX/T_REF)^2) / (1/T_MAX - 1/T_REF)
    agrees to well under 1e-12 eV, but it rounds phi_app differently by a
    few ulps, which moves the bytes of signature.csv; the root find is kept
    so that outputs stay byte-identical.
    """
    total_drop = _require_finite("total_drop", total_drop)
    if not (MIN_TOTAL_DROP < total_drop < MAX_TOTAL_DROP):
        raise CalibrationError(
            f"total_drop={total_drop:.4f} outside achievable range "
            f"({MIN_TOTAL_DROP:.4f}, {MAX_TOTAL_DROP:.4f}) for the "
            f"300->360 K window"
        )
    target = 1.0 - total_drop

    def residual(phi):
        return rho_temperature_factor(T_MAX, phi) - target

    phi = _brentq(residual, PHI_APP_MIN + 1e-12, _PHI_SEARCH_MAX, xtol=1e-14)
    if abs(residual(phi)) > 1e-10:
        raise CalibrationError(f"root find left residual {residual(phi):.2e}")
    return phi


# One calibrated resistive level: reference resistance, its fractional 300
# -> 360 K drop and the IV barrier lowering (eV/sqrt(V)) per bias polarity.
LevelAnchor = namedtuple("LevelAnchor", "label r_ref total_drop alpha_pos "
                         "alpha_neg", defaults=(0.0, 0.0))


# The programmed levels, the one level table: the fit.* config keys (and
# so the configured fit), the --preset choices and iv_preset all derive
# from it.
# Pristine (61 %) and L4 (11 %) drops are measured end points; the L1-L3
# drops are set so their settled-trace sensitivities land at ~0.95, ~0.65
# and ~0.37 %/K respectively. Pristine lands at ~1.0 %/K. L4's
# sensitivity, ~0.18 %/K, is fixed by its measured 11 % drop (no monotone
# R(T) with that drop exceeds ~0.22 %/K on the default schedule), for a
# pristine/L4 factor of ~5.5. Pristine and L1 get unequal barrier-lowering
# factors (the high-resistance states show visibly asymmetric IVs); the
# low levels are symmetric.
DEFAULT_ANCHORS = (
    LevelAnchor("pristine", 3e6, 0.61, 0.050, 0.030),
    LevelAnchor("L1", 1e6, 0.58, 0.040, 0.025),
    LevelAnchor("L2", 250e3, 0.39, 0.020, 0.020),
    LevelAnchor("L3", 15e3, 0.22, 0.060, 0.060),
    LevelAnchor("L4", 8e3, 0.11, 0.100, 0.100),
)
LEVEL_ORDER = tuple(a.label for a in DEFAULT_ANCHORS)


class ThermalFit:
    """Apparent-barrier table mapping resistive state to thermal sensitivity.

    Anchors are ordered by strictly decreasing reference resistance; each
    drop is converted to a signed phi_app. States between anchors get a
    piecewise-linear phi in log10(R); states outside the table clamp to
    the end anchors. Each anchor's barrier comes from the bracket of
    calibrate_phi_from_drop, so every barrier clears PHI_APP_MIN.
    """

    __slots__ = ("anchors", "phi_of_anchor", "_log_r", "_phi_asc", "_last")

    def __init__(self, anchors: tuple[LevelAnchor, ...]):
        self.anchors = anchors
        self.__post_init__()   # its own method: perfbench counts the builds

    def __post_init__(self):
        if not self.anchors:
            raise ValueError("anchor table must not be empty")
        r_refs = [a.r_ref for a in self.anchors]
        if any(not (r > 0) for r in r_refs):
            raise ValueError("anchor resistances must be > 0")
        # _interp's knots, strictly ascending: r an ulp apart can share a log
        self._log_r = tuple(math.log10(r) for r in reversed(r_refs))
        if any(not (hi > lo) for lo, hi in zip(self._log_r, self._log_r[1:])):
            raise ValueError("anchors must be strictly decreasing in r_ref")
        phis = tuple(calibrate_phi_from_drop(a.total_drop) for a in self.anchors)
        self._phi_asc = tuple(reversed(phis))
        self.phi_of_anchor = phis
        # the last (r_eff, phi) pair: a hold reads one state many times
        self._last = (None, 0.0)

    def anchor(self, label: str) -> LevelAnchor:
        """The anchor named label."""
        for anchor in self.anchors:
            if anchor.label == label:
                return anchor
        labels = tuple(a.label for a in self.anchors)
        raise ValueError(f"unknown level {label!r}; choose from {labels}")

    def phi_for_state(self, r_eff: float) -> float:
        """Apparent barrier for a device whose 300 K resistance is r_eff."""
        if not (r_eff > 0):
            raise ValueError("r_eff must be > 0")
        last_r, phi = self._last   # one read: the pair stays consistent
        if r_eff == last_r:
            return phi
        phi = _interp(math.log10(r_eff), self._log_r, self._phi_asc)
        self._last = (r_eff, phi)
        return phi


def iv_preset(level: str, r_ohm: float, fit: ThermalFit) -> ThermionicParams:
    """Thermionic parameters of a device of 300 K resistance r_ohm with the
    barrier-lowering factors of the level's anchor in fit, chosen so that

    * R(0.2 V, 300 K) reproduces r_ohm, and
    * the apparent barrier at the read voltage (phi_b - alpha_pos*sqrt(0.2))
      equals fit's thermal barrier at r_ohm,

    which keeps the IV route and the read-out route mutually consistent.
    """
    anchor = fit.anchor(level)
    phi_app = fit.phi_for_state(r_ohm)
    phi_b = phi_app + anchor.alpha_pos * math.sqrt(V_READ)
    if phi_b < 0:
        raise ValueError(f"level {level}: alpha_pos too small at {r_ohm} Ohm")
    a = V_READ / (r_ohm * T_REF**2 * math.exp(-phi_app / (K_B_EV * T_REF)))
    return ThermionicParams(a_prefactor=a, phi_b=phi_b,
                            alpha_pos=anchor.alpha_pos,
                            alpha_neg=anchor.alpha_neg)


def sweep_voltages(v_min: float, v_max: float, points_per_polarity: int,
                   v_th: float) -> list[float]:
    """IV sweep amplitudes, both polarities; rejected outright if any
    reaches the switching threshold v_th."""
    if v_max >= v_th:
        raise ValueError(
            f"sweep amplitude {v_max} V crosses the switching threshold "
            f"{v_th} V; this would no longer be non-switching"
        )
    if not (0 < v_min < v_max):
        raise ValueError("need 0 < v_min < v_max")
    if not 3 <= points_per_polarity <= 1000:
        raise ValueError("need 3 to 1000 points per polarity")
    step = (v_max - v_min) / (points_per_polarity - 1)
    pos = [v_min + k * step for k in range(points_per_polarity)]
    return [-v for v in reversed(pos)] + pos


class IVCurveSet:
    """IV samples on one grid: currents[j][k] is the current at
    temperatures[j] and voltages[k]. The rows of iv.csv are its rows(),
    read back by from_rows."""

    __slots__ = ("temperatures", "voltages", "currents")

    def __init__(self, temperatures: tuple[float, ...],
                 voltages: tuple[float, ...],
                 currents: tuple[tuple[float, ...], ...]):
        self.temperatures, self.voltages = temperatures, voltages
        self.currents = currents
        if not self.temperatures or [len(row) for row in self.currents] != [
                len(self.voltages)] * len(self.temperatures):
            raise ValueError("need a current at each temperature and voltage")
        for T, row in zip(self.temperatures, self.currents):
            if not (T_MIN <= T <= T_MAX
                    and all(map(math.isfinite, (*self.voltages, *row)))):
                raise ValueError(f"T={T!r} K: need T in [{T_MIN}, {T_MAX}] K "
                                 "and finite v and i")

    __eq__ = _same_slots

    @classmethod
    def from_rows(cls, rows) -> "IVCurveSet":
        """Build from flat (T, v, i) records, e.g. a parsed IV CSV; every
        temperature must carry the same voltages."""
        by_temp: dict[float, dict[float, float]] = {}
        for T, v, i in rows:
            curve = by_temp.setdefault(float(T), {})
            if float(v) in curve:
                raise ValueError(f"T={float(T)!r} K, v={float(v)!r} V: "
                                 "sample given twice")
            curve[float(v)] = float(i)
        if not by_temp:
            raise ValueError("no IV rows")
        temps = tuple(sorted(by_temp))
        first = by_temp[temps[0]]
        # a gap reads 0 until the grid check, so a bad value is named first
        ivs = cls(temperatures=temps, voltages=tuple(first),
                  currents=tuple(tuple(by_temp[T].get(v, 0.0) for v in first)
                                 for T in temps))
        for T in temps[1:]:
            if by_temp[T].keys() != first.keys():
                raise ValueError(f"T={T!r} K: voltages differ from those at "
                                 f"T={temps[0]!r} K")
        return ivs

    def rows(self):
        """Flat (T, v, i) records, temperature-major: what from_rows reads."""
        return ((T, v, i) for T, row in zip(self.temperatures, self.currents)
                for v, i in zip(self.voltages, row))


# Progress along one saturating pulse-train curve: amplitude v, temperature
# T, asymptotic train fraction (burn-in folded in), pulses n delivered on
# it and r_eff at its start. Trains at the same (v, T) continue the curve,
# so a train split into segments equals one long train; retention and
# resets invalidate the era.
TrainEra = namedtuple("TrainEra", "v T fraction n r_start")


class DeviceState:
    """Plastic state of one device: 300 K resistance split into a
    persistent part and a volatile excess, plus the lifetime pulse count."""

    __slots__ = ("r_persistent", "r_volatile_excess", "pulse_count", "era")

    def __init__(self, r_persistent: float, r_volatile_excess: float = 0.0,
                 pulse_count: int = 0, era: TrainEra | None = None):
        self.r_persistent = r_persistent
        self.r_volatile_excess = r_volatile_excess
        self.pulse_count = pulse_count
        self.era = era
        _require_finite("r_persistent", self.r_persistent)
        _require_finite("r_volatile_excess", self.r_volatile_excess)
        if self.r_persistent <= 0:
            raise ValueError("r_persistent must be > 0")
        if self.r_persistent + self.r_volatile_excess <= 0:
            raise ValueError("effective resistance must be > 0")

    __eq__ = _same_slots

    @property
    def r_eff(self) -> float:
        return self.r_persistent + self.r_volatile_excess


def read_resistance(state: DeviceState, fit: ThermalFit, T: float) -> float:
    """Non-perturbing read-out at temperature T.

    Reads happen at 0.2 V, far below the switching threshold, so they
    never mutate the state.
    """
    r_eff = state.r_persistent + state.r_volatile_excess
    return r_eff * rho_temperature_factor(T, fit.phi_for_state(r_eff))


# The switching calibration point: g_14_310 and g_14_360 are the train
# fractions at V_ANCHOR and at each of T_ANCHORS.
V_ANCHOR = 1.4
T_ANCHORS = (310.0, 360.0)


class SwitchingParams:
    """Pulse-train switching behaviour.

    v_th gates sub-threshold pulses to zero effect. The asymptotic train
    fraction at amplitude |v| and temperature T is

        F = sign(v) * g_14_310 * exp(beta*(|v| - 1.4)) * s(T, |v|)

    where s ramps linearly from 1 at 310 K to g_14_360/g_14_310 at 360 K
    and the ramp is tapered to taper_min between taper_v_start and
    taper_v_end (the measured cross-temperature spread shrinks above the
    1.4 V calibration point). A train of n pulses achieves
    F*(1 - exp(-n/n_tau)); a fraction eta_nv of the induced change is
    persistent, the rest volatile with retention constant tau_ret (in
    read intervals). The first train a device ever receives has F scaled
    by burn_in_gain. Voltages are in V, so beta is per V.
    """

    __slots__ = ("v_th", "g_14_310", "g_14_360", "beta", "n_tau", "eta_nv",
                 "tau_ret", "burn_in_gain", "taper_v_start", "taper_v_end",
                 "taper_min")

    def __init__(self, v_th: float = 0.5, g_14_310: float = 0.22,
                 g_14_360: float = 0.27,
                 beta: float = math.log(11.0) / 0.7,   # G(0.7 V) = 0.02
                 n_tau: float = 20.0, eta_nv: float = 0.4,
                 tau_ret: float = 50.0, burn_in_gain: float = 1.0,
                 taper_v_start: float = 1.4, taper_v_end: float = 1.5,
                 taper_min: float = 0.35):
        self.v_th, self.g_14_310, self.g_14_360 = v_th, g_14_310, g_14_360
        self.beta, self.n_tau, self.eta_nv = beta, n_tau, eta_nv
        self.tau_ret, self.burn_in_gain = tau_ret, burn_in_gain
        self.taper_v_start, self.taper_v_end = taper_v_start, taper_v_end
        self.taper_min = taper_min
        if not (0.0 < self.v_th < 0.7):
            raise ValueError("v_th must sit between reads (0.2 V) and the "
                             "lowest programming amplitude (0.7 V)")
        if not (self.g_14_360 > self.g_14_310 > 0.0):
            raise ValueError("need g_14_360 > g_14_310 > 0")
        if not (0.0 < self.eta_nv < 1.0):
            raise ValueError("eta_nv must be in (0, 1): recovery exists "
                             "but is incomplete")
        if not (self.beta >= 0 and self.n_tau > 0 and self.tau_ret > 0):
            raise ValueError("beta >= 0, n_tau > 0, tau_ret > 0 required")
        if not (self.burn_in_gain > 0):
            raise ValueError("burn_in_gain must be > 0")
        if not (0.0 < self.taper_min <= 1.0
                and 0.0 < self.taper_v_start < self.taper_v_end):
            raise ValueError("invalid thermal-ramp taper")


def train_switch_fraction(v: float, T: float, params: SwitchingParams) -> float:
    """Asymptotic fractional state change of a full saturating train."""
    v = _require_finite("v", v)
    T = _require_finite("T", T)
    v_abs = abs(v)
    if v_abs < params.v_th:
        return 0.0
    g = params.g_14_310 * math.exp(params.beta * (v_abs - V_ANCHOR))
    ramp = _interp(T, T_ANCHORS, (0.0, params.g_14_360 / params.g_14_310 - 1.0))
    taper = _interp(v_abs, (params.taper_v_start, params.taper_v_end),
                    (1.0, params.taper_min))
    s = 1.0 + ramp * taper
    return math.copysign(g * s, v)


def _clamp_r(r: float) -> float:
    return min(max(r, R_FLOOR), R_CEILING)


def apply_pulse_train(
    state: DeviceState,
    v: float,
    count: int,
    T: float,
    params: SwitchingParams,
    fit: ThermalFit,
) -> tuple[DeviceState, list[float]]:
    """Apply `count` identical pulses; return the new state and the
    per-pulse read-out trace at T.

    Sub-threshold trains leave the state untouched (flat trace). The
    cumulative change follows F*(1 - exp(-n/n_tau)) along the era curve;
    eta_nv of each increment goes to the persistent part.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _require_finite("v", v)

    if abs(v) < params.v_th:
        r = read_resistance(state, fit, T)
        return state, [r] * count
    _require_window(T)

    era = state.era
    if era is None or era.v != v or era.T != T:
        fraction = train_switch_fraction(v, T, params)
        if state.pulse_count == 0:
            fraction *= params.burn_in_gain
        era = TrainEra(v=v, T=T, fraction=fraction, n=0, r_start=state.r_eff)

    trace = []
    persistent = state.r_persistent
    volatile = state.r_volatile_excess
    r_prev = persistent + volatile
    for k in range(1, count + 1):
        n = era.n + k
        r_n = _clamp_r(era.r_start * (1.0 + era.fraction * -math.expm1(-n / params.n_tau)))
        delta = r_n - r_prev
        persistent += params.eta_nv * delta
        volatile += (1.0 - params.eta_nv) * delta
        r_prev = r_n
        trace.append(r_n * _ratio(T, fit.phi_for_state(r_n)))

    new_state = DeviceState(
        r_persistent=persistent,
        r_volatile_excess=volatile,
        pulse_count=state.pulse_count + count,
        era=era._replace(n=era.n + count),
    )
    return new_state, trace


def retention_run(state: DeviceState, temps, params: SwitchingParams,
                  fit: ThermalFit) -> tuple[DeviceState, list[float]]:
    """Let the volatile excess relax while reading once at each temperature
    of temps, in order.

    The excess decays by exp(-1/tau_ret) per read interval; the
    persistent part is untouched. Relaxation ends any train era.
    """
    if not temps:
        raise ValueError("need at least one read temperature")
    for T in temps:
        _require_window(T)
    decay = math.exp(-1.0 / params.tau_ret)
    persistent, volatile = state.r_persistent, state.r_volatile_excess
    trace = []
    for T in temps:
        volatile *= decay
        r_eff = persistent + volatile
        trace.append(r_eff * _ratio(T, fit.phi_for_state(r_eff)))
    return DeviceState(persistent, volatile, state.pulse_count), trace


# Reset pulse amplitude (V), the relative band around the target and the
# pulse budget.
RESET_V = 1.5
RESET_TOLERANCE = 0.01
RESET_MAX_PULSES = 10_000


# A reset's final state, its pulse count, and the 300 K read after and
# the amplitude of each pulse.
ResetResult = namedtuple("ResetResult", "state pulses resistances voltages")


def reset_to_reference(
    state: DeviceState,
    target_r: float,
    params: SwitchingParams,
    fit: ThermalFit,
) -> ResetResult:
    """Drive the persistent state back to target_r with programming trains.

    The volatile excess is zeroed up front (the protocol waits out the
    relaxation before comparing). Pulses are applied one at a time with
    polarity toward the target; when a train era saturates without
    reaching the band the era is restarted, so convergence is geometric
    from any starting point inside the hard resistance bounds. Fails with
    the last achieved resistance after RESET_MAX_PULSES.
    """
    if target_r <= 0:
        raise ValueError("target_r must be > 0")
    if not (R_FLOOR <= target_r <= R_CEILING):
        raise ResetError(
            f"target {target_r:.4g} Ohm outside hard bounds "
            f"[{R_FLOOR:.4g}, {R_CEILING:.4g}] Ohm",
            last_resistance=state.r_eff, pulses=0,
        )

    def in_band(r):
        return abs(r - target_r) / target_r < RESET_TOLERANCE

    if state.r_volatile_excess == 0.0 and in_band(state.r_persistent):
        return ResetResult(state=state, pulses=0, resistances=(), voltages=())

    current = DeviceState(
        r_persistent=state.r_persistent,
        r_volatile_excess=0.0,
        pulse_count=state.pulse_count,
        era=None,
    )
    reads: list[float] = []
    volts: list[float] = []
    while not in_band(current.r_persistent):
        if len(reads) >= RESET_MAX_PULSES:
            raise ResetError(
                f"no convergence to {target_r:.4g} Ohm within "
                f"{RESET_MAX_PULSES} pulses",
                last_resistance=current.r_persistent, pulses=len(reads),
            )
        v = -RESET_V if current.r_persistent > target_r else RESET_V
        before = current.r_persistent
        current, trace = apply_pulse_train(current, v, 1, T_REF, params, fit)
        reads.append(trace[-1])
        volts.append(v)
        # era saturated without reaching the band: restart the curve
        if abs(current.r_persistent - before) < 1e-5 * target_r:
            current = DeviceState(current.r_persistent,
                                  current.r_volatile_excess,
                                  current.pulse_count)

    final = DeviceState(
        r_persistent=current.r_persistent,
        r_volatile_excess=0.0,
        pulse_count=current.pulse_count,
        era=None,
    )
    return ResetResult(state=final, pulses=len(reads),
                       resistances=tuple(reads), voltages=tuple(volts))
