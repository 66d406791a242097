"""Single-slit far-field pattern inside the slab and its capture on the
detector plane.

The relative point intensity is the squared sinc envelope

    I / I_max = sinc^2(a * sin(theta) / lambda_m),    lambda_m = lambda / n_ris

with ``theta`` measured from the steered pattern centre and ``lambda_m``
the in-medium wavelength (the pattern forms after entry into the slab,
which is what makes spot size respond to index tuning).  The steered
centre sits at the refraction angle of the configured order, so direction
and concentration stay separable effects.

Capture convention: point sampling on the detector plane uses the exact
angular map theta(u) = atan((u - centre) / depth).  The plane-integrated
capture fraction instead uses the paraxial pattern
sinc^2(a * (u - centre) / (lambda_m * depth)), whose full-plane integral
converges; its main-lobe share is the textbook sinc^2 value independent
of geometry.  The normalisation integral is truncated at the 89.9 deg
horizon, with the analytic tail bound  integral_{t>T} sinc^2 < 1/(pi^2 T)
checked per call.  Both integrals are evaluated in closed form,

    integral_0^T sinc^2(t) dt = [Si(2 pi T) - sin^2(pi T) / (pi T)] / pi,

with the sine integral Si computed by its power series for small
arguments and by the continued fraction of E1(ix) otherwise.

``evaluate`` gives the metric row of a slab state, which ends in the
transmittance T = cos(theta_in) * capture_fraction(pd_length / 2): the cos
factor is the whole incidence penalty, exactly 0 at grazing incidence.  A
sweep's tuning gain is T of the swept slab minus T of its baseline.

Everything here is scalar ``math`` except detector-profile sampling,
which imports numpy when a profile is first sampled, so that sweeps,
designs and the bench start without loading numpy.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import TYPE_CHECKING, NamedTuple

from .optics import (Bound, IncidentWave, SteeringGeometry, _refraction,
                     refraction_angle)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NullBeyondHorizon",
    "IntensityProfile",
    "Metrics",
    "medium_wavelength_nm",
    "steering_offset_mm",
    "first_null_angle",
    "profile_on_pd",
    "evaluate",
]

# Truncation horizon for the "infinite" detector-plane normalisation.
_HORIZON = math.radians(89.9)
_TAN_HORIZON = math.tan(_HORIZON)

# Warn when the neglected analytic tail beyond the horizon grows
# non-negligible relative to the unit-normalised total.
_TAIL_WARN = 1e-3

# Detector-profile inputs, by the scenario key that carries them.
BOUNDS = {"samples": Bound(lambda n: 3 <= n <= 10**6, "lie in [3, 1000000]",
                          integer=True)}


class NullBeyondHorizon(Exception):
    """First diffraction null does not exist: slit narrower than the
    in-medium wavelength, so the central lobe fills the half-space."""


class IntensityProfile(NamedTuple):
    """Sampled relative intensity over the detector plane: lateral offsets
    from the slit axis, increasing, and intensities normalised to the
    central maximum of the pattern."""

    positions_mm: np.ndarray
    relative_intensity: np.ndarray


class Metrics(NamedTuple):
    """The metric row of a slab state, one field per CSV column; with no
    first null (the lobe fills the half-space) it is at 90 deg and the
    width is +inf."""

    refraction_angle_deg: float
    first_null_angle_deg: float
    full_width_mm: float
    pd_coverage: float
    transmittance: float
    incidence_factor: float
    captured_power_w: float


def medium_wavelength_nm(geom: SteeringGeometry, wave: IncidentWave) -> float:
    """In-medium wavelength lambda / n_ris, in nanometres."""
    return wave.wavelength_nm / geom.n_ris


def steering_offset_mm(geom: SteeringGeometry, wave: IncidentWave) -> float:
    """Lateral displacement of the pattern centre on the detector plane."""
    return geom.depth_mm * math.tan(refraction_angle(geom, wave))


def first_null_angle(geom: SteeringGeometry, wave: IncidentWave) -> float:
    """Angle of the first intensity null about the pattern centre, in
    radians; ``NullBeyondHorizon`` where lambda_m / a >= 1 (no null)."""
    return _null_angle(geom.slit_um, geom.n_ris, wave.wavelength_nm)


def _null_angle(slit_um: float, n_ris: float, wavelength_nm: float) -> float:
    """``first_null_angle`` over the field values of its slab and wave."""
    ratio = wavelength_nm / n_ris / (slit_um * 1e3)
    if ratio >= 1.0:
        raise NullBeyondHorizon(
            f"lambda_m/a = {ratio:.6g} >= 1: slit narrower than the in-medium "
            f"wavelength, central lobe fills the half-space")
    return math.asin(ratio)


def profile_on_pd(
    geom: SteeringGeometry, wave: IncidentWave, samples: int
) -> IntensityProfile:
    """Sample the steered pattern across the detector aperture.

    Positions run over [-x/2, x/2] on the plane at the slab depth; the
    sine of a point's angle atan(d / y), d = u - centre, is d / hypot(y, d),
    which numpy takes from libm, not from a CPU-dependent SIMD kernel.
    """
    import numpy as np

    BOUNDS["samples"].check("samples", samples)
    centre = steering_offset_mm(geom, wave)
    lam_m = medium_wavelength_nm(geom, wave)
    y = geom.depth_mm
    # Overflows go to linspace's last point or to d = +-inf (sine +-1).
    # Where hypot could overflow, y and d are halved, which keeps the ratio.
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.linspace(-geom.pd_length_mm / 2, geom.pd_length_mm / 2, samples)
        d = u - centre
        if max(y, abs(d[0]), abs(d[-1])) < 2.0 ** 1023:
            sine = np.divide(d, np.hypot(y, d), out=d)
        else:
            h = d / 2
            sine = np.where(np.isinf(h), np.sign(h), h / np.hypot(y / 2, h))
    k = min(geom.slit_um * 1e3 / lam_m, sys.float_info.max / 4)  # pi k finite
    intensity = np.sinc(k * sine) ** 2
    return IntensityProfile(u, intensity)


def _incidence_factor(incidence_rad: float) -> float:
    """cos(theta_in), exactly 0 at grazing incidence (not ~6e-17)."""
    if incidence_rad >= math.pi / 2:
        return 0.0
    return math.cos(incidence_rad)


def evaluate(geom: SteeringGeometry, wave: IncidentWave) -> Metrics:
    """The metric row of the slab state; ``EvanescentOrder`` if the
    configured order does not propagate."""
    return _metrics(**vars(geom), **vars(wave))


def _metrics(slit_um: float, depth_mm: float, pd_length_mm: float,
             n_ris: float, n_air: float, wavelength_nm: float,
             incidence_deg: float, power_w: float, order: int) -> Metrics:
    """``evaluate`` over the field values of its slab and wave, by name."""
    theta = _refraction(slit_um, n_ris, n_air, wavelength_nm, incidence_deg,
                        order)
    try:
        null = _null_angle(slit_um, n_ris, wavelength_nm)
        # (2 y) tan to the bit above the subnormals, and 2 y cannot overflow
        width = 2.0 * (depth_mm * math.tan(null))
    except NullBeyondHorizon:
        null, width = math.pi / 2, math.inf
    coverage = _capture(slit_um, depth_mm, n_ris, wavelength_nm,
                        pd_length_mm / 2)
    factor = _incidence_factor(math.radians(incidence_deg))
    value = 0.0 if factor == 0.0 else factor * coverage
    return Metrics(math.degrees(theta), math.degrees(null), width, coverage,
                   value, factor, value * power_w)


# Si(x) switches from its power series to the continued fraction of
# E1(ix) at this argument (Numerical Recipes in C, 2nd ed., section 6.9,
# routine cisi).
_SI_SERIES_MAX = 2.0
_EPS = sys.float_info.epsilon
# The continued-fraction stop is met within ~110 terms for every x >= 2;
# the cap only bounds a stall at rounding level, where h has converged.
_SI_MAX_TERMS = 1000


def _sine_integral(x: float) -> float:
    """Si(x) = integral_0^x sin(t)/t dt for x >= 0."""
    if x < _SI_SERIES_MAX:
        # sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!), to the last ulp
        power = total = x
        k = 1
        while True:
            power *= -x * x / ((k + 1) * (k + 2))
            k += 2
            term = power / k
            total += term
            if abs(term) <= _EPS * total:
                return total
    # Modified Lentz evaluation of e^{ix} E1(ix); Si = pi/2 + Im E1(ix).
    b = complex(1.0, x)
    c = 1.0 / sys.float_info.min
    d = h = 1.0 / b
    for i in range(1, _SI_MAX_TERMS):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) <= _EPS:
            break
    return math.pi / 2 + (h * complex(math.cos(x), -math.sin(x))).imag


def _half_capture(t: float) -> float:
    """integral_0^t sinc^2 = [Si(2 pi t) - sin^2(pi t) / (pi t)] / pi, or its
    limit: 1/2 where 2 pi t overflows, t where sin^2(pi t) underflows."""
    if t <= 0.0:
        return 0.0
    pt = math.pi * t
    if 2.0 * pt == math.inf:
        return 0.5
    sin2 = math.sin(pt) ** 2
    if sin2 < sys.float_info.min:
        return t
    return (_sine_integral(2.0 * pt) - sin2 / pt) / math.pi


def _capture(slit_um: float, depth_mm: float, n_ris: float,
             wavelength_nm: float, half_mm: float) -> float:
    """Fraction of the pattern's plane-integrated power inside a window
    of half-width ``half_mm`` > 0 centred on the pattern centre.

    Both the window integral and the horizon-truncated normalisation use
    the closed-form sinc^2 integral (see the module capture convention);
    the result is nondecreasing in the window size, to rounding, and
    bounded by [0, 1].  The tail-bound warning names the caller.
    """
    lam_m_mm = wavelength_nm / n_ris * 1e-6
    slit_mm = slit_um * 1e-3
    # First-null distance and horizon t_max = tan(horizon) a / lambda_m,
    # taken without the depth where a step with it under- or overflows.
    scale = lam_m_mm * depth_mm / slit_mm if slit_mm else math.inf
    t_max = _TAN_HORIZON * depth_mm / scale if scale else math.inf
    if not sys.float_info.min <= t_max < math.inf:
        t_max = _TAN_HORIZON * slit_um / (lam_m_mm * 1e3)
    tail_bound = min(1.0 / (math.pi ** 2 * t_max), 1.0)
    if tail_bound > _TAIL_WARN:
        warnings.warn(
            f"normalisation tail beyond the 89.9 deg horizon bounded by "
            f"{tail_bound:.2e} of total power", stacklevel=2)
    if scale == math.inf or t_max < sys.float_info.min:
        # t_win / t_max is the window's share of the horizon, and the
        # capture where sinc^2 is flat out to the horizon
        share = half_mm / depth_mm / _TAN_HORIZON
        if t_max < sys.float_info.min:
            return min(share, 1.0)
        t_win = min(t_max * share, t_max)
    else:
        # A first-null distance that underflows to 0 puts all power inside.
        t_win = min(half_mm / scale, t_max) if scale else t_max
    numerator = _half_capture(t_win)
    denominator = _half_capture(t_max)
    return min(max(numerator / denominator, 0.0), 1.0)
