"""Independent, math-only restatement of the ris-vlc forward model.

The workload generators use it to place inputs at known outcomes
(evanescent rows, reachable and unreachable design targets, rotations
that need a voltage solve), and the oracle uses it to recompute every
checked output.  It imports nothing from ``ris_vlc``.

Units follow the scenario files: wavelengths in nm, slits in um, depths
and detector lengths in mm, angles in degrees.
"""

from __future__ import annotations

import math

# The model's 89.9 deg horizon for the detector-plane normalisation.
TAN_HORIZON = math.tan(math.radians(89.9))


def steering_sine(lam_nm: float, slit_um: float, n_ris: float,
                  incidence_deg: float, order: int = 1,
                  n_air: float = 1.0) -> float:
    """sin(theta_out) of the steering equation; >= 1 means evanescent."""
    return (n_air * math.sin(math.radians(incidence_deg))
            + order * lam_nm / (slit_um * 1e3)) / n_ris


def refraction_deg(lam_nm, slit_um, n_ris, incidence_deg, order=1):
    """Steered angle in degrees, or None when the order is evanescent."""
    s = steering_sine(lam_nm, slit_um, n_ris, incidence_deg, order)
    return None if s >= 1.0 else math.degrees(math.asin(s))


def null_deg(lam_nm: float, slit_um: float, n_ris: float) -> float | None:
    """First-null angle about the pattern centre; None when lambda_m >= a."""
    ratio = lam_nm / n_ris / (slit_um * 1e3)
    return None if ratio >= 1.0 else math.degrees(math.asin(ratio))


def spot_width_mm(lam_nm, slit_um, n_ris, depth_mm):
    return 2.0 * depth_mm * math.tan(math.radians(null_deg(lam_nm, slit_um,
                                                           n_ris)))


def landing_mm(lam_nm, slit_um, n_ris, depth_mm, incidence_deg, order=1):
    """Lateral offset of the pattern centre on the detector plane."""
    return depth_mm * math.tan(math.radians(
        refraction_deg(lam_nm, slit_um, n_ris, incidence_deg, order)))


def capture_bounds(lam_nm: float, slit_um: float, n_ris: float,
                   depth_mm: float, pd_length_mm: float) -> tuple[float, float]:
    """(T_window, T_max): the detector half-window and the horizon in
    units of the first-null distance.  T_max is the number of sinc^2
    lobes under the horizon.  The float operations follow the program's
    order so that equal inputs give bit-equal pairs (the capture cache is
    keyed on them)."""
    lam_m_mm = lam_nm / n_ris * 1e-6
    scale = lam_m_mm * depth_mm / (slit_um * 1e-3)
    t_max = TAN_HORIZON * depth_mm / scale
    return min(pd_length_mm / 2 / scale, t_max), t_max


def incidence_factor(incidence_deg: float) -> float:
    rad = math.radians(incidence_deg)
    return 0.0 if rad >= math.pi / 2 else math.cos(rad)


def lc_index(v: float, v_on: float, v_sat: float, n_base: float,
             delta_n: float) -> float:
    """Liquid-crystal index at drive v (linear ramp, clamped)."""
    level = min(max((v - v_on) / (v_sat - v_on), 0.0), 1.0)
    return n_base + level * delta_n


def metalens_state(v: float, v_max: float, stretch_max: float,
                   slit_um: float, depth_mm: float) -> tuple[float, float]:
    """(slit_um, depth_mm) of a meta-lens driven at v (volume-conserving
    stretch s: a -> s a, y -> y / s^2)."""
    s = 1.0 + min(v, v_max) / v_max * (stretch_max - 1.0)
    return slit_um * s, depth_mm / s ** 2


def bisect(f, lo: float, hi: float, target: float, steps: int = 200) -> float:
    """Root of f(x) = target for monotone f on [lo, hi], to float precision."""
    below_at_lo = f(lo) < target
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (f(mid) < target) == below_at_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
