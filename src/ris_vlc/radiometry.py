"""Transmittance of the slab onto the detector.

Transmittance is detector-captured power over slit-incident power:

    T = cos(theta_in) * capture_fraction(pd_length / 2)

The cos factor is the whole incidence penalty (the wave is projected
perpendicular to the slit); the capture fraction is the share of the
diffraction pattern landing on the detector aperture.  A sweep with a
``baseline`` reports the tuning gain, the plain difference of this value
for the swept slab minus the baseline slab (``runner``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diffraction import pattern_power_fraction
from .optics import IncidentWave, SteeringGeometry, refraction_angle

__all__ = ["TransmittanceResult", "transmittance"]


@dataclass(frozen=True)
class TransmittanceResult:
    """value = incidence_factor * capture fraction, in [0, 1];
    captured_power_w = value * incident power."""

    value: float
    incidence_factor: float
    captured_power_w: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"transmittance must lie in [0, 1], got {self.value}")
        if not 0.0 <= self.incidence_factor <= 1.0:
            raise ValueError(
                f"incidence factor must lie in [0, 1], got {self.incidence_factor}")


def _incidence_factor(incidence_rad: float) -> float:
    # Exactly zero at grazing incidence so the 90 deg limit is exact
    # rather than cos(pi/2) ~ 6e-17.
    if incidence_rad >= math.pi / 2:
        return 0.0
    return math.cos(incidence_rad)


def transmittance(
    geom: SteeringGeometry, wave: IncidentWave, *, capture: float | None = None
) -> TransmittanceResult:
    """Detector-captured share of the slit-incident power.

    ``capture`` is the detector capture fraction
    ``pattern_power_fraction(geom, wave, geom.pd_length_mm / 2)`` when the
    caller has already computed it.
    """
    refraction_angle(geom, wave)  # configured order must propagate
    factor = _incidence_factor(wave.incidence.radians)
    if factor == 0.0:
        value = 0.0
    else:
        if capture is None:
            capture = pattern_power_fraction(geom, wave, geom.pd_length_mm / 2)
        value = factor * capture
    return TransmittanceResult(
        value=value,
        incidence_factor=factor,
        captured_power_w=value * wave.power_w,
    )
