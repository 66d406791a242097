"""Domain value types and the forward steering solver.

The steering model combines refraction into the slab with single-slit
diffraction orders:

    n_ris * sin(theta_out) = n_air * sin(theta_in) + m * lambda / a

solved for ``theta_out``.  The slit width ``a`` doubles as the grating
pitch: the front face carries a single centred slit, so it is the only
lateral length scale available to the order term.  Angles are stored in
radians; degrees appear only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EvanescentOrder",
    "TotalInternalReflection",
    "Wavelength",
    "Angle",
    "SteeringGeometry",
    "IncidentWave",
    "refraction_angle",
    "snell_angle",
    "WAVELENGTH_BAND_NM",
    "INDEX_RANGE",
]

# Operating band accepted by the toolkit (vacuum wavelength, nm).
WAVELENGTH_BAND_NM = (200.0, 2000.0)

# Slab material indices considered physical for this device class.
INDEX_RANGE = (1.0, 2.5)

_AIR_INDEX_RANGE = (1.0, 1.001)


class EvanescentOrder(Exception):
    """Requested diffraction order cannot propagate inside the slab."""


class TotalInternalReflection(Exception):
    """No transmitted ray exists for the given interface and angle."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True, order=True)
class Wavelength:
    """Vacuum wavelength in nanometres, limited to the visible/NIR band."""

    nanometres: float

    def __post_init__(self) -> None:
        _require(math.isfinite(self.nanometres) and self.nanometres > 0,
                 f"wavelength must be a positive finite value, got {self.nanometres}")
        lo, hi = WAVELENGTH_BAND_NM
        _require(lo <= self.nanometres <= hi,
                 f"wavelength {self.nanometres} nm outside accepted band "
                 f"[{lo:g}, {hi:g}] nm")

    @property
    def micrometres(self) -> float:
        return self.nanometres * 1e-3

    @property
    def millimetres(self) -> float:
        return self.nanometres * 1e-6


@dataclass(frozen=True, order=True)
class Angle:
    """Plane angle stored in radians."""

    radians: float

    def __post_init__(self) -> None:
        _require(math.isfinite(self.radians),
                 f"angle must be finite, got {self.radians}")

    @classmethod
    def from_degrees(cls, degrees: float) -> "Angle":
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)


@dataclass(frozen=True)
class SteeringGeometry:
    """Slab and detector geometry.

    ``slit_um`` is the front-face slit width, ``depth_mm`` the slab depth
    down to the detector plane, ``pd_length_mm`` the detector length on
    that plane.  ``n_ris`` is the tunable slab index, ``n_air`` the index
    of the outside medium (unity by default: the reference steering
    values are reproduced with exactly 1.0, not 1.000293).
    """

    slit_um: float
    depth_mm: float
    pd_length_mm: float
    n_ris: float
    n_air: float = 1.0

    def __post_init__(self) -> None:
        _require(math.isfinite(self.slit_um) and self.slit_um > 0,
                 f"slit_um must be > 0, got {self.slit_um}")
        _require(math.isfinite(self.depth_mm) and self.depth_mm > 0,
                 f"depth_mm must be > 0, got {self.depth_mm}")
        _require(math.isfinite(self.pd_length_mm) and self.pd_length_mm > 0,
                 f"pd_length_mm must be > 0, got {self.pd_length_mm}")
        lo, hi = _AIR_INDEX_RANGE
        _require(lo <= self.n_air <= hi,
                 f"n_air must lie in [{lo}, {hi}], got {self.n_air}")
        lo, hi = INDEX_RANGE
        _require(lo < self.n_ris <= hi,
                 f"n_ris must lie in ({lo}, {hi}], got {self.n_ris}")


@dataclass(frozen=True)
class IncidentWave:
    """Monochromatic plane wave hitting the front face.

    ``incidence`` is measured from the face normal (half of the receiver
    field of view) and must lie in [0, 90 deg].  ``order`` selects the
    diffraction order; the first order is the default since it carries
    the strongest steered intensity.
    """

    wavelength: Wavelength
    incidence: Angle
    power_w: float = 1.0
    order: int = 1

    def __post_init__(self) -> None:
        _require(0.0 <= self.incidence.radians <= math.pi / 2,
                 f"incidence must lie in [0, 90] deg, got "
                 f"{self.incidence.degrees:.6g} deg")
        _require(math.isfinite(self.power_w) and self.power_w >= 0,
                 f"power_w must be >= 0, got {self.power_w}")
        _require(isinstance(self.order, int) and self.order in (0, 1, 2, 3),
                 f"order must be one of 0..3, got {self.order!r}")


def refraction_angle(geom: SteeringGeometry, wave: IncidentWave) -> Angle:
    """Steered propagation angle of ``wave.order`` inside the slab.

    Raises:
        EvanescentOrder: the order's tangential component is too large to
            propagate (sine argument >= 1).
    """
    grating_term = wave.order * wave.wavelength.nanometres / (geom.slit_um * 1e3)
    s = (geom.n_air * math.sin(wave.incidence.radians) + grating_term) / geom.n_ris
    if s >= 1.0:
        raise EvanescentOrder(
            f"order {wave.order} is evanescent: sine argument {s:.6g} >= 1 "
            f"(lambda={wave.wavelength.nanometres:g} nm, slit={geom.slit_um:g} um, "
            f"n_ris={geom.n_ris:g})")
    return Angle(math.asin(s))


def snell_angle(n_in: float, n_out: float, theta_in: Angle) -> Angle:
    """Plain refraction between two media (no diffraction order).

    Equals ``refraction_angle`` with order 0.  Note the boundary
    convention: a sine argument of exactly 1 refracts at 90 deg here,
    while the order-based solver treats it as evanescent.

    Raises:
        TotalInternalReflection: sin(theta_in) * n_in / n_out > 1.
    """
    lo, hi = INDEX_RANGE
    _require(lo <= n_in <= hi and lo <= n_out <= hi,
             f"indices must lie in [{lo}, {hi}], got n_in={n_in}, n_out={n_out}")
    _require(0.0 <= theta_in.radians <= math.pi / 2,
             f"theta_in must lie in [0, 90] deg, got {theta_in.degrees:.6g} deg")
    s = math.sin(theta_in.radians) * n_in / n_out
    if s > 1.0:
        raise TotalInternalReflection(
            f"sin(theta_in) * n_in / n_out = {s:.6g} > 1 "
            f"(theta_in={theta_in.degrees:.6g} deg, n_in={n_in:g}, n_out={n_out:g})")
    return Angle(math.asin(s))

