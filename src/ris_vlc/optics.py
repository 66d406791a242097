"""Domain value types and the forward steering solver.

The steering model combines refraction into the slab with single-slit
diffraction orders:

    n_ris * sin(theta_out) = n_air * sin(theta_in) + m * lambda / a

solved for ``theta_out``.  The slit width ``a`` doubles as the grating
pitch: the front face carries a single centred slit, so it is the only
lateral length scale available to the order term.  Computed angles are
radians; the wave's incidence is in degrees, as in a scenario file.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

__all__ = [
    "EvanescentOrder",
    "Angle",
    "SteeringGeometry",
    "IncidentWave",
    "refraction_angle",
    "Bound",
    "BOUNDS",
    "WAVELENGTH_BAND_NM",
    "INDEX_RANGE",
]

# Operating band accepted by the toolkit (vacuum wavelength, nm).
WAVELENGTH_BAND_NM = (200, 2000)

# Slab material indices considered physical for this device class.
INDEX_RANGE = (1.0, 2.5)


class Bound(NamedTuple):
    """The admissible values of one input field: ``ok(value)`` holds for
    them (never for NaN or +-inf), ``text`` completes "<field> must ..."
    in every message about the field, and ``integer`` fields take ints."""

    ok: Callable[[Any], bool]
    text: str
    integer: bool = False

    def check(self, name: str, value: Any) -> None:
        if not self.ok(value):
            raise ValueError(f"{name} must {self.text}, got {value!r}")


def interval(lo: float, hi: float, lo_open: bool = False) -> Bound:
    """Values in [lo, hi], or in (lo, hi] when ``lo_open``; the endpoints
    print as given."""
    return Bound((lambda v: lo < v <= hi) if lo_open else
                 (lambda v: lo <= v <= hi),
                 f"lie in {'(' if lo_open else '['}{lo}, {hi}]")


POSITIVE = Bound(lambda v: 0.0 < v < math.inf, "be finite and > 0")
NON_NEGATIVE = Bound(lambda v: 0.0 <= v < math.inf, "be finite and >= 0")

# Geometry and wave fields, by the scenario key that carries them.  Scenario
# validation reports violations in this order.
BOUNDS = {
    "slit_um": POSITIVE,
    "depth_mm": POSITIVE,
    # A normal float: a detector of sub-normal length has too few
    # distinct positions to sample.
    "pd_length_mm": Bound(lambda v: sys.float_info.min <= v < math.inf,
                          f"be finite and >= {sys.float_info.min!r}"),
    "n_air": interval(1.0, 1.001),
    "n_ris": interval(*INDEX_RANGE, lo_open=True),
    "wavelength_nm": interval(*WAVELENGTH_BAND_NM),
    "incidence_deg": interval(0, 90),
    "power_w": NON_NEGATIVE,
    "order": Bound(lambda v: isinstance(v, int) and v in (0, 1, 2, 3),
                   "be one of 0..3", integer=True),
}


class EvanescentOrder(Exception):
    """Requested diffraction order cannot propagate inside the slab."""


def check_fields(obj: Any, bounds: dict[str, Bound], *names: str) -> None:
    """Check the named attributes of ``obj`` against their ``bounds``."""
    for name in names:
        bounds[name].check(name, getattr(obj, name))


@dataclass(frozen=True, order=True)
class Angle:
    """Plane angle stored in radians: a front end's acceptance envelope
    and roll-off start (``bench.ReceiverFrontEnd``)."""

    radians: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radians):
            raise ValueError(f"angle must be finite, got {self.radians}")

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
        check_fields(self, BOUNDS, "slit_um", "depth_mm", "pd_length_mm",
                     "n_air", "n_ris")


@dataclass(frozen=True)
class IncidentWave:
    """Monochromatic plane wave hitting the front face, with the fields of
    a scenario's wave block.

    ``wavelength_nm`` is the vacuum wavelength; ``incidence_deg`` is
    measured from the face normal (half of the receiver field of view).
    ``order`` selects the diffraction order; the first order is the
    default since it carries the strongest steered intensity.
    """

    wavelength_nm: float
    incidence_deg: float
    power_w: float = 1.0
    order: int = 1

    def __post_init__(self) -> None:
        check_fields(self, BOUNDS, "wavelength_nm", "incidence_deg",
                     "power_w", "order")


def grating_term(order: int, wavelength_nm: float, slit_um: float) -> float:
    """The order term m * lambda / a of the steering equation."""
    return order * wavelength_nm / (slit_um * 1e3)


def steering_sine(n_air: float, sin_in: float, grating: float,
                  n_ris: float) -> float:
    """sin(theta_out) = (n_air sin(theta_in) + m lambda / a) / n_ris, from
    the sine of the incidence and the ``grating_term``; the one place the
    steering equation is written."""
    return (n_air * sin_in + grating) / n_ris


def refraction_angle(geom: SteeringGeometry, wave: IncidentWave) -> float:
    """Steered propagation angle of ``wave.order`` inside the slab, in
    radians.

    Raises:
        EvanescentOrder: the order's tangential component is too large to
            propagate (sine argument >= 1).
    """
    grating = grating_term(wave.order, wave.wavelength_nm, geom.slit_um)
    s = steering_sine(geom.n_air, math.sin(math.radians(wave.incidence_deg)),
                      grating, geom.n_ris)
    if s >= 1.0:
        raise EvanescentOrder(
            f"order {wave.order} is evanescent: sine argument {s:.6g} >= 1 "
            f"(lambda={wave.wavelength_nm:g} nm, slit={geom.slit_um:g} um, "
            f"n_ris={geom.n_ris:g})")
    return math.asin(s)
