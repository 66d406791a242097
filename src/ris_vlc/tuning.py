"""Actuator models for the two tunable front-end realisations and the
inverse-design solvers for index, depth and drive voltage.

Both voltage maps are linear in the drive (the minimal assumption for a
stated monotone proportionality) and clamp outside their active interval:

  * stretchable meta-lens: lateral stretch s(v) = 1 + v/v_max * (s_max-1),
    slit a -> s*a, depth y -> y/s^2 (volume-conserving elastomer);
  * liquid-crystal cell: n(v) ramps linearly from n_base at the threshold
    voltage to n_base + delta_n at saturation, geometry unchanged.

``drive`` is the one voltage -> slab map, for voltage solves, voltage
sweeps and the rotation bench alike; the bench's solved rotations take
its plain-float body, ``_driven_slab``, directly.

Every inverse solve is closed form: the index and the depth directly,
a liquid-crystal drive through a slab index (the index ramp is linear in
the drive), a meta-lens drive through its stretch (exactly for an angle,
by a safeguarded Newton iteration to adjacent floats for a landing or a
spot width).  The index solve and the liquid-crystal drive share one
index inversion, ``_index_for``.  ``solve`` is the one design solve, and
the only index and depth solve: it picks the solver for a target's free
variable and reports the metric the solved slab achieves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Union

from .diffraction import first_null_angle, steering_offset_mm
from .optics import (BOUNDS as OPTICS_BOUNDS, INDEX_RANGE, NON_NEGATIVE,
                     POSITIVE, Bound, IncidentWave, SteeringGeometry,
                     check_fields, grating_term, interval, refraction_angle,
                     steering_sine)

__all__ = [
    "OutOfMaterialRange",
    "Infeasible",
    "MetaLensActuator",
    "LiquidCrystalActuator",
    "Actuator",
    "DesignTarget",
    "drive",
    "solve_voltage",
    "solve",
    "actuator_preset",
    "PRESET_NAMES",
]

TARGET_KINDS = ("refraction_angle", "spot_width", "pd_landing")
FREE_VARIABLES = ("n_ris", "depth", "voltage")
# The one target kind a free variable solves, where it cannot solve every
# kind; a drive voltage solves them all.
_SOLVES_ONLY = {"n_ris": "refraction_angle", "depth": "spot_width"}

# Drive voltage and actuator fields, by the scenario key that carries them.
# Rules that tie fields together stay in the actuator classes.
BOUNDS = {
    "voltage_v": NON_NEGATIVE,
    "v_max_v": POSITIVE,
    "stretch_max": Bound(lambda v: 1.0 < v < math.inf, "be finite and > 1"),
    "v_on_v": POSITIVE,
    "v_sat_v": POSITIVE,
    "n_base": OPTICS_BOUNDS["n_ris"],
    "delta_n": interval(0.2, 0.4),
}
# A steered angle the index solve can aim for.
_TARGET_ANGLE = Bound(lambda deg: 0.0 < deg < 90.0, "lie in (0, 90) deg")


class OutOfMaterialRange(ValueError):
    """Solved slab field falls outside its bound: an index outside the
    physical material band, or a depth that is not finite and > 0."""


class Infeasible(Exception):
    """Design target lies outside the actuator's reachable interval."""

    def __init__(self, msg: str, achievable: tuple[float, float]):
        super().__init__(msg)
        self.achievable = achievable


@dataclass(frozen=True)
class MetaLensActuator:
    """Stretchable meta-lens driven by kilovolt-range electrodes."""

    v_max_v: float
    stretch_max: float
    base_geometry: SteeringGeometry

    def __post_init__(self) -> None:
        check_fields(self, BOUNDS, "v_max_v", "stretch_max")
        try:
            drive(self, self.v_max_v)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"stretch_max {self.stretch_max:g} leaves no "
                             f"valid slab at full stretch") from exc


@dataclass(frozen=True)
class LiquidCrystalActuator:
    """Liquid-crystal cell whose index ramps between threshold and
    saturation voltage."""

    v_on_v: float = 3.0
    v_sat_v: float = 5.0
    n_base: float = 1.508
    delta_n: float = 0.3

    def __post_init__(self) -> None:
        check_fields(self, BOUNDS, "v_on_v", "v_sat_v", "n_base", "delta_n")
        if not self.v_on_v < self.v_sat_v:
            raise ValueError(
                f"need v_sat > v_on > 0, got v_on={self.v_on_v}, v_sat={self.v_sat_v}")
        if not self.n_base + self.delta_n <= INDEX_RANGE[1]:
            raise ValueError(
                f"n_base + delta_n = {self.n_base + self.delta_n:g} exceeds "
                f"{INDEX_RANGE[1]}")


Actuator = Union[MetaLensActuator, LiquidCrystalActuator]


@dataclass(frozen=True)
class DesignTarget:
    """One design goal with a single free variable.

    ``value`` is in degrees for the refraction_angle kind and in
    millimetres otherwise.  ``geometry`` holds the fixed fields; the free
    variable's entry in it serves only as a base value.  It may be None
    for voltage solves against a meta-lens, whose actuator carries its
    own base geometry.
    """

    kind: str
    value: float
    wave: IncidentWave
    geometry: SteeringGeometry | None
    free: str

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"kind must be one of {TARGET_KINDS}, got {self.kind!r}")
        if self.free not in FREE_VARIABLES:
            raise ValueError(f"free must be one of {FREE_VARIABLES}, got {self.free!r}")
        self.check_free(self.kind, self.free)
        if self.geometry is None and self.free != "voltage":
            raise ValueError(f"free variable {self.free} needs a geometry")
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"target value must be positive, got {self.value}")
        if self.kind == "refraction_angle":
            _TARGET_ANGLE.check("refraction-angle target", self.value)

    @staticmethod
    def check_free(kind: str, free: str) -> None:
        """Raise ValueError unless the free variable ``free`` solves
        targets of ``kind``."""
        only = _SOLVES_ONLY.get(free, kind)
        if kind != only:
            raise ValueError(f"free variable {free} solves only {only} "
                             f"targets, got kind {kind!r}")


def _interval(actuator: Actuator) -> tuple[float, float]:
    """The active drive interval: [0, v_max] for the meta-lens and
    [v_on, v_sat] for the liquid-crystal cell."""
    if isinstance(actuator, MetaLensActuator):
        return 0.0, actuator.v_max_v
    if isinstance(actuator, LiquidCrystalActuator):
        return actuator.v_on_v, actuator.v_sat_v
    raise ValueError(f"voltage drive requires an actuator, got {actuator!r}")


def drive(actuator: Actuator, v: float,
          base: SteeringGeometry | None = None) -> SteeringGeometry:
    """Geometry of the slab at rest, ``base``, driven at ``v`` volts.

    ``base`` replaces the meta-lens's own base geometry and is required
    for the liquid-crystal cell.  A drive above the active interval
    (``_interval``) clamps to its top, with a warning.
    """
    top = _interval(actuator)[1]
    if base is None and isinstance(actuator, LiquidCrystalActuator):
        raise ValueError("liquid-crystal drive requires a base geometry")
    base = base or actuator.base_geometry
    BOUNDS["voltage_v"].check("drive voltage", v)
    if v > top:
        limit = ("v_max" if isinstance(actuator, MetaLensActuator)
                 else "saturation")
        warnings.warn(f"drive {v:g} V clamped to {limit} {top:g} V")
        v = top
    slit, depth, n_ris = _driven_slab(actuator, v, base)
    return replace(base, slit_um=slit, depth_mm=depth, n_ris=n_ris)


def _driven_slab(act: Actuator, v: float, base: SteeringGeometry
                 ) -> tuple[float, float, float]:
    """(slit_um, depth_mm, n_ris) of ``base`` at a drive in the interval."""
    if isinstance(act, MetaLensActuator):
        s = 1.0 + v / act.v_max_v * (act.stretch_max - 1.0)
        return base.slit_um * s, base.depth_mm / s**2, base.n_ris
    level = min(max((v - act.v_on_v) / (act.v_sat_v - act.v_on_v), 0.0), 1.0)
    return base.slit_um, base.depth_mm, act.n_base + level * act.delta_n


def _evaluate_metric(kind: str, geom: SteeringGeometry, wave: IncidentWave) -> float:
    if kind == "refraction_angle":
        return math.degrees(refraction_angle(geom, wave))
    if kind == "spot_width":
        return 2.0 * (geom.depth_mm * math.tan(first_null_angle(geom, wave)))
    return steering_offset_mm(geom, wave)


def _index_for(kind: str, value: float, geom: SteeringGeometry,
               wave: tuple[float, float, int]) -> float:
    """Slab index at which ``geom`` meets the target metric ``value`` of
    ``kind`` (closed form); ``wave`` is (wavelength_nm, incidence_deg, order).

    n_ris sin(theta) is symmetric in its two factors, so the steering
    sine with the two swapped gives the index for a refraction angle
    theta; a landing L gives theta = atan(L / y).  A spot width W gives
    n = lambda / (a sin(atan(W / 2y))).
    """
    wavelength_nm, incidence_deg, order = wave
    if kind == "spot_width":
        sin_null = math.sin(math.atan(value / (2.0 * geom.depth_mm)))
        return wavelength_nm / (geom.slit_um * 1e3 * sin_null)
    theta = (math.radians(value) if kind == "refraction_angle"
             else math.atan(value / geom.depth_mm))
    grating = grating_term(order, wavelength_nm, geom.slit_um)
    return steering_sine(geom.n_air, math.sin(math.radians(incidence_deg)),
                         grating, math.sin(theta))


def _metalens_drive(act: MetaLensActuator, kind: str, value: float,
                    base: SteeringGeometry, wave: tuple[float, float, int]
                    ) -> float:
    """Drive at which the meta-lens over ``base`` meets the target metric
    ``value``, which lies strictly between the metrics at either end of
    the drive interval.

    The stretch s takes the slit a to s a and the depth y to y / s^2.
    With A = n_air sin(theta_in) and B = m lambda / a, a refraction angle
    inverts exactly: n sin(theta) = A + B / s.  A landing
    L(q) = y q^2 S / sqrt(1 - S^2), with q = 1/s and S = (A + B q) / n,
    is increasing and convex in q over [1/s_max, 1], so Newton steps from
    q = 1 approach its root from above; a step that would leave the
    bracket is replaced by a bisection.  Half a spot width W is such a
    landing with S = c q, c = lambda / (n a): the root of the cubic
    u^3 - c^2 u^2 - (2 y c / W)^2 = 0 in u = s^2, without its powers,
    which overflow for wide stretches.  The drive is clamped to
    [0, v_max].
    """
    s_max, y, n = act.stretch_max, base.depth_mm, base.n_ris
    wavelength_nm, incidence_deg, order = wave
    a_term = base.n_air * math.sin(math.radians(incidence_deg))
    b_term = grating_term(order, wavelength_nm, base.slit_um)
    if kind == "refraction_angle":
        s = b_term / (n * math.sin(math.radians(value)) - a_term)
    else:
        if kind == "spot_width":
            a_term, n, value = 0.0, 1.0, value / 2.0
            b_term = wavelength_nm / base.n_ris / (base.slit_um * 1e3)
        lo, q = 1.0 / s_max, 1.0
        hi = q
        while True:
            sine = (a_term + b_term * q) / n
            cos2 = 1.0 - sine * sine
            lead = y * q / math.sqrt(cos2)
            excess = lead * q * sine - value
            if excess == 0.0:
                break
            if excess < 0.0:
                lo = q
            else:
                hi = q
            slope = lead * (2.0 * sine + q * b_term / (n * cos2))
            nxt = q - excess / slope if slope else math.nan
            if nxt == q:
                break
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
                if nxt in (lo, hi):
                    break
            q = nxt
        s = 1.0 / q
    v = (s - 1.0) / (s_max - 1.0) * act.v_max_v
    return min(max(v, 0.0), act.v_max_v)


def solve_voltage(target: DesignTarget, actuator: Actuator) -> float:
    """Drive voltage meeting the target metric, solved by ``_drive``
    between the metrics at both ends of the drive interval, [0, v_max]
    for the meta-lens or [v_on, v_sat] for the liquid-crystal cell."""
    geom, kind, wave = target.geometry, target.kind, target.wave
    ends = [_evaluate_metric(kind, drive(actuator, v, geom), wave)
            for v in _interval(actuator)]
    return _drive(actuator, kind, target.value, geom, ends,
                  (wave.wavelength_nm, wave.incidence_deg, wave.order))


def _drive(actuator: Actuator, kind: str, value: float,
           geom: SteeringGeometry | None, ends: list[float],
           wave: tuple[float, float, int]) -> float:
    """Drive meeting the target from the metrics ``ends`` at the two ends
    of the drive interval: Infeasible more than 1e-6 relative outside
    them, the end drive within that slack of an end, else closed form
    (the inverted index ramp, or ``_metalens_drive``)."""
    lo_val, hi_val = min(ends), max(ends)
    slack = 1e-6 * value
    if not lo_val - slack <= value <= hi_val + slack:
        raise Infeasible(
            f"target {value:.9g} outside achievable interval "
            f"[{lo_val:.9g}, {hi_val:.9g}]", achievable=(lo_val, hi_val))
    for v, metric in zip(_interval(actuator), ends):
        if abs(metric - value) <= slack:
            return v
    if isinstance(actuator, LiquidCrystalActuator):
        n = _index_for(kind, value, geom, wave)
        level = (n - actuator.n_base) / actuator.delta_n
        v = actuator.v_on_v + level * (actuator.v_sat_v - actuator.v_on_v)
        return min(max(v, actuator.v_on_v), actuator.v_sat_v)
    return _metalens_drive(actuator, kind, value,
                           geom or actuator.base_geometry, wave)


def solve(target: DesignTarget,
          actuator: Actuator | None = None) -> tuple[float, float]:
    """(solved, achieved): the value of the target's free variable that
    meets it, and the target metric of the slab it gives.  A voltage
    solve drives ``actuator`` over the target's geometry.

    The index and the depth are closed form: the index from
    ``_index_for``, the depth that puts the first null at half the
    spot width W from y = W / (2 tan(theta_null)).

    Raises:
        OutOfMaterialRange: the solved index falls outside the material
            band, or the solved depth is not finite and > 0.
        NullBeyondHorizon: a depth solve on a slab with no first null.
    """
    geom, wave = target.geometry, target.wave
    if target.free == "n_ris":
        solved = _index_for(target.kind, target.value, geom, (
            wave.wavelength_nm, wave.incidence_deg, wave.order))
        if not OPTICS_BOUNDS["n_ris"].ok(solved):
            lo, hi = INDEX_RANGE
            raise OutOfMaterialRange(f"required index {solved:.6g} outside "
                                     f"the material band ({lo}, {hi}]")
        state = replace(geom, n_ris=solved)
    elif target.free == "depth":
        # a null on the axis (tan 0) reaches the width at no finite depth
        tan = math.tan(first_null_angle(geom, wave))
        solved = target.value / (2.0 * tan) if tan else math.inf
        if not OPTICS_BOUNDS["depth_mm"].ok(solved):
            raise OutOfMaterialRange(
                f"required depth {solved:.6g} mm is not finite and > 0")
        state = replace(geom, depth_mm=solved)
    else:
        solved = solve_voltage(target, actuator)
        state = drive(actuator, solved, geom)
    return solved, _evaluate_metric(target.kind, state, wave)


def _metalens_she2018(base_geometry: SteeringGeometry | None) -> MetaLensActuator:
    # Stretch limit reconstructed from the quoted focal-spot band
    # 21.4..37.7 um: spot scales as 1/s^3 under the volume-conserving
    # map, so s_max = (37.7 / 21.4)^(1/3).
    if base_geometry is None:
        base_geometry = SteeringGeometry(
            slit_um=4.0, depth_mm=50.0, pd_length_mm=0.0377, n_ris=1.4)
    return MetaLensActuator(
        v_max_v=1000.0,
        stretch_max=(37.7 / 21.4) ** (1.0 / 3.0),
        base_geometry=base_geometry,
    )


def _lc_sun2019(base_geometry: SteeringGeometry | None) -> LiquidCrystalActuator:
    return LiquidCrystalActuator(v_on_v=3.0, v_sat_v=5.0,
                                 n_base=1.508, delta_n=0.392)


_PRESETS = {
    "metalens-she2018": _metalens_she2018,
    "lc-sun2019": _lc_sun2019,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def actuator_preset(
    name: str, base_geometry: SteeringGeometry | None = None
) -> Actuator:
    """Named actuator configuration; ``base_geometry`` overrides the
    meta-lens default (ignored by the liquid-crystal preset)."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return factory(base_geometry)
