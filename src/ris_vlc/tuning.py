"""Actuator models for the two tunable front-end realisations and the
inverse-design solvers for index, depth and drive voltage.

Both voltage maps are linear in the drive (the minimal assumption for a
stated monotone proportionality) and clamp outside their active interval:

  * stretchable meta-lens: lateral stretch s(v) = 1 + v/v_max * (s_max-1),
    slit a -> s*a, depth y -> y/s^2 (volume-conserving elastomer);
  * liquid-crystal cell: n(v) ramps linearly from n_base at the threshold
    voltage to n_base + delta_n at saturation, geometry unchanged.

``drive_map`` is the one place that tells the two forward maps apart: it
returns an actuator's drive-to-geometry map over a base slab together
with its active drive interval, for voltage solves, voltage sweeps and
the rotation bench alike.

Inverse solvers use the closed form where one exists: the index, the
depth and the liquid-crystal drive (every target metric inverts to a
slab index, and the index ramp is linear in the drive).  The meta-lens
drive is bisected over its drive interval, exploiting the monotonicity
of the map: its landing equation is a sextic in the stretch.  ``solve``
is the one design solve: it picks the solver for a target's free
variable and reports the metric the solved slab achieves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Union

from .diffraction import first_null_angle, steering_offset_mm
from .optics import (BOUNDS as OPTICS_BOUNDS, INDEX_RANGE, NON_NEGATIVE,
                     POSITIVE, Angle, Bound, IncidentWave, SteeringGeometry,
                     check_fields, interval, refraction_angle)

__all__ = [
    "OutOfMaterialRange",
    "Infeasible",
    "NonMonotonic",
    "MetaLensActuator",
    "LiquidCrystalActuator",
    "Actuator",
    "DesignTarget",
    "metalens_apply",
    "lc_apply",
    "drive_map",
    "solve_index_for_angle",
    "solve_depth_for_spot",
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


class NonMonotonic(Exception):
    """Forward metric is not monotone over the bisection bracket."""


@dataclass(frozen=True)
class MetaLensActuator:
    """Stretchable meta-lens driven by kilovolt-range electrodes."""

    v_max_v: float
    stretch_max: float
    base_geometry: SteeringGeometry

    def __post_init__(self) -> None:
        check_fields(self, BOUNDS, "v_max_v", "stretch_max")
        try:
            metalens_apply(self, self.v_max_v)
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


def metalens_apply(act: MetaLensActuator, v: float,
                   base: SteeringGeometry | None = None) -> SteeringGeometry:
    """Geometry after driving the meta-lens at ``v`` volts.

    ``base`` is the slab at rest, the actuator's own base geometry by
    default.  Drives above v_max clamp to full stretch (with a warning);
    v = 0 returns the base geometry unchanged.
    """
    BOUNDS["voltage_v"].check("drive voltage", v)
    if v > act.v_max_v:
        warnings.warn(f"drive {v:g} V clamped to v_max {act.v_max_v:g} V",
                      stacklevel=2)
        v = act.v_max_v
    s = 1.0 + v / act.v_max_v * (act.stretch_max - 1.0)
    base = base or act.base_geometry
    if s == 1.0:
        return base
    return replace(base, slit_um=base.slit_um * s, depth_mm=base.depth_mm / s**2)


def lc_apply(
    act: LiquidCrystalActuator, v: float, base: SteeringGeometry
) -> SteeringGeometry:
    """Geometry after driving the liquid-crystal cell at ``v`` volts.

    The index is flat at n_base below the threshold voltage by design;
    drives above saturation clamp (with a warning).
    """
    BOUNDS["voltage_v"].check("drive voltage", v)
    if v > act.v_sat_v:
        warnings.warn(f"drive {v:g} V clamped to saturation {act.v_sat_v:g} V",
                      stacklevel=2)
    level = min(max((v - act.v_on_v) / (act.v_sat_v - act.v_on_v), 0.0), 1.0)
    return replace(base, n_ris=act.n_base + level * act.delta_n)


def drive_map(
    actuator: Actuator, base: SteeringGeometry | None = None
) -> tuple[Callable[[float], SteeringGeometry], float, float]:
    """(apply, v_lo, v_hi): the geometry at a drive voltage and the active
    drive interval, [0, v_max] for the meta-lens and [v_on, v_sat] for
    the liquid-crystal cell.

    ``base`` is the slab at rest.  It replaces the meta-lens's own base
    geometry and is required for the liquid-crystal cell.
    """
    if isinstance(actuator, MetaLensActuator):
        return (lambda v: metalens_apply(actuator, v, base),
                0.0, actuator.v_max_v)
    if not isinstance(actuator, LiquidCrystalActuator):
        raise ValueError(f"voltage drive requires an actuator, got {actuator!r}")
    if base is None:
        raise ValueError("liquid-crystal drive requires a base geometry")
    return (lambda v: lc_apply(actuator, v, base),
            actuator.v_on_v, actuator.v_sat_v)


def _index_for_sine(wave: IncidentWave, slit_um: float, sin_out: float,
                    n_air: float) -> float:
    """Slab index that steers ``wave`` to the angle whose sine is
    ``sin_out``: the steering equation solved for n_ris."""
    numerator = (n_air * math.sin(wave.incidence.radians)
                 + wave.order * wave.wavelength.nanometres / (slit_um * 1e3))
    return numerator / sin_out


def solve_index_for_angle(
    wave: IncidentWave,
    slit_um: float,
    theta_target: Angle,
    *,
    n_air: float = 1.0,
) -> float:
    """Slab index that steers ``wave`` to ``theta_target`` (closed form).

    Raises:
        OutOfMaterialRange: the required index falls outside the physical
            material band.
    """
    _TARGET_ANGLE.check("theta_target", theta_target.degrees)
    OPTICS_BOUNDS["slit_um"].check("slit_um", slit_um)
    n = _index_for_sine(wave, slit_um, math.sin(theta_target.radians), n_air)
    if not OPTICS_BOUNDS["n_ris"].ok(n):
        lo, hi = INDEX_RANGE
        raise OutOfMaterialRange(
            f"required index {n:.6g} outside the material band ({lo}, {hi}]")
    return n


def solve_depth_for_spot(
    slit_um: float,
    n_ris: float,
    wave: IncidentWave,
    spot_target_mm: float,
    *,
    n_air: float = 1.0,
) -> float:
    """Slab depth whose central lobe has the target full width (closed
    form); propagates NullBeyondHorizon when no first null exists, and
    raises OutOfMaterialRange when the depth overflows or underflows."""
    POSITIVE.check("spot_target_mm", spot_target_mm)
    probe = SteeringGeometry(slit_um=slit_um, depth_mm=1.0, pd_length_mm=1.0,
                             n_ris=n_ris, n_air=n_air)
    null = first_null_angle(probe, wave)
    depth = spot_target_mm / (2.0 * math.tan(null.radians))
    if not OPTICS_BOUNDS["depth_mm"].ok(depth):
        raise OutOfMaterialRange(
            f"required depth {depth:.6g} mm is not finite and > 0")
    return depth


def _evaluate_metric(kind: str, geom: SteeringGeometry, wave: IncidentWave) -> float:
    if kind == "refraction_angle":
        return refraction_angle(geom, wave).degrees
    if kind == "spot_width":
        return 2.0 * geom.depth_mm * math.tan(first_null_angle(geom, wave).radians)
    return steering_offset_mm(geom, wave)


def _lc_drive(act: LiquidCrystalActuator, kind: str, value: float,
              geom: SteeringGeometry, wave: IncidentWave) -> float:
    """Drive at which the liquid-crystal cell over ``geom`` meets the
    target metric ``value`` (closed form).

    Each target kind inverts to a slab index: the refraction angle
    directly, the landing L through theta = atan(L / y), the spot width W
    through n = lambda / (a sin(atan(W / 2y))).  The linear index ramp
    then inverts to the drive, clamped to [v_on, v_sat].
    """
    if kind == "spot_width":
        sin_null = math.sin(math.atan(value / (2.0 * geom.depth_mm)))
        n = wave.wavelength.nanometres / (geom.slit_um * 1e3 * sin_null)
    else:
        theta = (math.radians(value) if kind == "refraction_angle"
                 else math.atan(value / geom.depth_mm))
        n = _index_for_sine(wave, geom.slit_um, math.sin(theta), geom.n_air)
    level = (n - act.n_base) / act.delta_n
    v = act.v_on_v + level * (act.v_sat_v - act.v_on_v)
    return min(max(v, act.v_on_v), act.v_sat_v)


def _bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    *,
    rel_tol: float = 1e-6,
    max_steps: int = 60,
    inverse: Callable[[float], float] | None = None,
) -> float:
    """Bisection for a monotone (either direction) metric on [lo, hi].

    Raises Infeasible when the target is outside [f(lo), f(hi)] and
    NonMonotonic when midpoint values escape the current bracket.
    ``inverse``, the closed-form solution of f(x) = target when one
    exists, replaces the bisection; the end checks still come first.
    """
    f_lo, f_hi = f(lo), f(hi)
    scale = max(abs(target), 1e-30)
    lo_val, hi_val = min(f_lo, f_hi), max(f_lo, f_hi)
    slack = rel_tol * scale
    if not lo_val - slack <= target <= hi_val + slack:
        raise Infeasible(
            f"target {target:.9g} outside achievable interval "
            f"[{lo_val:.9g}, {hi_val:.9g}]", achievable=(lo_val, hi_val))
    if abs(f_lo - target) <= slack:
        return lo
    if abs(f_hi - target) <= slack:
        return hi
    if inverse is not None:
        return inverse(target)
    increasing = f_hi > f_lo
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        bracket_lo, bracket_hi = min(f_lo, f_hi), max(f_lo, f_hi)
        if not bracket_lo - slack <= f_mid <= bracket_hi + slack:
            raise NonMonotonic(
                f"metric {f_mid:.9g} at {mid:.9g} escapes bracket "
                f"[{bracket_lo:.9g}, {bracket_hi:.9g}]")
        if abs(f_mid - target) <= slack:
            return mid
        if (f_mid < target) == increasing:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise NonMonotonic(
        f"metric failed to reach target {target:.9g} within {max_steps} "
        f"bisection steps (bracket values {f_lo:.9g}, {f_hi:.9g})")


def solve_voltage(target: DesignTarget, actuator: Actuator) -> float:
    """Drive voltage meeting the target metric within 1e-6 relative.

    The forward pipeline (apply actuator, evaluate the target kind) is
    evaluated at both ends of the drive interval, [0, v_max] for the
    meta-lens or [v_on, v_sat] for the liquid-crystal cell, to check the
    target is reachable.  The liquid-crystal drive then follows in closed
    form; the meta-lens drive is bisected.
    """
    apply, lo, hi = drive_map(actuator, target.geometry)
    forward = lambda v: _evaluate_metric(target.kind, apply(v), target.wave)
    inverse = None
    if isinstance(actuator, LiquidCrystalActuator):
        inverse = lambda value: _lc_drive(actuator, target.kind, value,
                                          target.geometry, target.wave)
    return _bisect_monotone(forward, lo, hi, target.value, inverse=inverse)


def solve(target: DesignTarget,
          actuator: Actuator | None = None) -> tuple[float, float]:
    """(solved, achieved): the value of the target's free variable that
    meets it, and the target metric of the slab it gives.  A voltage
    solve drives ``actuator`` over the target's geometry."""
    geom, wave = target.geometry, target.wave
    if target.free == "n_ris":
        solved = solve_index_for_angle(wave, geom.slit_um,
                                       Angle.from_degrees(target.value),
                                       n_air=geom.n_air)
        state = replace(geom, n_ris=solved)
    elif target.free == "depth":
        solved = solve_depth_for_spot(geom.slit_um, geom.n_ris, wave,
                                      target.value, n_air=geom.n_air)
        state = replace(geom, depth_mm=solved)
    else:
        solved = solve_voltage(target, actuator)
        apply, _, _ = drive_map(actuator, geom)
        state = apply(solved)
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
