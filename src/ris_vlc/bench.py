"""Rotation-sweep comparison of legacy lens front-ends against tunable
slab front-ends.

Legacy lenses are modelled by their published acceptance envelopes, not
by ray tracing: detection holds up to the envelope angle and the detected
intensity follows cos(rotation).  The catadioptric bi-parabolic kind
additionally loses intensity past its roll-off angle (linear placeholder
down to 0.5 at the envelope edge).  Tunable kinds score the full
radiometric transmittance of the slab that lands the steered pattern on
the detector: the rest slab where it lands there, and elsewhere the slab
at the drive voltage solved to put the pattern centre on the detector
edge.  Each rotation is evaluated in plain floats (``_Detector``); value
objects are built only for a drive solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .optics import (BOUNDS as OPTICS_BOUNDS, POSITIVE, Angle, EvanescentOrder,
                     IncidentWave, SteeringGeometry, check_fields,
                     grating_term, interval, steering_sine)
from .diffraction import _incidence_factor, pattern_power_fraction
from .tuning import (Actuator, DesignTarget, Infeasible, MetaLensActuator,
                     actuator_preset, drive_map, solve_voltage)

__all__ = [
    "KINDS",
    "RIS_KINDS",
    "ReceiverFrontEnd",
    "RotationSweepResult",
    "FrontEndSummary",
    "default_front_end",
    "rotation_sweep",
    "compare_table",
    "table_to_csv",
    "format_table",
]

KINDS = ("convex", "gilcpc", "spherical", "cmbbp", "adj_lens",
         "metalens_ris", "lc_ris")
RIS_KINDS = ("metalens_ris", "lc_ris")

# Published acceptance envelopes (degrees); adj_lens is only bounded
# below 90 in its source, its default envelope is a configuration value.
_ENVELOPE_CAP = {
    "convex": 36.2,
    "gilcpc": 40.0,
    "spherical": 45.0,
    "cmbbp": 85.0,
    "adj_lens": 90.0,
    "metalens_ris": 90.0,
    "lc_ris": 90.0,
}

# Intensity factor left at the envelope edge of the cmbbp roll-off.
_CMBBP_FLOOR = 0.5

_ANGLE_EPS_DEG = 1e-9

# Rotation-sweep inputs, by the scenario key that carries them.  The
# finest step keeps a sweep at 90001 rotations.
BOUNDS = {"step_deg": interval(1e-3, 90)}


@dataclass(frozen=True)
class ReceiverFrontEnd:
    """One receiver front-end and its acceptance envelope.

    Tunable kinds carry the actuator whose drive a rotation may solve;
    ``geometry`` is the slab at rest (required for the liquid-crystal
    kind, optional for the meta-lens whose actuator has its own base).
    """

    kind: str
    max_incidence: Angle
    spot_mm: float
    tunable: bool
    rolloff_start: Angle | None = None
    voltage_range: tuple[float, float] | None = None
    actuator: Actuator | None = None
    geometry: SteeringGeometry | None = None
    wavelength_nm: float = 550.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        cap = _ENVELOPE_CAP[self.kind]
        deg = self.max_incidence.degrees
        if self.kind == "adj_lens":
            if not 0 < deg < cap:
                raise ValueError(
                    f"adj_lens envelope must lie in (0, {cap}) deg, got {deg:g}")
        elif not 0 < deg <= cap + _ANGLE_EPS_DEG:
            raise ValueError(
                f"{self.kind} envelope must be <= {cap} deg, got {deg:g}")
        if (self.rolloff_start is not None) != (self.kind == "cmbbp"):
            raise ValueError("rolloff_start is required for cmbbp and "
                             "forbidden otherwise")
        POSITIVE.check("spot_mm", self.spot_mm)
        if self.kind in RIS_KINDS:
            if self.actuator is None:
                raise ValueError(f"{self.kind} requires an actuator")
            if self.kind == "lc_ris" and self.geometry is None:
                raise ValueError("lc_ris requires a base geometry")
            check_fields(self, OPTICS_BOUNDS, "wavelength_nm")


@dataclass(frozen=True)
class RotationSweepResult:
    angles_deg: tuple[float, ...]
    detected: tuple[bool, ...]
    relative_intensity: tuple[float, ...]


@dataclass(frozen=True)
class FrontEndSummary:
    kind: str
    max_detected_deg: float
    mean_intensity: float
    tunable: bool
    voltage_range: tuple[float, float] | None


def default_front_end(kind: str) -> ReceiverFrontEnd:
    """Standard configuration for each kind.

    Spot sizes without a published value (gilcpc, cmbbp, adj_lens) are
    nominal placeholders; the adj_lens 60 deg envelope is likewise a
    configuration default, not a published figure.
    """
    if kind == "convex":
        return ReceiverFrontEnd("convex", Angle.from_degrees(36.2), 2.0, False)
    if kind == "gilcpc":
        return ReceiverFrontEnd("gilcpc", Angle.from_degrees(40.0), 3.0, False)
    if kind == "spherical":
        return ReceiverFrontEnd("spherical", Angle.from_degrees(45.0), 3.0, False)
    if kind == "cmbbp":
        return ReceiverFrontEnd("cmbbp", Angle.from_degrees(85.0), 1.0, False,
                                rolloff_start=Angle.from_degrees(25.0))
    if kind == "adj_lens":
        return ReceiverFrontEnd("adj_lens", Angle.from_degrees(60.0), 2.0, True,
                                voltage_range=None)
    base = SteeringGeometry(slit_um=100.0, depth_mm=0.75, pd_length_mm=1.0,
                            n_ris=1.508)
    if kind == "lc_ris":
        return ReceiverFrontEnd(
            "lc_ris", Angle.from_degrees(90.0), 0.1, True,
            voltage_range=(2.0, 5.0),
            actuator=actuator_preset("lc-sun2019"),
            geometry=base)
    if kind == "metalens_ris":
        lens_base = SteeringGeometry(slit_um=100.0, depth_mm=0.75,
                                     pd_length_mm=1.0, n_ris=1.6)
        actuator = MetaLensActuator(v_max_v=1000.0, stretch_max=1.5,
                                    base_geometry=lens_base)
        return ReceiverFrontEnd(
            "metalens_ris", Angle.from_degrees(90.0), 0.1, True,
            voltage_range=(1000.0, 3000.0),
            actuator=actuator)
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _cmbbp_rolloff(fe: ReceiverFrontEnd, deg: float) -> float:
    start = fe.rolloff_start.degrees
    edge = fe.max_incidence.degrees
    if deg <= start:
        return 1.0
    return 1.0 - (1.0 - _CMBBP_FLOOR) * (deg - start) / (edge - start)


class _Detector:
    """(detected, relative intensity) of one front end at a rotation in
    degrees, built once per sweep with what does not depend on the
    rotation: the drive map, the rest and full-drive slabs with their
    order terms and, on first use, the rest slab's capture fraction.
    ``rotation_sweep`` alone calls it, on its grid in [0, 90] deg, so the
    rotation is not checked again here.

    A rotation is evaluated in plain floats, by the operations of
    ``refraction_angle``, ``steering_offset_mm`` and ``evaluate``'s
    transmittance in their order, so their values agree bit for bit.
    Only where the rest slab misses the detector is a drive solved.
    """

    def __init__(self, fe: ReceiverFrontEnd) -> None:
        self.fe = fe
        self.max_deg = fe.max_incidence.degrees + _ANGLE_EPS_DEG
        if fe.kind in RIS_KINDS:
            self.apply, v_rest, v_full = drive_map(fe.actuator, fe.geometry)
            self.rest, self.full = self.apply(v_rest), self.apply(v_full)
            self.gratings = [grating_term(1, fe.wavelength_nm, slab.slit_um)
                             for slab in (self.rest, self.full)]
            self.half = self.rest.pd_length_mm / 2
            self.rest_capture: float | None = None

    def __call__(self, grid_deg: float) -> tuple[bool, float]:
        rad = math.radians(grid_deg)
        deg = math.degrees(rad)
        if deg > self.max_deg:
            return (False, 0.0)
        if self.fe.kind in RIS_KINDS:
            return self._steer(rad, grid_deg)
        intensity = math.cos(rad)
        if self.fe.kind == "cmbbp":
            intensity *= _cmbbp_rolloff(self.fe, deg)
        return (True, intensity)

    def _steer(self, rad: float, grid_deg: float) -> tuple[bool, float]:
        sin_in, rest, full, half = math.sin(rad), self.rest, self.full, self.half
        sine_rest = steering_sine(rest.n_air, sin_in, self.gratings[0],
                                  rest.n_ris)
        sine_full = steering_sine(full.n_air, sin_in, self.gratings[1],
                                  full.n_ris)
        if sine_rest >= 1.0 or sine_full >= 1.0:
            return (False, 0.0)  # the first order is evanescent
        if full.depth_mm * math.tan(math.asin(sine_full)) > half + 1e-12:
            return (False, 0.0)  # not steerable onto the detector
        factor = _incidence_factor(rad)
        if rest.depth_mm * math.tan(math.asin(sine_rest)) > half:
            wave = IncidentWave(self.fe.wavelength_nm, grid_deg, order=1)
            target = DesignTarget("pd_landing", half, wave, self.fe.geometry,
                                  "voltage")
            try:
                state = self.apply(solve_voltage(target, self.fe.actuator))
            except (EvanescentOrder, Infeasible):
                return (False, 0.0)
            return (True, 0.0 if factor == 0.0 else
                    factor * pattern_power_fraction(state, wave, half))
        if self.rest_capture is None:
            wave = IncidentWave(self.fe.wavelength_nm, grid_deg, order=1)
            self.rest_capture = pattern_power_fraction(rest, wave, half)
        return (True, 0.0 if factor == 0.0 else factor * self.rest_capture)


def rotation_sweep(front_end: ReceiverFrontEnd, step_deg: float) -> RotationSweepResult:
    """Detection sweep over rotations 0..90 deg inclusive."""
    BOUNDS["step_deg"].check("step_deg", step_deg)
    count = int(math.floor(90.0 / step_deg + 1e-9))
    angles = [round(k * step_deg, 12) for k in range(count + 1)]
    if angles[-1] < 90.0 - _ANGLE_EPS_DEG:
        angles.append(90.0)
    else:
        angles[-1] = 90.0
    detector = _Detector(front_end)
    # Filled per rotation: no (detected, intensity) pair outlives its rotation.
    detected, intensity = [], []
    for deg in angles:
        hit, value = detector(deg)
        detected.append(hit)
        intensity.append(value)
    return RotationSweepResult(tuple(angles), tuple(detected),
                               tuple(intensity))


def compare_table(
    front_ends: list[ReceiverFrontEnd], step_deg: float
) -> list[FrontEndSummary]:
    """One summary row per front-end (duplicates preserved, order kept)."""
    rows = []
    for fe in front_ends:
        sweep = rotation_sweep(fe, step_deg)
        det_angles = [a for a, d in zip(sweep.angles_deg, sweep.detected) if d]
        det_intensity = [i for i, d in zip(sweep.relative_intensity,
                                           sweep.detected) if d]
        rows.append(FrontEndSummary(
            kind=fe.kind,
            max_detected_deg=max(det_angles) if det_angles else math.nan,
            mean_intensity=(sum(det_intensity) / len(det_intensity)
                            if det_intensity else 0.0),
            tunable=fe.tunable,
            voltage_range=fe.voltage_range,
        ))
    return rows


def _voltage_text(rng: tuple[float, float] | None) -> str:
    if rng is None:
        return "-"
    return f"{rng[0]:g}-{rng[1]:g} V"


def table_to_csv(rows: list[FrontEndSummary], path: str | Path) -> None:
    # runner imports this module, so its CSV writer is imported here
    from .runner import _CELL, _template, _write_csv

    lines = []
    for r in rows:
        volts = (",".join(_CELL % v for v in r.voltage_range)
                 if r.voltage_range else ",")
        lines.append(_template(2, f"{r.kind},",
                               f",{str(r.tunable).lower()},{volts}")
                     % (r.max_detected_deg, r.mean_intensity))
    _write_csv(path, ["kind", "max_detected_deg", "mean_intensity",
                      "tunable", "voltage_low_v", "voltage_high_v"], lines)


def format_table(rows: list[FrontEndSummary]) -> str:
    header = f"{'kind':<14}{'max angle':>10}{'mean int.':>11}{'tunable':>9}{'voltage':>13}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.kind:<14}{r.max_detected_deg:>9.1f}°{r.mean_intensity:>11.4f}"
            f"{('yes' if r.tunable else 'no'):>9}{_voltage_text(r.voltage_range):>13}")
    return "\n".join(lines)
