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
edge.  Every front end of a table sweeps one rotation grid, in plain
floats, with no value object per rotation (``_sweep``).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from pathlib import Path

from .optics import (BOUNDS as OPTICS_BOUNDS, POSITIVE, Angle,
                     SteeringGeometry, check_fields, grating_term, interval,
                     steering_sine)
from .diffraction import _capture, _incidence_factor
from .tuning import (Actuator, Infeasible, MetaLensActuator, _drive,
                     _driven_slab, _interval, actuator_preset, drive)

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


def _grid(step_deg: float) -> tuple[list[float], ...]:
    """The rotations 0..90 deg inclusive on the step, each also in radians,
    back in degrees (the envelope test's operand) and as its cosine."""
    BOUNDS["step_deg"].check("step_deg", step_deg)
    count = int(math.floor(90.0 / step_deg + 1e-9))
    angles = [round(k * step_deg, 12) for k in range(count + 1)]
    if angles[-1] >= 90.0 - _ANGLE_EPS_DEG:
        angles.pop()
    angles.append(90.0)
    rads = [math.radians(a) for a in angles]
    return (angles, rads, [math.degrees(r) for r in rads],
            [math.cos(r) for r in rads])


def _sweep(fe: ReceiverFrontEnd, grid: tuple[list[float], ...]
           ) -> tuple[list[bool], list[float]]:
    """(detected, relative intensity) of a front end at every rotation of
    a ``_grid``, column by column: no pair outlives its rotation.  A
    tunable kind follows ``refraction_angle``, ``steering_offset_mm``,
    ``evaluate`` and ``solve_voltage`` operation for operation, so their
    values agree bit for bit."""
    angles, rads, degs, cosines = grid
    hits = bisect.bisect_right(degs, fe.max_incidence.degrees + _ANGLE_EPS_DEG)
    misses = len(angles) - hits
    if fe.kind not in RIS_KINDS:
        intensity = cosines[:hits] + [0.0] * misses
        if fe.kind == "cmbbp":
            start, edge = fe.rolloff_start.degrees, fe.max_incidence.degrees
            for i in range(bisect.bisect_right(degs, start), hits):
                intensity[i] *= (1.0 - (1.0 - _CMBBP_FLOOR)
                                 * (degs[i] - start) / (edge - start))
        return [True] * hits + [False] * misses, intensity
    detected, intensity = [False] * len(angles), [0.0] * len(angles)
    act, lam = fe.actuator, fe.wavelength_nm
    rest, full = (drive(act, v, fe.geometry) for v in _interval(act))
    g_rest, g_full = (grating_term(1, lam, s.slit_um) for s in (rest, full))
    half, rest_capture = rest.pd_length_mm / 2, None
    for i in range(hits):
        sin_in = math.sin(rads[i])
        sine_rest = steering_sine(rest.n_air, sin_in, g_rest, rest.n_ris)
        sine_full = steering_sine(full.n_air, sin_in, g_full, full.n_ris)
        if sine_rest >= 1.0 or sine_full >= 1.0:
            continue  # the first order is evanescent
        landing_full = full.depth_mm * math.tan(math.asin(sine_full))
        if landing_full > half + 1e-12:
            continue  # not steerable onto the detector
        factor = _incidence_factor(rads[i])
        landing_rest = rest.depth_mm * math.tan(math.asin(sine_rest))
        if landing_rest > half:
            try:
                v = _drive(act, "pd_landing", half, rest,
                           [landing_rest, landing_full], (lam, angles[i], 1))
            except Infeasible:
                continue
            if factor != 0.0:  # no capture at grazing incidence
                intensity[i] = factor * _capture(*_driven_slab(act, v, rest),
                                                 lam, half)
        else:
            if rest_capture is None:
                rest_capture = _capture(rest.slit_um, rest.depth_mm,
                                        rest.n_ris, lam, half)
            intensity[i] = factor * rest_capture
        detected[i] = True
    return detected, intensity


def rotation_sweep(front_end: ReceiverFrontEnd, step_deg: float) -> RotationSweepResult:
    """Detection sweep over rotations 0..90 deg inclusive."""
    grid = _grid(step_deg)
    detected, intensity = _sweep(front_end, grid)
    return RotationSweepResult(*map(tuple, (grid[0], detected, intensity)))


def compare_table(
    front_ends: list[ReceiverFrontEnd], step_deg: float
) -> list[FrontEndSummary]:
    """One summary row per front-end (duplicates preserved, order kept),
    all swept over one grid.  The mean is summed left to right (``sum``
    is compensated from Python 3.12 on), so every Python gives it alike."""
    grid = _grid(step_deg)
    rows = []
    for fe in front_ends:
        last, total, n = math.nan, 0.0, 0
        for angle, hit, value in zip(grid[0], *_sweep(fe, grid)):
            if hit:
                last, total, n = angle, total + value, n + 1
        rows.append(FrontEndSummary(fe.kind, last, total / n if n else 0.0,
                                    fe.tunable, fe.voltage_range))
    return rows


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
        volts = "-" if r.voltage_range is None else "%g-%g V" % r.voltage_range
        lines.append(
            f"{r.kind:<14}{r.max_detected_deg:>9.1f}°{r.mean_intensity:>11.4f}"
            f"{('yes' if r.tunable else 'no'):>9}{volts:>13}")
    return "\n".join(lines)
