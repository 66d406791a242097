"""Scenario files: validated JSON descriptions of a single run.

Every numeric key carries an explicit unit suffix (_nm, _um, _mm, _deg,
_v, _w) unless it names a dimensionless quantity from a known allowlist;
anything else is rejected.  Validation is batched: all violations are
reported together with their field paths, not just the first.

A scenario activates exactly one of
  * single evaluation (optionally with a sampled detector profile),
  * a parameter sweep (optionally with a curve family and a gain baseline),
  * an inverse-design solve,
  * a front-end benchmark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .bench import KINDS as BENCH_KINDS
from .optics import Angle, IncidentWave, SteeringGeometry, Wavelength
from .tuning import (Actuator, DesignTarget, LiquidCrystalActuator,
                     MetaLensActuator, PRESET_NAMES, TARGET_KINDS,
                     actuator_preset)

__all__ = [
    "ScenarioError",
    "ProfileSpec",
    "SweepSpec",
    "BenchSpec",
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
]

_UNIT_SUFFIXES = ("_nm", "_um", "_mm", "_deg", "_v", "_w")
_DIMENSIONLESS_KEYS = {
    "n_ris", "n_air", "order", "steps", "samples", "stretch_max",
    "delta_n", "n_base", "from_index", "to_index",
}

SWEEP_PARAMETERS = ("wavelength", "n_ris", "depth", "incidence", "voltage")
# Bound-key suffix per sweep parameter ("index" marks a dimensionless bound).
_PARAM_SUFFIX = {"wavelength": "nm", "n_ris": "index", "depth": "mm",
                 "incidence": "deg", "voltage": "v"}
CURVE_KEYS = ("wavelength_nm", "n_ris", "depth_mm", "incidence_deg", "voltage_v")
# The field a sweep parameter sets, which its bounds and curve keys name.
_PARAM_FIELD = dict(zip(SWEEP_PARAMETERS, CURVE_KEYS))
_BASELINE_KEYS = ("depth_mm", "n_ris", "slit_um")
# Bounds shared by the geometry/wave fields and by the sweep ranges, curve
# members and baselines that override them.
_FIELD_BOUNDS = {
    "slit_um": (lambda v: 0.0 < v < math.inf, "be finite and > 0"),
    "pd_length_mm": (lambda v: 0.0 < v < math.inf, "be finite and > 0"),
    "power_w": (lambda v: 0.0 <= v < math.inf, "be finite and >= 0"),
    "wavelength_nm": (lambda v: 200.0 <= v <= 2000.0, "lie in [200, 2000]"),
    "n_ris": (lambda v: 1.0 < v <= 2.5, "lie in (1.0, 2.5]"),
    "depth_mm": (lambda v: 0.0 < v < math.inf, "be finite and > 0"),
    "incidence_deg": (lambda v: 0.0 <= v <= 90.0, "lie in [0, 90]"),
    "voltage_v": (lambda v: 0.0 <= v < math.inf, "be finite and >= 0")}


class ScenarioError(ValueError):
    """Scenario failed validation; ``errors`` lists every violation."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors) or "invalid scenario")


@dataclass(frozen=True)
class ProfileSpec:
    samples: int
    curves: tuple[str, tuple[float, ...]] | None = None


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    steps: int
    spacing: str = "linear"
    curves: tuple[str, tuple[float, ...]] | None = None
    baseline: tuple[tuple[str, float], ...] | None = None


@dataclass(frozen=True)
class BenchSpec:
    front_ends: tuple[str, ...]
    step_deg: float


@dataclass(frozen=True)
class Scenario:
    name: str
    geometry: SteeringGeometry
    wave: IncidentWave
    actuator: Actuator | None = None
    profile: ProfileSpec | None = None
    sweep: SweepSpec | None = None
    design: DesignTarget | None = None
    bench: BenchSpec | None = None

    @property
    def mode(self) -> str:
        if self.sweep is not None:
            return "sweep"
        if self.design is not None:
            return "design"
        if self.bench is not None:
            return "bench"
        return "eval"


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_unit_keys(node: Any, path: str, errors: list[str]) -> None:
    if not isinstance(node, dict):
        return
    for key, value in node.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            _check_unit_keys(value, here, errors)
            continue
        numeric = _is_number(value) or (
            isinstance(value, list) and value and all(_is_number(v) for v in value))
        if numeric and not key.endswith(_UNIT_SUFFIXES) \
                and key not in _DIMENSIONLESS_KEYS:
            errors.append(f"{here}: numeric key lacks a unit suffix")


def _take_number(block: dict, path: str, key: str, errors: list[str],
                 required: bool = True, default: float | None = None,
                 integer: bool = False) -> float | int | None:
    if key not in block:
        if required:
            errors.append(f"{path}.{key}: required key missing")
        return default
    value = block[key]
    if integer:
        if not (isinstance(value, int) and not isinstance(value, bool)):
            errors.append(f"{path}.{key}: must be an integer, got {value!r}")
            return default
        return value
    if not _is_number(value):
        errors.append(f"{path}.{key}: must be a number, got {value!r}")
        return default
    return float(value)


def _check_bounds(path: str, key: str, value: float, errors: list[str],
                  index: str = "", field: str | None = None) -> None:
    ok, text = _FIELD_BOUNDS[field or key]
    if not ok(value):
        errors.append(f"{path}.{key}{index}: must {text}, got {value:g}")


def _reject_unknown(block: dict, path: str, known: tuple[str, ...],
                    errors: list[str]) -> None:
    for key in block:
        if key not in known:
            errors.append(f"{path}.{key}: unknown key")


def _parse_geometry(block: Any, errors: list[str]) -> SteeringGeometry | None:
    path = "geometry"
    if not isinstance(block, dict):
        errors.append(f"{path}: must be an object")
        return None
    _reject_unknown(block, path, ("slit_um", "depth_mm", "pd_length_mm",
                                  "n_ris", "n_air"), errors)
    slit = _take_number(block, path, "slit_um", errors)
    depth = _take_number(block, path, "depth_mm", errors)
    pd = _take_number(block, path, "pd_length_mm", errors)
    n_ris = _take_number(block, path, "n_ris", errors)
    n_air = _take_number(block, path, "n_air", errors, required=False, default=1.0)
    if None in (slit, depth, pd, n_ris):
        return None
    # Field-level invariant checks so every violation is reported at once.
    before = len(errors)
    _check_bounds(path, "slit_um", slit, errors)
    _check_bounds(path, "depth_mm", depth, errors)
    _check_bounds(path, "pd_length_mm", pd, errors)
    if not 1.0 <= n_air <= 1.001:
        errors.append(f"{path}.n_air: must lie in [1.0, 1.001], got {n_air:g}")
    _check_bounds(path, "n_ris", n_ris, errors)
    if len(errors) > before:
        return None
    return SteeringGeometry(slit_um=slit, depth_mm=depth, pd_length_mm=pd,
                            n_ris=n_ris, n_air=n_air)


def _parse_wave(block: Any, errors: list[str]) -> IncidentWave | None:
    path = "wave"
    if not isinstance(block, dict):
        errors.append(f"{path}: must be an object")
        return None
    _reject_unknown(block, path, ("wavelength_nm", "incidence_deg",
                                  "power_w", "order"), errors)
    lam = _take_number(block, path, "wavelength_nm", errors)
    inc = _take_number(block, path, "incidence_deg", errors)
    power = _take_number(block, path, "power_w", errors, required=False, default=1.0)
    order = _take_number(block, path, "order", errors, required=False,
                         default=1, integer=True)
    if None in (lam, inc):
        return None
    before = len(errors)
    _check_bounds(path, "wavelength_nm", lam, errors)
    _check_bounds(path, "incidence_deg", inc, errors)
    _check_bounds(path, "power_w", power, errors)
    if order not in (0, 1, 2, 3):
        errors.append(f"{path}.order: must be one of 0..3, got {order!r}")
    if len(errors) > before:
        return None
    return IncidentWave(wavelength=Wavelength(lam),
                        incidence=Angle.from_degrees(inc),
                        power_w=power, order=order)


def _parse_actuator(block: Any, geometry: SteeringGeometry | None,
                    errors: list[str]) -> Actuator | None:
    path = "actuator"
    if not isinstance(block, dict):
        errors.append(f"{path}: must be an object")
        return None
    if "preset" in block:
        _reject_unknown(block, path, ("preset",), errors)
        name = block["preset"]
        if name not in PRESET_NAMES:
            errors.append(f"{path}.preset: unknown preset {name!r}; "
                          f"available: {', '.join(PRESET_NAMES)}")
            return None
        return actuator_preset(name, base_geometry=geometry)
    kind = block.get("type")
    if kind == "metalens":
        _reject_unknown(block, path, ("type", "v_max_v", "stretch_max"), errors)
        v_max = _take_number(block, path, "v_max_v", errors)
        stretch = _take_number(block, path, "stretch_max", errors)
        if None in (v_max, stretch) or geometry is None:
            return None
        try:
            return MetaLensActuator(v_max_v=v_max, stretch_max=stretch,
                                    base_geometry=geometry)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return None
    if kind == "lc":
        _reject_unknown(block, path, ("type", "v_on_v", "v_sat_v",
                                      "n_base", "delta_n"), errors)
        v_on = _take_number(block, path, "v_on_v", errors, required=False, default=3.0)
        v_sat = _take_number(block, path, "v_sat_v", errors, required=False, default=5.0)
        n_base = _take_number(block, path, "n_base", errors)
        delta = _take_number(block, path, "delta_n", errors, required=False, default=0.3)
        if n_base is None:
            return None
        try:
            return LiquidCrystalActuator(v_on_v=v_on, v_sat_v=v_sat,
                                         n_base=n_base, delta_n=delta)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
            return None
    errors.append(f"{path}.type: must be 'metalens' or 'lc' (or use 'preset'), "
                  f"got {kind!r}")
    return None


def _parse_curves(block: Any, path: str, has_actuator: bool, errors: list[str],
                  forbidden_parameter: str | None = None
                  ) -> tuple[str, tuple[float, ...]] | None:
    if not isinstance(block, dict) or len(block) != 1:
        errors.append(f"{path}: must be an object with exactly one curve key")
        return None
    key, values = next(iter(block.items()))
    if key not in CURVE_KEYS:
        errors.append(f"{path}.{key}: curve key must be one of {CURVE_KEYS}")
        return None
    if key == _PARAM_FIELD.get(forbidden_parameter):
        errors.append(f"{path}.{key}: curve parameter duplicates the sweep parameter")
        return None
    if not (isinstance(values, list) and values
            and all(_is_number(v) for v in values)):
        errors.append(f"{path}.{key}: must be a non-empty list of numbers")
        return None
    if key == "voltage_v" and not has_actuator:
        errors.append(f"{path}: voltage curve requires an actuator block")
    for k, v in enumerate(values):
        _check_bounds(path, key, v, errors, f"[{k}]")
    return (key, tuple(float(v) for v in values))


def _parse_profile(block: Any, has_actuator: bool,
                   errors: list[str]) -> ProfileSpec | None:
    path = "profile"
    if not isinstance(block, dict):
        errors.append(f"{path}: must be an object")
        return None
    _reject_unknown(block, path, ("samples", "curves"), errors)
    samples = _take_number(block, path, "samples", errors, integer=True)
    if samples is not None and samples < 3:
        errors.append(f"{path}.samples: must be >= 3, got {samples}")
        samples = None
    curves = None
    if "curves" in block:
        curves = _parse_curves(block["curves"], f"{path}.curves", has_actuator,
                               errors)
        if curves is None:
            return None
    if samples is None:
        return None
    return ProfileSpec(samples=samples, curves=curves)


def _parse_sweep(block: Any, has_actuator: bool,
                 errors: list[str]) -> SweepSpec | None:
    path = "sweep"
    if not isinstance(block, dict):
        errors.append(f"{path}: must be an object")
        return None
    parameter = block.get("parameter")
    if parameter not in SWEEP_PARAMETERS:
        errors.append(f"{path}.parameter: must be one of {SWEEP_PARAMETERS}, "
                      f"got {parameter!r}")
        return None
    suffix = _PARAM_SUFFIX[parameter]
    from_key, to_key = f"from_{suffix}", f"to_{suffix}"
    _reject_unknown(block, path, ("parameter", from_key, to_key, "steps",
                                  "spacing", "curves", "baseline"), errors)
    start = _take_number(block, path, from_key, errors)
    stop = _take_number(block, path, to_key, errors)
    steps = _take_number(block, path, "steps", errors, integer=True)
    spacing = block.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        errors.append(f"{path}.spacing: must be 'linear' or 'log', got {spacing!r}")
    if steps is not None and steps < 2:
        errors.append(f"{path}.steps: must be >= 2, got {steps}")
    for key, value in ((from_key, start), (to_key, stop)):
        if value is not None:
            _check_bounds(path, key, value, errors,
                          field=_PARAM_FIELD[parameter])
    if None not in (start, stop) and not start < stop:
        errors.append(f"{path}: need {from_key} < {to_key}, "
                      f"got {start!r} >= {stop!r}")
    if parameter == "voltage" and not has_actuator:
        errors.append(f"{path}: voltage sweep requires an actuator block")
    curves = None
    if "curves" in block:
        curves = _parse_curves(block["curves"], f"{path}.curves", has_actuator,
                               errors, forbidden_parameter=parameter)
    baseline = None
    if "baseline" in block:
        b = block["baseline"]
        if not (isinstance(b, dict) and b
                and all(k in _BASELINE_KEYS and _is_number(v)
                        for k, v in b.items())):
            errors.append(f"{path}.baseline: must map keys from "
                          f"{_BASELINE_KEYS} to numbers")
        else:
            for k, v in b.items():
                _check_bounds(f"{path}.baseline", k, v, errors)
            baseline = tuple((k, float(v)) for k, v in b.items())
    if None in (start, stop, steps) or spacing not in ("linear", "log"):
        return None
    return SweepSpec(parameter=parameter, start=start, stop=stop, steps=steps,
                     spacing=spacing, curves=curves, baseline=baseline)


def _parse_design(block: Any, geometry: SteeringGeometry | None,
                  wave: IncidentWave | None, has_actuator: bool,
                  errors: list[str]) -> DesignTarget | None:
    path = "design"
    if not isinstance(block, dict):
        errors.append(f"{path}: must be an object")
        return None
    kind = block.get("kind")
    if kind not in TARGET_KINDS:
        errors.append(f"{path}.kind: must be one of {TARGET_KINDS}, got {kind!r}")
        return None
    value_key = "value_deg" if kind == "refraction_angle" else "value_mm"
    _reject_unknown(block, path, ("kind", value_key, "free"), errors)
    value = _take_number(block, path, value_key, errors)
    free = block.get("free")
    if free not in ("n_ris", "depth", "voltage"):
        errors.append(f"{path}.free: must be one of ('n_ris', 'depth', "
                      f"'voltage'), got {free!r}")
        return None
    if free == "voltage" and not has_actuator:
        errors.append(f"{path}: voltage solve requires an actuator block")
        return None
    if free == "n_ris" and kind != "refraction_angle":
        errors.append(f"{path}: free variable n_ris solves only "
                      f"refraction_angle targets, got kind {kind!r}")
        return None
    if free == "depth" and kind != "spot_width":
        errors.append(f"{path}: free variable depth solves only "
                      f"spot_width targets, got kind {kind!r}")
        return None
    if value is None or geometry is None or wave is None:
        return None
    try:
        return DesignTarget(kind=kind, value=value, wave=wave,
                            geometry=geometry, free=free)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _parse_bench(block: Any, errors: list[str]) -> BenchSpec | None:
    path = "bench"
    if not isinstance(block, dict):
        errors.append(f"{path}: must be an object")
        return None
    _reject_unknown(block, path, ("front_ends", "step_deg"), errors)
    fes = block.get("front_ends")
    if fes == "all":
        kinds = BENCH_KINDS
    elif isinstance(fes, list) and fes and all(isinstance(k, str) for k in fes):
        bad = [k for k in fes if k not in BENCH_KINDS]
        if bad:
            errors.append(f"{path}.front_ends: unknown kind(s) {bad}; "
                          f"valid: {BENCH_KINDS}")
            return None
        kinds = tuple(fes)
    else:
        errors.append(f"{path}.front_ends: must be 'all' or a non-empty "
                      f"list of kinds")
        return None
    step = _take_number(block, path, "step_deg", errors)
    if step is None:
        return None
    if not 0.0 < step <= 90.0:
        errors.append(f"{path}.step_deg: must lie in (0, 90], got {step:g}")
        return None
    return BenchSpec(front_ends=kinds, step_deg=step)


def scenario_from_dict(data: dict, name: str = "scenario") -> Scenario:
    """Validate a scenario dictionary; raises ScenarioError with every
    violation batched."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError(["scenario root must be an object"])
    _reject_unknown(data, "", ("name", "geometry", "wave", "actuator",
                               "profile", "sweep", "design", "bench"), errors)
    _check_unit_keys(data, "", errors)
    if "name" in data:
        if isinstance(data["name"], str) and data["name"]:
            name = data["name"]
        else:
            errors.append("name: must be a non-empty string")

    geometry = _parse_geometry(data.get("geometry"), errors) \
        if "geometry" in data else None
    if "geometry" not in data:
        errors.append("geometry: required block missing")
    wave = _parse_wave(data.get("wave"), errors) if "wave" in data else None
    if "wave" not in data:
        errors.append("wave: required block missing")

    actuator = None
    if "actuator" in data:
        actuator = _parse_actuator(data["actuator"], geometry, errors)

    active = [k for k in ("sweep", "design", "bench") if k in data]
    if len(active) > 1:
        errors.append(f"exactly one of sweep/design/bench may be active, "
                      f"got {active}")
    if "profile" in data and active:
        errors.append("profile: only valid for single-evaluation scenarios")

    profile = _parse_profile(data["profile"], actuator is not None, errors) \
        if "profile" in data else None
    sweep = _parse_sweep(data["sweep"], actuator is not None, errors) \
        if "sweep" in data else None
    design = _parse_design(data["design"], geometry, wave,
                           actuator is not None, errors) \
        if "design" in data else None
    bench = _parse_bench(data["bench"], errors) if "bench" in data else None

    if errors:
        raise ScenarioError(errors)
    return Scenario(name=name, geometry=geometry, wave=wave, actuator=actuator,
                    profile=profile, sweep=sweep, design=design, bench=bench)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file.

    Parse errors are position-annotated; validation errors are batched.
    """
    path = Path(path)
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    return scenario_from_dict(data, name=path.stem)

