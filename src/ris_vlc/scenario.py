"""Scenario files: validated JSON descriptions of a single run.

Each block accepts a fixed set of keys and rejects any other; every
numeric key it accepts carries a unit suffix (_nm, _um, _mm, _deg, _v,
_w) or names a dimensionless quantity.  Validation is batched: all
violations are reported together with their field paths, not just the
first.

A scenario activates exactly one of
  * single evaluation (optionally with a sampled detector profile),
  * a parameter sweep (optionally with a curve family and a gain baseline),
  * an inverse-design solve,
  * a front-end benchmark.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any

from . import bench, diffraction, optics, tuning
from .optics import Bound, IncidentWave, SteeringGeometry
from .tuning import (FREE_VARIABLES, PRESET_NAMES, TARGET_KINDS, Actuator,
                     DesignTarget, LiquidCrystalActuator, MetaLensActuator,
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

SWEEP_PARAMETERS = ("wavelength", "n_ris", "depth", "incidence", "voltage")
# Bound-key suffix per sweep parameter ("index" marks a dimensionless bound).
_PARAM_SUFFIX = {"wavelength": "nm", "n_ris": "index", "depth": "mm",
                 "incidence": "deg", "voltage": "v"}
CURVE_KEYS = ("wavelength_nm", "n_ris", "depth_mm", "incidence_deg", "voltage_v")
# The field a sweep parameter sets, which its bounds and curve keys name.
_PARAM_FIELD = dict(zip(SWEEP_PARAMETERS, CURVE_KEYS))
_BASELINE_KEYS = ("depth_mm", "n_ris", "slit_um")
_SPACINGS = ("linear", "log")
# Every bounded field, from the module that owns it; sweep ranges, curve
# members and baselines are held to the bound of the field they set.
_BOUNDS = {**optics.BOUNDS, **tuning.BOUNDS, **diffraction.BOUNDS,
           **bench.BOUNDS,
           "steps": Bound(lambda n: 2 <= n <= 10**5, "lie in [2, 100000]",
                          integer=True)}


def _defaults(cls: type, *names: str) -> dict[str, Any]:
    """Key -> default of the named fields of ``cls`` (all of them when none
    are named); MISSING marks a required key."""
    given = {f.name: f.default for f in fields(cls)}
    return {name: given[name] for name in names or given}


# The numeric keys of each block with their defaults.
_GEOMETRY = _defaults(SteeringGeometry)
_WAVE = _defaults(IncidentWave)
_METALENS = _defaults(MetaLensActuator, "v_max_v", "stretch_max")
# A scenario names its liquid-crystal base index; the class default is
# the preset's.
_LC = {**_defaults(LiquidCrystalActuator), "n_base": MISSING}


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


def _real(value: int | float) -> float:
    """``value`` as a float.  An integer literal beyond float range reads
    as the infinity of its sign, as the same number written with an
    exponent does in JSON, so that its field's bound rejects it."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _take(block: dict, path: str, key: str, errors: list[str],
          default: Any = MISSING) -> Any:
    """``block[key]`` as a float, or as an int for an integer field;
    ``default`` when the key is absent (a violation when MISSING) or the
    value has the wrong type."""
    if key not in block:
        if default is MISSING:
            errors.append(f"{path}.{key}: required key missing")
        return default
    value = block[key]
    integer = key in _BOUNDS and _BOUNDS[key].integer
    if _is_number(value) and (isinstance(value, int) or not integer):
        return value if integer else _real(value)
    kind = "an integer" if integer else "a number"
    errors.append(f"{path}.{key}: must be {kind}, got {value!r}")
    return default


def _bounded(path: str, key: str, value: Any, errors: list[str],
             index: str = "", field: str | None = None) -> bool:
    """Whether ``value`` meets the bound of ``field`` (``key`` by default);
    a violation is recorded under ``path.key`` plus ``index``."""
    bound = _BOUNDS[field or key]
    if bound.ok(value):
        return True
    errors.append(f"{path}.{key}{index}: must {bound.text}, got {value!r}")
    return False


def _reject_unknown(block: dict, path: str, known: tuple[str, ...],
                    errors: list[str]) -> None:
    for key in block:
        if key not in known:
            errors.append(f"{path}.{key}: unknown key")


def _read(block: dict, path: str, spec: dict[str, Any], errors: list[str],
          also: tuple[str, ...] = ()) -> dict[str, Any] | None:
    """The numeric fields of ``spec`` (key -> default) read from ``block``,
    which may hold the keys ``also`` besides; None when a required field
    is missing or mistyped, or any field is out of bounds."""
    _reject_unknown(block, path, (*also, *spec), errors)
    values = {key: _take(block, path, key, errors, default)
              for key, default in spec.items()}
    if MISSING in values.values():
        return None
    # Bounds in table order, so that every block reports them alike.
    ok = [_bounded(path, key, values[key], errors)
          for key in _BOUNDS if key in values]
    return values if all(ok) else None


def _parse_geometry(block: dict, errors: list[str]) -> SteeringGeometry | None:
    values = _read(block, "geometry", _GEOMETRY, errors)
    return None if values is None else SteeringGeometry(**values)


def _parse_wave(block: dict, errors: list[str]) -> IncidentWave | None:
    values = _read(block, "wave", _WAVE, errors)
    return None if values is None else IncidentWave(**values)


def _parse_actuator(block: dict, geometry: SteeringGeometry | None,
                    errors: list[str]) -> Actuator | None:
    path = "actuator"
    kind = block.get("type")
    if "preset" in block:
        _reject_unknown(block, path, ("preset",), errors)
        name = block["preset"]
        if name not in PRESET_NAMES:
            errors.append(f"{path}.preset: unknown preset {name!r}; "
                          f"available: {', '.join(PRESET_NAMES)}")
            return None
        make = lambda: actuator_preset(name, base_geometry=geometry)
    elif kind == "metalens":
        values = _read(block, path, _METALENS, errors, also=("type",))
        if values is None or geometry is None:
            return None
        make = lambda: MetaLensActuator(base_geometry=geometry, **values)
    elif kind == "lc":
        values = _read(block, path, _LC, errors, also=("type",))
        if values is None:
            return None
        make = lambda: LiquidCrystalActuator(**values)
    else:
        errors.append(f"{path}.type: must be 'metalens' or 'lc' (or use "
                      f"'preset'), got {kind!r}")
        return None
    try:  # the rules that tie fields together
        return make()
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
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
    values = tuple(map(_real, values))
    for k, v in enumerate(values):
        _bounded(path, key, v, errors, f"[{k}]")
    return (key, values)


def _parse_profile(block: dict, has_actuator: bool,
                   errors: list[str]) -> ProfileSpec | None:
    values = _read(block, "profile", {"samples": MISSING}, errors,
                   also=("curves",))
    curves = (_parse_curves(block["curves"], "profile.curves", has_actuator,
                            errors) if "curves" in block else None)
    if values is None or ("curves" in block and curves is None):
        return None
    return ProfileSpec(curves=curves, **values)


def _parse_sweep(block: dict, has_actuator: bool,
                 errors: list[str]) -> SweepSpec | None:
    path = "sweep"
    parameter = block.get("parameter")
    if parameter not in SWEEP_PARAMETERS:
        errors.append(f"{path}.parameter: must be one of {SWEEP_PARAMETERS}, "
                      f"got {parameter!r}")
        return None
    suffix = _PARAM_SUFFIX[parameter]
    from_key, to_key = f"from_{suffix}", f"to_{suffix}"
    _reject_unknown(block, path, ("parameter", from_key, to_key, "steps",
                                  "spacing", "curves", "baseline"), errors)
    # Unlike a block of fields, a sweep reports the bound of every value
    # it could read, even when another one is missing.
    start, stop, steps = (_take(block, path, key, errors)
                          for key in (from_key, to_key, "steps"))
    spacing = block.get("spacing", "linear")
    if spacing not in _SPACINGS:
        errors.append(f"{path}.spacing: must be 'linear' or 'log', got {spacing!r}")
    if steps is not MISSING:
        _bounded(path, "steps", steps, errors)
    field = _PARAM_FIELD[parameter]
    if start is not MISSING and _bounded(path, from_key, start, errors,
                                         field=field) \
            and spacing == "log" and not start > 0:
        errors.append(f"{path}.{from_key}: must be > 0 for log spacing, "
                      f"got {start!r}")
    if stop is not MISSING:
        _bounded(path, to_key, stop, errors, field=field)
    if MISSING not in (start, stop) and not start < stop:
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
            baseline = tuple((k, _real(v)) for k, v in b.items())
            for k, v in baseline:
                _bounded(f"{path}.baseline", k, v, errors)
    if MISSING in (start, stop, steps) or spacing not in _SPACINGS:
        return None
    return SweepSpec(parameter=parameter, start=start, stop=stop, steps=steps,
                     spacing=spacing, curves=curves, baseline=baseline)


def _parse_design(block: dict, geometry: SteeringGeometry | None,
                  wave: IncidentWave | None, has_actuator: bool,
                  errors: list[str]) -> DesignTarget | None:
    path = "design"
    kind = block.get("kind")
    if kind not in TARGET_KINDS:
        errors.append(f"{path}.kind: must be one of {TARGET_KINDS}, got {kind!r}")
        return None
    value_key = "value_deg" if kind == "refraction_angle" else "value_mm"
    _reject_unknown(block, path, ("kind", value_key, "free"), errors)
    value = _take(block, path, value_key, errors)
    free = block.get("free")
    if free not in FREE_VARIABLES:
        errors.append(f"{path}.free: must be one of {FREE_VARIABLES}, "
                      f"got {free!r}")
        return None
    if free == "voltage" and not has_actuator:
        errors.append(f"{path}: voltage solve requires an actuator block")
        return None
    try:
        # The free/kind rule first, so that it is reported beside a
        # missing value or an invalid geometry or wave block.
        DesignTarget.check_free(kind, free)
        if value is MISSING or geometry is None or wave is None:
            return None
        return DesignTarget(kind=kind, value=value, wave=wave,
                            geometry=geometry, free=free)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _parse_bench(block: dict, errors: list[str]) -> BenchSpec | None:
    path = "bench"
    _reject_unknown(block, path, ("front_ends", "step_deg"), errors)
    fes = block.get("front_ends")
    if fes == "all":
        kinds = bench.KINDS
    elif isinstance(fes, list) and fes and all(isinstance(k, str) for k in fes):
        bad = [k for k in fes if k not in bench.KINDS]
        if bad:
            errors.append(f"{path}.front_ends: unknown kind(s) {bad}; "
                          f"valid: {bench.KINDS}")
            return None
        kinds = tuple(fes)
    else:
        errors.append(f"{path}.front_ends: must be 'all' or a non-empty "
                      f"list of kinds")
        return None
    step = _take(block, path, "step_deg", errors)
    if step is MISSING or not _bounded(path, "step_deg", step, errors):
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
    if "name" in data:
        given = data["name"]
        if not (isinstance(given, str) and given):
            errors.append("name: must be a non-empty string")
        elif given in (".", "..") or any(sep and sep in given for sep in
                                         ("/", os.sep, os.altsep, "\0")):
            # it prefixes every artifact, which must stay inside --out
            errors.append(f"name: must be a single path component (no "
                          f"separator or NUL, not '.' or '..'), got {given!r}")
        else:
            name = given

    def parse(key: str, parser, *args):
        if key not in data:
            if key in ("geometry", "wave"):
                errors.append(f"{key}: required block missing")
        elif not isinstance(data[key], dict):
            errors.append(f"{key}: must be an object")
        else:
            return parser(data[key], *args, errors)
        return None

    geometry = parse("geometry", _parse_geometry)
    wave = parse("wave", _parse_wave)
    actuator = parse("actuator", _parse_actuator, geometry)

    active = [k for k in ("sweep", "design", "bench") if k in data]
    if len(active) > 1:
        errors.append(f"exactly one of sweep/design/bench may be active, "
                      f"got {active}")
    if "profile" in data and active:
        errors.append("profile: only valid for single-evaluation scenarios")

    # An invalid actuator block is reported once, as itself, and not again
    # by every block that needs an actuator.
    has_actuator = "actuator" in data
    profile = parse("profile", _parse_profile, has_actuator)
    sweep = parse("sweep", _parse_sweep, has_actuator)
    design = parse("design", _parse_design, geometry, wave, has_actuator)
    bench_spec = parse("bench", _parse_bench)

    if errors:
        raise ScenarioError(errors)
    return Scenario(name=name, geometry=geometry, wave=wave, actuator=actuator,
                    profile=profile, sweep=sweep, design=design,
                    bench=bench_spec)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file.

    Parse errors are position-annotated; validation errors are batched.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer literal beyond Python's
        # digit limit, or nesting beyond the decoder's recursion limit
        raise ScenarioError([f"parse error: {exc}"]) from exc
    return scenario_from_dict(data, name=path.stem)

