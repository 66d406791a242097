"""Scenario execution: sweep orchestration and CSV artifact output.

The only module with side effects.  Data files are deterministic: one
header row, '.' decimal separator, 17-significant-digit floats, fixed row
order, no timestamps (run metadata goes to a JSON sidecar).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from . import __version__
from .bench import compare_table, default_front_end, format_table, table_to_csv
from .diffraction import (NullBeyondHorizon, first_null_angle, profile_on_pd,
                          pattern_power_fraction)
from .optics import (Angle, EvanescentOrder, IncidentWave, SteeringGeometry,
                     Wavelength, refraction_angle)
from .radiometry import TransmittanceResult, transmittance
from .scenario import Scenario, SweepSpec, load_scenario
from .tuning import (Actuator, LiquidCrystalActuator, MetaLensActuator,
                     lc_apply, metalens_apply, solve_depth_for_spot,
                     solve_index_for_angle, solve_voltage)

__all__ = ["RunReport", "run", "run_bundled", "bundled_scenario_names",
           "bundled_scenario_path"]

_ROW_ERRORS = (EvanescentOrder, ValueError)

_METRIC_COLUMNS = ["refraction_angle_deg", "first_null_angle_deg",
                   "full_width_mm", "pd_coverage", "transmittance",
                   "incidence_factor", "captured_power_w"]

_PARAM_COLUMN = {"wavelength": "wavelength_nm", "n_ris": "n_ris",
                 "depth": "depth_mm", "incidence": "incidence_deg",
                 "voltage": "voltage_v"}


@dataclass(frozen=True)
class RunReport:
    artifacts: tuple[Path, ...]
    summaries: tuple[str, ...]


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _apply_override(key: str, value: float, geom: SteeringGeometry,
                    wave: IncidentWave, actuator: Actuator | None
                    ) -> tuple[SteeringGeometry, IncidentWave]:
    if key in ("wavelength", "wavelength_nm"):
        return geom, replace(wave, wavelength=Wavelength(value))
    if key in ("incidence", "incidence_deg"):
        return geom, replace(wave, incidence=Angle.from_degrees(value))
    if key == "n_ris":
        return replace(geom, n_ris=value), wave
    if key in ("depth", "depth_mm"):
        return replace(geom, depth_mm=value), wave
    if key in ("voltage", "voltage_v"):
        if isinstance(actuator, MetaLensActuator):
            return metalens_apply(replace(actuator, base_geometry=geom), value), wave
        if isinstance(actuator, LiquidCrystalActuator):
            return lc_apply(actuator, value, geom), wave
        raise ValueError("voltage override requires an actuator")
    raise ValueError(f"unknown override key {key!r}")


def _metric_cells(geom: SteeringGeometry, wave: IncidentWave
                  ) -> tuple[list[str], TransmittanceResult]:
    theta = refraction_angle(geom, wave)
    try:
        null = first_null_angle(geom, wave)
        width = 2.0 * geom.depth_mm * math.tan(null.radians)
        null_deg = null.degrees
    except NullBeyondHorizon:
        width = math.inf
        null_deg = 90.0
    coverage = pattern_power_fraction(geom, wave, geom.pd_length_mm / 2)
    tr = transmittance(geom, wave, capture=coverage)
    cells = [_fmt(theta.degrees), _fmt(null_deg), _fmt(width), _fmt(coverage),
             _fmt(tr.value), _fmt(tr.incidence_factor), _fmt(tr.captured_power_w)]
    return cells, tr


def _sweep_grid(spec: SweepSpec) -> list[float]:
    n = spec.steps
    if spec.spacing == "log":
        ratio = (spec.stop / spec.start) ** (1.0 / (n - 1))
        return [spec.start * ratio ** k for k in range(n - 1)] + [spec.stop]
    step = (spec.stop - spec.start) / (n - 1)
    return [spec.start + step * k for k in range(n - 1)] + [spec.stop]


def _run_sweep(sc: Scenario, out_dir: Path) -> tuple[Path, str]:
    spec = sc.sweep
    grid = _sweep_grid(spec)
    curve_values: list[float | None]
    if spec.curves is not None:
        curve_key, values = spec.curves
        curve_values = list(values)
    else:
        curve_key, curve_values = None, [None]

    header = []
    if curve_key is not None:
        header.append(curve_key)
    header.append(_PARAM_COLUMN[spec.parameter])
    header += _METRIC_COLUMNS
    if spec.baseline is not None:
        header.append("tuning_gain")
    header.append("error")

    rows: list[list[str]] = []
    n_err = 0
    for cv in curve_values:
        for pv in grid:
            lead = [] if cv is None else [_fmt(cv)]
            lead.append(_fmt(pv))
            try:
                geom, wave = sc.geometry, sc.wave
                if cv is not None:
                    geom, wave = _apply_override(curve_key, cv, geom, wave,
                                                 sc.actuator)
                geom, wave = _apply_override(spec.parameter, pv, geom, wave,
                                             sc.actuator)
                cells, tr = _metric_cells(geom, wave)
                if spec.baseline is not None:
                    base_geom = replace(geom, **dict(spec.baseline))
                    gain = tr.value - transmittance(base_geom, wave).value
                    cells.append(_fmt(gain))
                rows.append(lead + cells + [""])
            except _ROW_ERRORS as exc:
                n_err += 1
                pad = len(header) - len(lead) - 1
                rows.append(lead + [""] * pad + [type(exc).__name__])
    path = out_dir / f"{sc.name}_sweep.csv"
    _write_csv(path, header, rows)
    note = f" ({n_err} point(s) failed)" if n_err else ""
    return path, f"{path.name}: {len(rows)} rows{note}"


def _run_eval(sc: Scenario, out_dir: Path) -> list[tuple[Path, str]]:
    artifacts = [(out_dir / f"{sc.name}_summary.csv", "")]
    cells, _ = _metric_cells(sc.geometry, sc.wave)
    _write_csv(artifacts[0][0], _METRIC_COLUMNS, [cells])
    artifacts[0] = (artifacts[0][0], f"{artifacts[0][0].name}: 1 row")
    if sc.profile is not None:
        path = out_dir / f"{sc.name}_profile.csv"
        if sc.profile.curves is None:
            prof = profile_on_pd(sc.geometry, sc.wave, sc.profile.samples)
            header = ["position_mm", "relative_intensity"]
            rows = [[_fmt(u), _fmt(i)] for u, i in
                    zip(prof.positions_mm, prof.relative_intensity)]
        else:
            curve_key, values = sc.profile.curves
            header = [curve_key, "position_mm", "relative_intensity"]
            rows = []
            for cv in values:
                geom, wave = _apply_override(curve_key, cv, sc.geometry,
                                             sc.wave, sc.actuator)
                prof = profile_on_pd(geom, wave, sc.profile.samples)
                rows += [[_fmt(cv), _fmt(u), _fmt(i)] for u, i in
                         zip(prof.positions_mm, prof.relative_intensity)]
        _write_csv(path, header, rows)
        artifacts.append((path, f"{path.name}: {len(rows)} rows"))
    return artifacts


def _run_design(sc: Scenario, out_dir: Path) -> tuple[Path, str]:
    target = sc.design
    geom, wave = sc.geometry, sc.wave
    if target.free == "n_ris":
        solved = solve_index_for_angle(wave, geom.slit_um,
                                       Angle.from_degrees(target.value),
                                       n_air=geom.n_air)
        solved_col = "solved_n_ris"
        achieved = refraction_angle(replace(geom, n_ris=solved), wave).degrees
    elif target.free == "depth":
        solved = solve_depth_for_spot(geom.slit_um, geom.n_ris, wave,
                                      target.value, n_air=geom.n_air)
        solved_col = "solved_depth_mm"
        probe = replace(geom, depth_mm=solved)
        achieved = 2.0 * solved * math.tan(first_null_angle(probe, wave).radians)
    else:
        solved = solve_voltage(target, sc.actuator)
        solved_col = "solved_voltage_v"
        if isinstance(sc.actuator, MetaLensActuator):
            state = metalens_apply(replace(sc.actuator, base_geometry=geom), solved)
        else:
            state = lc_apply(sc.actuator, solved, geom)
        if target.kind == "refraction_angle":
            achieved = refraction_angle(state, wave).degrees
        elif target.kind == "spot_width":
            achieved = 2.0 * state.depth_mm * math.tan(
                first_null_angle(state, wave).radians)
        else:
            achieved = state.depth_mm * math.tan(refraction_angle(state, wave).radians)
    unit = "deg" if target.kind == "refraction_angle" else "mm"
    path = out_dir / f"{sc.name}_design.csv"
    _write_csv(path,
               ["kind", "free", f"target_{unit}", solved_col, f"achieved_{unit}"],
               [[target.kind, target.free, _fmt(target.value), _fmt(solved),
                 _fmt(achieved)]])
    return path, f"{path.name}: {target.free} = {solved:.9g}"


def _run_bench(sc: Scenario, out_dir: Path) -> list[tuple[Path, str]]:
    roster = [default_front_end(k) for k in sc.bench.front_ends]
    rows = compare_table(roster, sc.bench.step_deg)
    csv_path = out_dir / f"{sc.name}_bench.csv"
    table_to_csv(rows, csv_path)
    txt_path = out_dir / f"{sc.name}_bench.txt"
    txt_path.write_text(format_table(rows) + "\n")
    return [(csv_path, f"{csv_path.name}: {len(rows)} front-end(s)"),
            (txt_path, f"{txt_path.name}: aligned table")]


def run(scenario: Scenario, out_dir: str | Path, *, quiet: bool = False) -> RunReport:
    """Execute a scenario and write its artifacts into ``out_dir``.

    Returns the artifact paths and one summary line per artifact; the
    summary lines are also printed unless ``quiet``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = scenario.mode
    if mode == "sweep":
        produced = [_run_sweep(scenario, out_dir)]
    elif mode == "design":
        produced = [_run_design(scenario, out_dir)]
    elif mode == "bench":
        produced = _run_bench(scenario, out_dir)
    else:
        produced = _run_eval(scenario, out_dir)

    sidecar = out_dir / f"{scenario.name}.meta.json"
    sidecar.write_text(json.dumps({
        "scenario": scenario.name,
        "mode": mode,
        "toolkit_version": __version__,
        "unix_time": time.time(),
    }, indent=2) + "\n")

    paths = tuple(p for p, _ in produced)
    summaries = tuple(s for _, s in produced)
    if not quiet:
        for line in summaries:
            print(line)
    return RunReport(artifacts=paths, summaries=summaries)


def bundled_scenario_names() -> list[str]:
    """Names of the shipped figure-reproduction scenarios."""
    root = resources.files("ris_vlc").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario_path(name: str) -> Path:
    path = Path(str(resources.files("ris_vlc").joinpath("scenarios",
                                                        f"{name}.json")))
    if not path.exists():
        raise FileNotFoundError(
            f"no bundled scenario {name!r}; available: "
            f"{', '.join(bundled_scenario_names())}")
    return path


def run_bundled(out_dir: str | Path, *, quiet: bool = False) -> RunReport:
    """Run every bundled figure scenario (deterministic artifact set)."""
    artifacts: list[Path] = []
    summaries: list[str] = []
    for name in bundled_scenario_names():
        report = run(load_scenario(bundled_scenario_path(name)), out_dir,
                     quiet=quiet)
        artifacts += list(report.artifacts)
        summaries += list(report.summaries)
    return RunReport(artifacts=tuple(artifacts), summaries=tuple(summaries))
