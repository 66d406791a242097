"""Scenario execution: sweep orchestration and CSV artifact output.

The only module with side effects.  Data files are deterministic: one
header row, '.' decimal separator, 17-significant-digit floats, fixed row
order, no timestamps (run metadata goes to a JSON sidecar).  ``_write_csv``
streams sweep, summary, design and bench rows, each from one ``%``
template; detector-profile rows, the bulk of the output, are formatted in
numpy by ``_profile_rows`` with the same bytes as '%.17g'.  Text cells
come only from validated vocabularies, so no cell needs quoting.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Iterable

from . import __version__
from .bench import compare_table, default_front_end, format_table, table_to_csv
from .diffraction import profile_on_pd, spot_report
from .optics import (Angle, EvanescentOrder, IncidentWave, SteeringGeometry,
                     Wavelength)
from .radiometry import TransmittanceResult, transmittance
from .scenario import _PARAM_FIELD, Scenario, SweepSpec, load_scenario
from .tuning import (Actuator, _evaluate_metric, drive_map,
                     solve_depth_for_spot, solve_index_for_angle,
                     solve_voltage)

__all__ = ["RunReport", "run", "run_bundled", "bundled_scenario_names",
           "bundled_scenario_path"]

_ROW_ERRORS = (EvanescentOrder, ValueError)

_METRIC_COLUMNS = ["refraction_angle_deg", "first_null_angle_deg",
                   "full_width_mm", "pd_coverage", "transmittance",
                   "incidence_factor", "captured_power_w"]


@dataclass(frozen=True)
class RunReport:
    artifacts: tuple[Path, ...]
    summaries: tuple[str, ...]


_CELL = "%.17g"


def _template(n_floats: int, prefix: str = "", suffix: str = "") -> str:
    """``prefix`` + n float cells + ``suffix`` + newline; no '%' in either."""
    return prefix + ",".join([_CELL] * n_floats) + suffix + "\n"


# Profile rows are formatted in numpy this many at a time, so the working
# arrays stay the same size whatever the sample count.
_CHUNK_ROWS = 2048


def _profile_rows(prefix: str, positions, intensities) -> bytes:
    """The rows ``prefix`` + position + intensity, each cell byte for byte
    ``'%.17g' % x``.

    Every cell is laid out in fixed NUL-padded byte slots
    (``_g17.cell_words``), _CHUNK_ROWS rows at a time; the NULs are then
    deleted and ``prefix`` put in front of every row.
    """
    import numpy as np

    from ._g17 import END, cell_words

    positions = np.asarray(positions, np.float64)
    intensities = np.asarray(intensities, np.float64)
    ends = np.array([ord(","), ord("\n")], np.uint64) << 8 * (END % 8)
    cells = np.empty(2 * min(len(positions), _CHUNK_ROWS))
    parts = []
    for start in range(0, len(positions), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        v = cells[:2 * len(positions[start:stop])]
        v[0::2] = positions[start:stop]
        v[1::2] = intensities[start:stop]
        words, fallback = cell_words(v)
        words.reshape(-1, 2, 4)[:, :, 3] |= ends
        chars = words.view(np.uint8)
        for j in np.flatnonzero(fallback).tolist():
            text = np.frombuffer((_CELL % v[j]).encode(), np.uint8)
            chars[j, :END] = 0
            chars[j, :len(text)] = text
        parts.append(words.tobytes().translate(None, b"\0"))
    rows = b"".join(parts)
    if not (prefix and rows):
        return rows
    lead = prefix.encode()
    return lead + rows[:-1].replace(b"\n", b"\n" + lead) + b"\n"


def _write_csv(path: str | Path, header: list[str], lines: Iterable[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _apply_override(key: str, value: float, geom: SteeringGeometry,
                    wave: IncidentWave, actuator: Actuator | None
                    ) -> tuple[SteeringGeometry, IncidentWave]:
    """The state with the field ``key`` (a value of ``_PARAM_FIELD``) set
    to ``value``; ``voltage_v`` drives the actuator over ``geom``."""
    if key == "wavelength_nm":
        return geom, replace(wave, wavelength=Wavelength(value))
    if key == "incidence_deg":
        return geom, replace(wave, incidence=Angle.from_degrees(value))
    if key == "voltage_v":
        apply, _, _ = drive_map(actuator, geom)
        return apply(value), wave
    return replace(geom, **{key: value}), wave


def _metric_values(geom: SteeringGeometry, wave: IncidentWave
                   ) -> tuple[list[float], TransmittanceResult]:
    spot = spot_report(geom, wave)
    tr = transmittance(geom, wave, capture=spot.pd_coverage)
    return [spot.steering_angle.degrees, spot.first_null_angle.degrees,
            spot.full_width_mm, spot.pd_coverage, tr.value,
            tr.incidence_factor, tr.captured_power_w], tr


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
    curve_key, curve_values = spec.curves or (None, (None,))
    key = _PARAM_FIELD[spec.parameter]

    header = ([curve_key] if curve_key else []) + [key]
    header += _METRIC_COLUMNS + (["tuning_gain"] if spec.baseline else []) + ["error"]

    lines: list[str] = []
    n_err = 0
    for cv in curve_values:
        for pv in grid:
            lead = [pv] if cv is None else [cv, pv]
            try:
                geom, wave = sc.geometry, sc.wave
                if cv is not None:
                    geom, wave = _apply_override(curve_key, cv, geom, wave, sc.actuator)
                geom, wave = _apply_override(key, pv, geom, wave, sc.actuator)
                values, tr = _metric_values(geom, wave)
                if spec.baseline is not None:
                    base_geom = replace(geom, **dict(spec.baseline))
                    values.append(tr.value - transmittance(base_geom, wave).value)
                row = lead + values
                lines.append(_template(len(row), suffix=",") % tuple(row))
            except _ROW_ERRORS as exc:
                n_err += 1
                tail = "," * (len(header) - len(lead)) + type(exc).__name__
                lines.append(_template(len(lead), suffix=tail) % tuple(lead))
    path = out_dir / f"{sc.name}_sweep.csv"
    _write_csv(path, header, lines)
    note = f" ({n_err} point(s) failed)" if n_err else ""
    return path, f"{path.name}: {len(lines)} rows{note}"


def _run_eval(sc: Scenario, out_dir: Path) -> list[tuple[Path, str]]:
    summary = out_dir / f"{sc.name}_summary.csv"
    values, _ = _metric_values(sc.geometry, sc.wave)
    _write_csv(summary, _METRIC_COLUMNS, [_template(len(values)) % tuple(values)])
    artifacts = [(summary, f"{summary.name}: 1 row")]
    if sc.profile is not None:
        # Every member is sampled before the file is opened, so a member
        # that raises leaves no partial profile behind.
        key, curve_values = sc.profile.curves or (None, (None,))
        members = []
        for cv in curve_values:
            geom, wave, prefix = sc.geometry, sc.wave, ""
            if cv is not None:
                geom, wave = _apply_override(key, cv, geom, wave, sc.actuator)
                prefix = _CELL % cv + ","
            members.append((prefix, profile_on_pd(geom, wave, sc.profile.samples)))
        header = ([key] if key else []) + ["position_mm", "relative_intensity"]
        path = out_dir / f"{sc.name}_profile.csv"
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for prefix, prof in members:
                fh.write(_profile_rows(prefix, prof.positions_mm,
                                       prof.relative_intensity))
        rows = len(members) * sc.profile.samples
        artifacts.append((path, f"{path.name}: {rows} rows"))
    return artifacts


def _run_design(sc: Scenario, out_dir: Path) -> tuple[Path, str]:
    target = sc.design
    geom, wave = sc.geometry, sc.wave
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
        solved = solve_voltage(target, sc.actuator)
        apply, _, _ = drive_map(sc.actuator, geom)
        state = apply(solved)
    achieved = _evaluate_metric(target.kind, state, wave)
    unit = "deg" if target.kind == "refraction_angle" else "mm"
    path = out_dir / f"{sc.name}_design.csv"
    _write_csv(path,
               ["kind", "free", f"target_{unit}",
                f"solved_{_PARAM_FIELD[target.free]}", f"achieved_{unit}"],
               [_template(3, f"{target.kind},{target.free},")
                % (target.value, solved, achieved)])
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


# Where run() keeps the warnings it passes on, so that a caller's
# "default" filter shows each message once per source line, as it would
# for the warning as first raised.
_WARNING_REGISTRY: dict = {}


def run(scenario: Scenario, out_dir: str | Path, *, quiet: bool = False) -> RunReport:
    """Execute a scenario and write its artifacts into ``out_dir``.

    Returns the artifact paths and one summary line per artifact; the
    summary lines are also printed unless ``quiet``.  Every warning
    raised meanwhile is counted by message in the ``.meta.json`` sidecar
    and then issued again to the caller.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = scenario.mode
    try:
        # Every warning is recorded, not only the first per source line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if mode == "sweep":
                produced = [_run_sweep(scenario, out_dir)]
            elif mode == "design":
                produced = [_run_design(scenario, out_dir)]
            elif mode == "bench":
                produced = _run_bench(scenario, out_dir)
            else:
                produced = _run_eval(scenario, out_dir)
    finally:
        # The caller's filters see the module that raised the warning, or
        # the file name if no module was loaded from it, as Python does.
        modules = {getattr(m, "__file__", None): name
                   for name, m in list(sys.modules.items())} if caught else {}
        for w in caught:
            module = modules.get(w.filename, w.filename.removesuffix(".py"))
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno, module, _WARNING_REGISTRY)

    sidecar = out_dir / f"{scenario.name}.meta.json"
    sidecar.write_text(json.dumps({
        "scenario": scenario.name,
        "mode": mode,
        "toolkit_version": __version__,
        "unix_time": time.time(),
        "warnings": Counter(str(w.message) for w in caught),
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
