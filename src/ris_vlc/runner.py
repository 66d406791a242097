"""Scenario execution: sweep orchestration and CSV artifact output.

The only module with side effects.  Data files are deterministic: one
header row, '.' decimal separator, 17-significant-digit floats, fixed row
order, no timestamps (run metadata goes to a JSON sidecar).  ``_write_csv``
streams sweep, summary, design and bench rows, each from one ``%``
template; detector-profile rows, the bulk of the output, are formatted in
numpy and written chunk by chunk by ``_write_profile``, with the same
bytes as '%.17g'.  Text cells come only from validated vocabularies, so
no cell needs quoting.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from . import __version__
from .bench import compare_table, default_front_end, format_table, table_to_csv
from .diffraction import Metrics, _metrics, evaluate, profile_on_pd
from .optics import EvanescentOrder, IncidentWave, SteeringGeometry
from .scenario import (_BOUNDS, _GEOMETRY, _PARAM_FIELD, _WAVE, Scenario,
                       SweepSpec, load_scenario)
from .tuning import Actuator, drive, solve

__all__ = ["RunReport", "run", "run_bundled", "bundled_scenario_names",
           "bundled_scenario_path"]

_ROW_ERRORS = (EvanescentOrder, ValueError)


@dataclass(frozen=True)
class RunReport:
    artifacts: tuple[Path, ...]
    summaries: tuple[str, ...]


_CELL = "%.17g"


def _template(n_floats: int, prefix: str = "", suffix: str = "") -> str:
    """``prefix`` + n float cells + ``suffix`` + newline; no '%' in either."""
    return prefix + ",".join([_CELL] * n_floats) + suffix + "\n"


# Profile rows are formatted and written this many at a time, so the
# working arrays stay the same size whatever the sample count.
_CHUNK_ROWS = 2048


def _write_profile(fh, positions, members) -> float:
    """Write the rows ``prefix`` + position + intensity of every member
    ``(prefix, intensities)`` to ``fh`` in turn, each cell byte for byte
    ``'%.17g' % x``; return the seconds spent formatting them.

    Each chunk of rows is laid out in 64-bit words (``_g17.cell_words``):
    the prefix, NUL-padded, then the position and the intensity in fixed
    NUL-padded slots; it is written with its NULs deleted.  The position
    slots are formatted with the first member and kept for the others.
    """
    import numpy as np

    from ._g17 import cell_words

    started, n, wrote = time.perf_counter(), len(positions), 0.0
    k = max(-(-len(prefix) // 8) for prefix, _ in members)
    raw = bytearray(8 * (k + 8) * min(n, _CHUNK_ROWS))
    rows = np.frombuffer(raw, np.uint64).reshape(-1, k + 8)
    shared = np.empty((n, 4), np.uint64) if len(members) > 1 else None
    for i, (prefix, intensities) in enumerate(members):
        if k:
            lead = prefix.encode().ljust(8 * k, b"\0")
            rows[:, :k] = np.frombuffer(lead, np.uint64)
        for start in range(0, n, _CHUNK_ROWS):
            m = min(n - start, _CHUNK_ROWS)
            cells = rows[:m, k:k + 4]
            if i == 0:
                cell_words(positions[start:start + m], ord(","), cells)
                if shared is not None:
                    shared[start:start + m] = cells
            else:
                cells[...] = shared[start:start + m]
            cell_words(intensities[start:start + m], ord("\n"),
                       rows[:m, k + 4:])
            text = raw if m == len(rows) else raw[:rows[:m].nbytes]
            text = text.translate(None, b"\0")
            t0 = time.perf_counter()
            fh.write(text)
            wrote += time.perf_counter() - t0
    return time.perf_counter() - started - wrote


def _write_csv(path: str | Path, header: list[str], lines: Iterable[str]) -> None:
    """Write the file, creating its directory first: every run writes its
    first artifact here, so a run that fails before it writes nothing; a
    file that cannot be opened leaves none of the directories made for it."""
    parent = Path(path).parent
    made = list(itertools.takewhile(lambda d: not d.exists(),
                                    [parent, *parent.parents]))
    parent.mkdir(parents=True, exist_ok=True)
    try:
        fh = open(path, "w", newline="")
    except OSError:
        for directory in made:  # innermost first
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    with fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _set(fields: dict, key: str, value: float, actuator: Actuator | None
         ) -> dict:
    """The field values of a slab and wave with ``key`` set to ``value``,
    which alone is checked (a swept value is computed, not given);
    ``voltage_v`` drives the actuator through ``tuning.drive``."""
    if key != "voltage_v":
        _BOUNDS[key].check(key, value)
        return {**fields, key: value}
    slab = SteeringGeometry(**{k: fields[k] for k in _GEOMETRY})
    return {**fields, **vars(drive(actuator, value, slab))}


def _sweep_grid(spec: SweepSpec) -> list[float]:
    n = spec.steps
    if spec.spacing == "log":
        ratio = (spec.stop / spec.start) ** (1.0 / (n - 1))
        if ratio == math.inf:  # stop / start overflows: space the logs
            lo = math.log(spec.start)
            step = (math.log(spec.stop) - lo) / (n - 1)
            inner = [math.exp(lo + step * k) for k in range(1, n - 1)]
            return [spec.start, *inner, spec.stop]
        return [spec.start * ratio ** k for k in range(n - 1)] + [spec.stop]
    step = (spec.stop - spec.start) / (n - 1)
    return [spec.start + step * k for k in range(n - 1)] + [spec.stop]


def _run_sweep(sc: Scenario, out_dir: Path) -> tuple[Path, str]:
    spec = sc.sweep
    grid = _sweep_grid(spec)
    curve_key, curve_values = spec.curves or (None, (None,))
    key = _PARAM_FIELD[spec.parameter]

    header = ([curve_key] if curve_key else []) + [key]
    header += [*Metrics._fields, *(["tuning_gain"] if spec.baseline else []),
               "error"]

    # A row is the scenario's field values with the curve and swept keys set.
    fields = {**vars(sc.geometry), **vars(sc.wave)}
    lines: list[str] = []
    n_err = 0
    for cv in curve_values:
        for pv in grid:
            lead = [pv] if cv is None else [cv, pv]
            try:
                state = (fields if cv is None else
                         _set(fields, curve_key, cv, sc.actuator))
                state = _set(state, key, pv, sc.actuator)
                m = _metrics(**state)
                row = lead + list(m)
                if spec.baseline is not None:
                    base = {**state, **dict(spec.baseline)}
                    row.append(m.transmittance
                               - _metrics(**base).transmittance)
                lines.append(_template(len(row), suffix=",") % tuple(row))
            except _ROW_ERRORS as exc:
                n_err += 1
                tail = "," * (len(header) - len(lead)) + type(exc).__name__
                lines.append(_template(len(lead), suffix=tail) % tuple(lead))
    path = out_dir / f"{sc.name}_sweep.csv"
    _write_csv(path, header, lines)
    note = f" ({n_err} point(s) failed)" if n_err else ""
    return path, f"{path.name}: {len(lines)} rows{note}"


def _run_eval(sc: Scenario, out_dir: Path, stages: dict
              ) -> list[tuple[Path, str]]:
    """The summary row and the profile; ``stages`` gets the seconds spent
    sampling (the summary metrics and every profile member), formatting
    the profile rows, and writing (the summary row and the files)."""
    clock = time.perf_counter
    start = clock()
    values = evaluate(sc.geometry, sc.wave)
    # Every member is sampled before the first file is opened, so a member
    # that raises leaves no file behind.
    members = []
    if sc.profile is not None:
        key, curve_values = sc.profile.curves or (None, (None,))
        fields = {**vars(sc.geometry), **vars(sc.wave)}
        for cv in curve_values:
            geom, wave, prefix = sc.geometry, sc.wave, ""
            if cv is not None:
                state = _set(fields, key, cv, sc.actuator)
                geom = SteeringGeometry(**{k: state[k] for k in _GEOMETRY})
                wave = IncidentWave(**{k: state[k] for k in _WAVE})
                prefix = _CELL % cv + ","
            prof = profile_on_pd(geom, wave, sc.profile.samples)
            members.append((prefix, prof.relative_intensity))
    stages.update(sample=clock() - start, format=0.0)
    start = clock()
    summary = out_dir / f"{sc.name}_summary.csv"
    _write_csv(summary, list(Metrics._fields), [_template(len(values)) % values])
    artifacts = [(summary, f"{summary.name}: 1 row")]
    if sc.profile is not None:
        header = ([key] if key else []) + ["position_mm", "relative_intensity"]
        path = out_dir / f"{sc.name}_profile.csv"
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            # No curve key sets pd_length_mm, so every member has these.
            stages["format"] = _write_profile(fh, prof.positions_mm, members)
        rows = len(members) * sc.profile.samples
        artifacts.append((path, f"{path.name}: {rows} rows"))
    stages["write"] = clock() - start - stages["format"]
    return artifacts


def _run_design(sc: Scenario, out_dir: Path) -> tuple[Path, str]:
    target = sc.design
    solved, achieved = solve(target, sc.actuator)
    unit = "deg" if target.kind == "refraction_angle" else "mm"
    path = out_dir / f"{sc.name}_design.csv"
    _write_csv(path,
               ["kind", "free", f"target_{unit}",
                f"solved_{_PARAM_FIELD[target.free]}", f"achieved_{unit}"],
               [_template(3, f"{target.kind},{target.free},")
                % (target.value, solved, achieved)])
    return path, f"{path.name}: {target.free} = {solved:.9g}"


def _run_bench(sc: Scenario, out_dir: Path, stages: dict
               ) -> list[tuple[Path, str]]:
    """The table as CSV and as aligned text; ``stages`` gets the seconds
    spent on the rotation sweeps and on writing both files."""
    clock = time.perf_counter
    start = clock()
    roster = [default_front_end(k) for k in sc.bench.front_ends]
    rows = compare_table(roster, sc.bench.step_deg)
    stages["sweep"] = clock() - start
    start = clock()
    csv_path = out_dir / f"{sc.name}_bench.csv"
    table_to_csv(rows, csv_path)
    txt_path = out_dir / f"{sc.name}_bench.txt"
    txt_path.write_text(format_table(rows) + "\n")
    stages["write"] = clock() - start
    return [(csv_path, f"{csv_path.name}: {len(rows)} front-end(s)"),
            (txt_path, f"{txt_path.name}: aligned table")]


# Where run() keeps the warnings it passes on, so that a caller's
# "default" filter shows each message once per source line, as it would
# for the warning as first raised.
_WARNING_REGISTRY: dict = {}


def run(scenario: Scenario, out_dir: str | Path, *, quiet: bool = False) -> RunReport:
    """Execute a scenario and write its artifacts into ``out_dir``, which
    is created with the first of them: a run that raises writes nothing.

    Returns the artifact paths and one summary line per artifact; the
    summary lines are also printed unless ``quiet``.  Every warning
    raised meanwhile is counted by message in the ``.meta.json`` sidecar
    and then issued again to the caller; for an evaluation or a bench the
    sidecar also holds the seconds of its stages (``_run_eval``,
    ``_run_bench``).
    """
    out_dir = Path(out_dir)
    mode = scenario.mode
    stages: dict = {}
    try:
        # Every warning is recorded, not only the first per source line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if mode == "sweep":
                produced = [_run_sweep(scenario, out_dir)]
            elif mode == "design":
                produced = [_run_design(scenario, out_dir)]
            elif mode == "bench":
                produced = _run_bench(scenario, out_dir, stages)
            else:
                produced = _run_eval(scenario, out_dir, stages)
    finally:
        # The caller's filters see the module that raised the warning, or
        # the file name if no module was loaded from it, as Python does.
        modules = {getattr(m, "__file__", None): name
                   for name, m in list(sys.modules.items())} if caught else {}
        for w in caught:
            module = modules.get(w.filename, w.filename.removesuffix(".py"))
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno, module, _WARNING_REGISTRY)

    record = {
        "scenario": scenario.name,
        "mode": mode,
        "toolkit_version": __version__,
        "unix_time": time.time(),
        "warnings": Counter(str(w.message) for w in caught),
    }
    if stages:
        record["stages_s"] = stages
    sidecar = out_dir / f"{scenario.name}.meta.json"
    sidecar.write_text(json.dumps(record, indent=2) + "\n")

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
