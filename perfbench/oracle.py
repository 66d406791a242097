"""Independent checks of every artifact a repetition leaves behind.

Runs in the harness, outside the timed region.  Expected values come
from ``model`` (plain ``math``) and, for the capture fraction, from the
exact form

    integral_0^T sinc^2 = [Si(2 pi T) - sin^2(pi T) / (pi T)] / pi

with ``scipy.special.sici`` as a benchmark-only oracle.  Every mismatch
counts as a failed operation.

Tolerances.  The capture fraction and everything derived from it must
match to ``CAPTURE_TOL`` absolute: looser than the program's 1e-9
quadrature tolerance, so that an exact closed form passes too, and far
tighter than any change of the physics (moving the 89.9 deg horizon to
90 deg shifts a 4 um slit's capture by ~1e-5).  Angles must match to
``ANGLE_TOL_DEG``, lengths to ``REL_TOL`` relative, and a solved voltage
must reproduce its target within ``SOLVE_REL_TOL`` relative (the
program's bisection stops at 1e-6).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import sici

import model
import workloads

CAPTURE_TOL = 1e-8
ANGLE_TOL_DEG = 1e-9
REL_TOL = 1e-9
SOLVE_REL_TOL = 1.5e-6

_METRIC_COLUMNS = ["refraction_angle_deg", "first_null_angle_deg",
                   "full_width_mm", "pd_coverage", "transmittance",
                   "incidence_factor", "captured_power_w"]
_PARAM_COLUMN = {"wavelength": "wavelength_nm", "n_ris": "n_ris",
                 "depth": "depth_mm", "incidence": "incidence_deg"}

# Published acceptance envelopes of the legacy kinds (deg), the cmbbp
# roll-off start and its intensity floor at the envelope edge.
_ENVELOPE = {"convex": 36.2, "gilcpc": 40.0, "spherical": 45.0,
             "cmbbp": 85.0, "adj_lens": 60.0}
_TUNABLE = {"convex": False, "gilcpc": False, "spherical": False,
            "cmbbp": False, "adj_lens": True}
_CMBBP_ROLLOFF, _CMBBP_FLOOR = 25.0, 0.5


def half_capture(t: float) -> float:
    """integral_0^t sinc^2(x) dx in closed form."""
    if t <= 0.0:
        return 0.0
    si, _ = sici(2.0 * math.pi * t)
    return (si - math.sin(math.pi * t) ** 2 / (math.pi * t)) / math.pi


def capture_fraction(st: dict) -> float:
    t_win, t_max = model.capture_bounds(st["lam"], st["slit"], st["n"],
                                        st["depth"], st["pd"])
    return min(max(half_capture(t_win) / half_capture(t_max), 0.0), 1.0)


def transmittance(st: dict) -> float:
    return model.incidence_factor(st["inc"]) * capture_fraction(st)


def expected_metrics(st: dict) -> dict | None:
    """Expected summary cells of a state; None when it is evanescent."""
    theta = model.refraction_deg(st["lam"], st["slit"], st["n"], st["inc"],
                                 st["order"])
    if theta is None:
        return None
    null = model.null_deg(st["lam"], st["slit"], st["n"])
    tr = transmittance(st)
    return {"refraction_angle_deg": theta,
            "first_null_angle_deg": 90.0 if null is None else null,
            "full_width_mm": (math.inf if null is None else
                              model.spot_width_mm(st["lam"], st["slit"],
                                                  st["n"], st["depth"])),
            "pd_coverage": capture_fraction(st),
            "transmittance": tr,
            "incidence_factor": model.incidence_factor(st["inc"]),
            "captured_power_w": tr * st["power"]}


def _close(kind: str, got: float, want: float, scale: float) -> bool:
    if math.isinf(want):
        return got == want
    if kind == "angle":
        return abs(got - want) <= ANGLE_TOL_DEG
    if kind == "capture":
        return abs(got - want) <= CAPTURE_TOL * scale
    return abs(got - want) <= REL_TOL * abs(want)


_CHECK_KIND = {"refraction_angle_deg": "angle", "first_null_angle_deg": "angle",
               "full_width_mm": "length", "pd_coverage": "capture",
               "transmittance": "capture", "incidence_factor": "capture",
               "captured_power_w": "capture", "tuning_gain": "capture"}


def metrics_match(cells: dict, want: dict, power: float) -> bool:
    """Every expected cell matches; captured power scales with the
    incident power."""
    for col, value in want.items():
        try:
            got = float(cells[col])
        except (KeyError, ValueError):
            return False
        scale = max(power, 1.0) if col == "captured_power_w" else 1.0
        if not _close(_CHECK_KIND[col], got, value, scale):
            return False
    return True


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- capture-sweep

def check_sweep(sc: dict, path: Path) -> int:
    """Failed rows of one sweep artifact (all rows if it is unreadable)."""
    expected = workloads.sweep_rows(sc)
    try:
        rows = _read_csv(path)
    except OSError:
        return len(expected)
    if len(rows) != len(expected):
        return len(expected)
    sw = sc["sweep"]
    pcol = _PARAM_COLUMN[sw["parameter"]]
    ccol = next(iter(sw["curves"])) if "curves" in sw else None
    failed = 0
    for row, exp in zip(rows, expected):
        try:
            failed += not _check_sweep_row(row, exp, pcol, ccol)
        except (KeyError, ValueError):  # missing column or non-number
            failed += 1
    return failed


def _check_sweep_row(row: dict, exp: dict, pcol: str, ccol: str | None) -> bool:
    pv = float(row[pcol])
    if ccol is not None and float(row[ccol]) != exp["curve"]:
        return False
    if abs(pv - exp["param"]) > 1e-12 * max(1.0, abs(exp["param"])):
        return False
    st, base = exp["state"], exp["base"]
    want = expected_metrics(st)
    want_base = expected_metrics(base) if base is not None else None
    if want is None or (base is not None and want_base is None):
        return row.get("error") == "EvanescentOrder" and all(
            row[c] == "" for c in _METRIC_COLUMNS)
    if row.get("error") != "":
        return False
    if base is not None:
        want["tuning_gain"] = want["transmittance"] - want_base["transmittance"]
    return metrics_match(row, want, st["power"])


def capture_pairs_sweep(spec: dict) -> list:
    pairs = []
    for sc in spec["scenarios"]:
        for row in workloads.sweep_rows(sc):
            st, base = row["state"], row["base"]
            if workloads.state_sine(st) >= 1.0:
                continue  # fails before any capture is asked for
            pairs.append(_pair(st))
            # A baseline at grazing incidence transmits nothing and asks
            # the capture layer for nothing.
            if (base is not None and workloads.state_sine(base) < 1.0
                    and model.incidence_factor(base["inc"]) > 0.0):
                pairs.append(_pair(base))
    return pairs


def _pair(st: dict) -> tuple[float, float]:
    return model.capture_bounds(st["lam"], st["slit"], st["n"], st["depth"],
                                st["pd"])


# ---------------------------------------------------------------- rotation-table

def ris_rotation(fe: dict, deg: float) -> dict | None:
    """State a tunable front end settles in at one rotation (None when the
    pattern cannot be landed on the detector)."""
    half = fe["geometry"]["pd_length_mm"] / 2
    rest = workloads.ris_landing(fe, "rest", deg)
    full = workloads.ris_landing(fe, "full", deg)
    if rest is None or full is None or full > half + 1e-12:
        return None
    g, a, lam = fe["geometry"], fe["actuator"], fe["wavelength_nm"]
    st = {"lam": lam, "slit": g["slit_um"], "n": g["n_ris"],
          "depth": g["depth_mm"], "pd": g["pd_length_mm"], "inc": deg,
          "order": 1, "power": 1.0}
    if fe["kind"] == "lc_ris":
        st["n"] = a["n_base"]
        if rest > half:  # exact inverse of the landing for the index
            sin_out = math.sin(math.atan(half / g["depth_mm"]))
            st["n"] = model.steering_sine(lam, g["slit_um"], 1.0, deg) / sin_out
    elif rest > half:
        def landing(s):
            return model.landing_mm(lam, g["slit_um"] * s, g["n_ris"],
                                    g["depth_mm"] / s ** 2, deg)
        s = model.bisect(landing, 1.0, a["stretch_max"], half)
        st["slit"], st["depth"] = g["slit_um"] * s, g["depth_mm"] / s ** 2
    return st


def expected_front_end(fe, step: float) -> dict:
    """Expected summary row of one front end over the rotation grid."""
    detected = []  # (rotation, intensity)
    for deg in workloads.rotation_grid(step):
        if isinstance(fe, str):
            if deg <= _ENVELOPE[fe] + 1e-9:
                w = math.cos(math.radians(deg))
                if fe == "cmbbp" and deg > _CMBBP_ROLLOFF:
                    w *= 1.0 - (1.0 - _CMBBP_FLOOR) * (deg - _CMBBP_ROLLOFF) \
                        / (_ENVELOPE[fe] - _CMBBP_ROLLOFF)
                detected.append((deg, w))
            continue
        st = ris_rotation(fe, deg)
        if st is not None:
            detected.append((deg, transmittance(st)))
    if isinstance(fe, str):
        kind, tunable = fe, _TUNABLE[fe]
        volts = ("", "")
    else:
        kind, tunable, a = fe["kind"], True, fe["actuator"]
        volts = ((a["v_on_v"], a["v_sat_v"]) if kind == "lc_ris"
                 else (0.0, a["v_max_v"]))
    return {"kind": kind, "tunable": tunable, "volts": volts,
            "max_detected_deg": max(d for d, _ in detected),
            "mean_intensity": sum(w for _, w in detected) / len(detected)}


def check_roster(roster: dict, step: float, path: Path) -> int:
    """Failed rotation x front-end items of one roster's table."""
    n_rot = len(workloads.rotation_grid(step))
    fes = roster["front_ends"]
    try:
        rows = _read_csv(path)
    except OSError:
        return n_rot * len(fes)
    if len(rows) != len(fes):
        return n_rot * len(fes)
    failed = 0
    for row, fe in zip(rows, fes):
        try:
            ok = _front_end_row_ok(row, expected_front_end(fe, step))
        except (KeyError, ValueError):  # missing column or non-number
            ok = False
        failed += 0 if ok else n_rot
    return failed


def _front_end_row_ok(row: dict, want: dict) -> bool:
    volts = [("" if v == "" else format(v, ".17g")) for v in want["volts"]]
    return (row["kind"] == want["kind"]
            and row["tunable"] == str(want["tunable"]).lower()
            and [row["voltage_low_v"], row["voltage_high_v"]] == volts
            and abs(float(row["max_detected_deg"])
                    - want["max_detected_deg"]) <= 1e-9
            and abs(float(row["mean_intensity"])
                    - want["mean_intensity"]) <= CAPTURE_TOL)


def capture_pairs_rotation(spec: dict) -> list:
    pairs = []
    for roster in spec["rosters"]:
        for fe in roster["front_ends"]:
            if isinstance(fe, str):
                continue
            for deg in workloads.rotation_grid(spec["step_deg"]):
                st = ris_rotation(fe, deg)
                if st is not None and model.incidence_factor(deg) > 0.0:
                    pairs.append(_pair(st))
    return pairs


# ---------------------------------------------------------------- scenario-stream

def check_stream_entry(entry: dict, outcome: dict, out: Path) -> bool:
    """One CLI invocation: exit code, error record and artifacts."""
    if not isinstance(outcome, dict) or outcome.get("exit") != entry["exit"]:
        return False
    if entry["exit"] != 0:
        lines = outcome["stderr"].strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return False
        return record.get("error") == entry["error"] and "message" in record
    sc = json.loads(entry["text"])
    name = entry["name"]
    try:
        meta = json.loads((out / f"{name}.meta.json").read_text())
        if meta.get("scenario") != name or meta.get("mode") != entry["command"]:
            return False
        if entry["command"] == "design":
            return _check_design(sc, _read_csv(out / f"{name}_design.csv"))
        summary = _read_csv(out / f"{name}_summary.csv")
        st = workloads.scenario_state(sc)
        if len(summary) != 1 or not metrics_match(
                summary[0], expected_metrics(st), st["power"]):
            return False
        if "profile" in sc:
            return _check_profile(sc, out / f"{name}_profile.csv")
        return not (out / f"{name}_profile.csv").exists()
    except (OSError, KeyError, ValueError, json.JSONDecodeError):
        return False


def _sinc2(x: np.ndarray) -> np.ndarray:
    out = np.ones_like(x)
    nz = x != 0.0
    px = np.pi * x[nz]
    out[nz] = (np.sin(px) / px) ** 2
    return out


def _check_profile(sc: dict, path: Path) -> bool:
    prof = sc["profile"]
    n = prof["samples"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    st = workloads.scenario_state(sc)
    if "curves" in prof:
        (key, values), = prof["curves"].items()
        members = [(v, {**st, workloads.STATE_KEY[key]: v}) for v in values]
    else:
        members = [(None, st)]
    if data.shape != (n * len(members), 3 if "curves" in prof else 2):
        return False
    for k, (cv, mst) in enumerate(members):
        block = data[k * n:(k + 1) * n]
        if cv is not None and not np.all(block[:, 0] == cv):
            return False
        u, inten = block[:, -2], block[:, -1]
        half = mst["pd"] / 2
        want_u = np.linspace(-half, half, n)
        centre = model.landing_mm(mst["lam"], mst["slit"], mst["n"],
                                  mst["depth"], mst["inc"])
        theta = np.arctan((want_u - centre) / mst["depth"])
        ratio = mst["slit"] * 1e3 / (mst["lam"] / mst["n"])
        want_i = _sinc2(ratio * np.sin(theta))
        if not (np.allclose(u, want_u, rtol=0.0, atol=1e-12 * half)
                and np.allclose(inten, want_i, rtol=0.0, atol=1e-9)):
            return False
    return True


def _check_design(sc: dict, rows: list[dict]) -> bool:
    d = sc["design"]
    kind, free = d["kind"], d["free"]
    target = d.get("value_deg", d.get("value_mm"))
    if len(rows) != 1 or rows[0]["kind"] != kind or rows[0]["free"] != free:
        return False
    row = rows[0]
    unit = "deg" if kind == "refraction_angle" else "mm"
    col = {"n_ris": "solved_n_ris", "depth": "solved_depth_mm",
           "voltage": "solved_voltage_v"}[free]
    solved = float(row[col])
    if float(row[f"target_{unit}"]) != target:
        return False
    st = workloads.scenario_state(sc)
    if free == "n_ris":
        if not 1.0 < solved <= 2.5:
            return False
        st["n"] = solved
        achieved, tol = workloads.state_metric(kind, st), ANGLE_TOL_DEG
    elif free == "depth":
        st["depth"] = solved
        achieved = workloads.state_metric(kind, st)
        tol = REL_TOL * target
    else:
        lo, hi = workloads.voltage_interval(sc)
        if not lo <= solved <= hi:
            return False
        achieved = workloads.design_metric(sc, kind, solved)
        tol = SOLVE_REL_TOL * target
    reported = float(row[f"achieved_{unit}"])
    return (abs(achieved - target) <= tol
            and abs(reported - achieved) <= REL_TOL * abs(achieved))


def capture_pairs_stream(spec: dict) -> list:
    return [_pair(workloads.scenario_state(json.loads(e["text"])))
            for e in spec["scenarios"]
            if e["exit"] == 0 and e["command"] == "eval"]


CAPTURE_PAIRS = {"capture-sweep": capture_pairs_sweep,
                 "rotation-table": capture_pairs_rotation,
                 "scenario-stream": capture_pairs_stream}
