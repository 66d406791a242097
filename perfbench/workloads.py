"""Seeded workload generators.

``generate(name, seed, size)`` returns plain JSON-able data; the same
arguments always give the same inputs.  Each worker process regenerates
its inputs (that is part of its measured set-up) and the harness
regenerates them again for the oracle and for the recorded input
properties.  Pure python: importing this module must stay cheap and must
not import numpy, scipy or ris_vlc.

Per-seed cost is kept steady by stratified draws: every seeded quantity
that drives the capture cost (slit, wavelength, index) takes one draw in
each of k equal strata of its range, so a seed moves the inputs without
moving the total work much.
"""

from __future__ import annotations

import json
import math
import random
import statistics

import model

WORKLOADS = ("capture-sweep", "rotation-table", "scenario-stream")
SIZES = ("full", "small")

# Rows whose steering sine lies this close to 1 are redrawn, so that the
# oracle and the program never disagree on an evanescent boundary.
_SINE_MARGIN = 1e-6
# Rotations whose rest/full landing lies this close to the detector edge
# are redrawn for the same reason.
_LANDING_MARGIN = 1e-6

LEGACY_KINDS = ("convex", "gilcpc", "spherical", "cmbbp", "adj_lens")
ROTATION_STEP_DEG = 0.9  # finer than the bundled table1 scenario's 1 deg


def _rng(name: str, seed: int, salt: str = "") -> random.Random:
    return random.Random(f"{name}:{seed}:{salt}")


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws, one uniform in each of k equal strata of [lo, hi], shuffled."""
    vals = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


def _r(x: float, digits: int = 6) -> float:
    return round(x, digits)


def sweep_grid(start: float, stop: float, steps: int,
               spacing: str = "linear") -> list[float]:
    """The grid a sweep block asks for, endpoints included."""
    if spacing == "log":
        ratio = (stop / start) ** (1.0 / (steps - 1))
        return [start * ratio ** k for k in range(steps - 1)] + [stop]
    step = (stop - start) / (steps - 1)
    return [start + step * k for k in range(steps - 1)] + [stop]


# ---------------------------------------------------------------- capture-sweep

_SWEEP_BOUNDS = {"wavelength": ("from_nm", "to_nm"),
                 "n_ris": ("from_index", "to_index"),
                 "depth": ("from_mm", "to_mm"),
                 "incidence": ("from_deg", "to_deg")}

STATE_KEY = {"wavelength": "lam", "wavelength_nm": "lam", "n_ris": "n",
             "depth": "depth", "depth_mm": "depth", "incidence": "inc",
             "incidence_deg": "inc", "slit_um": "slit"}


def scenario_state(sc: dict) -> dict:
    g, w = sc["geometry"], sc["wave"]
    return {"lam": w["wavelength_nm"], "slit": g["slit_um"], "n": g["n_ris"],
            "depth": g["depth_mm"], "pd": g["pd_length_mm"],
            "inc": w["incidence_deg"], "order": w.get("order", 1),
            "power": w.get("power_w", 1.0)}


def sweep_rows(sc: dict) -> list[dict]:
    """Expected rows of a sweep scenario, in artifact order: the curve and
    parameter values, the evaluated state and the baseline state."""
    sw = sc["sweep"]
    lo_key, hi_key = _SWEEP_BOUNDS[sw["parameter"]]
    grid = sweep_grid(sw[lo_key], sw[hi_key], sw["steps"],
                      sw.get("spacing", "linear"))
    if "curves" in sw:
        (ckey, cvals), = sw["curves"].items()
    else:
        ckey, cvals = None, [None]
    rows = []
    for cv in cvals:
        for pv in grid:
            st = scenario_state(sc)
            if ckey is not None:
                st[STATE_KEY[ckey]] = cv
            st[STATE_KEY[sw["parameter"]]] = pv
            base = None
            if "baseline" in sw:
                base = dict(st)
                for k, v in sw["baseline"].items():
                    base[STATE_KEY[k]] = v
            rows.append({"curve": cv, "param": pv, "state": st, "base": base})
    return rows


def state_sine(st: dict) -> float:
    return model.steering_sine(st["lam"], st["slit"], st["n"], st["inc"],
                               st["order"])


def _sweep_is_clear(sc: dict) -> bool:
    """No row or baseline state sits on the evanescent boundary."""
    for row in sweep_rows(sc):
        for st in (row["state"], row["base"]):
            if st is not None and abs(state_sine(st) - 1.0) < _SINE_MARGIN:
                return False
    return True


def _capture_sweep_one(rng, kind: str, j: int, r: float, steps: int,
                       idx: int) -> dict:
    """One sweep of the given kind.  Its cost drivers (slit, wavelength,
    index, and for the evanescent-prone kinds the incidence) follow the
    rank draw ``r`` in [0, 1]; everything else is drawn freely.  Wider
    slits come with longer wavelengths and lower indices, which keeps
    every row under ~2e4 lobes: beyond ~3e4 the quadrature's arrays
    leave the cache and its cost per lobe jumps, which would make the
    slowest sweep's latency erratic."""
    slit = 2.0 + 8.0 * r
    geometry = {"slit_um": _r(slit), "depth_mm": _r(rng.uniform(0.4, 1.0)),
                "pd_length_mm": _r(rng.uniform(0.2, 1.0)),
                "n_ris": _r(1.9 - 0.6 * r)}
    wave = {"wavelength_nm": _r(400.0 + 300.0 * r), "incidence_deg": 0.0,
            "power_w": 1.0, "order": 1}
    lam_lo = 400.0 + 200.0 * r  # wavelength curves span lam_lo..lam_lo+200
    with_baseline = j % 2 == 0

    def curve(lo, hi):
        return sorted(_r(x) for x in _strata(rng, lo, hi, 3))

    if kind == "wavelength":
        lo = _r(400.0 + 100.0 * r)
        sweep = {"parameter": "wavelength", "from_nm": lo,
                 "to_nm": _r(lo + 300.0), "steps": steps}
        wave["incidence_deg"] = _r(rng.uniform(0.0, 60.0))
        if with_baseline:
            sweep["curves"] = {"depth_mm": curve(0.3, 1.0)}
            sweep["baseline"] = {"depth_mm": 0.2}
        else:
            sweep["curves"] = {"n_ris": curve(1.3, 1.6)}
    elif kind == "n_ris":
        # Grazing-side incidence: the low-index end of the sweep is
        # evanescent for the first order.
        sweep = {"parameter": "n_ris", "from_index": _r(rng.uniform(1.01, 1.05)),
                 "to_index": 1.9, "steps": steps}
        wave["incidence_deg"] = _r(88.0 - 18.0 * r)
        if with_baseline:
            sweep["curves"] = {"depth_mm": curve(0.3, 1.0)}
            sweep["baseline"] = {"n_ris": 1.9}
        else:
            sweep["curves"] = {"wavelength_nm": curve(lam_lo, lam_lo + 200)}
    elif kind == "depth":
        sweep = {"parameter": "depth", "from_mm": _r(rng.uniform(0.2, 0.4)),
                 "to_mm": _r(rng.uniform(0.8, 1.2)), "steps": steps}
        wave["incidence_deg"] = _r(rng.uniform(0.0, 45.0))
        if with_baseline:
            sweep["curves"] = {"n_ris": curve(1.3, 1.9)}
            sweep["baseline"] = {"slit_um": _r(max(2.0, slit * 0.75))}
        else:
            sweep["curves"] = {"wavelength_nm": curve(lam_lo, lam_lo + 200)}
    else:  # incidence: the high-incidence end is evanescent at low index
        sweep = {"parameter": "incidence", "from_deg": 0.0,
                 "to_deg": _r(rng.uniform(85.0, 90.0)), "steps": steps}
        sweep["curves"] = {"n_ris": curve(1.02, 1.4)}
        if with_baseline:
            sweep["baseline"] = {"depth_mm": 0.2}
    return {"name": f"cs{idx:03d}-{kind}", "geometry": geometry, "wave": wave,
            "sweep": sweep}


def _capture_sweep(seed: int, size: str) -> dict:
    rng = _rng("capture-sweep", seed)
    per_kind, steps = (12, 4) if size == "full" else (1, 3)
    scenarios = []
    for kind in ("wavelength", "n_ris", "depth", "incidence"):
        # One rank draw per stratum: the j-th sweep of a kind has the same
        # cost class on every seed, so the latency order statistics (and
        # the total work) move by a few per cent between seeds.
        ranks = sorted(_strata(rng, 0.0, 1.0, per_kind))
        for j in range(per_kind):
            for _ in range(100):
                sc = _capture_sweep_one(rng, kind, j, ranks[j], steps,
                                        len(scenarios))
                if _sweep_is_clear(sc):
                    break
            else:
                raise RuntimeError("could not place a sweep off the "
                                   "evanescent boundary")
            scenarios.append(sc)
    rng.shuffle(scenarios)
    return {"scenarios": scenarios}


# ---------------------------------------------------------------- rotation-table

def rotation_grid(step_deg: float) -> list[float]:
    """Rotations 0..90 deg inclusive on the given step."""
    count = int(math.floor(90.0 / step_deg + 1e-9))
    angles = [round(k * step_deg, 12) for k in range(count + 1)]
    if angles[-1] < 90.0 - 1e-9:
        angles.append(90.0)
    else:
        angles[-1] = 90.0
    return angles


def _drive_state(fe: dict, drive: str) -> tuple[float, float, float]:
    """(slit_um, n_ris, depth_mm) of a tunable front end at rest or at
    full drive."""
    g, a = fe["geometry"], fe["actuator"]
    if fe["kind"] == "lc_ris":
        n = a["n_base"] + (a["delta_n"] if drive == "full" else 0.0)
        return g["slit_um"], n, g["depth_mm"]
    s = a["stretch_max"] if drive == "full" else 1.0
    return g["slit_um"] * s, g["n_ris"], g["depth_mm"] / s ** 2


def ris_landing(fe: dict, drive: str, deg: float) -> float | None:
    """Landing of a tunable front end at rest or at full drive; None when
    the first order is evanescent there."""
    slit, n, depth = _drive_state(fe, drive)
    if model.steering_sine(fe["wavelength_nm"], slit, n, deg) >= 1.0:
        return None
    return model.landing_mm(fe["wavelength_nm"], slit, n, depth, deg)


def _roster_is_clear(fe: dict, step: float) -> bool:
    half = fe["geometry"]["pd_length_mm"] / 2
    for deg in rotation_grid(step):
        for drive in ("rest", "full"):
            slit, n, _ = _drive_state(fe, drive)
            sine = model.steering_sine(fe["wavelength_nm"], slit, n, deg)
            if abs(sine - 1.0) < _SINE_MARGIN:
                return False
            y = ris_landing(fe, drive, deg)
            if y is not None and abs(y - half) < _LANDING_MARGIN:
                return False
    return True


def _depth_for_edge(lam, slit, n, half, theta_c_deg) -> float:
    """Depth at which the rest-state landing reaches the detector edge at
    rotation theta_c: rotations beyond it need a voltage solve."""
    return half / math.tan(math.radians(
        model.refraction_deg(lam, slit, n, theta_c_deg)))


def _rotation_table(seed: int, size: str) -> dict:
    rng = _rng("rotation-table", seed)
    rosters, band = (3, (82.0, 87.0)) if size == "full" else (1, (75.0, 80.0))
    step = ROTATION_STEP_DEG if size == "full" else 15.0
    k = 2 * rosters
    # Each roster pairs a liquid-crystal front end from the low end of
    # every stratified range with a meta-lens from the high end, so all
    # rosters carry about the same work.  Slit and wavelength move
    # together, which keeps the lobe count (and the peak memory of the
    # capture integral) steady.
    def paired(lo, hi):
        vals = sorted(_strata(rng, lo, hi, k))
        return vals[:rosters], vals[rosters:][::-1]
    lams, slits, edges = (paired(500.0, 600.0), paired(90.0, 110.0),
                          paired(*band))
    stretches = _strata(rng, 1.3, 1.7, rosters)
    indices = _strata(rng, 1.55, 1.65, rosters)
    out = []
    for r in range(rosters):
        lc = {"kind": "lc_ris", "wavelength_nm": _r(lams[0][r], 3),
              "actuator": {"v_on_v": 3.0, "v_sat_v": 5.0, "n_base": 1.508,
                           "delta_n": 0.392}}
        ml = {"kind": "metalens_ris", "wavelength_nm": _r(lams[1][r], 3),
              "actuator": {"v_max_v": 1000.0,
                           "stretch_max": _r(stretches[r], 4)}}
        for fe, slit, edge, n in ((lc, slits[0][r], edges[0][r], 1.508),
                                  (ml, slits[1][r], edges[1][r],
                                   _r(indices[r], 4))):
            slit = _r(slit, 3)
            for _ in range(100):
                depth = _r(_depth_for_edge(fe["wavelength_nm"], slit, n, 0.5,
                                           edge))
                fe["geometry"] = {"slit_um": slit, "depth_mm": depth,
                                  "pd_length_mm": 1.0, "n_ris": n}
                if _roster_is_clear(fe, step):
                    break
                edge += rng.uniform(-0.1, 0.1)
            else:
                raise RuntimeError("could not place a front end off the "
                                   "detector edge")
        out.append({"name": f"roster{r}",
                    "front_ends": list(LEGACY_KINDS) + [ml, lc]})
    return {"step_deg": step, "rosters": out}


# ---------------------------------------------------------------- scenario-stream

def _eval_geometry(rng, slit: float, lam: float, n: float) -> tuple[dict, dict]:
    while True:
        g = {"slit_um": _r(slit), "depth_mm": _r(rng.uniform(0.3, 1.0)),
             "pd_length_mm": _r(rng.uniform(0.2, 1.0)), "n_ris": _r(n)}
        w = {"wavelength_nm": _r(lam), "incidence_deg": _r(rng.uniform(0, 60)),
             "power_w": _r(rng.uniform(0.5, 2.0)), "order": 1}
        if state_sine(scenario_state({"geometry": g, "wave": w})) \
                < 1.0 - _SINE_MARGIN:
            return g, w
        n += 0.05


def _design(rng, kind: str, actuator: str, feasible: bool) -> dict:
    """A voltage solve; the target sits inside the reachable interval, or
    clearly outside it when ``feasible`` is false."""
    lam = _r(rng.uniform(450.0, 650.0))
    inc = _r(rng.uniform(0.0, 40.0))
    if actuator == "lc":
        slit = _r(rng.uniform(50.0, 150.0))
        g = {"slit_um": slit, "depth_mm": _r(rng.uniform(0.5, 1.0)),
             "pd_length_mm": 1.0, "n_ris": 1.508}
        act = ({"preset": "lc-sun2019"} if rng.random() < 0.5 else
               {"type": "lc", "v_on_v": 3.0, "v_sat_v": 5.0,
                "n_base": _r(rng.uniform(1.45, 1.55), 4),
                "delta_n": _r(rng.uniform(0.25, 0.35), 4)})
    else:
        slit = _r(rng.uniform(3.0, 10.0))
        g = {"slit_um": slit, "depth_mm": _r(rng.uniform(0.5, 1.0)),
             "pd_length_mm": 1.0, "n_ris": _r(rng.uniform(1.4, 1.8))}
        act = ({"preset": "metalens-she2018"} if rng.random() < 0.5 else
               {"type": "metalens", "v_max_v": 1000.0,
                "stretch_max": _r(rng.uniform(1.2, 1.6), 4)})
    w = {"wavelength_nm": lam, "incidence_deg": inc, "power_w": 1.0,
         "order": 1}
    sc = {"geometry": g, "wave": w, "actuator": act}
    ends = [design_metric(sc, kind, v) for v in voltage_interval(sc)]
    lo, hi = min(ends), max(ends)
    if feasible:
        value = lo + (hi - lo) * rng.uniform(0.15, 0.85)
    else:
        value = hi * rng.uniform(1.2, 1.5)
    unit = "value_deg" if kind == "refraction_angle" else "value_mm"
    sc["design"] = {"kind": kind, unit: _r(value, 9), "free": "voltage"}
    return sc


def actuator_params(sc: dict) -> dict:
    """The actuator block with presets expanded to their parameters."""
    act = sc["actuator"]
    if act.get("preset") == "lc-sun2019":
        return {"type": "lc", "v_on_v": 3.0, "v_sat_v": 5.0, "n_base": 1.508,
                "delta_n": 0.392}
    if act.get("preset") == "metalens-she2018":
        return {"type": "metalens", "v_max_v": 1000.0,
                "stretch_max": (37.7 / 21.4) ** (1.0 / 3.0)}
    return act


def voltage_interval(sc: dict) -> tuple[float, float]:
    p = actuator_params(sc)
    if p["type"] == "lc":
        return p["v_on_v"], p["v_sat_v"]
    return 0.0, p["v_max_v"]


def driven_state(sc: dict, v: float) -> dict:
    """Scenario state after applying drive v through the actuator."""
    st = scenario_state(sc)
    p = actuator_params(sc)
    if p["type"] == "lc":
        st["n"] = model.lc_index(v, p["v_on_v"], p["v_sat_v"], p["n_base"],
                                 p["delta_n"])
    else:
        st["slit"], st["depth"] = model.metalens_state(
            v, p["v_max_v"], p["stretch_max"], st["slit"], st["depth"])
    return st


def state_metric(kind: str, st: dict) -> float:
    if kind == "refraction_angle":
        return model.refraction_deg(st["lam"], st["slit"], st["n"], st["inc"])
    if kind == "spot_width":
        return model.spot_width_mm(st["lam"], st["slit"], st["n"], st["depth"])
    return model.landing_mm(st["lam"], st["slit"], st["n"], st["depth"],
                            st["inc"])


def design_metric(sc: dict, kind: str, v: float) -> float:
    return state_metric(kind, driven_state(sc, v))


def _invalid(rng, variant: int) -> tuple[str, str]:
    """(subcommand, file text) of a scenario that fails validation."""
    g = {"slit_um": 4.0, "depth_mm": 0.75, "pd_length_mm": 1.0, "n_ris": 1.5}
    w = {"wavelength_nm": 550.0, "incidence_deg": 10.0}
    if variant == 0:
        g = {"slit": 4.0, **{k: v for k, v in g.items() if k != "slit_um"}}
    elif variant == 1:
        g["n_ris"] = _r(rng.uniform(2.6, 4.0))
    elif variant == 2:
        w["incidence_deg"] = _r(rng.uniform(91.0, 120.0))
    elif variant == 3:  # a valid eval scenario run as a design
        return "design", json.dumps({"geometry": g, "wave": w})
    else:
        return "eval", json.dumps({"geometry": g, "wave": w})[:-7]
    return "eval", json.dumps({"geometry": g, "wave": w})


def _scenario_stream(seed: int, size: str) -> dict:
    rng = _rng("scenario-stream", seed)
    # Profile evaluations are the majority, so the median latency falls
    # among them rather than on the edge between cheap and costly calls.
    if size == "full":
        n_profile, n_plain, n_invalid, n_infeasible = 30, 2, 4, 4
        samples = (4000, 24000)
    else:
        n_profile, n_plain, n_invalid, n_infeasible = 2, 1, 1, 1
        samples = (200, 400)
    n_eval = n_profile + n_plain
    # Cost drivers paired in rank order: the i-th evaluation has the same
    # cost class on every seed, which keeps the latency quantiles steady.
    slits = sorted(_strata(rng, 2.0, 10.0, n_eval))
    lams = sorted(_strata(rng, 400.0, 800.0, n_eval))
    indices = sorted(_strata(rng, 1.3, 1.9, n_eval))
    counts = sorted(int(x) for x in _strata(rng, *samples, n_profile))
    entries = []  # (command, scenario dict or raw text, expected exit, error)
    for i in range(n_eval):
        g, w = _eval_geometry(rng, slits[i], lams[i], indices[i])
        sc = {"geometry": g, "wave": w}
        if i < n_profile:
            prof = {"samples": counts[i]}
            if i % 4 == 0:  # a two-member depth family, same total samples
                prof = {"samples": counts[i] // 2, "curves": {
                    "depth_mm": [_r(rng.uniform(0.3, 0.6)),
                                 _r(rng.uniform(0.6, 1.0))]}}
            sc["profile"] = prof
        entries.append(("eval", sc, 0, None))
    designs = [("refraction_angle", "n_ris"), ("spot_width", "depth")]
    if size == "full":
        designs = designs * 2 + [(k, a) for k in ("refraction_angle",
                                                  "spot_width", "pd_landing")
                                 for a in ("lc", "metalens")]
    for kind, free in designs:
        if free in ("lc", "metalens"):
            entries.append(("design", _design(rng, kind, free, True), 0, None))
            continue
        g, w = _eval_geometry(rng, rng.uniform(2.0, 10.0),
                              rng.uniform(400.0, 800.0),
                              rng.uniform(1.3, 1.9))
        st = scenario_state({"geometry": g, "wave": w})
        if free == "n_ris":
            num = st["n"] * state_sine(st)
            target = math.degrees(math.asin(num / rng.uniform(1.3, 2.3)))
            design = {"kind": kind, "value_deg": _r(target, 9), "free": free}
        else:
            design = {"kind": kind, "value_mm": _r(rng.uniform(0.05, 1.0)),
                      "free": free}
        entries.append(("design", {"geometry": g, "wave": w,
                                   "design": design}, 0, None))
    for i in range(n_invalid):
        command, text = _invalid(rng, (i + rng.randrange(5)) % 5)
        entries.append((command, text, 2, "ScenarioError"))
    infeasible = ["Infeasible", "OutOfMaterialRange", "Infeasible",
                  "NullBeyondHorizon"][:n_infeasible]
    for i, error in enumerate(infeasible):
        if error == "Infeasible":
            kind = ("refraction_angle", "spot_width", "pd_landing")[
                rng.randrange(3)]
            sc = _design(rng, kind, ("lc", "metalens")[i % 2], False)
        elif error == "OutOfMaterialRange":
            g, w = _eval_geometry(rng, 4.0, 550.0, 1.5)
            num = 1.5 * state_sine(scenario_state({"geometry": g, "wave": w}))
            target = math.degrees(math.asin(num / rng.uniform(2.8, 3.5)))
            sc = {"geometry": g, "wave": w, "design": {
                "kind": "refraction_angle", "value_deg": _r(target, 9),
                "free": "n_ris"}}
        else:  # slit narrower than the in-medium wavelength: no first null
            sc = {"geometry": {"slit_um": _r(rng.uniform(0.1, 0.2)),
                               "depth_mm": 0.75, "pd_length_mm": 1.0,
                               "n_ris": 1.3},
                  "wave": {"wavelength_nm": _r(rng.uniform(600.0, 800.0)),
                           "incidence_deg": 0.0},
                  "design": {"kind": "spot_width", "value_mm": 0.1,
                             "free": "depth"}}
        entries.append(("design", sc, 3, error))
    rng.shuffle(entries)
    stream = []
    for i, (command, sc, code, error) in enumerate(entries):
        text = sc if isinstance(sc, str) else json.dumps(sc, indent=1)
        stream.append({"name": f"s{i:03d}", "command": command, "text": text,
                       "exit": code, "error": error})
    return {"scenarios": stream}


_GENERATORS = {"capture-sweep": _capture_sweep,
               "rotation-table": _rotation_table,
               "scenario-stream": _scenario_stream}


def generate(name: str, seed: int, size: str = "full") -> dict:
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; one of {SIZES}")
    return _GENERATORS[name](seed, size)


# ---------------------------------------------------------------- properties

def item_count(name: str, spec: dict) -> int:
    """Items per repetition: sweep rows, rotation x front-end evaluations,
    or scenarios."""
    if name == "capture-sweep":
        return sum(len(sweep_rows(sc)) for sc in spec["scenarios"])
    if name == "rotation-table":
        return sum(len(r["front_ends"]) for r in spec["rosters"]) \
            * len(rotation_grid(spec["step_deg"]))
    return len(spec["scenarios"])


def properties(name: str, spec: dict, capture_pairs: list) -> dict:
    """Input properties recorded with the results.  ``capture_pairs`` are
    the (T_window, T_max) pairs the inputs ask the capture layer for, in
    request order (the oracle lists them)."""
    props = {"items": item_count(name, spec)}
    if capture_pairs:
        lobes = [t_max for _, t_max in capture_pairs]
        props["capture_pairs"] = {
            "total": len(capture_pairs),
            "distinct": len(set(map(tuple, capture_pairs))),
        }
        props["capture_pairs"]["distinct_share"] = round(
            props["capture_pairs"]["distinct"] / len(capture_pairs), 4)
        props["lobes_under_horizon"] = {
            "min": round(min(lobes)), "median": round(statistics.median(lobes)),
            "max": round(max(lobes))}
    if name == "capture-sweep":
        rows = [r for sc in spec["scenarios"] for r in sweep_rows(sc)]
        evanescent = sum(
            any(st is not None and state_sine(st) >= 1.0
                for st in (r["state"], r["base"])) for r in rows)
        props["sweeps"] = len(spec["scenarios"])
        props["evanescent_row_share"] = round(evanescent / len(rows), 4)
    elif name == "rotation-table":
        props["rosters"] = len(spec["rosters"])
        props["step_deg"] = spec["step_deg"]
    else:
        codes = [s["exit"] for s in spec["scenarios"]]
        props["exit_share"] = {str(c): round(codes.count(c) / len(codes), 4)
                               for c in sorted(set(codes))}
        props["profile_samples"] = sum(
            _profile_samples(json.loads(s["text"])) for s in spec["scenarios"]
            if s["exit"] == 0 and s["command"] == "eval")
    return props


def _profile_samples(sc: dict) -> int:
    """Detector-profile samples an evaluation asks for, over its curves."""
    prof = sc.get("profile")
    if prof is None:
        return 0
    members = next(iter(prof["curves"].values())) if "curves" in prof else [0]
    return prof["samples"] * len(members)
