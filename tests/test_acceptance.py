"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import filecmp
import math
import random
import subprocess
import sys
import time

import numpy as np

from ris_vlc.bench import KINDS, RIS_KINDS, default_front_end, rotation_sweep
from ris_vlc.diffraction import (first_null_angle, pattern_power_fraction,
                                 profile_on_pd, spot_report)
from ris_vlc.optics import (Angle, EvanescentOrder, IncidentWave,
                            SteeringGeometry, Wavelength, refraction_angle)
from ris_vlc.radiometry import transmittance
from ris_vlc.runner import run
from ris_vlc.scenario import scenario_from_dict
from ris_vlc.tuning import (DesignTarget, LiquidCrystalActuator,
                            MetaLensActuator, lc_apply, metalens_apply,
                            solve, solve_voltage)

TAN_HORIZON = math.tan(math.radians(89.9))
# numpy >= 2.0 spells it trapezoid, numpy 1.x trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _report(num: int, name: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[ACCEPTANCE {num}] {name}: {status}")
    assert not problems, f"criterion {num} violations: {problems[:5]}"


def geom(slit=4.0, depth=0.75, pd=1.0, n=1.4, n_air=1.0):
    return SteeringGeometry(slit_um=slit, depth_mm=depth, pd_length_mm=pd,
                            n_ris=n, n_air=n_air)


def wave(lam, inc, order=1, power=1.0):
    return IncidentWave(Wavelength(lam), Angle.from_degrees(inc),
                        power_w=power, order=order)


def test_criterion_1_reference_steering_endpoints():
    problems = []
    at_14 = refraction_angle(geom(n=1.4), wave(300, 90)).degrees
    at_19 = refraction_angle(geom(n=1.9), wave(300, 90)).degrees
    if abs(at_14 - 50.133) > 0.5:
        problems.append(f"n=1.4, 300 nm: {at_14:.4f} deg vs 50.133 +- 0.5")
    if abs(at_19 - 34.377) > 0.5:
        problems.append(f"n=1.9, 300 nm: {at_19:.4f} deg vs 34.377 +- 0.5")
    swing = (refraction_angle(geom(n=1.4), wave(800, 90)).degrees
             - refraction_angle(geom(n=1.9), wave(800, 90)).degrees)
    if abs(swing - 20.053) > 0.7:
        problems.append(f"800 nm index swing: {swing:.4f} deg vs 20.053 +- 0.7")
    _report(1, "reference steering endpoints", problems)


def test_criterion_2_monotonicity_10k():
    rng = random.Random(0xBEEF)
    problems = []
    start = time.perf_counter()
    checked_n = checked_lam = 0
    while checked_n < 10_000 or checked_lam < 10_000:
        slit = rng.uniform(1.0, 100.0)
        inc = rng.uniform(0.0, 90.0)
        if checked_n < 10_000:
            lam = rng.uniform(200.0, 2000.0)
            n1 = rng.uniform(1.05, 2.4)
            n2 = n1 + rng.uniform(1e-4, 2.5 - n1)
            try:
                hi = refraction_angle(geom(slit=slit, n=n1), wave(lam, inc))
                lo = refraction_angle(geom(slit=slit, n=n2), wave(lam, inc))
                checked_n += 1
                if not lo.radians < hi.radians:
                    problems.append(f"index: n {n1}->{n2} at lam={lam}")
            except EvanescentOrder:
                pass
        if checked_lam < 10_000:
            n = rng.uniform(1.05, 2.5)
            lam1 = rng.uniform(200.0, 1999.0)
            lam2 = lam1 + rng.uniform(1e-3, 2000.0 - lam1)
            g = geom(slit=slit, n=n)
            try:
                lo = refraction_angle(g, wave(lam1, inc))
                hi = refraction_angle(g, wave(lam2, inc))
                checked_lam += 1
                if not lo.radians < hi.radians:
                    problems.append(f"wavelength: {lam1}->{lam2} at n={n}")
            except EvanescentOrder:
                pass
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f} s >= 5 s")
    _report(2, "monotonicity over 10^4 random inputs", problems)


def test_criterion_3_snell_reduction_10k():
    rng = random.Random(0xC0FFEE)
    problems = []
    for _ in range(10_000):
        g = geom(slit=rng.uniform(0.5, 200.0), n=rng.uniform(1.001, 2.5),
                 n_air=rng.uniform(1.0, 1.001))
        w = wave(rng.uniform(200.0, 2000.0), rng.uniform(0.0, 90.0), order=0)
        try:
            via_order = refraction_angle(g, w)
        except EvanescentOrder:
            continue
        # oracle: plain refraction, n_air sin(theta_in) = n_ris sin(theta)
        via_snell = math.asin(g.n_air * math.sin(w.incidence.radians)
                              / g.n_ris)
        if abs(via_order.radians - via_snell) > 1e-12:
            problems.append(f"mismatch at n={g.n_ris}, inc={w.incidence.degrees}")
    _report(3, "zeroth order equals plain refraction to 1e-12 rad", problems)


def test_criterion_4_diffraction_oracle():
    problems = []
    g = geom(slit=4.0, depth=1.0, pd=1.0, n=1.5)
    w = wave(550, 0, order=0)
    half = spot_report(g, w).full_width_mm / 2

    # independent oracle: 10^6-sample trapezoid on the same truncated pattern
    lam_m_mm = 550.0 / 1.5 * 1e-6
    scale = lam_m_mm * g.depth_mm / (g.slit_um * 1e-3)
    u_max = TAN_HORIZON * g.depth_mm
    u_num = np.linspace(0.0, half, 1_000_001)
    u_den = np.linspace(0.0, u_max, 1_000_001)
    brute = (trapezoid(np.sinc(u_num / scale) ** 2, u_num)
             / trapezoid(np.sinc(u_den / scale) ** 2, u_den))
    adaptive = pattern_power_fraction(g, w, half)
    if abs(adaptive - 0.9028) > 5e-4:
        problems.append(f"adaptive central-lobe fraction {adaptive:.6f}")
    if abs(brute - 0.9028) > 5e-4:
        problems.append(f"trapezoid oracle fraction {brute:.6f}")
    if abs(adaptive - brute) > 1e-6:
        problems.append(f"adaptive vs oracle differ by {abs(adaptive - brute):.2e}")

    # the detector profile sampled at the nulls sin(theta) = k lambda_m / a:
    # 3 samples over a detector whose ends lie on the k-th null either side
    lam_m_nm = 550.0 / 1.5
    for k in (1, 2, 3):
        sine = k * lam_m_nm / (g.slit_um * 1e3)
        pd = 2.0 * g.depth_mm * math.tan(math.asin(sine))
        ends = profile_on_pd(geom(slit=4.0, depth=1.0, pd=pd, n=1.5), w,
                             3).relative_intensity[::2]
        if max(ends) >= 1e-10:
            problems.append(f"null k={k} leaks {max(ends):.2e}")
    _report(4, "central-lobe fraction 0.9028 +- 5e-4 and null placement",
            problems)


def test_criterion_5_cosine_factor_law():
    rng = random.Random(2468)
    problems = []
    for _ in range(200):
        g = geom(slit=rng.uniform(2.0, 60.0), depth=rng.uniform(0.1, 5.0),
                 pd=rng.uniform(0.01, 2.0), n=rng.uniform(1.1, 2.4))
        inc = rng.uniform(0.5, 89.5)
        lam = rng.uniform(300.0, 1200.0)
        try:
            t0 = transmittance(g, wave(lam, 0.0, order=0))
            ti = transmittance(g, wave(lam, inc, order=0))
        except EvanescentOrder:
            continue
        if t0.value == 0.0:
            continue
        if abs(ti.value / t0.value - math.cos(math.radians(inc))) > 1e-12:
            problems.append(f"ratio off at inc={inc:.3f}")
    t90 = transmittance(geom(n=1.5), wave(550, 90.0, order=0))
    if t90.value != 0.0:
        problems.append(f"grazing transmittance {t90.value!r} is not exactly 0")
    _report(5, "cos-factor law exact and zero at grazing", problems)


def _depth_sweep_gains(tmp_path, base_depth):
    """The tuning_gain column of a depth sweep 0.2 -> 1.0 mm (550 nm, normal
    incidence, first order, 10 um detector) against a baseline depth, as
    ``runner.run`` writes it."""
    sc = scenario_from_dict({
        "geometry": {"slit_um": 4.0, "depth_mm": 0.75, "pd_length_mm": 0.01,
                     "n_ris": 1.5},
        "wave": {"wavelength_nm": 550.0, "incidence_deg": 0.0, "order": 1},
        "sweep": {"parameter": "depth", "from_mm": 0.2, "to_mm": 1.0,
                  "steps": 2, "baseline": {"depth_mm": base_depth}},
    }, name=f"gain_{base_depth}")
    header, *lines = run(sc, tmp_path, quiet=True).artifacts[0] \
        .read_text().splitlines()
    column = header.split(",").index("tuning_gain")
    return [float(line.split(",")[column]) for line in lines]


def test_criterion_6_tuning_gain_properties(tmp_path):
    problems = []
    # rows: depth a = 0.2 mm, then b = 1.0 mm
    from_a = _depth_sweep_gains(tmp_path, 0.2)  # [a - a, b - a]
    from_b = _depth_sweep_gains(tmp_path, 1.0)  # [a - b, b - b]
    if from_a[0] != 0.0 or from_b[1] != 0.0:
        problems.append("identity gain nonzero")
    if from_a[1] != -from_b[0]:
        problems.append("antisymmetry broken")

    # substitute checks for the depth-tuning figure (the published curves
    # rely on an absorption mechanism that is not specified anywhere, so
    # only the qualitative depth behaviour is reproducible)
    depths = (0.2, 0.4, 0.6, 0.8, 1.0)
    grid = np.linspace(400.0, 1000.0, 25)
    curves = {
        y: [transmittance(geom(slit=4.0, depth=y, pd=0.01, n=1.5),
                          wave(lam, 0)).value for lam in grid]
        for y in depths
    }
    visible = [i for i, lam in enumerate(grid) if 400.0 <= lam <= 700.0]
    for i in visible:
        values = [curves[y][i] for y in depths]
        if max(values) - min(values) < 1e-3:
            problems.append(f"depth dependence flat at {grid[i]:.0f} nm")
    spreads = [max(curves[y][i] for y in depths)
               - min(curves[y][i] for y in depths) for i in range(len(grid))]
    # the transmittance curves are monotone here, so the long-wavelength
    # convergence must show up across the whole band
    if not all(b < a for a, b in zip(spreads, spreads[1:])):
        problems.append("depth-curve spread not shrinking toward long "
                        "wavelengths")
    _report(6, "tuning-gain exactness and depth-curve convergence", problems)


def test_criterion_7_inverse_solver_round_trips():
    rng = random.Random(13579)
    problems = []

    for _ in range(1000):  # index solves
        slit = rng.uniform(5.0, 200.0)
        lam = rng.uniform(250.0, 1500.0)
        inc = rng.uniform(10.0, 90.0)
        n0 = rng.uniform(1.05, 2.5)
        g = geom(slit=slit, n=n0)
        w = wave(lam, inc)
        try:
            theta = refraction_angle(g, w)
        except EvanescentOrder:
            continue
        n_hat, _ = solve(DesignTarget("refraction_angle", theta.degrees, w, g,
                                      "n_ris"))
        back = refraction_angle(geom(slit=slit, n=n_hat), w)
        if abs(back.radians - theta.radians) > 1e-9:
            problems.append(f"index round trip off by "
                            f"{abs(back.radians - theta.radians):.2e} rad")

    for _ in range(1000):  # depth solves
        slit = rng.uniform(2.0, 100.0)
        n = rng.uniform(1.1, 2.5)
        lam = rng.uniform(250.0, 1500.0)
        if lam / n >= slit * 1e3:
            continue
        y0 = rng.uniform(0.05, 20.0)
        w = wave(lam, 0.0, order=0)
        g = SteeringGeometry(slit_um=slit, depth_mm=y0, pd_length_mm=1.0, n_ris=n)
        width = 2.0 * y0 * math.tan(first_null_angle(g, w).radians)
        y_hat, _ = solve(DesignTarget("spot_width", width, w, g, "depth"))
        if abs(y_hat - y0) > 1e-9 * y0:
            problems.append(f"depth round trip {y0} -> {y_hat}")

    lc = LiquidCrystalActuator(n_base=1.508, delta_n=0.392)
    base = geom(slit=100.0, depth=0.75, pd=1.0, n=1.508)
    for _ in range(500):  # liquid-crystal voltage solves
        v0 = rng.uniform(3.0, 5.0)
        w = wave(rng.uniform(300.0, 1500.0), rng.uniform(20.0, 90.0))
        value = refraction_angle(lc_apply(lc, v0, base), w).degrees
        target = DesignTarget("refraction_angle", value, w, base, "voltage")
        v_hat = solve_voltage(target, lc)
        achieved = refraction_angle(lc_apply(lc, v_hat, base), w).degrees
        if abs(achieved - value) > 1e-6 * value:
            problems.append(f"lc voltage target missed: {value} vs {achieved}")

    lens = MetaLensActuator(v_max_v=1000.0, stretch_max=1.5,
                            base_geometry=geom(slit=100.0, n=1.6))
    for _ in range(500):  # meta-lens voltage solves
        v0 = rng.uniform(0.0, 1000.0)
        w = wave(rng.uniform(300.0, 1500.0), rng.uniform(10.0, 90.0))
        state = metalens_apply(lens, v0)
        value = state.depth_mm * math.tan(refraction_angle(state, w).radians)
        target = DesignTarget("pd_landing", value, w, None, "voltage")
        v_hat = solve_voltage(target, lens)
        state2 = metalens_apply(lens, v_hat)
        achieved = state2.depth_mm * math.tan(refraction_angle(state2, w).radians)
        if abs(achieved - value) > 1e-6 * value:
            problems.append(f"lens voltage target missed: {value} vs {achieved}")

    _report(7, "inverse solver round trips over randomized targets", problems)


def test_criterion_8_front_end_table():
    problems = []
    sweeps = {kind: rotation_sweep(default_front_end(kind), 0.1)
              for kind in KINDS}
    max_detected = {
        kind: max(a for a, d in zip(s.angles_deg, s.detected) if d)
        for kind, s in sweeps.items()
    }
    expected = {"convex": 36.2, "gilcpc": 40.0, "spherical": 45.0,
                "cmbbp": 85.0}
    for kind, edge in expected.items():
        if abs(max_detected[kind] - edge) > 1e-9:
            problems.append(f"{kind} envelope edge {max_detected[kind]}")
    ordering = [max_detected[k] for k in
                ("convex", "gilcpc", "spherical", "cmbbp", "metalens_ris")]
    if not all(b > a for a, b in zip(ordering, ordering[1:])):
        problems.append(f"envelope ordering broken: {ordering}")
    if max_detected["lc_ris"] < 89.9 or max_detected["metalens_ris"] < 89.9:
        problems.append("tunable kinds lose detection before 89.9 deg")

    for kind in RIS_KINDS:
        s = sweeps[kind]
        ratio_at_zero = s.relative_intensity[0]
        for a, d, i in zip(s.angles_deg, s.detected, s.relative_intensity):
            if a > 89.9:
                continue
            if not d:
                problems.append(f"{kind} undetected at {a} deg")
                break
            ratio = i / math.cos(math.radians(a))
            if abs(ratio - ratio_at_zero) > 1e-3:
                problems.append(f"{kind} intensity at {a} deg strays from "
                                f"cos law: ratio {ratio:.6f}")
                break
    _report(8, "front-end envelope table on a 0.1 deg grid", problems)


def test_criterion_9_figure_suite_determinism(tmp_path):
    problems = []
    durations = []
    for run_dir in ("run1", "run2"):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "ris_vlc.cli", "figures", "--quiet",
             "--out", str(tmp_path / run_dir)],
            capture_output=True, text=True)
        durations.append(time.perf_counter() - start)
        if result.returncode != 0:
            problems.append(f"figures run failed: {result.stderr[:200]}")
    csvs = sorted((tmp_path / "run1").glob("*.csv"))
    if len(csvs) < 7:
        problems.append(f"only {len(csvs)} csv artifacts produced")
    for path in csvs:
        twin = tmp_path / "run2" / path.name
        if not filecmp.cmp(path, twin, shallow=False):
            problems.append(f"{path.name} differs between runs")
    for d in durations:
        if d >= 60.0:
            problems.append(f"figure suite took {d:.1f} s")
    print(f"    (figure suite: {durations[0]:.1f} s and {durations[1]:.1f} s)")
    _report(9, "byte-identical figure suite under 60 s", problems)
