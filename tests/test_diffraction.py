import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import sici

from ris_vlc.diffraction import (IntensityProfile, NullBeyondHorizon,
                                 _half_capture,
                                 first_null_angle,
                                 fraunhofer_relative_intensity,
                                 medium_wavelength_nm, pattern_power_fraction,
                                 profile_on_pd, spot_report, steering_offset_mm)
from ris_vlc.optics import (Angle, EvanescentOrder, IncidentWave,
                            SteeringGeometry, Wavelength)
from ris_vlc.runner import run
from ris_vlc.scenario import ProfileSpec, Scenario

TAN_HORIZON = math.tan(math.radians(89.9))


def geom(slit=4.0, depth=1.0, pd=1.0, n=1.5):
    return SteeringGeometry(slit_um=slit, depth_mm=depth, pd_length_mm=pd, n_ris=n)


def wave(lam=550.0, inc=0.0, order=0):
    return IncidentWave(Wavelength(lam), Angle.from_degrees(inc), order=order)


def brute_fraction(g, w, halfwidth_mm, samples=1_000_001):
    """Trapezoid oracle for the capture fraction (paraxial pattern,
    horizon-truncated normalisation)."""
    lam_m_mm = w.wavelength.nanometres / g.n_ris * 1e-6
    scale = lam_m_mm * g.depth_mm / (g.slit_um * 1e-3)
    u_max = TAN_HORIZON * g.depth_mm
    u_num = np.linspace(0.0, min(halfwidth_mm, u_max), samples)
    u_den = np.linspace(0.0, u_max, samples)
    num = np.trapezoid(np.sinc(u_num / scale) ** 2, u_num)
    den = np.trapezoid(np.sinc(u_den / scale) ** 2, u_den)
    return num / den


class TestPointIntensity:
    def test_unity_at_center(self):
        assert fraunhofer_relative_intensity(geom(), wave(), Angle(0.0)) == 1.0

    def test_first_null(self):
        lam_m = medium_wavelength_nm(geom(), wave())
        theta = Angle(math.asin(lam_m / 4000.0))
        assert fraunhofer_relative_intensity(geom(), wave(), theta) < 1e-12

    def test_nulls_to_third_order(self):
        g, w = geom(), wave()
        lam_m = medium_wavelength_nm(g, w)
        for k in (1, 2, 3):
            theta = Angle(math.asin(k * lam_m / (g.slit_um * 1e3)))
            assert fraunhofer_relative_intensity(g, w, theta) < 1e-10

    def test_half_null_value(self):
        # sinc^2 at half the first-null argument: (2/pi)^2
        g, w = geom(), wave()
        lam_m = medium_wavelength_nm(g, w)
        theta = Angle(math.asin(lam_m / (2 * g.slit_um * 1e3)))
        assert fraunhofer_relative_intensity(g, w, theta) == \
            pytest.approx((2 / math.pi) ** 2, abs=1e-9)

    def test_range_check(self):
        with pytest.raises(ValueError):
            fraunhofer_relative_intensity(geom(), wave(), Angle.from_degrees(90.0))


class TestProfile:
    def test_symmetric_at_normal_incidence(self):
        prof = profile_on_pd(geom(), wave(order=0), 201)
        assert prof.center_offset_mm == 0.0
        np.testing.assert_allclose(prof.relative_intensity,
                                   prof.relative_intensity[::-1],
                                   rtol=0, atol=1e-13)
        assert prof.relative_intensity[100] == 1.0  # exact centre sample

    def test_matches_point_operation(self):
        g, w = geom(), wave(lam=633, order=1)
        prof = profile_on_pd(g, w, 51)
        for u, val in zip(prof.positions_mm, prof.relative_intensity):
            theta = Angle(math.atan((u - prof.center_offset_mm) / g.depth_mm))
            assert val == pytest.approx(
                fraunhofer_relative_intensity(g, w, theta), abs=1e-14)

    def test_steered_center(self):
        g, w = geom(), wave(lam=550, order=1)
        prof = profile_on_pd(g, w, 11)
        expected = g.depth_mm * math.tan(math.asin((550 / 1.5) / 4000.0))
        assert prof.center_offset_mm == pytest.approx(expected, rel=1e-12)
        assert prof.center_offset_mm == pytest.approx(
            steering_offset_mm(g, w), rel=0, abs=0)

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            profile_on_pd(geom(), wave(), 2)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            IntensityProfile(np.array([0.0, 1.0]), np.array([0.5, 1.5]),
                             0.0, 366.7)
        with pytest.raises(ValueError):
            IntensityProfile(np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                             0.0, 366.7)

    def test_csv_round_trip(self, tmp_path):
        g, w = geom(), wave()
        sc = Scenario(name="p", geometry=g, wave=w,
                      profile=ProfileSpec(samples=21))
        run(sc, tmp_path, quiet=True)
        rows = (tmp_path / "p_profile.csv").read_text().splitlines()
        assert rows[0] == "position_mm,relative_intensity"
        assert len(rows) == 22
        prof = profile_on_pd(g, w, 21)
        cells = np.array([row.split(",") for row in rows[1:]], dtype=float)
        assert np.array_equal(cells[:, 0], prof.positions_mm)
        assert np.array_equal(cells[:, 1], prof.relative_intensity)


class TestSpotReport:
    def test_reference_width(self):
        # oracle: 2 * y * tan(asin(lambda_m / a)), lambda_m = 550 / 1.5
        report = spot_report(geom(depth=1.0), wave())
        assert report.first_null_angle.degrees == \
            pytest.approx(5.259496464414606, abs=1e-12)
        assert report.full_width_mm == \
            pytest.approx(0.18410847641434433, abs=1e-15)

    def test_width_scales_with_depth(self):
        w_1 = spot_report(geom(depth=1.0), wave()).full_width_mm
        w_075 = spot_report(geom(depth=0.75), wave()).full_width_mm
        w_2 = spot_report(geom(depth=2.0), wave()).full_width_mm
        assert w_075 == pytest.approx(0.13808135731075824, abs=1e-15)
        assert w_2 == pytest.approx(2 * w_1, rel=1e-12)
        # width / depth is depth-independent
        assert w_075 / 0.75 == pytest.approx(w_1 / 1.0, rel=1e-12)

    def test_wider_slit_shrinks_spot(self):
        w_1 = spot_report(geom(slit=4.0), wave()).full_width_mm
        w_10 = spot_report(geom(slit=40.0), wave()).full_width_mm
        assert w_1 / w_10 == pytest.approx(10.0, rel=1e-2)  # small-angle regime

    def test_no_null_reports_infinite_width(self):
        g = geom(slit=0.3, n=1.2)  # lambda_m / a = 1.53
        with pytest.raises(NullBeyondHorizon):
            first_null_angle(g, wave())
        report = spot_report(g, wave())
        assert math.isinf(report.full_width_mm)
        assert report.first_null_angle.degrees == 90.0
        assert 0.0 < report.pd_coverage <= 1.0

    def test_evanescent_order_propagates(self):
        with pytest.raises(EvanescentOrder):
            spot_report(geom(slit=0.4, n=1.1), wave(lam=800, inc=90, order=1))


class TestPowerFraction:
    def test_central_lobe_share(self):
        g, w = geom(), wave()
        half = spot_report(g, w).full_width_mm / 2
        got = pattern_power_fraction(g, w, half)
        assert got == pytest.approx(0.9028, abs=5e-4)
        assert got == pytest.approx(brute_fraction(g, w, half), abs=1e-6)

    def test_monotone_in_window(self):
        g, w = geom(), wave()
        windows = [0.01, 0.05, 0.1, 0.2, 0.5, 2.0, 50.0]
        values = [pattern_power_fraction(g, w, h) for h in windows]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_full_window_is_unity(self):
        assert pattern_power_fraction(geom(), wave(), math.inf) == 1.0

    def test_tiny_window_vanishes(self):
        assert pattern_power_fraction(geom(), wave(), 1e-9) < 1e-6

    def test_window_guard(self):
        with pytest.raises(ValueError):
            pattern_power_fraction(geom(), wave(), 0.0)

    @pytest.mark.parametrize("halfwidth", [0.03, 0.092, 0.4])
    def test_against_trapezoid_oracle(self, halfwidth):
        g, w = geom(), wave()
        got = pattern_power_fraction(g, w, halfwidth)
        assert got == pytest.approx(brute_fraction(g, w, halfwidth), abs=1e-6)


def sici_half_capture(t):
    """integral_0^t sinc^2 with Si from scipy, an independent oracle."""
    si, _ = sici(2.0 * math.pi * t)
    return (si - math.sin(math.pi * t) ** 2 / (math.pi * t)) / math.pi


# Si switches from its power series to its continued fraction at
# 2 pi t = 2: probe a few ulps and a few parts in 1e6 either side.
SEAM = 1.0 / math.pi
SEAM_ULPS = [SEAM * (1 + k * 1e-15) for k in range(-4, 5)]
SEAM_NEAR = [SEAM * (1 + k * 1e-6) for k in (-3, -1, 1, 3)]
# Grids with steps well above rounding (~3e-16 here), where the integral
# must increase visibly or stay flat.
RESOLVED_GRIDS = [np.geomspace(1e-3, 2e5, 20001), np.arange(1.0, 51.0),
                  np.array(SEAM_NEAR)]


class TestHalfCapture:
    @pytest.mark.parametrize("grid", [
        pytest.param(np.geomspace(1e-3, 2e5, 2001), id="geomspace"),
        pytest.param(np.arange(1.0, 51.0), id="nulls"),
        pytest.param(np.array(SEAM_ULPS + SEAM_NEAR), id="seam"),
    ])
    def test_against_scipy_sici(self, grid):
        got = np.array([_half_capture(float(t)) for t in grid])
        want = np.array([sici_half_capture(float(t)) for t in grid])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_nondecreasing(self):
        for grid in RESOLVED_GRIDS:
            values = [_half_capture(float(t)) for t in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_limits(self):
        assert _half_capture(0.0) == 0.0
        # integral_0^inf sinc^2 = 1/2, tail below 1/(pi^2 t)
        big = 1e7
        assert 0.5 - 1 / (math.pi ** 2 * big) <= _half_capture(big) <= 0.5


def test_import_leaves_scipy_out():
    code = "import sys, ris_vlc; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


NUMPY_FREE_RUNS = """
import sys
import ris_vlc, ris_vlc.cli
from ris_vlc.runner import bundled_scenario_path

def state():
    # ris_vlc._g17 builds its powers-of-ten table on import
    return [m for m in ("numpy", "fractions", "decimal", "ris_vlc._g17")
            if m in sys.modules]

print(state())
design, out = sys.argv[1:]
runs = [("sweep", bundled_scenario_path("fig2-left")),
        ("bench", bundled_scenario_path("table1")), ("design", design)]
codes = [ris_vlc.cli.main([command, "--scenario", str(path), "--out", out,
                           "--quiet"]) for command, path in runs]
print(codes, state())
profile = bundled_scenario_path("fig3-left")
print(ris_vlc.cli.main(["eval", "--scenario", str(profile), "--out", out,
                        "--quiet"]), state())
"""


def test_numpy_is_imported_only_to_sample_a_profile(tmp_path):
    design = tmp_path / "dz.json"
    design.write_text(json.dumps({
        "geometry": {"slit_um": 4.0, "depth_mm": 0.75, "pd_length_mm": 1.0,
                     "n_ris": 1.5},
        "wave": {"wavelength_nm": 550.0, "incidence_deg": 0.0, "order": 0},
        "design": {"kind": "spot_width", "value_mm": 0.184, "free": "depth"}}))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    lines = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_RUNS, str(design), str(out)],
        check=True, env=env, capture_output=True, text=True).stdout.splitlines()
    # Importing the CLI and the sweep, bench and design runs load neither
    # numpy nor fractions or decimal, and build no powers-of-ten table.
    assert lines == ["[]", "[0, 0, 0] []", "0 ['numpy', 'ris_vlc._g17']"]
    assert (out / "fig2-left_sweep.csv").exists()
    assert (out / "table1_bench.csv").exists()
    assert (out / "dz_design.csv").exists()
    assert (out / "fig3-left_profile.csv").stat().st_size > 0


BLAS_PIN_RUN = """
import os, sys
import ris_vlc.cli
from ris_vlc.runner import bundled_scenario_path

print(os.environ.get("OPENBLAS_NUM_THREADS"))
profile = bundled_scenario_path("fig3-left")
code = ris_vlc.cli.main(["eval", "--scenario", str(profile), "--out",
                         sys.argv[1], "--quiet"])
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 1
print(code, os.environ.get("OPENBLAS_NUM_THREADS"), tasks)
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_runs_openblas_on_one_thread(tmp_path, preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    imported, ran = subprocess.run(
        [sys.executable, "-c", BLAS_PIN_RUN, str(tmp_path)], check=True,
        env=env, capture_output=True, text=True).stdout.splitlines()
    # Importing the CLI leaves the environment alone; main() pins OpenBLAS
    # before numpy loads, unless the caller chose a thread count.
    assert imported == str(preset)
    code, threads, tasks = ran.split()
    assert (code, threads) == ("0", preset or "1")
    if preset is None:
        assert tasks == "1"
