import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import sici

from ris_vlc.diffraction import (NullBeyondHorizon, _half_capture, evaluate,
                                 first_null_angle, medium_wavelength_nm,
                                 pattern_power_fraction, profile_on_pd,
                                 steering_offset_mm)
from ris_vlc.optics import EvanescentOrder, IncidentWave, SteeringGeometry
from ris_vlc.runner import run
from ris_vlc.scenario import (ProfileSpec, Scenario, ScenarioError,
                              scenario_from_dict)

TAN_HORIZON = math.tan(math.radians(89.9))
# numpy >= 2.0 spells it trapezoid, numpy 1.x trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def geom(slit=4.0, depth=1.0, pd=1.0, n=1.5):
    return SteeringGeometry(slit_um=slit, depth_mm=depth, pd_length_mm=pd, n_ris=n)


def wave(lam=550.0, inc=0.0, order=0, power=1.0):
    return IncidentWave(lam, inc, power_w=power, order=order)


def brute_fraction(g, w, halfwidth_mm, samples=1_000_001):
    """Trapezoid oracle for the capture fraction (paraxial pattern,
    horizon-truncated normalisation)."""
    lam_m_mm = w.wavelength_nm / g.n_ris * 1e-6
    scale = lam_m_mm * g.depth_mm / (g.slit_um * 1e-3)
    u_max = TAN_HORIZON * g.depth_mm
    u_num = np.linspace(0.0, min(halfwidth_mm, u_max), samples)
    u_den = np.linspace(0.0, u_max, samples)
    num = trapezoid(np.sinc(u_num / scale) ** 2, u_num)
    den = trapezoid(np.sinc(u_den / scale) ** 2, u_den)
    return num / den


def sampled_at_sine(g, w, sine):
    """``profile_on_pd`` at 3 samples, on a detector sized so that its ends
    lie at sin(theta) = ``sine`` either side of the unsteered centre
    (order 0, normal incidence)."""
    pd = 2 * g.depth_mm * math.tan(math.asin(sine))
    return profile_on_pd(replace(g, pd_length_mm=pd), w, 3).relative_intensity


class TestPointIntensity:
    """Point intensities as the profile samples them."""

    def test_unity_at_center(self):
        assert sampled_at_sine(geom(), wave(), 0.5)[1] == 1.0

    def test_first_null(self):
        lam_m = medium_wavelength_nm(geom(), wave())
        ends = sampled_at_sine(geom(), wave(), lam_m / 4000.0)[::2]
        assert max(ends) < 1e-12

    def test_nulls_to_third_order(self):
        g, w = geom(), wave()
        lam_m = medium_wavelength_nm(g, w)
        for k in (1, 2, 3):
            ends = sampled_at_sine(g, w, k * lam_m / (g.slit_um * 1e3))[::2]
            assert max(ends) < 1e-10

    def test_half_null_value(self):
        # sinc^2 at half the first-null argument: (2/pi)^2
        g, w = geom(), wave()
        lam_m = medium_wavelength_nm(g, w)
        ends = sampled_at_sine(g, w, lam_m / (2 * g.slit_um * 1e3))[::2]
        for value in ends:
            assert value == pytest.approx((2 / math.pi) ** 2, abs=1e-9)


class TestProfile:
    def test_symmetric_at_normal_incidence(self):
        prof = profile_on_pd(geom(), wave(order=0), 201)
        assert steering_offset_mm(geom(), wave(order=0)) == 0.0
        np.testing.assert_allclose(prof.relative_intensity,
                                   prof.relative_intensity[::-1],
                                   rtol=0, atol=1e-13)
        assert prof.relative_intensity[100] == 1.0  # exact centre sample

    def test_matches_point_operation(self):
        g, w = geom(), wave(lam=633, order=1)
        prof = profile_on_pd(g, w, 51)
        ratio = g.slit_um * 1e3 / medium_wavelength_nm(g, w)
        centre = steering_offset_mm(g, w)
        for u, val in zip(prof.positions_mm, prof.relative_intensity):
            theta = math.atan((u - centre) / g.depth_mm)
            x = math.pi * ratio * math.sin(theta)
            sinc2 = 1.0 if x == 0.0 else (math.sin(x) / x) ** 2
            assert val == pytest.approx(sinc2, abs=1e-14)

    @pytest.mark.parametrize("order", [1, 2])
    def test_overflowing_hypotenuse_and_offset(self, order):
        # hypot(y, u - centre) overflows on the first slab, and the centre
        # itself on the second, where every sine is -1
        g, w = geom(depth=1.7e308), wave(inc=60.0, order=order)
        prof = profile_on_pd(g, w, 5)
        ratio = g.slit_um * 1e3 / medium_wavelength_nm(g, w)
        centre = steering_offset_mm(g, w)
        for u, val in zip(prof.positions_mm, prof.relative_intensity):
            theta = math.atan((u - centre) / g.depth_mm)
            x = math.pi * ratio * math.sin(theta)
            assert val == pytest.approx((math.sin(x) / x) ** 2, abs=1e-14)

    def test_steered_center(self):
        g, w = geom(), wave(lam=550, order=1)
        expected = g.depth_mm * math.tan(math.asin((550 / 1.5) / 4000.0))
        assert steering_offset_mm(g, w) == pytest.approx(expected, rel=1e-12)

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            profile_on_pd(geom(), wave(), 2)

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
        report = evaluate(geom(depth=1.0), wave())
        assert report.first_null_angle_deg == \
            pytest.approx(5.259496464414606, abs=1e-12)
        assert report.full_width_mm == \
            pytest.approx(0.18410847641434433, abs=1e-15)

    def test_width_scales_with_depth(self):
        w_1 = evaluate(geom(depth=1.0), wave()).full_width_mm
        w_075 = evaluate(geom(depth=0.75), wave()).full_width_mm
        w_2 = evaluate(geom(depth=2.0), wave()).full_width_mm
        assert w_075 == pytest.approx(0.13808135731075824, abs=1e-15)
        assert w_2 == pytest.approx(2 * w_1, rel=1e-12)
        # width / depth is depth-independent
        assert w_075 / 0.75 == pytest.approx(w_1 / 1.0, rel=1e-12)

    def test_wider_slit_shrinks_spot(self):
        w_1 = evaluate(geom(slit=4.0), wave()).full_width_mm
        w_10 = evaluate(geom(slit=40.0), wave()).full_width_mm
        assert w_1 / w_10 == pytest.approx(10.0, rel=1e-2)  # small-angle regime

    def test_no_null_reports_infinite_width(self):
        g = geom(slit=0.3, n=1.2)  # lambda_m / a = 1.53
        with pytest.raises(NullBeyondHorizon):
            first_null_angle(g, wave())
        report = evaluate(g, wave())
        assert math.isinf(report.full_width_mm)
        assert report.first_null_angle_deg == 90.0
        assert 0.0 < report.pd_coverage <= 1.0

    def test_evanescent_order_propagates(self):
        with pytest.raises(EvanescentOrder):
            evaluate(geom(slit=0.4, n=1.1), wave(lam=800, inc=90, order=1))


class TestPowerFraction:
    def test_central_lobe_share(self):
        g, w = geom(), wave()
        half = evaluate(g, w).full_width_mm / 2
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

    @pytest.mark.parametrize("slit", [4.0, 1.7e308])
    def test_vanishing_null_distance_captures_everything(self, slit):
        # the first-null distance lambda_m y / a underflows to 0
        assert pattern_power_fraction(geom(slit=slit, depth=5e-324), wave(),
                                      0.5) == 1.0

    def test_horizon_of_an_overflowing_depth(self):
        # tan(horizon) y overflows; the horizon is tan(horizon) a / lambda_m
        g, w = geom(depth=1.7e308), wave()
        lam_m_mm = 550.0 / 1.5 * 1e-6
        scale = lam_m_mm * g.depth_mm / (g.slit_um * 1e-3)
        t_max = TAN_HORIZON * g.slit_um * 1e-3 / lam_m_mm
        want = (0.5 / scale) / sici_half_capture(t_max)
        assert pattern_power_fraction(g, w, 0.5) == pytest.approx(want,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("depth", [1e-3, 1.0, 1e300])
    def test_flat_pattern_below_the_wavelength(self, depth):
        # a 1e-310 um slit: sinc^2 is 1 out to the horizon, so the window
        # holds its share of the horizon
        g = geom(slit=1e-310, depth=depth)
        want = min(0.5 / (TAN_HORIZON * depth), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = pattern_power_fraction(g, wave(), 0.5)
        assert got == pytest.approx(want, rel=1e-12)


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

    @pytest.mark.parametrize("upper", [0.5, 1.0, 3.5, 100.0, 6250.44])
    def test_sinc2_against_closed_form(self, upper):
        assert _half_capture(upper) == pytest.approx(sici_half_capture(upper),
                                                     abs=1e-12)

    @pytest.mark.parametrize("upper", [1.0, 3.5])
    def test_against_brute_force_trapezoid(self, upper):
        # independent oracle: 10^6 uniform trapezoid samples
        t = np.linspace(0.0, upper, 1_000_001)
        brute = trapezoid(np.sinc(t) ** 2, t)
        assert abs(_half_capture(upper) - brute) < 1e-6

    def test_nondecreasing(self):
        for grid in RESOLVED_GRIDS:
            values = [_half_capture(float(t)) for t in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_limits(self):
        assert _half_capture(0.0) == 0.0
        # integral_0^inf sinc^2 = 1/2, tail below 1/(pi^2 t)
        big = 1e7
        assert 0.5 - 1 / (math.pi ** 2 * big) <= _half_capture(big) <= 0.5

    @pytest.mark.parametrize("t", [1e300, 1e308, math.inf])
    def test_overflowing_argument_gives_one_half(self, t):
        assert _half_capture(t) == 0.5

    @pytest.mark.parametrize("t", [1e-150, 1e-155, 1e-162, 1e-200, 5e-324])
    def test_tiny_argument_gives_itself(self, t):
        # integral_0^t sinc^2 = t - pi^2 t^3 / 9 + ..., which is t here
        assert _half_capture(t) == pytest.approx(t, rel=1e-15)


def _positive(lo=5e-324):
    """Every finite float from ``lo`` up, with both ends of the range."""
    return (st.floats(lo, sys.float_info.max)
            | st.sampled_from([lo, 1.7e308, sys.float_info.max]))


@settings(max_examples=300, deadline=None)
@given(slit=_positive(), depth=_positive(), pd=_positive(sys.float_info.min),
       n=st.floats(1.0, 2.5, exclude_min=True),
       n_air=st.floats(1.0, 1.001), lam=st.floats(200.0, 2000.0),
       inc=st.floats(0.0, 90.0), power=st.floats(0.0, sys.float_info.max),
       order=st.integers(0, 3))
# The three slabs of the library's minimal evaluation that raised a math
# domain error, a ZeroDivisionError and a domain error again.
@example(slit=1.7e308, depth=0.75, pd=1.0, n=1.5, n_air=1.0, lam=550.0,
         inc=0.0, power=1.0, order=1)
@example(slit=4.0, depth=5e-324, pd=1.0, n=1.5, n_air=1.0, lam=550.0,
         inc=0.0, power=1.0, order=1)
@example(slit=4.0, depth=1.7e308, pd=1.0, n=1.5, n_air=1.0, lam=550.0,
         inc=0.0, power=1.0, order=1)
def test_evaluate_over_every_validated_slab(slit, depth, pd, n, n_air, lam,
                                            inc, power, order):
    """Every slab and wave that validation accepts either raise
    EvanescentOrder or give a metric row without NaN: angles in
    [0, 90] deg, a width >= 0 or +inf, coverage, transmittance and cos
    factor in [0, 1], and at most the incident power captured."""
    g = SteeringGeometry(slit_um=slit, depth_mm=depth, pd_length_mm=pd,
                         n_ris=n, n_air=n_air)
    w = IncidentWave(lam, inc, power_w=power, order=order)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the tail bound
            m = evaluate(g, w)
    except EvanescentOrder:
        return
    assert not any(math.isnan(v) for v in m)
    assert 0.0 <= m.refraction_angle_deg < 90.0
    assert 0.0 <= m.first_null_angle_deg <= 90.0
    assert m.full_width_mm >= 0.0
    assert 0.0 <= m.pd_coverage <= 1.0
    assert 0.0 <= m.transmittance <= 1.0
    assert 0.0 <= m.incidence_factor <= 1.0
    assert 0.0 <= m.captured_power_w <= power


@settings(max_examples=300, deadline=None)
@given(slit=_positive(), depth=_positive(), pd=_positive(sys.float_info.min),
       n=st.floats(1.0, 2.5, exclude_min=True),
       n_air=st.floats(1.0, 1.001), lam=st.floats(200.0, 2000.0),
       inc=st.floats(0.0, 90.0), order=st.integers(0, 3),
       samples=st.integers(3, 300))
@example(slit=1.7e308, depth=0.75, pd=1.0, n=1.5, n_air=1.0, lam=550.0,
         inc=0.0, order=1, samples=3)
@example(slit=4.0, depth=5e-324, pd=1.0, n=1.5, n_air=1.0, lam=550.0,
         inc=0.0, order=1, samples=3)
@example(slit=4.0, depth=1.7e308, pd=1.0, n=1.5, n_air=1.0, lam=550.0,
         inc=0.0, order=1, samples=3)
def test_profile_over_every_validated_slab(slit, depth, pd, n, n_air, lam,
                                           inc, order, samples):
    """Every slab and wave that validation accepts either raise
    EvanescentOrder or give ``samples`` strictly increasing positions from
    -pd/2 to pd/2 and intensities in [0, 1], none of them NaN."""
    g = SteeringGeometry(slit_um=slit, depth_mm=depth, pd_length_mm=pd,
                         n_ris=n, n_air=n_air)
    w = IncidentWave(lam, inc, order=order)
    try:
        u, intensity = profile_on_pd(g, w, samples)
    except EvanescentOrder:
        return
    assert u.shape == intensity.shape == (samples,)
    assert u[0] == -pd / 2 and u[-1] == pd / 2
    assert np.all(np.diff(u) > 0)
    assert np.all((intensity >= 0.0) & (intensity <= 1.0))  # False for NaN


@settings(max_examples=200, deadline=None)
@given(slit=_positive(), depth=st.sampled_from([1e-3, 0.75, 1e300]))
@example(slit=1e-300, depth=0.75)
def test_tail_bound_is_at_most_one(slit, depth):
    """The horizon tail warning states a bound of at most the whole power,
    however narrow the slit."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pattern_power_fraction(geom(slit=slit, depth=depth), wave(), 0.5)
    for w in caught:
        bound = re.search(r"bounded by (\S+) of total power", str(w.message))
        assert 1e-3 < float(bound.group(1)) <= 1.0


def test_evaluate_finds_the_refraction_angle_once(monkeypatch):
    from ris_vlc import diffraction

    calls = []
    real = diffraction.refraction_angle
    monkeypatch.setattr(diffraction, "refraction_angle",
                        lambda g, w: calls.append(1) or real(g, w))
    m = evaluate(geom(), wave(order=1))
    assert len(calls) == 1
    assert m.refraction_angle_deg == math.degrees(real(geom(), wave(order=1)))


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


def lobe_geom(slit=4.0, depth=1.0, pd=0.184104, n=1.5):
    """``geom`` with a detector that spans the central lobe at 550 nm."""
    return geom(slit=slit, depth=depth, pd=pd, n=n)


def brute_transmittance(g, w, samples=400_001):
    """Trapezoid oracle for the whole transmittance pipeline."""
    fraction = brute_fraction(g, w, g.pd_length_mm / 2, samples)
    return math.cos(math.radians(w.incidence_deg)) * fraction


class TestTransmittance:
    def test_grazing_incidence_is_exactly_zero(self):
        t = evaluate(lobe_geom(), wave(inc=90.0))
        assert t.transmittance == 0.0
        assert t.incidence_factor == 0.0
        assert t.captured_power_w == 0.0

    def test_sixty_degrees_halves_normal_incidence(self):
        t0 = evaluate(lobe_geom(), wave(inc=0.0))
        t60 = evaluate(lobe_geom(), wave(inc=60.0))
        assert t60.transmittance == pytest.approx(0.5 * t0.transmittance,
                                                  rel=1e-12)

    def test_central_lobe_window(self):
        # detector sized to the central lobe captures its classic share
        t = evaluate(lobe_geom(), wave())
        assert t.transmittance == pytest.approx(0.9028, abs=5e-4)

    def test_cos_factor_exact_over_random_geometries(self):
        rng = random.Random(20260810)
        for _ in range(50):
            g = geom(slit=rng.uniform(2, 50), depth=rng.uniform(0.1, 5),
                     pd=rng.uniform(0.01, 2), n=rng.uniform(1.1, 2.4))
            inc = rng.uniform(1.0, 89.0)
            t0 = evaluate(g, wave(inc=0.0))
            ti = evaluate(g, wave(inc=inc))
            assert ti.transmittance / t0.transmittance == pytest.approx(
                math.cos(math.radians(inc)), abs=1e-12)

    def test_captured_power_scales_with_input(self):
        t = evaluate(lobe_geom(), wave(power=2.5))
        assert t.captured_power_w == pytest.approx(2.5 * t.transmittance,
                                                   rel=1e-15)
        assert t.captured_power_w <= 2.5

    def test_energy_conservation_random(self):
        rng = random.Random(7)
        for _ in range(25):
            g = geom(slit=rng.uniform(1, 80), depth=rng.uniform(0.05, 10),
                     pd=rng.uniform(0.005, 5), n=rng.uniform(1.05, 2.5))
            w = wave(lam=rng.uniform(250, 1900), inc=rng.uniform(0, 90),
                     power=rng.uniform(0, 5))
            try:
                t = evaluate(g, w)
            except EvanescentOrder:
                continue
            assert 0.0 <= t.transmittance <= 1.0
            assert t.captured_power_w <= w.power_w + 1e-15

    def test_pd_monotonicity(self):
        values = [evaluate(lobe_geom(pd=pd), wave()).transmittance
                  for pd in (0.05, 0.1, 0.2, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_evanescent_propagates(self):
        with pytest.raises(EvanescentOrder):
            evaluate(lobe_geom(slit=0.4, n=1.1),
                     wave(lam=800, inc=90, order=1))


def sweep_rows(tmp_path, g, w, from_nm, to_nm, steps, **extra):
    """Rows of the wavelength sweep that ``runner.run`` writes for this
    geometry and wave, as dicts of the CSV's cells."""
    sc = scenario_from_dict({
        "geometry": {"slit_um": g.slit_um, "depth_mm": g.depth_mm,
                     "pd_length_mm": g.pd_length_mm, "n_ris": g.n_ris},
        "wave": {"wavelength_nm": w.wavelength_nm,
                 "incidence_deg": w.incidence_deg, "order": w.order},
        "sweep": {"parameter": "wavelength", "from_nm": from_nm,
                  "to_nm": to_nm, "steps": steps, **extra}}, name="sweep")
    report = run(sc, tmp_path, quiet=True)
    header, *lines = report.artifacts[0].read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestTuningGain:
    """The ``tuning_gain`` column of a wavelength sweep with a baseline:
    the swept slab's transmittance minus the baseline slab's."""

    @staticmethod
    def gains(tmp_path, g, w, base_depth, lams):
        rows = sweep_rows(tmp_path, g, w, lams[0], lams[-1], len(lams),
                          baseline={"depth_mm": base_depth})
        assert [float(r["wavelength_nm"]) for r in rows] == list(lams)
        return [float(r["tuning_gain"]) for r in rows]

    def test_identity_is_zero(self, tmp_path):
        assert self.gains(tmp_path, lobe_geom(), wave(), 1.0,
                          (550.0, 700.0)) == [0.0, 0.0]

    def test_antisymmetry_exact(self, tmp_path):
        w, lams = wave(), (550.0, 700.0)
        forward = self.gains(tmp_path, lobe_geom(depth=1.0), w, 0.2, lams)
        backward = self.gains(tmp_path, lobe_geom(depth=0.2), w, 1.0, lams)
        assert forward == [-g for g in backward]
        assert all(g != 0.0 for g in forward)

    def test_gain_matches_direct_difference(self, tmp_path):
        a, b = lobe_geom(depth=0.2, pd=0.01), lobe_geom(depth=1.0, pd=0.01)
        got = self.gains(tmp_path, b, wave(), 0.2, (700.0, 1000.0))
        for lam, gain in zip((700.0, 1000.0), got):
            w = wave(lam=lam)
            assert gain == (evaluate(b, w).transmittance
                            - evaluate(a, w).transmittance)

    def test_bounds(self, tmp_path):
        (gain, _) = self.gains(tmp_path, lobe_geom(depth=1.0, pd=0.01),
                               wave(), 0.2, (400.0, 1000.0))
        assert -1.0 <= gain <= 1.0

    def test_gain_curve_matches_trapezoid_oracle(self, tmp_path):
        # depth 0.2 -> 1.0 mm expansion, 10 um detector, band sample points;
        # each gain value checked against two brute-force transmittances
        before = lobe_geom(depth=0.2, pd=0.01)
        after = lobe_geom(depth=1.0, pd=0.01)
        lams = (400.0, 550.0, 700.0, 850.0, 1000.0)
        got = self.gains(tmp_path, after, wave(order=1), 0.2, lams)
        for lam, gain in zip(lams, got):
            w = wave(lam=lam, order=1)
            oracle = (brute_transmittance(after, w)
                      - brute_transmittance(before, w))
            assert gain == pytest.approx(oracle, abs=1e-5)

    def test_failing_baseline_is_a_row_error(self, tmp_path):
        # the first order propagates through the 4 um slit but not through
        # the 0.4 um baseline slit, so the row records why, as any failed
        # row does
        g, w = lobe_geom(slit=4.0, n=1.4), wave(inc=90.0, order=1)
        rows = sweep_rows(tmp_path, g, w, 800.0, 900.0, 2)
        assert [r["error"] for r in rows] == ["", ""]
        rows = sweep_rows(tmp_path, g, w, 800.0, 900.0, 2,
                          baseline={"slit_um": 0.4})
        assert [r["error"] for r in rows] == ["EvanescentOrder"] * 2
        assert [r["tuning_gain"] for r in rows] == ["", ""]


class TestWavelengthSweep:
    """The wavelength sweep as ``runner.run`` executes a sweep scenario."""

    def test_two_steps_hits_endpoints(self, tmp_path):
        rows = sweep_rows(tmp_path, lobe_geom(), wave(), 400.0, 800.0, 2)
        assert [float(r["wavelength_nm"]) for r in rows] == [400.0, 800.0]
        assert all(r["error"] == "" for r in rows)

    def test_uniform_grid_inclusive(self, tmp_path):
        rows = sweep_rows(tmp_path, lobe_geom(), wave(), 400.0, 1000.0, 7)
        lams = [float(r["wavelength_nm"]) for r in rows]
        assert lams == pytest.approx([400, 500, 600, 700, 800, 900, 1000])

    def test_values_bounded_and_finite(self, tmp_path):
        rows = sweep_rows(tmp_path, lobe_geom(pd=0.01), wave(order=1),
                          400.0, 1000.0, 13)
        assert len(rows) == 13
        for r in rows:
            assert r["error"] == ""
            value = float(r["transmittance"])
            assert 0.0 <= value <= 1.0
            assert math.isfinite(value)

    def test_errors_recorded_in_place(self, tmp_path):
        # at grazing incidence the first order goes evanescent from 1600 nm
        g = SteeringGeometry(slit_um=4.0, depth_mm=1.0, pd_length_mm=0.1,
                             n_ris=1.4)
        w = wave(lam=550, inc=90, order=1)
        rows = sweep_rows(tmp_path, g, w, 1500.0, 1700.0, 5)
        assert [r["error"] == "" for r in rows] == \
            [True, True, False, False, False]
        assert rows[-1]["error"] == "EvanescentOrder"

    def test_log_spacing(self, tmp_path):
        rows = sweep_rows(tmp_path, lobe_geom(), wave(), 400.0, 1600.0, 3,
                          spacing="log")
        assert float(rows[1]["wavelength_nm"]) == pytest.approx(800.0, rel=1e-12)
        with pytest.raises(ScenarioError):
            sweep_rows(tmp_path, lobe_geom(), wave(), 400.0, 800.0, 3,
                       spacing="cubic")

    def test_band_and_steps_guards(self, tmp_path):
        with pytest.raises(ScenarioError):
            sweep_rows(tmp_path, lobe_geom(), wave(), 400.0, 800.0, 1)
        with pytest.raises(ScenarioError):
            sweep_rows(tmp_path, lobe_geom(), wave(), 100.0, 800.0, 3)

    def test_depth_curves_spread_shrinks_at_long_wavelengths(self, tmp_path):
        # depth curves pull together toward the top of the band
        depths = (0.2, 0.4, 0.6, 0.8, 1.0)
        rows = sweep_rows(tmp_path, lobe_geom(pd=0.01), wave(order=1),
                          400.0, 1000.0, 13,
                          curves={"depth_mm": list(depths)})
        assert [float(r["depth_mm"]) for r in rows[::13]] == list(depths)
        spreads = []
        for i in range(13):
            vals = [float(r["transmittance"]) for r in rows[i::13]]
            spreads.append(max(vals) - min(vals))
        assert all(b < a for a, b in zip(spreads, spreads[1:]))

    def test_csv_output(self, tmp_path):
        g = SteeringGeometry(slit_um=4.0, depth_mm=1.0, pd_length_mm=0.1,
                             n_ris=1.4)
        sweep_rows(tmp_path, g, wave(lam=550, inc=90, order=1),
                   1500.0, 1700.0, 5)
        lines = (tmp_path / "sweep_sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "wavelength_nm,refraction_angle_deg,first_null_angle_deg,"
            "full_width_mm,pd_coverage,transmittance,incidence_factor,"
            "captured_power_w,error")
        assert len(lines) == 6
        assert lines[1].startswith("1500,") and lines[1].endswith(",")
        assert lines[-1] == "1700,,,,,,,,EvanescentOrder"
