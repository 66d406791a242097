import math
import random

import numpy as np
import pytest

from ris_vlc.diffraction import evaluate
from ris_vlc.optics import (Angle, EvanescentOrder, IncidentWave,
                            SteeringGeometry, Wavelength)
from ris_vlc.runner import run
from ris_vlc.scenario import ScenarioError, scenario_from_dict

TAN_HORIZON = math.tan(math.radians(89.9))
# numpy >= 2.0 spells it trapezoid, numpy 1.x trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def brute_transmittance(g, w, samples=400_001):
    """Trapezoid oracle for the whole transmittance pipeline."""
    lam_m_mm = w.wavelength.nanometres / g.n_ris * 1e-6
    scale = lam_m_mm * g.depth_mm / (g.slit_um * 1e-3)
    u_max = TAN_HORIZON * g.depth_mm
    half = min(g.pd_length_mm / 2, u_max)
    u_num = np.linspace(0.0, half, samples)
    u_den = np.linspace(0.0, u_max, samples)
    fraction = (trapezoid(np.sinc(u_num / scale) ** 2, u_num)
                / trapezoid(np.sinc(u_den / scale) ** 2, u_den))
    return math.cos(w.incidence.radians) * fraction


def geom(slit=4.0, depth=1.0, pd=0.184104, n=1.5):
    return SteeringGeometry(slit_um=slit, depth_mm=depth, pd_length_mm=pd, n_ris=n)


def wave(lam=550.0, inc=0.0, order=0, power=1.0):
    return IncidentWave(Wavelength(lam), Angle.from_degrees(inc),
                        power_w=power, order=order)


class TestTransmittance:
    def test_grazing_incidence_is_exactly_zero(self):
        t = evaluate(geom(), wave(inc=90.0))
        assert t.transmittance == 0.0
        assert t.incidence_factor == 0.0
        assert t.captured_power_w == 0.0

    def test_sixty_degrees_halves_normal_incidence(self):
        t0 = evaluate(geom(), wave(inc=0.0))
        t60 = evaluate(geom(), wave(inc=60.0))
        assert t60.transmittance == pytest.approx(0.5 * t0.transmittance,
                                                  rel=1e-12)

    def test_central_lobe_window(self):
        # detector sized to the central lobe captures its classic share
        t = evaluate(geom(), wave())
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
        t = evaluate(geom(), wave(power=2.5))
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
        values = [evaluate(geom(pd=pd), wave()).transmittance
                  for pd in (0.05, 0.1, 0.2, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_evanescent_propagates(self):
        with pytest.raises(EvanescentOrder):
            evaluate(geom(slit=0.4, n=1.1), wave(lam=800, inc=90, order=1))


def sweep_rows(tmp_path, g, w, from_nm, to_nm, steps, **extra):
    """Rows of the wavelength sweep that ``runner.run`` writes for this
    geometry and wave, as dicts of the CSV's cells."""
    sc = scenario_from_dict({
        "geometry": {"slit_um": g.slit_um, "depth_mm": g.depth_mm,
                     "pd_length_mm": g.pd_length_mm, "n_ris": g.n_ris},
        "wave": {"wavelength_nm": w.wavelength.nanometres,
                 "incidence_deg": w.incidence.degrees, "order": w.order},
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
        assert self.gains(tmp_path, geom(), wave(), 1.0,
                          (550.0, 700.0)) == [0.0, 0.0]

    def test_antisymmetry_exact(self, tmp_path):
        w, lams = wave(), (550.0, 700.0)
        forward = self.gains(tmp_path, geom(depth=1.0), w, 0.2, lams)
        backward = self.gains(tmp_path, geom(depth=0.2), w, 1.0, lams)
        assert forward == [-g for g in backward]
        assert all(g != 0.0 for g in forward)

    def test_gain_matches_direct_difference(self, tmp_path):
        a, b = geom(depth=0.2, pd=0.01), geom(depth=1.0, pd=0.01)
        got = self.gains(tmp_path, b, wave(), 0.2, (700.0, 1000.0))
        for lam, gain in zip((700.0, 1000.0), got):
            w = wave(lam=lam)
            assert gain == (evaluate(b, w).transmittance
                            - evaluate(a, w).transmittance)

    def test_bounds(self, tmp_path):
        (gain, _) = self.gains(tmp_path, geom(depth=1.0, pd=0.01), wave(),
                               0.2, (400.0, 1000.0))
        assert -1.0 <= gain <= 1.0

    def test_gain_curve_matches_trapezoid_oracle(self, tmp_path):
        # depth 0.2 -> 1.0 mm expansion, 10 um detector, band sample points;
        # each gain value checked against two brute-force transmittances
        before = geom(depth=0.2, pd=0.01)
        after = geom(depth=1.0, pd=0.01)
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
        g, w = geom(slit=4.0, n=1.4), wave(inc=90.0, order=1)
        rows = sweep_rows(tmp_path, g, w, 800.0, 900.0, 2)
        assert [r["error"] for r in rows] == ["", ""]
        rows = sweep_rows(tmp_path, g, w, 800.0, 900.0, 2,
                          baseline={"slit_um": 0.4})
        assert [r["error"] for r in rows] == ["EvanescentOrder"] * 2
        assert [r["tuning_gain"] for r in rows] == ["", ""]


class TestWavelengthSweep:
    """The wavelength sweep as ``runner.run`` executes a sweep scenario."""

    def test_two_steps_hits_endpoints(self, tmp_path):
        rows = sweep_rows(tmp_path, geom(), wave(), 400.0, 800.0, 2)
        assert [float(r["wavelength_nm"]) for r in rows] == [400.0, 800.0]
        assert all(r["error"] == "" for r in rows)

    def test_uniform_grid_inclusive(self, tmp_path):
        rows = sweep_rows(tmp_path, geom(), wave(), 400.0, 1000.0, 7)
        lams = [float(r["wavelength_nm"]) for r in rows]
        assert lams == pytest.approx([400, 500, 600, 700, 800, 900, 1000])

    def test_values_bounded_and_finite(self, tmp_path):
        rows = sweep_rows(tmp_path, geom(pd=0.01), wave(order=1),
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
        rows = sweep_rows(tmp_path, geom(), wave(), 400.0, 1600.0, 3,
                          spacing="log")
        assert float(rows[1]["wavelength_nm"]) == pytest.approx(800.0, rel=1e-12)
        with pytest.raises(ScenarioError):
            sweep_rows(tmp_path, geom(), wave(), 400.0, 800.0, 3,
                       spacing="cubic")

    def test_band_and_steps_guards(self, tmp_path):
        with pytest.raises(ScenarioError):
            sweep_rows(tmp_path, geom(), wave(), 400.0, 800.0, 1)
        with pytest.raises(ScenarioError):
            sweep_rows(tmp_path, geom(), wave(), 100.0, 800.0, 3)

    def test_depth_curves_spread_shrinks_at_long_wavelengths(self, tmp_path):
        # depth curves pull together toward the top of the band
        depths = (0.2, 0.4, 0.6, 0.8, 1.0)
        rows = sweep_rows(tmp_path, geom(pd=0.01), wave(order=1),
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
