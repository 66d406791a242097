import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_vlc.optics import (BOUNDS, Angle, EvanescentOrder, IncidentWave,
                            SteeringGeometry, refraction_angle)


def geom(slit=4.0, depth=0.75, pd=1.0, n=1.4, n_air=1.0):
    return SteeringGeometry(slit_um=slit, depth_mm=depth, pd_length_mm=pd,
                            n_ris=n, n_air=n_air)


def wave(lam=300.0, inc=90.0, order=1, power=1.0):
    return IncidentWave(lam, inc, power_w=power, order=order)


def snell_radians(n_in, n_out, theta_in):
    """Oracle: plain refraction between two media, with no order term."""
    return math.asin(n_in * math.sin(theta_in) / n_out)


class TestDomainTypes:
    def test_wavelength_guard(self):
        assert wave(lam=550.0).wavelength_nm == 550.0
        for bad in (0.0, -5.0, 150.0, 2500.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                wave(lam=bad)

    def test_angle_degree_round_trip(self):
        a = Angle.from_degrees(37.5)
        assert a.degrees == pytest.approx(37.5, abs=1e-12)
        assert Angle.from_degrees(90.0).radians == math.pi / 2

    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            geom(slit=-1.0)
        with pytest.raises(ValueError):
            geom(depth=0.0)
        with pytest.raises(ValueError):
            geom(n=1.0)  # strict lower bound
        with pytest.raises(ValueError):
            geom(n=2.6)
        with pytest.raises(ValueError):
            geom(n_air=1.1)

    @pytest.mark.parametrize("key, build", [
        ("slit_um", lambda v: geom(slit=v)),
        ("depth_mm", lambda v: geom(depth=v)),
        ("pd_length_mm", lambda v: geom(pd=v)),
        ("n_ris", lambda v: geom(n=v)),
        ("n_air", lambda v: geom(n_air=v)),
        ("wavelength_nm", lambda v: wave(lam=v)),
        ("incidence_deg", lambda v: wave(inc=v)),
        ("power_w", lambda v: wave(power=v)),
        ("order", lambda v: wave(order=v)),
    ])
    def test_types_accept_what_their_bound_accepts(self, key, build):
        """Each type checks its fields against the one bound table, with
        the table's text, and no bound lets NaN or +-inf through."""
        bound = BOUNDS[key]
        for bad in (math.nan, math.inf, -math.inf):
            assert not bound.ok(bad)
        for value in (-1.0, 0, 1, 1.0005, 2, 3, 80.0, 95.0, 1500.0, 1e300):
            if bound.ok(value):
                build(value)
            else:
                with pytest.raises(ValueError, match=re.escape(
                        f"{key} must {bound.text}, got")):
                    build(value)

    def test_wave_invariants(self):
        with pytest.raises(ValueError):
            wave(inc=95.0)
        with pytest.raises(ValueError):
            wave(power=-0.1)
        with pytest.raises(ValueError):
            wave(order=4)
        assert wave().order == 1  # first order is the default


class TestRefractionAngle:
    def test_reference_steering_values(self):
        # 4 um slit, first order, grazing incidence, 300 nm: the published
        # characterization quotes 50.133 deg at n = 1.4 and 34.377 deg at
        # n = 1.9; the adopted closed form lands within 0.5 deg of both.
        at_14 = math.degrees(refraction_angle(geom(n=1.4), wave()))
        at_19 = math.degrees(refraction_angle(geom(n=1.9), wave()))
        assert at_14 == pytest.approx(50.16185019435281, abs=1e-12)
        assert abs(at_14 - 50.133) < 0.5
        assert abs(at_19 - 34.377) < 0.5

    def test_zeroth_order_normal_incidence(self):
        assert refraction_angle(geom(n=1.7), wave(inc=0.0, order=0)) == 0.0

    def test_zeroth_order_is_snell(self):
        # oracle: asin(sin(30 deg) / 1.5) evaluated directly
        got = refraction_angle(geom(n=1.5), wave(lam=550, inc=30.0, order=0))
        assert math.degrees(got) == pytest.approx(19.47122063449069, abs=1e-12)

    def test_zeroth_order_grazing_entry(self):
        # oracle: asin(1 / 1.4), the critical angle of the slab
        got = refraction_angle(geom(n=1.4), wave(inc=90.0, order=0))
        assert math.degrees(got) == pytest.approx(45.58469140280703, abs=1e-12)

    def test_evanescent_order(self):
        # (1 + 800/400) / 1.1 > 1: first order cannot propagate
        with pytest.raises(EvanescentOrder):
            refraction_angle(geom(slit=0.4, n=1.1), wave(lam=800))

    def test_result_below_ninety(self):
        out = refraction_angle(geom(n=1.4), wave(lam=800))
        assert 0.0 <= out < math.pi / 2


def max_order(slit, inc, n, lam):
    """Brute-force oracle: increment m until the sine argument reaches 1."""
    m = 0
    while (math.sin(math.radians(inc)) + m * lam / (slit * 1e3)) / n < 1.0:
        m += 1
    return m - 1


class TestMaxPropagatingOrder:
    @pytest.mark.parametrize("slit,inc,n,lam,expected", [
        (4.0, 0.0, 1.5, 600.0, 9),
        (4.0, 90.0, 1.4, 300.0, 5),
        (0.4, 90.0, 1.1, 800.0, 0),
    ])
    def test_brute_force_values(self, slit, inc, n, lam, expected):
        assert max_order(slit, inc, n, lam) == expected
        for m in range(0, 4):
            w_m = wave(lam=lam, inc=inc, order=m)
            if m <= expected:
                refraction_angle(geom(slit=slit, n=n), w_m)
            else:
                with pytest.raises(EvanescentOrder):
                    refraction_angle(geom(slit=slit, n=n), w_m)

    def test_evanescent_exactly_when_order_exceeds_max(self):
        g, w = geom(n=1.4), wave(lam=300)
        top = max_order(4.0, 90.0, 1.4, 300.0)
        for m in range(0, 4):
            w_m = wave(lam=300, order=m)
            if m <= top:
                refraction_angle(g, w_m)
            else:
                with pytest.raises(EvanescentOrder):
                    refraction_angle(g, w_m)


_valid_inputs = st.tuples(
    st.floats(1.0, 100.0),      # slit um
    st.floats(200.0, 2000.0),   # wavelength nm
    st.floats(0.0, 90.0),       # incidence deg
    st.floats(1.05, 2.5),       # n_ris
)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(_valid_inputs, st.floats(0.01, 0.4))
    def test_monotone_decreasing_in_index(self, params, dn):
        slit, lam, inc, n = params
        n2 = min(n + dn, 2.5)
        w = wave(lam=lam, inc=inc)
        try:
            lo = refraction_angle(geom(slit=slit, n=n2), w)
            hi = refraction_angle(geom(slit=slit, n=n), w)
        except EvanescentOrder:
            return
        if n2 - n > 1e-9:
            assert lo < hi

    @settings(max_examples=200, deadline=None)
    @given(_valid_inputs, st.floats(10.0, 500.0))
    def test_monotone_increasing_in_wavelength(self, params, dlam):
        slit, lam, inc, n = params
        lam2 = min(lam + dlam, 2000.0)
        g = geom(slit=slit, n=n)
        try:
            lo = refraction_angle(g, wave(lam=lam, inc=inc))
            hi = refraction_angle(g, wave(lam=lam2, inc=inc))
        except EvanescentOrder:
            return
        if lam2 - lam > 1e-6:
            assert lo < hi

    @settings(max_examples=200, deadline=None)
    @given(_valid_inputs)
    def test_zeroth_order_reduces_to_snell(self, params):
        slit, lam, inc, n = params
        g = geom(slit=slit, n=n)
        w = wave(lam=lam, inc=inc, order=0)
        got = refraction_angle(g, w)
        ref = snell_radians(g.n_air, g.n_ris, math.radians(w.incidence_deg))
        assert abs(got - ref) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(_valid_inputs, st.integers(0, 3))
    def test_sine_inversion_residual(self, params, order):
        slit, lam, inc, n = params
        g = geom(slit=slit, n=n)
        w = wave(lam=lam, inc=inc, order=order)
        try:
            out = refraction_angle(g, w)
        except EvanescentOrder:
            return
        lhs = g.n_ris * math.sin(out)
        rhs = g.n_air * math.sin(math.radians(w.incidence_deg)) + order * lam / (slit * 1e3)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)
