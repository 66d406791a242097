import math
import random
from dataclasses import replace

import pytest

from ris_vlc import tuning
from ris_vlc.diffraction import NullBeyondHorizon, first_null_angle, steering_offset_mm
from ris_vlc.optics import (Angle, EvanescentOrder, IncidentWave,
                            SteeringGeometry, Wavelength, refraction_angle)
from ris_vlc.tuning import (DesignTarget, Infeasible, LiquidCrystalActuator,
                            MetaLensActuator, OutOfMaterialRange,
                            actuator_preset, drive_map, lc_apply,
                            metalens_apply, solve, solve_voltage)


def geom(slit=100.0, depth=0.75, pd=1.0, n=1.508):
    return SteeringGeometry(slit_um=slit, depth_mm=depth, pd_length_mm=pd, n_ris=n)


def wave(lam=550.0, inc=90.0, order=1):
    return IncidentWave(Wavelength(lam), Angle.from_degrees(inc), order=order)


def metalens(stretch_max=2.0, v_max=1000.0, base=None):
    return MetaLensActuator(v_max_v=v_max, stretch_max=stretch_max,
                            base_geometry=base or geom())


class TestMetaLensMap:
    def test_zero_drive_is_identity(self):
        act = metalens()
        assert metalens_apply(act, 0.0) == act.base_geometry

    def test_full_drive_endpoints(self):
        out = metalens_apply(metalens(stretch_max=2.0), 1000.0)
        assert out.slit_um == pytest.approx(200.0, rel=1e-15)
        assert out.depth_mm == pytest.approx(0.75 / 4, rel=1e-15)

    def test_half_drive_with_triple_stretch(self):
        out = metalens_apply(metalens(stretch_max=3.0), 500.0)
        assert out.slit_um == pytest.approx(200.0, rel=1e-15)
        assert out.depth_mm == pytest.approx(0.75 / 4, rel=1e-15)

    def test_volume_proxy_conserved(self):
        base = geom()
        for v in (0.0, 123.4, 750.0, 1000.0):
            out = metalens_apply(metalens(stretch_max=1.7), v)
            assert out.slit_um ** 2 * out.depth_mm == pytest.approx(
                base.slit_um ** 2 * base.depth_mm, rel=1e-12)

    def test_clamp_warns(self):
        with pytest.warns(UserWarning, match="clamped"):
            out = metalens_apply(metalens(stretch_max=2.0), 1500.0)
        assert out.slit_um == pytest.approx(200.0)

    def test_negative_drive_rejected(self):
        with pytest.raises(ValueError):
            metalens_apply(metalens(), -1.0)

    def test_monotone_in_voltage(self):
        act = metalens(stretch_max=1.5)
        slits = [metalens_apply(act, v).slit_um for v in range(0, 1001, 100)]
        assert all(b > a for a, b in zip(slits, slits[1:]))


    def test_base_override(self):
        act, base = metalens(stretch_max=2.0), geom(slit=10.0)
        assert metalens_apply(act, 0.0, base) == base
        assert metalens_apply(act, 1000.0, base).slit_um == 20.0

    @pytest.mark.parametrize("field", ["v_max_v", "stretch_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
    def test_fields_finite_and_in_bounds(self, field, value):
        fields = {"v_max_v": 1000.0, "stretch_max": 2.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            MetaLensActuator(base_geometry=geom(), **fields)

    @pytest.mark.parametrize("stretch_max, slit", [(1e300, 100.0),
                                                   (2.0, 1e308)])
    def test_full_stretch_must_be_a_valid_slab(self, stretch_max, slit):
        with pytest.raises(ValueError, match="no valid slab at full stretch"):
            metalens(stretch_max=stretch_max, base=geom(slit=slit))


class TestLiquidCrystalMap:
    def test_below_threshold_flat(self):
        act = LiquidCrystalActuator(n_base=1.5, delta_n=0.3)
        for v in (0.0, 1.0, 3.0):
            assert lc_apply(act, v, geom()).n_ris == 1.5

    def test_saturation_reaches_upper_index(self):
        act = LiquidCrystalActuator(n_base=1.508, delta_n=0.392)
        assert lc_apply(act, 5.0, geom()).n_ris == pytest.approx(1.9, rel=1e-15)

    def test_linear_midpoint(self):
        act = LiquidCrystalActuator(n_base=1.5, delta_n=0.3)
        assert lc_apply(act, 4.0, geom()).n_ris == pytest.approx(1.65, rel=1e-15)

    def test_clamp_above_saturation_warns(self):
        act = LiquidCrystalActuator(n_base=1.5, delta_n=0.3)
        with pytest.warns(UserWarning, match="clamped"):
            out = lc_apply(act, 7.0, geom())
        assert out.n_ris == pytest.approx(1.8)

    def test_geometry_otherwise_unchanged(self):
        base = geom()
        out = lc_apply(LiquidCrystalActuator(), 4.2, base)
        assert (out.slit_um, out.depth_mm, out.pd_length_mm) == \
            (base.slit_um, base.depth_mm, base.pd_length_mm)

    def test_invariants(self):
        with pytest.raises(ValueError):
            LiquidCrystalActuator(v_on_v=5.0, v_sat_v=3.0)
        with pytest.raises(ValueError):
            LiquidCrystalActuator(delta_n=0.5)
        with pytest.raises(ValueError):
            LiquidCrystalActuator(n_base=2.3, delta_n=0.3)

    @pytest.mark.parametrize("field, value", [
        ("v_on_v", 0.0), ("v_on_v", math.nan), ("v_sat_v", math.inf),
        ("n_base", 1.0), ("n_base", -math.inf), ("n_base", math.nan),
        ("delta_n", 0.5), ("delta_n", math.nan)])
    def test_fields_in_bounds(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            LiquidCrystalActuator(**{field: value})

    def test_monotone_nondecreasing(self):
        act = LiquidCrystalActuator(n_base=1.5, delta_n=0.25)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sweep deliberately passes v_sat
            grid = [lc_apply(act, 0.5 * k, geom()).n_ris for k in range(13)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))


class TestPresets:
    def test_lc_preset_spans_documented_index_band(self):
        act = actuator_preset("lc-sun2019")
        assert lc_apply(act, act.v_on_v, geom()).n_ris == 1.508
        assert lc_apply(act, act.v_sat_v, geom()).n_ris == pytest.approx(1.9)

    def test_metalens_preset(self):
        act = actuator_preset("metalens-she2018")
        assert act.v_max_v == 1000.0
        assert 1.0 < act.stretch_max < 1.5

    def test_metalens_preset_accepts_base_override(self):
        base = geom(slit=4.0)
        act = actuator_preset("metalens-she2018", base_geometry=base)
        assert act.base_geometry == base

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            actuator_preset("nope")


def index_for(theta_deg, g=None, w=None):
    """The index ``solve`` gives for a refraction-angle target."""
    target = DesignTarget("refraction_angle", theta_deg, w or wave(),
                          g or geom(), "n_ris")
    return solve(target)[0]


def depth_for(width, slit, n, w):
    """The depth ``solve`` gives for a spot-width target."""
    target = DesignTarget("spot_width", width, w, geom(slit=slit, n=n), "depth")
    return solve(target)[0]


class TestSolveIndex:
    def test_reference_design_point(self):
        # oracle: (sin 90 + 550e-3/100) / sin 41.82 deg
        n = index_for(41.82)
        assert n == pytest.approx(1.5079650326461862, abs=1e-12)

    def test_round_trip(self):
        g = geom(n=1.72)
        theta = refraction_angle(g, wave())
        n = index_for(theta.degrees, g)
        assert n == pytest.approx(1.72, rel=1e-12)
        assert refraction_angle(geom(n=n), wave()).radians == \
            pytest.approx(theta.radians, abs=1e-9)

    def test_limit_toward_grazing_target(self):
        # as the target approaches 90 deg the index tends to its floor
        floor = math.sin(math.radians(90)) + 550.0 / (100.0 * 1e3)
        n = index_for(89.999)
        assert n == pytest.approx(floor, rel=1e-6)

    def test_strictly_decreasing_in_target(self):
        targets = [20.0, 30.0, 45.0, 60.0, 85.0]
        ns = []
        for t in targets:
            try:
                ns.append(index_for(t))
            except OutOfMaterialRange:
                ns.append(math.inf)
        assert all(b < a for a, b in zip(ns, ns[1:]))

    def test_out_of_material_range(self):
        with pytest.raises(OutOfMaterialRange,
                           match=r"required index 2\.\d+ outside the "
                                 r"material band \(1\.0, 2\.5\]"):
            index_for(20.0)

    def test_target_guards(self):
        # DesignTarget rejects these before any solve
        with pytest.raises(ValueError, match="must be positive, got 0.0"):
            index_for(0.0)
        with pytest.raises(ValueError, match="lie in \\(0, 90\\) deg"):
            index_for(90.0)


class TestSolveDepth:
    def test_round_trip(self):
        g = geom(slit=4.0, n=1.5, depth=1.0)
        w = IncidentWave(Wavelength(550), Angle.from_degrees(0), order=0)
        width = 2.0 * g.depth_mm * math.tan(first_null_angle(g, w).radians)
        got = depth_for(width, 4.0, 1.5, w)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self):
        w = IncidentWave(Wavelength(550), Angle.from_degrees(0), order=0)
        y = depth_for(0.184, 4.0, 1.5, w)
        assert y == pytest.approx(0.9994108016292514, abs=1e-12)

    def test_linearity(self):
        w = IncidentWave(Wavelength(550), Angle.from_degrees(0), order=0)
        y1 = depth_for(0.1, 4.0, 1.5, w)
        y2 = depth_for(0.2, 4.0, 1.5, w)
        assert y2 == pytest.approx(2 * y1, rel=1e-12)

    def test_no_null_propagates(self):
        w = IncidentWave(Wavelength(550), Angle.from_degrees(0), order=0)
        with pytest.raises(NullBeyondHorizon):
            depth_for(0.1, 0.3, 1.2, w)

    @pytest.mark.parametrize("slit, inc, order, target, depth", [
        (4.0, 10.0, 1, 1e308, "inf"), (0.37, 0.0, 0, 5e-324, "0")])
    def test_depth_beyond_its_bound_is_out_of_range(self, slit, inc, order,
                                                    target, depth):
        w = IncidentWave(Wavelength(550), Angle.from_degrees(inc),
                         order=order)
        with pytest.raises(OutOfMaterialRange,
                           match=f"required depth {depth} mm is not finite "
                                 f"and > 0"):
            depth_for(target, slit, 1.5, w)


class TestSolveVoltage:
    def test_lc_round_trip(self):
        act = LiquidCrystalActuator(n_base=1.508, delta_n=0.392)
        base = geom()
        w = wave()
        theta = refraction_angle(lc_apply(act, 4.2, base), w)
        target = DesignTarget("refraction_angle", theta.degrees, w, base,
                              "voltage")
        v = solve_voltage(target, act)
        assert v == pytest.approx(4.2, abs=1e-3)

    def test_lc_saturation_endpoint(self):
        act = LiquidCrystalActuator(n_base=1.508, delta_n=0.392)
        base = geom()
        w = wave()
        theta = refraction_angle(lc_apply(act, 5.0, base), w)
        target = DesignTarget("refraction_angle", theta.degrees, w, base,
                              "voltage")
        assert solve_voltage(target, act) == pytest.approx(5.0, abs=1e-6)

    def test_metalens_identity_target(self):
        act = metalens(stretch_max=2.0, base=geom(slit=4.0, n=1.5))
        w = IncidentWave(Wavelength(550), Angle.from_degrees(0), order=0)
        width = 2.0 * 0.75 * math.tan(
            first_null_angle(act.base_geometry, w).radians)
        target = DesignTarget("spot_width", width, w, None, "voltage")
        assert solve_voltage(target, act) == pytest.approx(0.0, abs=1e-9)

    def test_metalens_landing_round_trip(self):
        act = metalens(stretch_max=1.5, base=geom(n=1.6))
        w = wave(inc=80.0)
        landing = steering_offset_mm(metalens_apply(act, 640.0), w)
        target = DesignTarget("pd_landing", landing, w, None, "voltage")
        v = solve_voltage(target, act)
        assert v == pytest.approx(640.0, abs=0.5)
        achieved = steering_offset_mm(metalens_apply(act, v), w)
        assert achieved == pytest.approx(landing, rel=1e-6)

    def test_infeasible_reports_achievable_interval(self):
        act = LiquidCrystalActuator(n_base=1.508, delta_n=0.392)
        target = DesignTarget("refraction_angle", 85.0, wave(), geom(),
                              "voltage")
        with pytest.raises(Infeasible) as exc_info:
            solve_voltage(target, act)
        lo, hi = exc_info.value.achievable
        assert lo < hi < 85.0

    def test_lc_requires_geometry(self):
        target = DesignTarget("refraction_angle", 40.0, wave(), None, "voltage")
        with pytest.raises(ValueError, match="geometry"):
            solve_voltage(target, LiquidCrystalActuator())

    def test_drive_map_lc_requires_base(self):
        with pytest.raises(ValueError, match="base geometry"):
            drive_map(LiquidCrystalActuator())

    def test_drive_map_intervals_and_base(self):
        base = geom(slit=50.0, n=1.4)
        apply, lo, hi = drive_map(metalens(), base)
        assert (lo, hi) == (0.0, 1000.0)
        assert apply(lo) == base
        assert apply(hi).slit_um == 100.0
        apply, lo, hi = drive_map(LiquidCrystalActuator(), base)
        assert (lo, hi) == (3.0, 5.0)
        assert apply(lo) == replace(base, n_ris=1.508)
        assert apply(hi).n_ris == pytest.approx(1.808)

    def test_randomised_round_trips(self):
        rng = random.Random(4321)
        act = LiquidCrystalActuator(n_base=1.508, delta_n=0.392)
        base = geom()
        for _ in range(100):
            v_true = rng.uniform(3.0, 5.0)
            w = wave(inc=rng.uniform(20.0, 90.0))
            value = refraction_angle(lc_apply(act, v_true, base), w).degrees
            target = DesignTarget("refraction_angle", value, w, base, "voltage")
            v = solve_voltage(target, act)
            achieved = refraction_angle(lc_apply(act, v, base), w).degrees
            assert achieved == pytest.approx(value, rel=1e-6)


def forward(kind, g, w):
    """The target metric of a slab, from the forward pipeline."""
    if kind == "refraction_angle":
        return refraction_angle(g, w).degrees
    if kind == "spot_width":
        return 2.0 * g.depth_mm * math.tan(first_null_angle(g, w).radians)
    return steering_offset_mm(g, w)


def bisected_drive(act, kind, value, base, w):
    """Reference drive: the forward map bisected until the bracket closes
    to adjacent floats."""
    apply, lo, hi = drive_map(act, base)
    f = lambda v: forward(kind, apply(v), w)
    increasing = f(hi) > f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (f(mid) < value) == increasing:
            lo = mid
        else:
            hi = mid


def counting(monkeypatch, name):
    """Calls of the tuning function ``name`` from here on."""
    calls = []
    original = getattr(tuning, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tuning, name, counted)
    return calls


KINDS = ("refraction_angle", "pd_landing", "spot_width")


def assert_infeasible_beyond(end, kind, act, base, w):
    """A target 1e-5 beyond the metric at either end of the drive interval
    is Infeasible, with its text and its achievable interval."""
    apply, lo, hi = drive_map(act, base)
    ends = sorted(forward(kind, apply(v), w) for v in (lo, hi))
    value = ends[0] * (1 - 1e-5) if end == "low" else ends[1] * (1 + 1e-5)
    with pytest.raises(Infeasible) as exc_info:
        solve_voltage(DesignTarget(kind, value, w, base, "voltage"), act)
    assert str(exc_info.value) == (
        f"target {value:.9g} outside achievable interval "
        f"[{ends[0]:.9g}, {ends[1]:.9g}]")
    assert exc_info.value.achievable == tuple(ends)


def assert_ends_within_slack(kind, act, base, w):
    """A target within the 1e-6 slack of an end gets that end's drive."""
    apply, lo, hi = drive_map(act, base)
    for v_end in (lo, hi):
        value = forward(kind, apply(v_end), w) * (1 + 5e-7)
        got = solve_voltage(DesignTarget(kind, value, w, base, "voltage"),
                            act)
        assert got == v_end


class TestClosedFormLiquidCrystal:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_a_bisection_of_the_forward_map(self, kind):
        rng = random.Random(kind)
        for _ in range(200):
            v_on = rng.uniform(0.5, 4.0)
            act = LiquidCrystalActuator(
                v_on_v=v_on, v_sat_v=v_on + rng.uniform(0.5, 5.0),
                n_base=rng.uniform(1.4, 2.0), delta_n=rng.uniform(0.2, 0.4))
            base = geom(slit=rng.uniform(5.0, 200.0),
                        depth=rng.uniform(0.05, 5.0))
            w = wave(rng.uniform(300.0, 1500.0), rng.uniform(0.0, 90.0))
            span = act.v_sat_v - act.v_on_v
            v_true = act.v_on_v + rng.uniform(0.05, 0.95) * span
            value = forward(kind, lc_apply(act, v_true, base), w)
            v = solve_voltage(DesignTarget(kind, value, w, base, "voltage"),
                              act)
            reference = bisected_drive(act, kind, value, base, w)
            assert v == pytest.approx(reference, rel=1e-9, abs=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_forward_evaluations_per_solve(self, kind, monkeypatch):
        act, base, w = actuator_preset("lc-sun2019"), geom(slit=4.0), wave()
        value = forward(kind, lc_apply(act, 4.2, base), w)
        calls = counting(monkeypatch, "lc_apply")
        solve_voltage(DesignTarget(kind, value, w, base, "voltage"), act)
        assert [c[1] for c in calls] == [3.0, 5.0]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("end", ["low", "high"])
    def test_infeasible_beyond_either_end(self, kind, end):
        assert_infeasible_beyond(end, kind, actuator_preset("lc-sun2019"),
                                 geom(slit=4.0), wave())

    @pytest.mark.parametrize("kind", KINDS)
    def test_target_within_slack_of_an_end_returns_that_end(self, kind):
        assert_ends_within_slack(kind, actuator_preset("lc-sun2019"),
                                 geom(slit=4.0), wave())

    def test_bracket_end_errors_propagate(self):
        act = LiquidCrystalActuator(n_base=1.5, delta_n=0.4)
        # order 1 evanescent at n_base, propagating at full drive
        target = DesignTarget("refraction_angle", 60.0, wave(lam=600.0),
                              geom(slit=1.0), "voltage")
        with pytest.raises(EvanescentOrder):
            solve_voltage(target, act)
        # no first null at n_base, one at full drive
        target = DesignTarget("spot_width", 1.0, wave(lam=800.0, inc=0.0),
                              geom(slit=0.5), "voltage")
        with pytest.raises(NullBeyondHorizon):
            solve_voltage(target, act)


class TestClosedFormMetaLens:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_a_bisection_of_the_forward_map(self, kind):
        rng = random.Random(f"metalens {kind}")
        solved = 0
        while solved < 200:
            base = geom(slit=rng.uniform(5.0, 200.0),
                        depth=rng.uniform(0.05, 5.0), n=rng.uniform(1.3, 2.0))
            act = MetaLensActuator(v_max_v=rng.uniform(10.0, 2000.0),
                                   stretch_max=rng.uniform(1.05, 3.0),
                                   base_geometry=base)
            w = wave(rng.uniform(300.0, 1500.0), rng.uniform(0.0, 90.0),
                     order=rng.choice([0, 1, 2, 3]))
            v_true = rng.uniform(0.05, 0.95) * act.v_max_v
            try:
                ends = [forward(kind, metalens_apply(act, v), w)
                        for v in (0.0, act.v_max_v)]
            except EvanescentOrder:
                continue
            value = forward(kind, metalens_apply(act, v_true), w)
            if abs(ends[0] - ends[1]) <= 1e-5 * value:
                continue  # the metric does not depend on the drive
            v = solve_voltage(DesignTarget(kind, value, w, None, "voltage"),
                              act)
            reference = bisected_drive(act, kind, value, None, w)
            assert v == pytest.approx(reference, rel=1e-9, abs=0)
            solved += 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_forward_evaluations_per_solve(self, kind, monkeypatch):
        act = metalens(stretch_max=1.5, base=geom(n=1.6))
        w = wave(inc=80.0)
        value = forward(kind, metalens_apply(act, 640.0), w)
        calls = counting(monkeypatch, "metalens_apply")
        v = solve_voltage(DesignTarget(kind, value, w, None, "voltage"), act)
        assert [c[1] for c in calls] == [0.0, 1000.0]
        achieved = forward(kind, metalens_apply(act, v), w)
        assert achieved == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("end", ["low", "high"])
    def test_infeasible_beyond_either_end(self, kind, end):
        assert_infeasible_beyond(end, kind, metalens(1.5, base=geom(n=1.6)),
                                 None, wave(inc=80.0))

    @pytest.mark.parametrize("kind", KINDS)
    def test_target_within_slack_of_an_end_returns_that_end(self, kind):
        assert_ends_within_slack(kind, metalens(1.5, base=geom(n=1.6)), None,
                                 wave(inc=80.0))

    @pytest.mark.parametrize("value", [9.862328686366902e149, 1e100])
    def test_stretch_over_many_decades(self, value):
        """A stretch range of 47 decades: the landing iteration still meets
        the target to rounding."""
        base = geom(slit=3.5161400538981007e56, depth=2.7659700343614743e153,
                    n=2.394490013864322)
        act = metalens(stretch_max=1.7126627227452792e47, base=base)
        target = DesignTarget("pd_landing", value, wave(lam=838.6, order=0),
                              None, "voltage")
        _, achieved = solve(target, act)
        assert achieved == pytest.approx(value, rel=1e-12)

    def test_landing_near_the_evanescent_edge(self):
        """A rest slab whose first order is just short of evanescent: the
        landing is steep in the stretch there."""
        base = geom(slit=100.0, depth=0.75, n=1.0056)
        act = metalens(stretch_max=1.5, base=base)
        w = wave(inc=90.0)
        value = forward("pd_landing", metalens_apply(act, 1.0), w)
        v = solve_voltage(DesignTarget("pd_landing", value, w, None,
                                       "voltage"), act)
        assert v == pytest.approx(
            bisected_drive(act, "pd_landing", value, None, w), rel=1e-9)

    def test_slack_is_relative_for_tiny_targets(self):
        """A landing of 1e-60 mm is 14 decades below what a 1e-45 mm deep
        slab reaches: it is infeasible, not met at a drive end."""
        base = geom(slit=4.0, depth=1e-45, pd=1.0, n=1.5)
        act = metalens(stretch_max=1.5, base=base)
        w = wave(inc=30.0)
        with pytest.raises(Infeasible) as exc_info:
            solve(DesignTarget("pd_landing", 1e-60, w, None, "voltage"), act)
        lo, hi = exc_info.value.achievable
        assert lo == pytest.approx(1.90776871e-46, rel=1e-8)
        assert hi == pytest.approx(4.6951295e-46, rel=1e-8)
        v, achieved = solve(DesignTarget("pd_landing", 3e-46, w, None,
                                         "voltage"), act)
        assert v == pytest.approx(442.42, abs=0.01)
        assert achieved == pytest.approx(3e-46, rel=1e-12)


class TestDesignTarget:
    def test_validation(self):
        with pytest.raises(ValueError):
            DesignTarget("focus", 1.0, wave(), geom(), "voltage")
        with pytest.raises(ValueError):
            DesignTarget("spot_width", -1.0, wave(), geom(), "depth")
        with pytest.raises(ValueError):
            DesignTarget("refraction_angle", 95.0, wave(), geom(), "n_ris")
        with pytest.raises(ValueError):
            DesignTarget("spot_width", 1.0, wave(), geom(), "slit")
        with pytest.raises(ValueError, match="needs a geometry"):
            DesignTarget("refraction_angle", 30.0, wave(), None, "n_ris")

    @pytest.mark.parametrize("kind, free, only", [
        ("pd_landing", "depth", "spot_width"),
        ("spot_width", "n_ris", "refraction_angle")])
    def test_free_variable_solves_only_its_kind(self, kind, free, only):
        with pytest.raises(ValueError, match=f"^free variable {free} solves "
                                             f"only {only} targets"):
            DesignTarget(kind, 0.3, wave(), geom(), free)


class TestSolve:
    @pytest.mark.parametrize("kind, value, free, actuator", [
        ("refraction_angle", 60.0, "n_ris", None),
        ("spot_width", 0.184, "depth", None),
        ("pd_landing", 0.5, "voltage", LiquidCrystalActuator(
            n_base=1.508, delta_n=0.392)),
        ("pd_landing", 0.5, "voltage", metalens(stretch_max=1.5)),
    ])
    def test_achieves_the_target(self, kind, value, free, actuator):
        target = DesignTarget(kind, value, wave(inc=80.0), geom(), free)
        _, achieved = solve(target, actuator)
        assert achieved == pytest.approx(value, rel=1e-6)


class TestAirIndexAboveOne:
    """Solves in air of index 1.0007, which reaches the index inversion
    only through the target's geometry."""

    def test_index_round_trip(self, monkeypatch):
        g, w = replace(geom(n=1.72), n_air=1.0007), wave(inc=60.0)
        theta = refraction_angle(g, w)
        calls = counting(monkeypatch, "_index_for")
        n = index_for(theta.degrees, g, w)
        assert [c[2].n_air for c in calls] == [1.0007]
        assert n == pytest.approx(1.72, rel=1e-12)
        assert n != index_for(theta.degrees, replace(g, n_air=1.0), w)
        assert refraction_angle(replace(g, n_ris=n), w).radians == \
            pytest.approx(theta.radians, abs=1e-9)

    def test_depth_round_trip(self):
        g = replace(geom(slit=4.0, n=1.5, depth=1.0), n_air=1.0007)
        w = wave(inc=30.0)
        width = 2.0 * g.depth_mm * math.tan(first_null_angle(g, w).radians)
        y, achieved = solve(DesignTarget("spot_width", width, w, g, "depth"))
        assert y == pytest.approx(1.0, rel=1e-12)
        assert achieved == pytest.approx(width, rel=1e-12)

    def test_lc_angle_drive_round_trip(self, monkeypatch):
        act = LiquidCrystalActuator(n_base=1.508, delta_n=0.392)
        base, w = replace(geom(), n_air=1.0007), wave(inc=60.0)
        theta = refraction_angle(lc_apply(act, 4.2, base), w)
        target = DesignTarget("refraction_angle", theta.degrees, w, base,
                              "voltage")
        calls = counting(monkeypatch, "_index_for")
        v, achieved = solve(target, act)
        assert [c[2].n_air for c in calls] == [1.0007]
        assert v == pytest.approx(4.2, rel=1e-12)
        assert achieved == pytest.approx(theta.degrees, rel=1e-12)
