import functools
import math
import operator
import warnings
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ris_vlc.bench import (KINDS, RIS_KINDS, ReceiverFrontEnd,
                           compare_table, default_front_end, format_table,
                           rotation_sweep, table_to_csv)
from ris_vlc.diffraction import evaluate, steering_offset_mm
from ris_vlc.optics import (Angle, EvanescentOrder, IncidentWave,
                            SteeringGeometry)
from ris_vlc.tuning import (DesignTarget, Infeasible, LiquidCrystalActuator,
                            MetaLensActuator, _interval, drive,
                            solve_voltage)


def deg(value):
    return Angle.from_degrees(value)


class TestFrontEndConstruction:
    def test_envelope_caps(self):
        with pytest.raises(ValueError):
            ReceiverFrontEnd("convex", deg(40.0), 2.0, False)
        with pytest.raises(ValueError):
            ReceiverFrontEnd("adj_lens", deg(90.0), 2.0, True)

    def test_rolloff_only_for_cmbbp(self):
        with pytest.raises(ValueError):
            ReceiverFrontEnd("convex", deg(30.0), 2.0, False,
                             rolloff_start=deg(25.0))
        with pytest.raises(ValueError):
            ReceiverFrontEnd("cmbbp", deg(85.0), 1.0, False)

    def test_ris_requires_actuator(self):
        with pytest.raises(ValueError):
            ReceiverFrontEnd("lc_ris", deg(90.0), 0.1, True)

    def test_ris_wavelength_in_band(self):
        fe = default_front_end("lc_ris")
        for bad in (100.0, 2500.0, math.nan):
            with pytest.raises(ValueError, match="wavelength_nm must"):
                replace(fe, wavelength_nm=bad)

    def test_every_kind_has_a_default_front_end(self):
        assert [default_front_end(k).kind for k in KINDS] == list(KINDS)


def at_rotations(fe, step=5.0):
    """(detected, intensity) by rotation in degrees, from a sweep of ``fe``
    on the ``step`` grid (the 5 deg grid holds 0, 20, 30, 40, 55, 85, 90)."""
    sweep = rotation_sweep(fe, step)
    return dict(zip(sweep.angles_deg,
                    zip(sweep.detected, sweep.relative_intensity)))


class TestDetect:
    """Detection at single rotations, read off the sweep grid."""

    def test_convex_beyond_envelope(self):
        assert at_rotations(default_front_end("convex"))[40.0] == (False, 0.0)

    def test_all_kinds_at_normal_incidence(self):
        for kind in KINDS:
            found, intensity = at_rotations(default_front_end(kind))[0.0]
            assert found
            if kind in RIS_KINDS:
                assert 0.9 < intensity <= 1.0  # capture fraction of the slab
            else:
                assert intensity == 1.0

    def test_lc_ris_at_grazing(self):
        for kind in RIS_KINDS:  # the meta-lens too
            found, intensity = at_rotations(default_front_end(kind))[90.0]
            assert found
            assert intensity == 0.0  # cos factor kills the projected power

    def test_cos_law_for_legacy(self):
        found, intensity = at_rotations(default_front_end("spherical"))[30.0]
        assert found
        assert intensity == pytest.approx(math.cos(math.radians(30.0)))

    def test_cmbbp_rolloff(self):
        at = at_rotations(default_front_end("cmbbp"))
        assert at[20.0][1] == pytest.approx(math.cos(math.radians(20.0)))
        assert at[85.0][1] == pytest.approx(0.5 * math.cos(math.radians(85.0)))
        assert at[55.0][1] == pytest.approx(0.75 * math.cos(math.radians(55.0)))

    def test_detection_monotone(self):
        for kind in ("convex", "cmbbp", "lc_ris"):
            sweep = rotation_sweep(default_front_end(kind), 5.0)
            flags = list(sweep.detected)
            # once detection drops it never comes back
            assert flags == sorted(flags, reverse=True)


class TestRotationSweep:
    def test_convex_last_detected_on_one_degree_grid(self):
        sweep = rotation_sweep(default_front_end("convex"), 1.0)
        detected_angles = [a for a, d in zip(sweep.angles_deg, sweep.detected) if d]
        assert max(detected_angles) == 36.0

    def test_grid_inclusive_of_endpoints(self):
        sweep = rotation_sweep(default_front_end("convex"), 90.0)
        assert sweep.angles_deg == (0.0, 90.0)

    @pytest.mark.parametrize("step", [0.7, 0.9, 7.5, 13.0])
    def test_grid_spans_zero_to_ninety(self, step):
        angles = rotation_sweep(default_front_end("convex"), step).angles_deg
        assert angles[0] == 0.0 and angles[-1] == 90.0
        assert all(0.0 <= a <= 90.0 for a in angles)

    @pytest.mark.parametrize("step", [0.9, 0.3, 1.5, 45.0, 90.0])
    def test_step_dividing_ninety_ends_on_ninety_once(self, step):
        angles = rotation_sweep(default_front_end("convex"), step).angles_deg
        assert len(angles) == round(90.0 / step) + 1
        assert angles[-1] == 90.0
        assert len(set(angles)) == len(angles)

    def test_count_tolerance_keeps_a_rotation_just_short_of_ninety(self):
        """90 / step is 2 + 5e-10, inside the count's 1e-9 slack: the grid
        keeps 2 * step, 2.25e-8 deg short of 90, and then adds 90."""
        step = 90.0 / (2 + 5e-10)
        angles = rotation_sweep(default_front_end("convex"), step).angles_deg
        assert angles == (0.0, 44.99999998875, 89.9999999775, 90.0)

    def test_fractional_step_hits_envelope_edge(self):
        sweep = rotation_sweep(default_front_end("convex"), 0.1)
        detected_angles = [a for a, d in zip(sweep.angles_deg, sweep.detected) if d]
        assert max(detected_angles) == pytest.approx(36.2, abs=1e-9)

    def test_spherical_contains_gilcpc(self):
        sph = rotation_sweep(default_front_end("spherical"), 1.0)
        gil = rotation_sweep(default_front_end("gilcpc"), 1.0)
        sph_set = {a for a, d in zip(sph.angles_deg, sph.detected) if d}
        gil_set = {a for a, d in zip(gil.angles_deg, gil.detected) if d}
        assert gil_set < sph_set

    def test_step_guard(self):
        fe = default_front_end("convex")
        with pytest.raises(ValueError):
            rotation_sweep(fe, 0.0)
        with pytest.raises(ValueError):
            rotation_sweep(fe, 91.0)

    def test_finest_step_bounds_the_sweep(self):
        fe = default_front_end("convex")
        with pytest.raises(ValueError, match=r"step_deg must lie in "
                                             r"\[0.001, 90\], got 1e-09"):
            rotation_sweep(fe, 1e-9)
        assert len(rotation_sweep(fe, 1e-3).angles_deg) == 90001

    def test_metalens_geometry_replaces_actuator_base(self):
        fe = default_front_end("metalens_ris")
        slab = SteeringGeometry(slit_um=80.0, depth_mm=0.6, pd_length_mm=0.8,
                                n_ris=1.7)
        sweep = rotation_sweep(replace(fe, geometry=slab), 5.0)
        rebased = replace(fe, actuator=replace(fe.actuator, base_geometry=slab))
        assert sweep == rotation_sweep(rebased, 5.0)
        assert sweep != rotation_sweep(fe, 5.0)

    def test_intensity_peaks_at_zero(self):
        for kind in ("convex", "cmbbp", "lc_ris"):
            sweep = rotation_sweep(default_front_end(kind), 10.0)
            assert sweep.relative_intensity[0] == max(sweep.relative_intensity)


class TestCompareTable:
    def test_envelope_ordering(self):
        rows = compare_table([default_front_end(k) for k in KINDS], 1.0)
        by_kind = {r.kind: r.max_detected_deg for r in rows}
        assert by_kind["convex"] < by_kind["gilcpc"] < by_kind["spherical"] \
            < by_kind["cmbbp"] < by_kind["metalens_ris"]
        assert by_kind["cmbbp"] < by_kind["lc_ris"]
        assert by_kind["metalens_ris"] == by_kind["lc_ris"] == 90.0

    def test_mean_is_the_left_to_right_sum(self):
        """On every Python: ``sum`` is compensated from 3.12 on, and on
        this roster that sum differs from the left-to-right one for every
        kind."""
        roster = [default_front_end(kind) for kind in KINDS]
        for fe, row in zip(roster, compare_table(roster, 1.0)):
            sweep = rotation_sweep(fe, 1.0)
            cells = [i for i, d in zip(sweep.relative_intensity,
                                       sweep.detected) if d]
            total = functools.reduce(operator.add, cells, 0.0)
            assert total != math.fsum(cells)
            assert row.mean_intensity == total / len(cells)

    def test_empty_roster(self):
        assert compare_table([], 1.0) == []

    def test_duplicates_preserved_in_order(self):
        fe = default_front_end("convex")
        rows = compare_table([fe, fe], 10.0)
        assert [r.kind for r in rows] == ["convex", "convex"]
        assert rows[0] == rows[1]

    def test_csv_and_text_outputs(self, tmp_path):
        rows = compare_table([default_front_end("convex"),
                              default_front_end("lc_ris")], 10.0)
        path = tmp_path / "table.csv"
        table_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("kind,max_detected_deg")
        assert len(lines) == 3
        assert lines[2].startswith("lc_ris,90,")
        text = format_table(rows)
        assert "convex" in text and "2-5 V" in text


_TAIL_WARNING = "normalisation tail beyond the 89.9 deg horizon"


@st.composite
def front_ends(draw):
    """Legacy front ends with their envelope moved, and tunable ones with a
    random slab, wavelength and actuator."""
    kind = draw(st.sampled_from(KINDS))
    fe = default_front_end(kind)
    if kind not in RIS_KINDS:
        if kind == "cmbbp":
            return fe
        cap = fe.max_incidence.degrees if kind != "adj_lens" else 89.0
        return replace(fe, max_incidence=deg(draw(st.floats(1.0, cap))))
    slab = SteeringGeometry(slit_um=draw(st.floats(0.5, 200.0)),
                            depth_mm=draw(st.floats(0.05, 5.0)),
                            pd_length_mm=draw(st.floats(0.05, 2.0)),
                            n_ris=draw(st.floats(1.3, 2.0)))
    if kind == "lc_ris":
        v_on = draw(st.floats(0.5, 4.0))
        actuator = LiquidCrystalActuator(
            v_on_v=v_on, v_sat_v=v_on + draw(st.floats(0.5, 5.0)),
            n_base=draw(st.floats(1.2, 2.0)),
            delta_n=draw(st.floats(0.2, 0.4)))
    else:
        actuator = MetaLensActuator(v_max_v=draw(st.floats(10.0, 2000.0)),
                                    stretch_max=draw(st.floats(1.05, 3.0)),
                                    base_geometry=slab)
    return replace(fe, actuator=actuator, geometry=slab,
                   wavelength_nm=draw(st.floats(300.0, 1500.0)))


def _recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, Counter(str(w.message) for w in caught)


def object_model_detect(fe, angle_deg):
    """(detected, intensity) at one rotation, computed through the value
    objects: an Angle, an IncidentWave, the landings of the rest and
    full-drive slabs, a voltage solve where the rest slab misses the
    detector, and ``evaluate``'s transmittance of the slab that lands."""
    rotation = Angle.from_degrees(angle_deg)
    deg = rotation.degrees
    if deg > fe.max_incidence.degrees + 1e-9:
        return (False, 0.0)
    if fe.kind not in RIS_KINDS:
        intensity = math.cos(rotation.radians)
        if fe.kind == "cmbbp" and deg > fe.rolloff_start.degrees:
            start, edge = fe.rolloff_start.degrees, fe.max_incidence.degrees
            intensity *= 1.0 - 0.5 * (deg - start) / (edge - start)
        return (True, intensity)
    rest, full = (drive(fe.actuator, v, fe.geometry)
                  for v in _interval(fe.actuator))
    wave = IncidentWave(fe.wavelength_nm, angle_deg, order=1)
    half = rest.pd_length_mm / 2
    try:
        landing_rest = steering_offset_mm(rest, wave)
        if steering_offset_mm(full, wave) > half + 1e-12:
            return (False, 0.0)
        if landing_rest > half:
            target = DesignTarget("pd_landing", half, wave, fe.geometry,
                                  "voltage")
            state = drive(fe.actuator, solve_voltage(target, fe.actuator),
                          fe.geometry)
            return (True, evaluate(state, wave).transmittance)
        return (True, evaluate(rest, wave).transmittance)
    except (EvanescentOrder, Infeasible):
        return (False, 0.0)


@settings(max_examples=100, deadline=None)
@given(fe=front_ends(),
       step=st.floats(2.0, 90.0) | st.sampled_from([0.9, 1.0, 7.5, 90.0]))
def test_float_sweep_equals_the_object_model(fe, step):
    """The sweep's plain-float path gives, bit for bit, what the value
    objects give rotation by rotation, and raises the same warnings; only
    the horizon tail bound may fire less often, once per slab state
    instead of once per rotation."""
    sweep, swept = _recorded(lambda: rotation_sweep(fe, step))
    reference, each = _recorded(lambda: [object_model_detect(fe, a)
                                         for a in sweep.angles_deg])
    assert list(sweep.detected) == [d for d, _ in reference]
    assert list(sweep.relative_intensity) == [i for _, i in reference]
    assert set(swept) == set(each)
    for message, count in each.items():
        if not message.startswith(_TAIL_WARNING):
            assert swept[message] == count
