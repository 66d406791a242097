import json
import math
import sys

import pytest

from ris_vlc import scenario
from ris_vlc.scenario import (SWEEP_PARAMETERS, ScenarioError, load_scenario,
                              scenario_from_dict)
from ris_vlc.tuning import (TARGET_KINDS, LiquidCrystalActuator,
                            MetaLensActuator)


HUGE = 10 ** 399  # an integer literal of 400 digits


def minimal():
    return {
        "geometry": {"slit_um": 4.0, "depth_mm": 0.75, "pd_length_mm": 1.0,
                     "n_ris": 1.5},
        "wave": {"wavelength_nm": 550.0, "incidence_deg": 0.0},
    }


def errors_of(data) -> list[str]:
    with pytest.raises(ScenarioError) as exc_info:
        scenario_from_dict(data)
    return exc_info.value.errors


class TestLoading:
    def test_minimal_is_single_evaluation(self):
        sc = scenario_from_dict(minimal(), name="m")
        assert sc.mode == "eval"
        assert sc.wave.power_w == 1.0 and sc.wave.order == 1

    def test_negative_slit_names_field_path(self):
        data = minimal()
        data["geometry"]["slit_um"] = -1.0
        errs = errors_of(data)
        assert any(e.startswith("geometry.slit_um") for e in errs)

    def test_all_violations_batched(self):
        data = minimal()
        data["geometry"]["slit_um"] = -1.0
        data["geometry"]["n_ris"] = 3.0
        data["wave"]["incidence_deg"] = 120.0
        errs = errors_of(data)
        assert len(errs) == 3

    def test_sweep_and_design_mutually_exclusive(self):
        data = minimal()
        data["sweep"] = {"parameter": "wavelength", "from_nm": 300.0,
                         "to_nm": 800.0, "steps": 5}
        data["design"] = {"kind": "refraction_angle", "value_deg": 40.0,
                          "free": "n_ris"}
        errs = errors_of(data)
        assert any("exactly one of" in e for e in errs)

    def test_unsuffixed_numeric_key_rejected(self):
        data = minimal()
        data["geometry"]["slit"] = 4.0
        assert errors_of(data) == ["geometry.slit: unknown key"]

    def test_accepted_numeric_keys_carry_a_unit_suffix(self, monkeypatch):
        """Every numeric key that some block accepts ends in a unit suffix
        or names a dimensionless quantity, so that no scenario needs a
        separate unit check."""
        accepted = set(scenario.CURVE_KEYS) | set(scenario._BASELINE_KEYS)
        reject_unknown = scenario._reject_unknown

        def record(block, path, known, errors):
            accepted.update(known)
            reject_unknown(block, path, known, errors)

        monkeypatch.setattr(scenario, "_reject_unknown", record)
        blocks = ([{"actuator": {"type": t}} for t in ("lc", "metalens")]
                  + [{"actuator": {"preset": "lc-sun2019"}},
                     {"profile": {}}, {"bench": {}}]
                  + [{"sweep": {"parameter": p}} for p in SWEEP_PARAMETERS]
                  + [{"design": {"kind": k}} for k in TARGET_KINDS])
        for block in blocks:  # each invalid, by its empty geometry block
            with pytest.raises(ScenarioError):
                scenario_from_dict(minimal() | block | {"geometry": {}})
        not_numeric = {"name", "geometry", "wave", "actuator", "profile",
                       "sweep", "design", "bench", "type", "preset",
                       "parameter", "spacing", "curves", "baseline", "kind",
                       "free", "front_ends"}
        dimensionless = {"n_ris", "n_air", "order", "steps", "samples",
                         "stretch_max", "delta_n", "n_base", "from_index",
                         "to_index"}
        suffixes = ("_nm", "_um", "_mm", "_deg", "_v", "_w")
        assert {"depth_mm", "delta_n", "value_deg", "to_v"} <= accepted
        assert sorted(key for key in accepted - not_numeric - dimensionless
                      if not key.endswith(suffixes)) == []

    def test_unknown_key_rejected(self):
        data = minimal()
        data["geometry"]["colour"] = "red"
        errs = errors_of(data)
        assert any("geometry.colour" in e for e in errs)

    def test_parse_error_is_position_annotated(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"geometry": {,}}')
        with pytest.raises(ScenarioError, match=r"line 1, column"):
            load_scenario(path)

    @pytest.mark.parametrize("text, reason", [
        (json.dumps(minimal()).replace("4.0", "1" + "0" * 5000), "digits"),
        ('{"geometry": ' + "[" * 100_000 + "]" * 100_000 + "}", "recursion"),
    ], ids=["digits", "recursion"])
    def test_undecodable_json_is_parse_error(self, tmp_path, text, reason):
        path = tmp_path / "case.json"
        path.write_text(text)
        with pytest.raises(ScenarioError, match=rf"^parse error: .*{reason}"):
            load_scenario(path)

    def test_name_from_file_stem(self, tmp_path):
        path = tmp_path / "my-case.json"
        path.write_text(json.dumps(minimal()))
        assert load_scenario(path).name == "my-case"


class TestActuatorBlock:
    def test_preset(self):
        data = minimal()
        data["actuator"] = {"preset": "lc-sun2019"}
        sc = scenario_from_dict(data)
        assert isinstance(sc.actuator, LiquidCrystalActuator)
        assert sc.actuator.n_base == 1.508

    def test_metalens_preset_uses_scenario_geometry(self):
        data = minimal()
        data["actuator"] = {"preset": "metalens-she2018"}
        sc = scenario_from_dict(data)
        assert isinstance(sc.actuator, MetaLensActuator)
        assert sc.actuator.base_geometry == sc.geometry

    def test_inline_metalens(self):
        data = minimal()
        data["actuator"] = {"type": "metalens", "v_max_v": 500.0,
                            "stretch_max": 1.3}
        sc = scenario_from_dict(data)
        assert sc.actuator.v_max_v == 500.0

    def test_bad_preset_name(self):
        data = minimal()
        data["actuator"] = {"preset": "unknown"}
        assert any("actuator.preset" in e for e in errors_of(data))


    def test_inline_lc_defaults_are_the_class_defaults(self):
        data = minimal()
        data["actuator"] = {"type": "lc", "n_base": 1.5}
        assert scenario_from_dict(data).actuator == \
            LiquidCrystalActuator(n_base=1.5)

    @pytest.mark.parametrize("actuator, errors", [
        ({"type": "metalens", "v_max_v": -1.0, "stretch_max": math.inf},
         ["actuator.v_max_v: must be finite and > 0, got -1.0",
          "actuator.stretch_max: must be finite and > 1, got inf"]),
        ({"type": "lc", "v_on_v": 0, "n_base": 2.4},
         ["actuator.v_on_v: must be finite and > 0, got 0.0"]),
        ({"type": "lc", "n_base": 2.4},
         ["actuator: n_base + delta_n = 2.7 exceeds 2.5"]),
        ({"type": "lc", "n_base": 1.5, "delta_n": 0.5},
         ["actuator.delta_n: must lie in [0.2, 0.4], got 0.5"]),
        ({"type": "metalens", "v_max_v": 1.0, "stretch_max": 1e300},
         ["actuator: stretch_max 1e+300 leaves no valid slab at full stretch"]),
    ])
    def test_field_bounds_by_path_and_joint_rules_by_block(self, actuator,
                                                           errors):
        data = minimal()
        data["actuator"] = actuator
        assert errors_of(data) == errors

    @pytest.mark.parametrize("block", [
        {"design": {"kind": "pd_landing", "value_mm": 0.4, "free": "voltage"}},
        {"sweep": {"parameter": "voltage", "from_v": 0.0, "to_v": 6.0,
                   "steps": 3}},
        {"profile": {"samples": 5, "curves": {"voltage_v": [0.0, 4.0]}}},
    ])
    def test_invalid_actuator_is_reported_once(self, block):
        data = minimal() | block
        data["actuator"] = {"type": "lc", "n_base": math.nan}
        assert errors_of(data) == [
            "actuator.n_base: must lie in (1.0, 2.5], got nan"]


class TestBlockValidation:
    def test_sweep_bounds_use_parameter_suffix(self):
        data = minimal()
        data["sweep"] = {"parameter": "wavelength", "from_mm": 1.0,
                         "to_nm": 800.0, "steps": 5}
        errs = errors_of(data)
        assert any("from_nm" in e for e in errs)

    def test_sweep_curve_must_differ_from_parameter(self):
        data = minimal()
        data["sweep"] = {"parameter": "wavelength", "from_nm": 300.0,
                         "to_nm": 800.0, "steps": 5,
                         "curves": {"wavelength_nm": [400.0]}}
        errs = errors_of(data)
        assert any("duplicates the sweep parameter" in e for e in errs)

    @pytest.mark.parametrize("parameter, bounds, where", [
        ("wavelength", {"from_nm": 100.0, "to_nm": 800.0}, "sweep.from_nm"),
        ("n_ris", {"from_index": 1.2, "to_index": 3.0}, "sweep.to_index"),
        ("depth", {"from_mm": 0.0, "to_mm": 1.0}, "sweep.from_mm"),
        ("incidence", {"from_deg": 0.0, "to_deg": 95.0}, "sweep.to_deg"),
    ])
    def test_sweep_range_within_field_bounds(self, parameter, bounds, where):
        data = minimal()
        data["sweep"] = {"parameter": parameter, "steps": 5, **bounds}
        errs = errors_of(data)
        assert any(e.startswith(f"{where}: must") for e in errs)

    def test_sweep_baseline_within_field_bounds(self):
        data = minimal()
        data["sweep"] = {"parameter": "wavelength", "from_nm": 400.0,
                         "to_nm": 800.0, "steps": 5,
                         "baseline": {"slit_um": -4.0, "n_ris": 1.9}}
        errs = errors_of(data)
        assert errs == ["sweep.baseline.slit_um: must be finite and > 0, "
                        "got -4.0"]

    def test_voltage_sweep_requires_actuator(self):
        data = minimal()
        data["sweep"] = {"parameter": "voltage", "from_v": 0.0, "to_v": 5.0,
                         "steps": 5}
        errs = errors_of(data)
        assert any("requires an actuator" in e for e in errs)

    def test_design_value_unit_matches_kind(self):
        data = minimal()
        data["design"] = {"kind": "refraction_angle", "value_mm": 1.0,
                          "free": "n_ris"}
        errs = errors_of(data)
        assert any("value_deg" in e for e in errs)

    def test_design_free_kind_combination(self):
        data = minimal()
        data["design"] = {"kind": "spot_width", "value_mm": 1.0,
                          "free": "n_ris"}
        errs = errors_of(data)
        assert any("n_ris solves only" in e for e in errs)

    def test_design_free_kind_mismatch_batched_with_missing_value(self):
        data = minimal()
        data["design"] = {"kind": "spot_width", "free": "n_ris"}
        assert errors_of(data) == [
            "design.value_mm: required key missing",
            "design: free variable n_ris solves only refraction_angle "
            "targets, got kind 'spot_width'"]

    def test_detector_length_is_a_normal_float(self):
        data = minimal()
        data["geometry"]["pd_length_mm"] = sys.float_info.min
        scenario_from_dict(data)
        data["geometry"]["pd_length_mm"] = 1e-322
        assert errors_of(data) == [
            "geometry.pd_length_mm: must be finite and >= "
            "2.2250738585072014e-308, got 1e-322"]

    def test_violation_shows_the_value_as_given(self):
        data = minimal()
        data["geometry"].update(n_ris=2.5000001, n_air=1.0010001)
        data["wave"]["wavelength_nm"] = 2000.0000001
        assert errors_of(data) == [
            "geometry.n_air: must lie in [1.0, 1.001], got 1.0010001",
            "geometry.n_ris: must lie in (1.0, 2.5], got 2.5000001",
            "wave.wavelength_nm: must lie in [200, 2000], got 2000.0000001"]

    def test_log_sweep_start_shows_the_value_as_given(self):
        data = minimal()
        data["sweep"] = {"parameter": "incidence", "from_deg": -0.0,
                         "to_deg": 60.0, "steps": 3, "spacing": "log"}
        assert errors_of(data) == [
            "sweep.from_deg: must be > 0 for log spacing, got -0.0"]

    def test_bench_kinds_validated(self):
        data = minimal()
        data["bench"] = {"front_ends": ["convex", "prism"], "step_deg": 1.0}
        errs = errors_of(data)
        assert any("prism" in e for e in errs)

    def test_bench_all_expands(self):
        data = minimal()
        data["bench"] = {"front_ends": "all", "step_deg": 5.0}
        sc = scenario_from_dict(data)
        assert "lc_ris" in sc.bench.front_ends

    @pytest.mark.parametrize("block, key, limit, beyond, message", [
        ("bench", "step_deg", 1e-3, 1e-9,
         "bench.step_deg: must lie in [0.001, 90], got 1e-09"),
        ("sweep", "steps", 100_000, 100_001,
         "sweep.steps: must lie in [2, 100000], got 100001"),
        ("profile", "samples", 1_000_000, 1_000_001,
         "profile.samples: must lie in [3, 1000000], got 1000001"),
    ])
    def test_size_limits(self, block, key, limit, beyond, message):
        blocks = {"bench": {"front_ends": ["convex"]},
                  "sweep": {"parameter": "wavelength", "from_nm": 400.0,
                            "to_nm": 800.0},
                  "profile": {}}
        data = minimal()
        data[block] = {**blocks[block], key: limit}
        scenario_from_dict(data)
        data[block][key] = beyond
        assert errors_of(data) == [message]

    # Python's json reads an integer literal exactly, however long; the
    # same number written with an exponent reads as inf.
    @pytest.mark.parametrize("blocks, message", [
        ({"geometry": minimal()["geometry"] | {"slit_um": HUGE}},
         "geometry.slit_um: must be finite and > 0, got inf"),
        ({"profile": {"samples": 5, "curves": {"depth_mm": [4.0, -HUGE]}}},
         "profile.curves.depth_mm[1]: must be finite and > 0, got -inf"),
        ({"sweep": {"parameter": "wavelength", "from_nm": 400.0,
                    "to_nm": 800.0, "steps": 5, "baseline": {"slit_um": HUGE}}},
         "sweep.baseline.slit_um: must be finite and > 0, got inf"),
        ({"sweep": {"parameter": "depth", "from_mm": 0.5, "to_mm": HUGE,
                    "steps": 5}},
         "sweep.to_mm: must be finite and > 0, got inf"),
    ])
    def test_integer_beyond_float_range_is_out_of_bounds(self, blocks,
                                                         message):
        data = json.loads(json.dumps(minimal() | blocks))
        assert errors_of(data) == [message]

    def test_profile_forbidden_with_sweep(self):
        data = minimal()
        data["profile"] = {"samples": 11}
        data["sweep"] = {"parameter": "wavelength", "from_nm": 300.0,
                         "to_nm": 800.0, "steps": 5}
        errs = errors_of(data)
        assert any("profile" in e for e in errs)

