import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ris_vlc.cli import _build_parser, main
from ris_vlc import _g17
from ris_vlc import runner
from ris_vlc.diffraction import profile_on_pd
from ris_vlc.optics import IncidentWave, SteeringGeometry
from ris_vlc.runner import (_CELL, _CHUNK_ROWS, _template, _write_csv,
                            _write_profile, bundled_scenario_names,
                            bundled_scenario_path, run, run_bundled)
from ris_vlc.scenario import (CURVE_KEYS, SweepSpec, load_scenario,
                              scenario_from_dict)


def write_scenario(tmp_path, data, name="case"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def minimal():
    return {
        "geometry": {"slit_um": 4.0, "depth_mm": 0.75, "pd_length_mm": 1.0,
                     "n_ris": 1.5},
        "wave": {"wavelength_nm": 550.0, "incidence_deg": 0.0},
    }


def clamped():
    """An eval whose profile drives the LC cell past saturation twice."""
    data = minimal()
    data["actuator"] = {"preset": "lc-sun2019"}
    data["profile"] = {"samples": 5,
                       "curves": {"voltage_v": [0, 1.5, 10, 2.75, 10]}}
    return data


METALENS = {"type": "metalens", "v_max_v": 1000.0, "stretch_max": 1.5}
LC = {"type": "lc", "v_on_v": 3.0, "v_sat_v": 5.0, "n_base": 1.5,
      "delta_n": 0.3}
LANDING = {"kind": "pd_landing", "value_mm": 0.4, "free": "voltage"}

CLAMP = "drive 10 V clamped to saturation 5 V"


def sidecar_warnings(out, name="case"):
    return json.loads((out / f"{name}.meta.json").read_text())["warnings"]


def sidecar_stages(out, name):
    return json.loads((out / f"{name}.meta.json").read_text()).get("stages_s")


class TestRunner:
    def test_eval_artifacts(self, tmp_path):
        sc = scenario_from_dict(minimal(), name="single")
        report = run(sc, tmp_path / "out", quiet=True)
        (summary,) = report.artifacts
        lines = summary.read_text().splitlines()
        assert lines[0].startswith("refraction_angle_deg,")
        assert len(lines) == 2
        assert (tmp_path / "out" / "single.meta.json").exists()

    def test_eval_with_profile_curves(self, tmp_path):
        data = minimal()
        data["profile"] = {"samples": 11, "curves": {"depth_mm": [0.5, 1.0]}}
        sc = scenario_from_dict(data, name="prof")
        report = run(sc, tmp_path, quiet=True)
        profile = [p for p in report.artifacts if p.name.endswith("_profile.csv")]
        lines = profile[0].read_text().splitlines()
        assert lines[0] == "depth_mm,position_mm,relative_intensity"
        assert len(lines) == 1 + 2 * 11

    def test_warnings_counted_in_sidecar_and_passed_on(self, tmp_path):
        sc = scenario_from_dict(clamped(), name="case")
        with pytest.warns(UserWarning, match="clamped") as passed:
            run(sc, tmp_path, quiet=True)
        assert [str(w.message) for w in passed] == [CLAMP, CLAMP]
        assert sidecar_warnings(tmp_path) == {CLAMP: 2}
        # recorded even when the caller's filters ignore it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run(sc, tmp_path, quiet=True)
        assert sidecar_warnings(tmp_path) == {CLAMP: 2}
        run(scenario_from_dict(minimal(), name="calm"), tmp_path, quiet=True)
        assert sidecar_warnings(tmp_path, "calm") == {}

    def test_passed_on_warnings_keep_their_module(self, tmp_path):
        sc = scenario_from_dict(clamped(), name="case")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", module=r"ris_vlc\.tuning")
            run(sc, tmp_path, quiet=True)
        assert seen == []
        assert sidecar_warnings(tmp_path) == {CLAMP: 2}

    def test_sweep_rows_and_error_column(self, tmp_path):
        data = minimal()
        data["geometry"]["n_ris"] = 1.4
        data["wave"]["incidence_deg"] = 90.0
        data["sweep"] = {"parameter": "wavelength", "from_nm": 1500.0,
                         "to_nm": 1700.0, "steps": 5}
        sc = scenario_from_dict(data, name="ev")
        report = run(sc, tmp_path, quiet=True)
        rows = report.artifacts[0].read_text().splitlines()[1:]
        assert len(rows) == 5
        assert rows[0].endswith(",")  # in-band point, empty error cell
        assert rows[-1].endswith("EvanescentOrder")

    def test_design_depth_solve(self, tmp_path):
        data = minimal()
        data["wave"]["order"] = 0
        data["design"] = {"kind": "spot_width", "value_mm": 0.184,
                          "free": "depth"}
        sc = scenario_from_dict(data, name="dz")
        report = run(sc, tmp_path, quiet=True)
        header, row = report.artifacts[0].read_text().splitlines()
        assert "solved_depth_mm" in header
        solved = float(row.split(",")[3])
        assert solved == pytest.approx(0.9994108016292514, rel=1e-9)

    def test_voltage_design_solve(self, tmp_path):
        data = minimal()
        data["geometry"] = {"slit_um": 100.0, "depth_mm": 0.75,
                            "pd_length_mm": 1.0, "n_ris": 1.508}
        data["wave"]["incidence_deg"] = 90.0
        data["actuator"] = {"preset": "lc-sun2019"}
        data["design"] = {"kind": "pd_landing", "value_mm": 0.5,
                          "free": "voltage"}
        sc = scenario_from_dict(data, name="dv")
        report = run(sc, tmp_path, quiet=True)
        header, row = report.artifacts[0].read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert 3.0 <= float(cells["solved_voltage_v"]) <= 5.0
        assert float(cells["achieved_mm"]) == pytest.approx(0.5, rel=1e-5)

    def test_eval_sidecar_records_stage_seconds(self, tmp_path):
        stages = lambda name: sidecar_stages(tmp_path, name)
        data = minimal()
        data["profile"] = {"samples": 3001, "curves": {"depth_mm": [0.5, 1.0]}}
        run(scenario_from_dict(data, name="prof"), tmp_path, quiet=True)
        seconds = stages("prof")
        assert list(seconds) == ["sample", "format", "write"]
        assert all(isinstance(s, float) and s > 0 for s in seconds.values())
        run(scenario_from_dict(minimal(), name="plain"), tmp_path, quiet=True)
        assert stages("plain")["format"] == 0.0
        data = minimal()
        data["sweep"] = {"parameter": "wavelength", "from_nm": 500.0,
                         "to_nm": 600.0, "steps": 3}
        run(scenario_from_dict(data, name="sw"), tmp_path, quiet=True)
        assert stages("sw") is None

    def test_bench_sidecar_records_stage_seconds(self, tmp_path):
        stages = lambda name: sidecar_stages(tmp_path, name)
        data = minimal()
        data["bench"] = {"front_ends": ["convex", "lc_ris"], "step_deg": 5.0}
        run(scenario_from_dict(data, name="tab"), tmp_path, quiet=True)
        seconds = stages("tab")
        assert list(seconds) == ["sweep", "write"]
        assert all(isinstance(s, float) and s > 0 for s in seconds.values())
        data = minimal()
        data["design"] = {"kind": "refraction_angle", "value_deg": 5.0,
                          "free": "n_ris"}
        run(scenario_from_dict(data, name="des"), tmp_path, quiet=True)
        assert stages("des") is None

    @pytest.mark.parametrize("key, actuator", [
        *((key, {"preset": "lc-sun2019"}) for key in CURVE_KEYS),
        ("voltage_v", {"preset": "metalens-she2018"})])
    def test_curve_members_share_positions(self, key, actuator):
        """_run_eval formats one position column for every member, which
        holds because no curve key moves pd_length_mm."""
        sc = scenario_from_dict({**minimal(), "actuator": actuator})
        values = {"wavelength_nm": (400.0, 700.0), "n_ris": (1.3, 1.8),
                  "depth_mm": (0.3, 2.0), "incidence_deg": (0.0, 30.0),
                  "voltage_v": (3.0, 4.5)}[key]
        positions = []
        for value in values:
            state = runner._set({**vars(sc.geometry), **vars(sc.wave)}, key,
                                value, sc.actuator)
            geom = SteeringGeometry(**{k: state[k] for k in runner._GEOMETRY})
            wave = IncidentWave(**{k: state[k] for k in runner._WAVE})
            positions.append(profile_on_pd(geom, wave, 101).positions_mm)
        assert np.array_equal(*positions)

    def test_profile_memory_stays_bounded(self, tmp_path):
        """Rows are streamed chunk by chunk: no member's text is built
        whole (20.9 MB traced peak when it was, 6.4 MB streamed)."""
        data = minimal()
        data["profile"] = {"samples": 5, "curves": {"depth_mm": [0.5, 1.0]}}
        run(scenario_from_dict(data, name="warm"), tmp_path, quiet=True)
        data["profile"]["samples"] = 100001
        sc = scenario_from_dict(data, name="big")
        tracemalloc.start()
        try:
            run(sc, tmp_path, quiet=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big_profile.csv").stat().st_size > 8e6
        assert peak <= 8e6

    def test_bench_artifacts(self, tmp_path):
        data = minimal()
        data["bench"] = {"front_ends": ["convex", "spherical"], "step_deg": 5.0}
        sc = scenario_from_dict(data, name="b")
        report = run(sc, tmp_path, quiet=True)
        names = sorted(p.name for p in report.artifacts)
        assert names == ["b_bench.csv", "b_bench.txt"]

    def test_bundled_catalogue(self):
        names = bundled_scenario_names()
        assert names == ["fig2-left", "fig2-right", "fig3-left", "fig3-right",
                         "fig4-bottom", "fig4-top", "table1"]
        for name in names:
            load_scenario(bundled_scenario_path(name))

    def test_bundled_steering_sweep_reference_row(self, tmp_path):
        sc = load_scenario(bundled_scenario_path("fig2-left"))
        report = run(sc, tmp_path, quiet=True)
        lines = report.artifacts[0].read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        first = next(r for r in rows
                     if float(r["n_ris"]) == 1.4
                     and float(r["wavelength_nm"]) == 300.0)
        assert abs(float(first["refraction_angle_deg"]) - 50.133) < 0.5

    def test_bundled_bench_table(self, tmp_path):
        sc = load_scenario(bundled_scenario_path("table1"))
        report = run(sc, tmp_path, quiet=True)
        csv_path = next(p for p in report.artifacts if p.suffix == ".csv")
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 8  # header plus one row per kind
        max_angles = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(max_angles) == max_angles[-1] == 90.0  # tunable kinds win


class TestCli:
    def test_eval_happy_path(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal())
        code = main(["eval", "--scenario", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        assert "case_summary.csv" in capsys.readouterr().out

    def test_quiet_suppresses_summaries(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal())
        assert main(["eval", "--scenario", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_warnings_are_one_line_per_message(self, tmp_path, capsys):
        path = write_scenario(tmp_path, clamped())
        code = main(["eval", "--scenario", str(path), "--out", str(tmp_path),
                     "--quiet"])
        assert code == 0
        assert capsys.readouterr().err == f"warning: {CLAMP} (x2)\n"
        assert sidecar_warnings(tmp_path) == {CLAMP: 2}

    def test_runtime_warnings_meet_the_callers_filters(self, tmp_path,
                                                       capsys, monkeypatch):
        """Only UserWarnings are counted whatever the filters; a numpy
        RuntimeWarning fails a run under an error filter."""
        def warns(*args):
            warnings.warn("injected overflow", RuntimeWarning)
            return profile_on_pd(*args)

        monkeypatch.setattr(runner, "profile_on_pd", warns)
        path = write_scenario(tmp_path, clamped())
        argv = ["eval", "--scenario", str(path), "--out", str(tmp_path),
                "--quiet"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="injected overflow"):
                main(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("default", RuntimeWarning)
            assert main(argv) == 0
        # shown once per source line, as the default filter does
        assert capsys.readouterr().err.splitlines() == [
            "warning: injected overflow (x1)", f"warning: {CLAMP} (x2)"]

    def test_mode_mismatch_is_validation_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal())
        code = main(["sweep", "--scenario", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ScenarioError"

    def test_invalid_scenario_exit_and_record(self, tmp_path, capsys):
        data = minimal()
        data["geometry"]["slit_um"] = -1.0
        path = write_scenario(tmp_path, data)
        code = main(["eval", "--scenario", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert any("slit_um" in v for v in record["violations"])

    def test_evanescent_scenario_exit_and_record(self, tmp_path, capsys):
        data = minimal()
        data["geometry"] = {"slit_um": 0.4, "depth_mm": 1.0,
                            "pd_length_mm": 1.0, "n_ris": 1.1}
        data["wave"] = {"wavelength_nm": 800.0, "incidence_deg": 90.0,
                        "order": 1}
        path = write_scenario(tmp_path, data)
        code = main(["eval", "--scenario", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "EvanescentOrder"

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["eval", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir", "nul\0byte",
                                      ".", ".."])
    def test_name_not_one_path_component_is_validation_error(
            self, tmp_path, capsys, name):
        path = write_scenario(tmp_path, minimal() | {"name": name})
        out = tmp_path / "out" / "inner"
        code = main(["eval", "--scenario", str(path), "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["error"] == "ScenarioError"
        (violation,) = record["violations"]
        assert violation.startswith("name: ")
        assert list(tmp_path.iterdir()) == [path]

    def test_name_too_long_for_the_file_system_leaves_nothing(self, tmp_path,
                                                              capsys):
        """The name rule admits 250 characters (the limit depends on the
        file system), and the first artifact cannot then be opened: the run
        exits 4 and removes every directory it made for it."""
        path = write_scenario(tmp_path, minimal() | {"name": "n" * 250})
        for out in (tmp_path / "new" / "inner", tmp_path / "kept" / "inner"):
            code = main(["eval", "--scenario", str(path), "--out", str(out)])
            assert code == 4
            record = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert record["error"] == "OSError"
            assert "File name too long" in record["message"]
            (tmp_path / "kept").mkdir(exist_ok=True)
        assert sorted(tmp_path.iterdir()) == [path, tmp_path / "kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    @pytest.mark.parametrize("text, message", [
        (b'{"name": "\xff"}', "parse error: 'utf-8' codec can't decode byte "
                               "0xff in position 10: invalid start byte"),
        # a byte-order mark stays a JSON parse error, as json reports it
        (b'\xef\xbb\xbf{}', "parse error at line 1, column 1: Unexpected "
                             "UTF-8 BOM (decode using utf-8-sig)"),
    ])
    def test_undecodable_file_is_parse_error(self, tmp_path, capsys, text,
                                             message):
        path = tmp_path / "case.json"
        path.write_bytes(text)
        out = tmp_path / "out"
        code = main(["eval", "--scenario", str(path), "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["violations"] == [message]
        assert not out.exists()

    def test_out_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv("RIS_VLC_OUT", str(target))
        path = write_scenario(tmp_path, minimal())
        assert main(["eval", "--scenario", str(path), "--quiet"]) == 0
        assert (target / "case_summary.csv").exists()

    def test_infeasible_design_is_numerical_error(self, tmp_path, capsys):
        data = minimal()
        data["geometry"] = {"slit_um": 100.0, "depth_mm": 0.75,
                            "pd_length_mm": 1.0, "n_ris": 1.508}
        data["wave"]["incidence_deg"] = 90.0
        data["actuator"] = {"preset": "lc-sun2019"}
        data["design"] = {"kind": "refraction_angle", "value_deg": 85.0,
                          "free": "voltage"}
        path = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        code = main(["design", "--scenario", str(path), "--out", str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "Infeasible"
        assert not out.exists()

    def test_evanescent_profile_member_leaves_no_profile(self, tmp_path,
                                                         capsys):
        data = minimal()
        data["geometry"]["slit_um"] = 1.0
        # second member: sine (sin 80 deg + 0.55) / 1.5 = 1.023
        data["profile"] = {"samples": 11,
                           "curves": {"incidence_deg": [0.0, 80.0]}}
        path = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        code = main(["eval", "--scenario", str(path), "--out", str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "EvanescentOrder"
        # the summary state and the 0 deg member propagate; nothing is kept
        assert not out.exists()

    @pytest.mark.parametrize("curves, where", [
        ({"voltage_v": [1.0, 2.0]}, "requires an actuator"),
        ({"depth_mm": [1.0, -2.0]}, "profile.curves.depth_mm[1]"),
    ])
    def test_invalid_profile_curves_are_validation_errors(
            self, tmp_path, capsys, curves, where):
        data = minimal()
        data["profile"] = {"samples": 11, "curves": curves}
        path = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        code = main(["eval", "--scenario", str(path), "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ScenarioError"
        assert any(where in v for v in record["violations"])
        assert not out.exists()

    @pytest.mark.parametrize("block, key", [("geometry", "slit_um"),
                                            ("geometry", "pd_length_mm"),
                                            ("wave", "power_w")])
    def test_infinite_field_is_validation_error(self, tmp_path, capsys,
                                                block, key):
        data = minimal()
        data[block][key] = math.inf  # json writes Infinity, which json reads
        path = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        code = main(["eval", "--scenario", str(path), "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ScenarioError"
        assert any(f"{block}.{key}: must be finite" in v
                   for v in record["violations"])
        assert not out.exists()

    @pytest.mark.parametrize("curves, where", [
        ({"voltage_v": [1.0]}, "sweep.curves: voltage curve requires an actuator"),
        ({"depth_mm": [-1.0]}, "sweep.curves.depth_mm[0]"),
    ])
    def test_invalid_sweep_curves_are_validation_errors(
            self, tmp_path, capsys, curves, where):
        data = minimal()
        data["sweep"] = {"parameter": "wavelength", "from_nm": 400.0,
                         "to_nm": 800.0, "steps": 3, "curves": curves}
        path = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        code = main(["sweep", "--scenario", str(path), "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ScenarioError"
        assert any(where in v for v in record["violations"])
        assert not out.exists()

    @pytest.mark.parametrize("actuator, where", [
        (METALENS | {"v_max_v": math.inf}, "actuator.v_max_v: must be finite"),
        (METALENS | {"stretch_max": math.inf},
         "actuator.stretch_max: must be finite"),
        (LC | {"v_sat_v": math.inf}, "actuator.v_sat_v: must be finite"),
        (METALENS | {"stretch_max": 1e300},
         "actuator: stretch_max 1e+300 leaves no valid slab at full stretch"),
    ])
    @pytest.mark.parametrize("mode, block", [
        ("design", {"design": LANDING}),
        ("sweep", {"sweep": {"parameter": "voltage", "from_v": 0.0,
                             "to_v": 6.0, "steps": 3}}),
        ("eval", {"profile": {"samples": 5,
                              "curves": {"voltage_v": [0.0, 4.0]}}}),
    ])
    def test_unbounded_actuator_field_is_validation_error(
            self, tmp_path, capsys, actuator, where, mode, block):
        data = minimal() | {"actuator": actuator} | block
        path = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        code = main([mode, "--scenario", str(path), "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["error"] == "ScenarioError"
        (violation,) = record["violations"]
        assert violation.startswith(where)
        assert not out.exists()

    @pytest.mark.parametrize("sweep, actuator", [
        ({"parameter": "incidence", "from_deg": 0, "to_deg": 60.0}, None),
        ({"parameter": "voltage", "from_v": 0, "to_v": 6.0},
         {"preset": "lc-sun2019"}),
    ])
    def test_log_sweep_from_zero_is_validation_error(self, tmp_path, capsys,
                                                     sweep, actuator):
        data = minimal()
        data["sweep"] = sweep | {"steps": 3, "spacing": "log"}
        if actuator is not None:
            data["actuator"] = actuator
        from_key = next(k for k in sweep if k.startswith("from_"))
        path = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        code = main(["sweep", "--scenario", str(path), "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["violations"] == [
            f"sweep.{from_key}: must be > 0 for log spacing, got 0.0"]
        assert not out.exists()

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        data = minimal()
        eval_path = write_scenario(tmp_path, data, name="single")
        data["sweep"] = {"parameter": "wavelength", "from_nm": 400.0,
                         "to_nm": 800.0, "steps": 3}
        sweep_path = write_scenario(tmp_path, data, name="sw")
        assert main(["eval", "--scenario", str(eval_path), "--out",
                     str(tmp_path / "a"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["sweep", "--out", str(tmp_path / "b"),
                     "--scenario", str(sweep_path)]) == 0
        assert capsys.readouterr().out == "sw_sweep.csv: 3 rows\n"
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == \
            ["single.meta.json", "single_summary.csv"]
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == \
            ["sw.meta.json", "sw_sweep.csv"]
        assert _build_parser() is _build_parser()


AWKWARD = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e22, 0.1,
           np.float64(1 / 3), np.float64(-2.5e-300), 7]


def _profile_rows(prefix, positions, intensities):
    """The bytes _write_profile writes for one member."""
    buf = io.BytesIO()
    _write_profile(buf, np.asarray(positions, np.float64),
                   [(prefix, np.asarray(intensities, np.float64))])
    return buf.getvalue()


class TestCsvWriter:
    """The row templates and _write_csv give the bytes of csv.writer with
    17-significant-digit cells."""

    def test_bytes_match_csv_module(self, tmp_path):
        def fmt(x):
            return format(x, ".17g")

        arr = np.array(AWKWARD, dtype=float)
        reference = [[fmt(x) for x in AWKWARD],
                     [fmt(0.1), fmt(-0.0), fmt(5e-324)],
                     [fmt(1e22), fmt(0.1), "", "", "EvanescentOrder"],
                     [fmt(math.nan), fmt(1e22), ""],
                     ["spot_width", "depth", fmt(0.1), fmt(math.inf),
                      fmt(np.float64(1 / 3))]]
        reference += [[fmt(u), fmt(i)] for u, i in zip(arr, arr[::-1])]
        lines = [_template(len(AWKWARD)) % tuple(AWKWARD),
                 _template(2, _CELL % 0.1 + ",") % (-0.0, 5e-324),
                 _template(2, suffix=",,,EvanescentOrder") % (1e22, 0.1),
                 _template(2, suffix=",") % (math.nan, 1e22),
                 _template(3, "spot_width,depth,")
                 % (0.1, math.inf, np.float64(1 / 3))]
        lines += map(_template(2).__mod__,
                     zip(arr.tolist(), arr[::-1].tolist()))
        header = ["a", "b", "c"]
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(reference)
        _write_csv(tmp_path / "new.csv", header, iter(lines))
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("prefix", ["", _CELL % 0.75 + ","])
    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 513])
    def test_profile_blocks_match_per_row_format(self, prefix, rows):
        values = (AWKWARD * (2 * rows // len(AWKWARD) + 1))[:2 * rows]
        positions, intensities = values[0::2], values[1::2]
        want = "".join(f"{prefix}{format(u, '.17g')},{format(i, '.17g')}\n"
                       for u, i in zip(positions, intensities))
        assert _profile_rows(prefix, positions, intensities) == want.encode()


# No prefix, a curve member's prefix, and one long enough to need a second
# 8-byte word in front of the cells.
PREFIXES = ["", _CELL % 0.75 + ",", _CELL % (1 / 3) + ","]


def g17_rows(prefix, values, intensities=None):
    """The profile rows and their reference, every cell formatted by
    Python's '%.17g': by default each value once as a position and once
    as an intensity."""
    values = np.asarray(values, dtype=float)
    if intensities is None:
        intensities = values[::-1]
    pairs = zip(values.tolist(), np.asarray(intensities, float).tolist())
    want = "".join(f"{prefix}{'%.17g' % u},{'%.17g' % i}\n" for u, i in pairs)
    return _profile_rows(prefix, values, intensities), want.encode()


def exact_ties():
    """Doubles whose exact decimal value has 18 significant digits ending
    in 5: rounding them to 17 digits is an exact tie, broken to even."""
    rng = np.random.default_rng(7)
    ties = []
    for shift in range(1, 64):
        for m in (rng.integers(2 ** 52, 2 ** 53, 400) | 1).tolist():
            x = math.ldexp(m, -shift)
            digits = Decimal(x).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties += [x, -x]
    return ties


class TestProfileRows:
    """_profile_rows gives the bytes that '%.17g' gives one float at a time."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40),
           st.sampled_from(PREFIXES))
    def test_any_floats(self, values, prefix):
        got, want = g17_rows(prefix, values)
        assert got == want

    @pytest.mark.parametrize("prefix", PREFIXES[:2])
    def test_random_bit_patterns(self, prefix):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64)
        got, want = g17_rows(prefix, bits.view(np.float64))
        assert got == want

    @pytest.mark.parametrize("prefix", PREFIXES[:2])
    def test_powers_of_ten_and_neighbours(self, prefix):
        values = []
        for k in range(-323, 309):
            x = float(f"1e{k}")
            below = above = x
            for _ in range(3):
                below = math.nextafter(below, 0.0)
                above = math.nextafter(above, math.inf)
                values += [below, above]
            values += [x, -x]
        got, want = g17_rows(prefix, values)
        assert got == want

    @pytest.mark.parametrize("prefix", PREFIXES[:2])
    def test_exact_and_near_ties(self, prefix):
        ties = exact_ties()
        assert len(ties) > 1000
        # the tie guard hands every exact tie to Python
        assert _g17.decimal(np.array(ties))[2].all()
        rng = np.random.default_rng(5)
        # (k + 0.5) * 10**j rounded to the nearest double: near-ties
        near = [float(f"{k}5e{j}") for k in
                rng.integers(10 ** 16, 10 ** 17, 2000).tolist()
                for j in (-300, -40, -17, -5, 0, 3, 16, 30, 250)]
        got, want = g17_rows(prefix, ties + near)
        assert got == want

    @pytest.mark.parametrize("prefix", PREFIXES[:2])
    def test_powers_of_two_subnormals_and_specials(self, prefix):
        rng = np.random.default_rng(3)
        subnormal = rng.integers(1, 2 ** 52, 2000, dtype=np.uint64)
        values = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
        values += subnormal.view(np.float64).tolist()
        values += [5e-324, -5e-324, 2.225073858507201e-308,
                   2.2250738585072014e-308, 1.7976931348623157e308,
                   0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
        got, want = g17_rows(prefix, values)
        assert got == want

    def test_every_prefix_length(self):
        rng = np.random.default_rng(17)
        scales = 10.0 ** rng.integers(-8, 20, 40)
        values = np.concatenate([rng.standard_normal(40) * scales,
                                 [0.0, -0.0, math.inf, math.nan],
                                 exact_ties()[:4]])
        text = "-1.2345678901234567e-308,"
        for n in range(25):  # crosses the 8-byte word boundaries
            got, want = g17_rows(text[:n], values)
            assert got == want
            assert b"\0" not in got

    @pytest.mark.parametrize("prefix", PREFIXES[:2])
    def test_fallback_cells_at_chunk_edges(self, prefix):
        rng = np.random.default_rng(23)
        rows = 2 * 2048 + 7
        positions = rng.uniform(-0.5, 0.5, rows)
        intensities = rng.uniform(0.0, 1.0, rows)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan] + exact_ties()[:5]
        for k, row in enumerate([0, 2047, 2048, 2049, rows - 1]):
            positions[row] = specials[2 * k]
            intensities[row] = specials[2 * k + 1]
        # fixed notation with the '.' inside the digits (E in 1..16), and
        # 17 digits ending in 0000 (k / 1024), some of each at the edges
        wide = np.linspace(-20.0, 20.0, 4001)
        exact = np.arange(1, 4002) / 1024
        wide[2047:2050] = [12345.678, -9.5e15, 0.25]
        exact[2047:2050] = [0.1, 15.0, -9.5e15]
        for columns in [(positions, intensities), (wide, exact)]:
            got, want = g17_rows(prefix, *columns)
            assert got == want
            assert b"\0" not in got


def written_profile(positions, members):
    """The rows _write_profile writes, and their reference with every
    cell formatted by Python's '%.17g'."""
    buf = io.BytesIO()
    _write_profile(buf, positions, members)
    want = "".join(f"{prefix}{'%.17g' % u},{'%.17g' % i}\n"
                   for prefix, intensities in members
                   for u, i in zip(positions.tolist(), intensities.tolist()))
    return buf.getvalue(), want.encode()


class TestWriteProfile:
    """_write_profile streams every member's rows with one shared position
    column, each cell as '%.17g' gives it."""

    @pytest.mark.parametrize("prefixes", [
        [""], [PREFIXES[1]], [PREFIXES[1], PREFIXES[2], "2,"]])
    @pytest.mark.parametrize("rows", [1, 3, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 7])
    def test_members_match_per_row_format(self, prefixes, rows):
        rng = np.random.default_rng(rows)
        positions = np.linspace(-0.5, 0.5, rows)
        members = [(p, rng.uniform(0.0, 1.0, rows) ** 8) for p in prefixes]
        got, want = written_profile(positions, members)
        assert got == want
        assert b"\0" not in got

    @pytest.mark.parametrize("prefixes", [[""], [PREFIXES[1], "2,", "3,"]])
    def test_fallback_positions_at_chunk_edges(self, prefixes):
        rng = np.random.default_rng(29)
        rows = 2 * _CHUNK_ROWS + 7
        positions = rng.uniform(-0.5, 0.5, rows)
        edges = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                 2 * _CHUNK_ROWS - 1, 2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 1,
                 rows - 2, rows - 1]
        positions[edges] = ([0.0, -0.0, math.inf, -math.inf, math.nan]
                            + exact_ties()[:5])
        members = [(p, rng.uniform(0.0, 1.0, rows)) for p in prefixes]
        got, want = written_profile(positions, members)
        assert got == want
        assert b"\0" not in got

    def test_no_floating_point_flag_for_any_value(self):
        """The kernel needs no np.errstate: nothing it is given overflows,
        divides by zero or turns invalid, underflow included."""
        values = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                           2.2250738585072014e-308, 1.7976931348623157e308,
                           1e-290, 1e-281, 1e281, 1e290, 0.1, -3.0])
        with np.errstate(all="raise"):
            got, want = written_profile(values, [("", values[::-1].copy())])
        assert got == want


GOLDEN = Path(__file__).parent / "golden"


def test_bundled_artifacts_match_golden_hashes(tmp_path):
    """Every bundled artifact, and every artifact of the design, voltage
    sweep and voltage-curve scenarios under golden/scenarios (which no
    bundled scenario reaches), byte for byte as when the hashes were
    taken (one `sha256sum` line per artifact)."""
    artifacts = list(run_bundled(tmp_path, quiet=True).artifacts)
    for path in sorted((GOLDEN / "scenarios").glob("*.json")):
        artifacts += run(load_scenario(path), tmp_path, quiet=True).artifacts
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in artifacts}
    want = {}
    for sums in ("bundled_sha256.txt", "scenarios_sha256.txt"):
        want.update(reversed(line.split())
                    for line in (GOLDEN / sums).read_text().splitlines())
    assert got == want


# numpy 2's names for its AVX-512 dispatch targets; numpy 1.x names them
# differently.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="the dispatch target names are numpy 2's")
def test_golden_hashes_hold_without_avx512(tmp_path):
    """The golden check passes again in a process where numpy runs no
    AVX-512 kernel: no artifact byte depends on the SIMD dispatch."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "NPY_DISABLE_CPU_FEATURES": NO_AVX512}
    test = f"{__file__}::test_bundled_artifacts_match_golden_hashes"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         test], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-2000:]


_ACTUATORS = [None, {"preset": "lc-sun2019"},
              {"type": "metalens", "v_max_v": 1000.0, "stretch_max": 1.5}]
# Per curve key: admissible values, with the long wavelengths and the
# near-grazing incidences that make a 1 um slit's order evanescent; then
# values at or below zero and far too large for any field.
_IN_RANGE = {"wavelength_nm": st.floats(200.0, 2000.0)
             | st.sampled_from([1600.0, 2000.0]),
             "n_ris": st.floats(1.0, 2.5, exclude_min=True),
             "depth_mm": st.floats(1e-3, 10.0),
             "incidence_deg": st.floats(60.0, 90.0)
             | st.sampled_from([80.0, 89.9, 90.0]),
             "voltage_v": st.floats(0.0, 2000.0)}
_OUT_OF_RANGE = st.one_of(st.floats(-1e3, 0.0), st.floats(1e4, 1e300))
_CURVES = st.sampled_from(CURVE_KEYS).flatmap(
    lambda key: st.fixed_dictionaries({key: st.lists(
        st.one_of(_IN_RANGE[key], _OUT_OF_RANGE), min_size=1, max_size=3)}))
_PROFILES = st.fixed_dictionaries({"samples": st.integers(3, 50)},
                                  optional={"curves": _CURVES})


@settings(max_examples=100, deadline=None)
@given(profile=_PROFILES, slit=st.sampled_from([1.0, 4.0]),
       incidence=st.sampled_from([0.0, 60.0]),
       actuator=st.sampled_from(_ACTUATORS))
def test_eval_profile_cli_contract(profile, slit, incidence, actuator):
    """Any profile block ends in a mapped exit code, a JSON record on
    failure, and either a complete profile file or no output at all."""
    data = minimal()
    data["geometry"]["slit_um"] = slit
    data["wave"]["incidence_deg"] = incidence
    data["profile"] = profile
    if actuator is not None:
        data["actuator"] = actuator
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario(Path(tmp), data)
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err):
            code = main(["eval", "--scenario", str(path), "--out", str(out),
                         "--quiet"])
        profile_csv = out / "case_profile.csv"
        assert code in (0, 2, 3, 4)
        if code:
            assert "error" in json.loads(err.getvalue().splitlines()[-1])
            assert not out.exists()
        else:
            (values,) = profile.get("curves", {None: [None]}).values()
            members = len(values)
            lines = profile_csv.read_text().splitlines()
            assert len(lines) == 1 + members * profile["samples"]


# One scenario of every mode, with the voltage paths of both actuator
# types, as (subcommand, blocks beside geometry and wave).
_MODES = [
    ("eval", {"profile": {"samples": 5}}),
    ("eval", {"actuator": METALENS, "profile": {
        "samples": 5, "curves": {"voltage_v": [0.0, 500.0, 1000.0]}}}),
    ("sweep", {"sweep": {"parameter": "incidence", "from_deg": 1.0,
                         "to_deg": 80.0, "steps": 4, "spacing": "log"}}),
    ("sweep", {"actuator": LC, "sweep": {
        "parameter": "voltage", "from_v": 0.0, "to_v": 6.0, "steps": 4,
        "curves": {"depth_mm": [0.5, 1.0]}}}),
    ("sweep", {"actuator": METALENS, "sweep": {
        "parameter": "voltage", "from_v": 0.0, "to_v": 1000.0, "steps": 4,
        "baseline": {"n_ris": 1.4}}}),
    ("design", {"design": {"kind": "refraction_angle", "value_deg": 30.0,
                           "free": "n_ris"}}),
    ("design", {"design": {"kind": "spot_width", "value_mm": 0.5,
                           "free": "depth"}}),
    ("design", {"actuator": METALENS, "design": LANDING}),
    ("design", {"actuator": LC, "design": LANDING}),
    ("bench", {"bench": {"front_ends": ["convex", "lc_ris", "metalens_ris"],
                         "step_deg": 10.0}}),
    ("bench", {"bench": {"front_ends": ["cmbbp", "lc_ris"],
                         "step_deg": 0.5}}),
]
_MUTABLE = ([("geometry", k) for k in ("slit_um", "depth_mm", "pd_length_mm",
                                       "n_ris", "n_air")]
            + [("wave", k) for k in ("wavelength_nm", "incidence_deg",
                                     "power_w", "order")]
            + [("actuator", k) for k in ("v_max_v", "stretch_max", "v_on_v",
                                         "v_sat_v", "n_base", "delta_n")])
_VALUES = (st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -1.0, 1e300,
                            -1e300, 2, 5e-324, 1.7e308])
           | st.floats(0.1, 10.0) | st.floats(100.0, 2000.0))


def _spot_width(value_mm):
    return ("design", {"design": {"kind": "spot_width", "value_mm": value_mm,
                                  "free": "depth"}})


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(_MODES),
       mutations=st.lists(st.tuples(st.sampled_from(_MUTABLE), _VALUES),
                          min_size=1, max_size=2),
       expect=st.none())
# Actuator fields that once passed validation and then raised inside a
# voltage solve, sweep or profile.
@example(mode=_MODES[7], mutations=[(("actuator", "v_max_v"), math.inf)],
         expect=2)
@example(mode=_MODES[7], mutations=[(("actuator", "stretch_max"), math.inf)],
         expect=2)
@example(mode=_MODES[8], mutations=[(("actuator", "v_sat_v"), math.inf)],
         expect=2)
@example(mode=_MODES[8], mutations=[(("actuator", "n_base"), 0.5)],
         expect=2)
@example(mode=_MODES[4], mutations=[(("actuator", "stretch_max"), 1e300)],
         expect=2)
@example(mode=_MODES[1], mutations=[(("actuator", "stretch_max"), 1e300)],
         expect=2)
# An integer literal of 400 digits, beyond float range, once crashed the
# field reader.
@example(mode=_MODES[0], mutations=[(("geometry", "slit_um"), 10 ** 399)],
         expect=2)
# A sub-normal detector, too short for 1000 distinct sample positions,
# and spot widths whose solved depth overflows to inf or underflows to 0
# once raised a bare ValueError.
@example(mode=("eval", {"profile": {"samples": 1000}}),
         mutations=[(("geometry", "pd_length_mm"), 1e-322)], expect=2)
@example(mode=_spot_width(1e308), mutations=[(("wave", "incidence_deg"), 10.0)],
         expect=3)
@example(mode=_spot_width(5e-324),
         mutations=[(("geometry", "slit_um"), 0.37), (("wave", "order"), 0)],
         expect=3)
# Valid extreme slabs of the minimal evaluation once crashed the capture
# fraction: with a math domain error (2 pi t and tan(horizon) y overflowed)
# and with a ZeroDivisionError (the first-null distance underflowed).
@example(mode=("eval", {}), mutations=[(("geometry", "slit_um"), 1.7e308)],
         expect=0)
@example(mode=("eval", {}), mutations=[(("geometry", "depth_mm"), 5e-324)],
         expect=0)
@example(mode=("eval", {}), mutations=[(("geometry", "depth_mm"), 1.7e308)],
         expect=0)
def test_scenario_cli_contract(mode, mutations, expect):
    """Any mode with mutated geometry, wave or actuator fields ends in a
    mapped exit code (``expect``, when given) and a JSON record on
    failure; what it writes is whole, and a failed run writes nothing."""
    command, blocks = mode
    data = json.loads(json.dumps(minimal() | blocks))
    for (block, key), value in mutations:
        if block in data and (block != "actuator" or key in data[block]):
            data[block][key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario(Path(tmp), data)
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err):
            code = main([command, "--scenario", str(path), "--out", str(out),
                         "--quiet"])
        assert code in (0, 2, 3, 4)
        assert expect is None or code == expect
        written = {p.name: p.read_text() for p in out.glob("*")}
        wrote = out.exists()
    if code:
        assert "error" in json.loads(err.getvalue().splitlines()[-1])
        assert not wrote
    else:
        assert "case.meta.json" in written
    if expect == 0:  # a valid slab: its metrics whole, nothing on stderr
        assert not err.getvalue()
        assert not any("nan" in text for text in written.values())
    for name, text in written.items():
        if name.endswith(".csv"):
            lines = text.splitlines()
            assert text.endswith("\n") and len(lines) >= 2
            assert {line.count(",") for line in lines} == {lines[0].count(",")}


# Sweep values within each swept or curve field's bound, with clamping
# drives, grazing incidences and depths a stretch takes to 0 among them.
_SWEPT = {"wavelength_nm": st.floats(200.0, 2000.0),
          "n_ris": st.floats(1.0, 2.5, exclude_min=True),
          "depth_mm": st.floats(1e-3, 10.0) | st.sampled_from([5e-324,
                                                               1e-310]),
          "incidence_deg": st.floats(0.0, 90.0),
          "voltage_v": st.floats(0.0, 1500.0)}
_SWEEP_ACTUATORS = [None, {"preset": "lc-sun2019"}, LC, METALENS,
                    {"type": "metalens", "v_max_v": 10.0,
                     "stretch_max": 3.0}]


@st.composite
def sweep_scenarios(draw):
    """Valid sweep scenario dicts: every parameter, with or without a
    curve family and a gain baseline, linear or log spaced."""
    # slits narrower than the wavelength raise the horizon tail warning
    data = {"geometry": {"slit_um": draw(st.floats(0.01, 0.5)
                                         | st.floats(0.2, 200.0)),
                         "depth_mm": draw(st.floats(1e-3, 10.0)),
                         "pd_length_mm": draw(st.floats(0.05, 2.0)),
                         "n_ris": draw(st.floats(1.0, 2.5, exclude_min=True)),
                         "n_air": draw(st.sampled_from([1.0, 1.0007]))},
            "wave": {"wavelength_nm": draw(st.floats(200.0, 2000.0)),
                     "incidence_deg": draw(st.floats(0.0, 90.0)),
                     "power_w": draw(st.floats(0.0, 5.0)),
                     "order": draw(st.integers(0, 3))}}
    actuator = draw(st.sampled_from(_SWEEP_ACTUATORS))
    keys = list(CURVE_KEYS)
    if actuator is not None:
        data["actuator"] = actuator
    else:
        keys.remove("voltage_v")
    key = draw(st.sampled_from(keys))
    parameter = {v: k for k, v in runner._PARAM_FIELD.items()}[key]
    suffix = {"wavelength": "nm", "n_ris": "index", "depth": "mm",
              "incidence": "deg", "voltage": "v"}[parameter]
    start, stop = sorted(draw(st.lists(_SWEPT[key], min_size=2, max_size=2,
                                       unique=True)))
    sweep = {"parameter": parameter, f"from_{suffix}": start,
             f"to_{suffix}": stop, "steps": draw(st.integers(2, 5))}
    if start > 0 and draw(st.booleans()):
        sweep["spacing"] = "log"
    curve_keys = [k for k in keys if k != key]
    if draw(st.booleans()):
        curve_key = draw(st.sampled_from(curve_keys))
        sweep["curves"] = {curve_key: draw(st.lists(
            _SWEPT[curve_key], min_size=1, max_size=3))}
    if draw(st.booleans()):
        sweep["baseline"] = draw(st.fixed_dictionaries({}, optional={
            "depth_mm": _SWEPT["depth_mm"], "n_ris": _SWEPT["n_ris"],
            "slit_um": st.floats(0.2, 200.0)}).filter(bool))
    data["sweep"] = sweep
    return data


def object_model_sweep(sc):
    """The sweep's CSV rows and warning counts computed the way the
    runner did before its rows became field values: each curve and swept
    value set on the value objects with ``dataclasses.replace`` (or
    driven through ``tuning.drive``), which checks every field again, and
    the row from ``evaluate``."""
    from dataclasses import replace

    from ris_vlc.diffraction import evaluate
    from ris_vlc.optics import EvanescentOrder
    from ris_vlc.tuning import drive

    def override(key, value, geom, wave):
        if key == "voltage_v":
            return drive(sc.actuator, value, geom), wave
        if key in ("wavelength_nm", "incidence_deg"):
            return geom, replace(wave, **{key: value})
        return replace(geom, **{key: value}), wave

    spec = sc.sweep
    curve_key, curve_values = spec.curves or (None, (None,))
    key = runner._PARAM_FIELD[spec.parameter]
    width = 1 + bool(curve_key) + 7 + bool(spec.baseline) + 1
    lines = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cv in curve_values:
            for pv in runner._sweep_grid(spec):
                lead = [pv] if cv is None else [cv, pv]
                try:
                    geom, wave = sc.geometry, sc.wave
                    if cv is not None:
                        geom, wave = override(curve_key, cv, geom, wave)
                    geom, wave = override(key, pv, geom, wave)
                    m = evaluate(geom, wave)
                    row = lead + list(m)
                    if spec.baseline is not None:
                        base = replace(geom, **dict(spec.baseline))
                        row.append(m.transmittance
                                   - evaluate(base, wave).transmittance)
                    lines.append(_template(len(row), suffix=",") % tuple(row))
                except (EvanescentOrder, ValueError) as exc:
                    tail = "," * (width - len(lead)) + type(exc).__name__
                    lines.append(_template(len(lead), suffix=tail)
                                 % tuple(lead))
    return lines, Counter(str(w.message) for w in caught)


@settings(max_examples=150, deadline=None)
@given(data=sweep_scenarios())
@example(data={  # a depth the stretch takes to 0 fails with ValueError
    "geometry": {"slit_um": 4.0, "depth_mm": 0.75, "pd_length_mm": 1.0,
                 "n_ris": 1.5},
    "wave": {"wavelength_nm": 550.0, "incidence_deg": 10.0},
    "actuator": METALENS,
    "sweep": {"parameter": "voltage", "from_v": 0.0, "to_v": 1200.0,
              "steps": 4, "curves": {"depth_mm": [0.75, 5e-324]},
              "baseline": {"depth_mm": 0.5}}})
@example(data={  # a log grid whose end ratio overflows: finite inner rows
    "geometry": {"slit_um": 0.5, "depth_mm": 1.0, "pd_length_mm": 1.0,
                 "n_ris": 2.0},
    "wave": {"wavelength_nm": 550.0, "incidence_deg": 0.0},
    "sweep": {"parameter": "depth", "from_mm": 5e-324, "to_mm": 10.0,
              "steps": 4, "spacing": "log"}})
def test_sweep_rows_equal_the_object_model(data):
    """Every row of a validated sweep, set by field name and evaluated
    without re-validation, has the cells of ``evaluate`` over value
    objects bit for bit; a failing row has the same error class, and the
    sidecar counts the same warnings."""
    sc = scenario_from_dict(data, name="rows")
    want, counted = object_model_sweep(sc)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run(sc, tmp, quiet=True)
        lines = (Path(tmp) / "rows_sweep.csv").read_text().splitlines(True)
        assert lines[1:] == want
        assert sidecar_warnings(Path(tmp), "rows") == counted


def log_spec(start, stop, steps):
    return SweepSpec(parameter="depth", start=start, stop=stop, steps=steps,
                     spacing="log")


@settings(max_examples=300, deadline=None)
@given(ends=st.lists(st.floats(5e-324, 1.7e308), min_size=2, max_size=2,
                     unique=True),
       steps=st.integers(2, 40))
@example(ends=[1e-300, 1e8], steps=4)
def test_log_grid_keeps_its_bits_where_the_end_ratio_is_finite(ends, steps):
    """A log grid whose end ratio stop / start is finite is the geometric
    grid start * r**k, r = (stop / start) ** (1 / (steps - 1)), bit for
    bit, ending on ``stop``."""
    start, stop = sorted(ends)
    assume(stop / start < math.inf)
    ratio = (stop / start) ** (1.0 / (steps - 1))
    want = [start * ratio ** k for k in range(steps - 1)] + [stop]
    assert runner._sweep_grid(log_spec(start, stop, steps)) == want


@settings(max_examples=100, deadline=None)
@given(start=st.floats(5e-324, 1e-310), stop=st.floats(1e3, sys.float_info.max),
       steps=st.integers(2, 1000))
@example(start=5e-324, stop=10.0, steps=4)
@example(start=5e-324, stop=sys.float_info.max, steps=3)
@example(start=5e-324, stop=sys.float_info.max, steps=10**5)
def test_log_grid_past_an_overflowing_end_ratio(start, stop, steps):
    """A log grid whose end ratio overflows keeps both ends exactly, and
    its inner values are finite, nondecreasing and within them."""
    assert stop / start == math.inf
    grid = runner._sweep_grid(log_spec(start, stop, steps))
    assert len(grid) == steps
    assert grid[0] == start and grid[-1] == stop
    assert all(start <= v <= stop for v in grid)
    assert all(a <= b for a, b in zip(grid, grid[1:]))


def test_depth_sweep_from_the_smallest_depth_has_no_failed_row(tmp_path):
    """From 5e-324 mm to 10 mm in 4 log steps, the inner depths are finite
    and increasing, and every row evaluates."""
    data = minimal()
    data["sweep"] = {"parameter": "depth", "from_mm": 5e-324, "to_mm": 10.0,
                     "steps": 4, "spacing": "log"}
    report = run(scenario_from_dict(data, name="deep"), tmp_path, quiet=True)
    with open(report.artifacts[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    depths = [float(r["depth_mm"]) for r in rows]
    assert depths[0] == 5e-324 and depths[-1] == 10.0
    assert all(a < b for a, b in zip(depths, depths[1:]))
    assert [r["error"] for r in rows] == [""] * 4
    assert not any("inf" in cell for r in rows for cell in r.values())
