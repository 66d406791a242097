"""Reduced-size self-test of the benchmark harness, so that it cannot rot.

Runs every workload at the 'small' size through the real command line,
checks the result contract, and checks that the oracle rejects corrupted
artifacts.  Takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_meets_the_result_contract(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == dict(expected)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS)


def test_generation_is_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
        assert workloads.generate(name, 5) != workloads.generate(name, 6)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 3, 3)


def _worker(workload: str, work: Path) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "7", "--size", "small", "--work", str(work),
         "--t-spawn", "0"], cwd=HERE.parent, env=run._worker_env(),
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads((work / "result.json").read_text())["outcomes"]


def _corrupt(path: Path, column: str, factor: float) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[col]:
            cells[col] = format(float(cells[col]) * factor, ".17g")
            lines[i] = ",".join(cells)
            break
    path.write_text("\n".join(lines) + "\n")


def test_oracle_rejects_a_changed_capture_fraction(tmp_path):
    spec = workloads.generate("capture-sweep", 7, "small")
    _worker("capture-sweep", tmp_path)
    sc = spec["scenarios"][0]
    path = tmp_path / "out" / f"{sc['name']}_sweep.csv"
    assert oracle.check_sweep(sc, path) == 0
    # A 1e-6 relative shift is what moving the horizon would cause.
    _corrupt(path, "pd_coverage", 1.0 + 1e-6)
    assert oracle.check_sweep(sc, path) == 1


def test_oracle_rejects_wrong_stream_results(tmp_path):
    spec = workloads.generate("scenario-stream", 7, "small")
    outcomes = _worker("scenario-stream", tmp_path)
    out = tmp_path / "out"
    for entry, outcome in zip(spec["scenarios"], outcomes):
        assert oracle.check_stream_entry(entry, outcome, out)
        wrong_exit = {**outcome, "exit": 4}
        assert not oracle.check_stream_entry(entry, wrong_exit, out)
    design = next(e for e in spec["scenarios"]
                  if e["command"] == "design" and e["exit"] == 0)
    path = out / f"{design['name']}_design.csv"
    solved = next(c for c in path.read_text().split("\n")[0].split(",")
                  if c.startswith("solved_"))
    _corrupt(path, solved, 1.0 + 1e-4)
    assert not oracle.check_stream_entry(
        design, outcomes[spec["scenarios"].index(design)], out)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "capture-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
