"""One benchmark repetition, run by the harness in a fresh interpreter.

    python perfbench/worker.py --workload NAME --seed N --size full \
        --work DIR --t-spawn T [--trace]

Imports ris_vlc from the checkout's ``src``, regenerates the workload's
inputs from the seed, then times each call into the program and writes
``DIR/result.json``.  Set-up runs from the harness's spawn timestamp ``T``
(CLOCK_MONOTONIC, shared by all processes on the host) to the first
timed call.  With ``--trace`` the public functions of the program's
modules are wrapped from the outside, by rebinding their names in every
ris_vlc module that holds them, and each call is recorded as a span.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]

# Modules whose public functions the traced run wraps, in layer order.
TRACED_MODULES = ("optics", "quadrature", "diffraction", "radiometry",
                  "tuning", "bench", "scenario", "runner", "cli")

# Calls of these inside a voltage solve are its forward evaluations.
_FORWARD_EVALS = ("tuning.lc_apply", "tuning.metalens_apply")


class Tracer:
    """Spans (name, start, end, parent) of every wrapped public function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.wrapped: list[str] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        originals = {}
        for short in TRACED_MODULES:
            try:
                mod = importlib.import_module(f"ris_vlc.{short}")
            except ImportError:
                continue
            public = getattr(mod, "__all__", None) or ["main"]
            for attr in public:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = self._wrap(f"{short}.{attr}", fn)
                    self.wrapped.append(f"{short}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ris_vlc"
                                   or mod_name.startswith("ris_vlc.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def in_span(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    def summary(self) -> dict:
        """Calls and self time per function; self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        layers: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self.ends[i] - self.starts[i] - child[i]
        return {"layers": layers, "counters": self.counters,
                "wrapped": self.wrapped, "spans": len(self.starts)}


def _count_samples(tr: Tracer, args, kwargs, result) -> None:
    tr.count("diffraction.profile_on_pd.samples",
             kwargs.get("samples", args[2] if len(args) > 2 else 0))


def _count_artifact_bytes(tr: Tracer, args, kwargs, result) -> None:
    tr.count("runner.artifact_bytes",
             sum(Path(p).stat().st_size for p in result.artifacts))


def _count_exit_code(tr: Tracer, args, kwargs, result) -> None:
    tr.count(f"cli.exit_code.{result}")


def _count_forward_eval(tr: Tracer, args, kwargs, result) -> None:
    if tr.in_span("tuning.solve_voltage"):
        tr.count("tuning.forward_evals")


_HOOKS = {"diffraction.profile_on_pd": _count_samples,
          "runner.run": _count_artifact_bytes,
          "cli.main": _count_exit_code,
          **{name: _count_forward_eval for name in _FORWARD_EVALS}}


# ------------------------------------------------------------------ workloads

def _prepare_capture_sweep(spec: dict, work: Path):
    from ris_vlc import runner
    from ris_vlc.scenario import scenario_from_dict
    out = work / "out"
    jobs = []
    for sc in spec["scenarios"]:
        scenario = scenario_from_dict(sc, name=sc["name"])
        jobs.append(lambda scenario=scenario: [
            str(p) for p in runner.run(scenario, out, quiet=True).artifacts])
    return jobs


def _prepare_rotation_table(spec: dict, work: Path):
    from ris_vlc import bench
    from ris_vlc.optics import Angle, SteeringGeometry
    from ris_vlc.tuning import LiquidCrystalActuator, MetaLensActuator
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    jobs = []
    for roster in spec["rosters"]:
        front_ends = []
        for fe in roster["front_ends"]:
            if isinstance(fe, str):
                front_ends.append(bench.default_front_end(fe))
                continue
            geom = SteeringGeometry(**fe["geometry"])
            act = fe["actuator"]
            if fe["kind"] == "lc_ris":
                actuator = LiquidCrystalActuator(**act)
                extra = {"geometry": geom,
                         "voltage_range": (act["v_on_v"], act["v_sat_v"])}
            else:
                actuator = MetaLensActuator(base_geometry=geom, **act)
                extra = {"voltage_range": (0.0, act["v_max_v"])}
            front_ends.append(bench.ReceiverFrontEnd(
                fe["kind"], Angle.from_degrees(90.0), 0.1, True,
                actuator=actuator, wavelength_nm=fe["wavelength_nm"], **extra))
        path = out / f"{roster['name']}_bench.csv"

        def job(front_ends=front_ends, path=path):
            rows = bench.compare_table(front_ends, spec["step_deg"])
            bench.table_to_csv(rows, path)
            return [str(path)]
        jobs.append(job)
    return jobs


def _prepare_scenario_stream(spec: dict, work: Path):
    from ris_vlc import cli
    scen_dir, out = work / "scenarios", work / "out"
    scen_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for entry in spec["scenarios"]:
        path = scen_dir / f"{entry['name']}.json"
        path.write_text(entry["text"])
        argv = [entry["command"], "--scenario", str(path), "--out", str(out),
                "--quiet"]

        def job(argv=argv):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code
            return {"exit": code, "stderr": err.getvalue()}
        jobs.append(job)
    return jobs


_PREPARE = {"capture-sweep": _prepare_capture_sweep,
            "rotation-table": _prepare_rotation_table,
            "scenario-stream": _prepare_scenario_stream}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=workloads.SIZES)
    p.add_argument("--work", required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ris_vlc
    if Path(ris_vlc.__file__).resolve().parent != (src / "ris_vlc").resolve():
        print(f"ris_vlc imported from {ris_vlc.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    work = Path(args.work)
    spec = workloads.generate(args.workload, args.seed, args.size)
    jobs = _PREPARE[args.workload](spec, work)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    setup_s = time.monotonic() - args.t_spawn
    outcomes, latencies = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        t = time.perf_counter()
        try:
            outcome = job()
        except Exception as exc:  # counted as a failed operation
            outcome = {"exception": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - t)
        outcomes.append(outcome)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": rss_mb, "latencies_s": latencies,
              "outcomes": outcomes, "traced": args.trace}
    if tracer is not None:
        result["trace"] = tracer.summary()
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
