"""Benchmark harness for ris-vlc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --bundled

Run from the root of a checkout.  The harness drives one workload in a
closed loop: each repetition is a fresh interpreter (``worker.py``) that
imports ris_vlc from ``src``, regenerates the seeded inputs and times its
calls into the program; the next repetition starts only after the
previous one ended and its artifacts were checked against the oracle
(``oracle.py``).  Repetitions start while the measured time allows,
with a floor of ``MIN_REPS``.  A fresh interpreter per repetition is
deliberate: every CLI invocation pays the capture cache fill, so a warm
repeat would read far too fast.

Workloads (see ``workloads.py``):
  capture-sweep    sweeps through ``runner.run``; capture-bound.
  rotation-table   ``bench.compare_table`` on seeded rosters; voltage
                   solves plus 1e5-lobe captures; memory-heavy.
  scenario-stream  scenario files through ``cli.main``: profiles,
                   design solves, invalid and infeasible inputs.

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics; the tracing overhead is traced minus untraced wall
time.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report with the environment and input properties.
``--bundled`` times each bundled figure scenario once (informational).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# Per-worker time limit; the harness as a whole must end within 180 s.
WORKER_TIMEOUT_S = 150.0
MIN_REPS = {False: 3, True: 2}   # untraced run / traced run (half traced)
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("items_per_s", "1/s"), ("run_ms.p50", "ms"),
              ("run_ms.tail", "ms"), ("peak_rss_mb", "MB"),
              ("ok_share", "1"))

# (metric, unit): "<module>.<function>.calls|self_s" come from the spans,
# the rest from counters and ratios.
PER_LAYER = (
    ("quadrature.adaptive_quad.calls", "count"),
    ("quadrature.adaptive_quad.self_s", "s"),
    ("quadrature.adaptive_quad.share", "1"),
    ("diffraction.pattern_power_fraction.calls", "count"),
    ("diffraction.pattern_power_fraction.self_s", "s"),
    ("diffraction.profile_on_pd.calls", "count"),
    ("diffraction.profile_on_pd.samples", "count"),
    ("diffraction.profile_on_pd.self_s", "s"),
    ("radiometry.transmittance.calls", "count"),
    ("radiometry.transmittance.self_s", "s"),
    ("optics.refraction_angle.calls", "count"),
    ("optics.refraction_angle.self_s", "s"),
    ("tuning.solve_voltage.calls", "count"),
    ("tuning.solve_voltage.self_s", "s"),
    ("tuning.forward_evals_per_solve", "count"),
    ("bench.rotation_sweep.calls", "count"),
    ("bench.rotation_sweep.self_s", "s"),
    ("bench.detect.calls", "count"),
    ("scenario.scenario_from_dict.calls", "count"),
    ("scenario.scenario_from_dict.self_s", "s"),
    ("runner.run.calls", "count"),
    ("runner.run.self_s", "s"),
    ("runner.artifact_bytes", "B"),
    ("cli.main.calls", "count"),
    ("cli.exit_code.0", "count"),
    ("cli.exit_code.2", "count"),
    ("cli.exit_code.3", "count"),
    ("cli.exit_code.4", "count"),
    ("layers.capture_path.share", "1"),
    ("trace.overhead_s", "s"),
)
# Layers whose self time makes up the capture path.
CAPTURE_PATH = ("quadrature.", "diffraction.", "radiometry.")

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class Setup(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "cpu_count": os.cpu_count(),
           "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
           "git_commit": git_commit(), "seed": args.seed,
           "workload": args.workload, "seconds": args.seconds,
           "trace": args.trace, "size": args.size}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return env


# ------------------------------------------------------------------ repetitions

def run_worker(args, rep: int, traced: bool) -> tuple[dict, Path]:
    """One repetition in a fresh interpreter; returns its result and
    work directory (the caller removes it)."""
    work = WORK / f"{args.workload}-{os.getpid()}" / f"rep{rep}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size,
           "--work", str(work)]
    if traced:
        cmd.append("--trace")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT,
                              env=_worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return {"error": f"worker exceeded {WORKER_TIMEOUT_S:g} s"}, work
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"worker exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}, work
    return json.loads(result_path.read_text()), work


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _file_bytes(path: Path) -> bytes:
    """Content of an artifact; a sidecar without its run timestamp."""
    try:
        data = path.read_bytes()
        if path.name.endswith(".meta.json"):
            meta = json.loads(data)
            meta.pop("unix_time", None)
            data = json.dumps(meta, sort_keys=True).encode()
        return data
    except (OSError, ValueError):
        return b"<missing or unreadable>"


class Checker:
    """Oracle verdicts per repetition, cached by artifact content: every
    repetition of a seed runs the same inputs, so each distinct artifact
    is recomputed once and byte-identical repeats reuse its verdict."""

    def __init__(self, oracle, workloads, name: str, spec: dict) -> None:
        self.oracle, self.workloads = oracle, workloads
        self.name, self.spec = name, spec
        self.cache: dict[str, int] = {}

    def _cached(self, key: str, fn) -> int:
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]

    def failed_items(self, result: dict, work: Path) -> int:
        """Items of one repetition that did not yield their verified
        expected result."""
        total = self.workloads.item_count(self.name, self.spec)
        if "error" in result:
            return total
        outcomes = result["outcomes"]
        out = work / "out"
        o = self.oracle
        failed = 0
        if self.name == "capture-sweep":
            for sc, outcome in zip(self.spec["scenarios"], outcomes):
                path = out / f"{sc['name']}_sweep.csv"
                if isinstance(outcome, dict):  # raised out of runner.run
                    failed += len(self.workloads.sweep_rows(sc))
                    continue
                failed += self._cached(
                    _digest(sc["name"], _file_bytes(path)),
                    lambda: o.check_sweep(sc, path))
        elif self.name == "rotation-table":
            step = self.spec["step_deg"]
            per_roster = len(self.workloads.rotation_grid(step))
            for roster, outcome in zip(self.spec["rosters"], outcomes):
                path = out / f"{roster['name']}_bench.csv"
                if isinstance(outcome, dict):
                    failed += per_roster * len(roster["front_ends"])
                    continue
                failed += self._cached(
                    _digest(roster["name"], _file_bytes(path)),
                    lambda: o.check_roster(roster, step, path))
        else:
            for entry, outcome in zip(self.spec["scenarios"], outcomes):
                files = sorted(out.glob(f"{entry['name']}[._]*"))
                key = _digest(entry["name"], json.dumps(outcome),
                              *[_file_bytes(f) for f in files])
                failed += self._cached(
                    key, lambda: int(not o.check_stream_entry(entry, outcome,
                                                              out)))
        return failed


# ------------------------------------------------------------------ statistics

def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, rank, count): the highest-ranked sample with at least
    TAIL_BEYOND samples above it (1-based rank), or the maximum when there
    are too few samples."""
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)
    return xs[rank - 1], rank, len(xs)


def end_to_end(reps: list[dict], items: int, share_ok: float) -> tuple:
    """Medians over the untraced repetitions.  Latency quantiles are taken
    within each repetition (one session of calls in one process), so a
    burst of load from outside that hits one repetition moves one sample
    of the median, not the pooled tail."""
    wall = [r["wall_s"] for r in reps]
    lat_ms = [[1e3 * x for x in r["latencies_s"]] for r in reps]
    tails = [tail(lat) for lat in lat_ms]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(wall),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "items_per_s": statistics.median(items / w for w in wall),
        "run_ms.p50": statistics.median(statistics.median(lat)
                                        for lat in lat_ms),
        "run_ms.tail": statistics.median(t[0] for t in tails),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_share": share_ok,
    }
    _, rank, count = tails[0]
    return metrics, {"rank": rank, "count": count,
                     "percentile": round(100.0 * rank / count, 2)}


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics: medians over the traced repetitions.  Rows whose
    function no longer exists in the program are reported absent (0)."""
    wrapped = set(traced[0]["trace"]["wrapped"])
    values: dict[str, list[float]] = {name: [] for name, _ in PER_LAYER}
    for rep in traced:
        layers, counters = rep["trace"]["layers"], rep["trace"]["counters"]
        wall = rep["wall_s"]
        for name, _ in PER_LAYER:
            func, _, field = name.rpartition(".")
            if field in ("calls", "self_s") and func in wrapped:
                v = layers.get(func, {}).get(field, 0)
            elif name == "quadrature.adaptive_quad.share":
                v = layers.get("quadrature.adaptive_quad",
                               {}).get("self_s", 0.0) / wall
            elif name == "tuning.forward_evals_per_solve":
                solves = layers.get("tuning.solve_voltage", {}).get("calls", 0)
                v = counters.get("tuning.forward_evals", 0) / solves \
                    if solves else 0.0
            elif name == "layers.capture_path.share":
                v = sum(e["self_s"] for f, e in layers.items()
                        if f.startswith(CAPTURE_PATH)) / wall
            elif name == "trace.overhead_s":
                continue
            else:
                v = counters.get(name, 0)
            values[name].append(v)
    metrics = {name: statistics.median(vs) for name, vs in values.items()
               if vs}
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced))
    absent = sorted({name.rpartition(".")[0] for name, _ in PER_LAYER
                     if name.endswith((".calls", ".self_s"))}
                    - wrapped)
    return metrics, absent


# ------------------------------------------------------------------ main

def _parse(argv):
    p = argparse.ArgumentParser(
        description="ris-vlc benchmark harness (see module docstring)")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="'small' is the reduced self-test size")
    p.add_argument("--bundled", action="store_true",
                   help="time each bundled scenario once and exit")
    args = p.parse_args(argv)
    if not args.bundled and args.workload is None:
        p.error("--workload is required")
    return args


def _check_checkout() -> None:
    if not (ROOT / "src" / "ris_vlc" / "__init__.py").is_file():
        raise Setup(f"no ris_vlc sources under {ROOT / 'src'}; run from the "
                    f"root of a ris-vlc checkout")


def measure(args, workloads, oracle) -> dict:
    if args.workload not in workloads.WORKLOADS:
        raise Setup(f"unknown workload {args.workload!r}; one of "
                    f"{', '.join(workloads.WORKLOADS)}")
    spec = workloads.generate(args.workload, args.seed, args.size)
    items = workloads.item_count(args.workload, spec)
    checker = Checker(oracle, workloads, args.workload, spec)
    reps, errors = [], []
    attempted = failed = 0
    min_reps = 1 if args.size == "small" and not args.trace \
        else MIN_REPS[bool(args.trace)]
    t0 = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            result, work = run_worker(args, len(reps), traced)
            attempted += items
            failed += checker.failed_items(result, work)
            shutil.rmtree(work, ignore_errors=True)
            if "error" in result:
                errors.append(result["error"])
                break
            reps.append(result)
            elapsed = time.monotonic() - t0
            mean_rep = elapsed / len(reps)
            if len(reps) >= min_reps and elapsed + mean_rep > args.seconds:
                break
    finally:
        shutil.rmtree(WORK / f"{args.workload}-{os.getpid()}",
                      ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    return {"spec": spec, "items": items, "reps": reps, "errors": errors,
            "attempted": attempted, "failed": failed}


def report(args, run: dict, oracle, workloads) -> dict:
    untraced = [r for r in run["reps"] if not r["traced"]]
    traced = [r for r in run["reps"] if r["traced"]]
    attempted, failed = run["attempted"], run["failed"]
    ok_share = 1.0 - failed / attempted
    props = workloads.properties(
        args.workload, run["spec"],
        oracle.CAPTURE_PAIRS[args.workload](run["spec"]))
    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions, "
          f"closed loop, one worker process at a time")
    print("environment: " + json.dumps(environment(args), sort_keys=True))
    print("workload: " + json.dumps(props, sort_keys=True))
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_share {failed / attempted:.6g})")
    for err in run["errors"]:
        print(f"error: {err}")
    metrics: dict[str, tuple[float, str]] = {}
    if untraced and not run["errors"]:
        e2e, tail_info = end_to_end(untraced, run["items"], ok_share)
        print(f"run_ms.tail: rank {tail_info['rank']} of {tail_info['count']}"
              f" calls in each repetition (p{tail_info['percentile']}), "
              f"median over {len(untraced)} repetitions")
        for name, unit in END_TO_END:
            print(f"  {name:<44}{e2e[name]:>14.6g} {unit}")
            if not args.trace:
                metrics[name] = (e2e[name], unit)
    if traced and untraced and not run["errors"]:
        layer, absent = per_layer(traced, untraced)
        if absent:
            print("absent from the program (reported as 0): "
                  + ", ".join(absent))
        print("per layer (median over traced repetitions):")
        for name, unit in PER_LAYER:
            print(f"  {name:<44}{layer[name]:>14.6g} {unit}")
            metrics[name] = (layer[name], unit)
    return {"correct": failed == 0 and not run["errors"],
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


_BUNDLED_SNIPPET = """
import json, sys, time, tempfile
t_spawn = float(sys.argv[2])
from ris_vlc.runner import run, bundled_scenario_path
from ris_vlc.scenario import load_scenario
sc = load_scenario(bundled_scenario_path(sys.argv[1]))
setup = time.monotonic() - t_spawn
with tempfile.TemporaryDirectory(dir=sys.argv[3]) as out:
    t, c = time.perf_counter(), time.process_time()
    run(sc, out, quiet=True)
    print(json.dumps({"setup_s": setup, "wall_s": time.perf_counter() - t,
                      "cpu_s": time.process_time() - c}))
"""


def bundled() -> int:
    """One-off timing of every bundled scenario, each in a fresh
    interpreter (informational; not a workload)."""
    names = sorted(p.stem for p in (ROOT / "src" / "ris_vlc"
                                    / "scenarios").glob("*.json"))
    WORK.mkdir(exist_ok=True)
    rows = {}
    try:
        for name in names:
            t_spawn = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-c", _BUNDLED_SNIPPET, name, repr(t_spawn),
                 str(WORK)], cwd=ROOT, env=_worker_env(), capture_output=True,
                text=True, timeout=WORKER_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{name}: failed: {proc.stderr.strip()[-500:]}",
                      file=sys.stderr)
                return 1
            rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"  {name:<14} wall {rows[name]['wall_s']:8.3f} s   cpu "
                  f"{rows[name]['cpu_s']:8.3f} s   setup "
                  f"{rows[name]['setup_s']:6.3f} s")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"bundled": rows}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        _check_checkout()
        if args.bundled:
            return bundled()
        import workloads
        import oracle
        run = measure(args, workloads, oracle)
    except (Setup, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report(args, run, oracle, workloads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
