"""Command-line entry point.

Subcommands ``eval``, ``sweep``, ``design`` and ``bench`` execute one
scenario file (whose mode must match the subcommand); ``figures`` runs
every bundled figure scenario.  Exit codes: 0 ok, 2 validation,
3 numerical, 4 I/O.  Failures emit a machine-parsable JSON error record
as the last line on stderr.  Warnings raised during a run (drive clamps,
for one) are printed before it, one ``warning: <message> (xN)`` line per
distinct message; other warning categories than ``UserWarning`` are
shown or raised as the caller's warning filters say.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from collections import Counter

from .diffraction import NullBeyondHorizon
from .optics import EvanescentOrder
from .runner import run, run_bundled
from .scenario import ScenarioError, load_scenario
from .tuning import Infeasible, OutOfMaterialRange

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_NUMERICAL_ERRORS = (EvanescentOrder, NullBeyondHorizon, Infeasible,
                     OutOfMaterialRange)

_SCENARIO_COMMANDS = ("eval", "sweep", "design", "bench")


@functools.cache  # one parser per process; parse_args does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-vlc",
        description="Beam-steering simulation and inverse design for "
                    "tunable refractive receiver front-ends.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None,
                       help="output directory (default: RIS_VLC_OUT or ./out)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-artifact summary lines")

    for name in _SCENARIO_COMMANDS:
        p = sub.add_parser(name, help=f"run a {name} scenario file")
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        add_common(p)

    p = sub.add_parser("figures", help="run all bundled figure scenarios")
    add_common(p)
    return parser


def _error_record(exc: BaseException) -> str:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ScenarioError):
        record["violations"] = exc.errors
    return json.dumps(record)


def _out_dir(args: argparse.Namespace) -> str:
    return args.out or os.environ.get("RIS_VLC_OUT") or "out"


def _execute(args: argparse.Namespace) -> None:
    if args.command == "figures":
        run_bundled(_out_dir(args), quiet=args.quiet)
        return
    scenario = load_scenario(args.scenario)
    if scenario.mode != args.command:
        raise ScenarioError(
            [f"scenario mode '{scenario.mode}' does not match "
             f"subcommand '{args.command}'"])
    run(scenario, _out_dir(args), quiet=args.quiet)


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # The CLI runs no linear algebra, and an idle OpenBLAS worker
        # thread costs CPU time on every profile evaluation.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _build_parser().parse_args(argv)
    code, error = EXIT_OK, None
    with warnings.catch_warnings(record=True) as caught:
        # The program's own warnings (drive clamps, the horizon tail
        # bound) are UserWarnings and all counted; any other category,
        # such as a numpy RuntimeWarning, meets the caller's filters.
        warnings.filterwarnings("always", category=UserWarning)
        try:
            _execute(args)
        except ScenarioError as exc:
            code, error = EXIT_VALIDATION, exc
        except _NUMERICAL_ERRORS as exc:
            code, error = EXIT_NUMERICAL, exc
        except OSError as exc:
            code, error = EXIT_IO, exc
    for message, n in Counter(str(w.message) for w in caught).items():
        print(f"warning: {message} (x{n})", file=sys.stderr)
    if error is not None:
        print(_error_record(error), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
