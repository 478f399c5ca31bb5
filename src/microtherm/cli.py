"""Command line front end.

    microtherm run CONFIG [--out DIR]
    microtherm check CONFIG
    microtherm dispersion CONFIG [--out DIR]

Exit codes: 0 all certificates passed (or nothing to certify), 1 at
least one certificate failed, 2 configuration or runtime error.
"""

import argparse
import dataclasses
import sys

from .errors import MicrothermError
from .runner import run_scenario
from .scenario import parse_scenario

__all__ = ["main"]


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(f"error: cannot read {path}: not UTF-8 text ({exc.reason} at byte "
              f"{exc.start})", file=sys.stderr)
        return None
    try:
        return parse_scenario(text)
    except MicrothermError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microtherm",
        description="1-d thermoelastic solver with microtemperature fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the scenario's tasks and certify")
    run.add_argument("config", help="scenario file (INI)")
    run.add_argument("--out", default="", help="output directory")

    check = sub.add_parser("check", help="parse and validate, run nothing")
    check.add_argument("config", help="scenario file (INI)")

    disp = sub.add_parser("dispersion", help="solve only the dispersion task")
    disp.add_argument("config", help="scenario file (INI)")
    disp.add_argument("--out", default="", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    scenario = _load(args.config)
    if scenario is None:
        return 2

    if args.command == "check":
        tasks = ", ".join(scenario.tasks) if scenario.tasks else "none"
        print(f"ok: model = {scenario.model}, "
              f"n_interior = {scenario.grid.n_interior}, tasks = {tasks}")
        return 0

    if args.command == "dispersion":
        scenario = dataclasses.replace(scenario, tasks=("dispersion",))

    try:
        return run_scenario(scenario, out_dir=args.out)
    except MicrothermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # making or writing the output directory
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
