"""Command-line interface.

Commands
    pipewave run <config>       march the configured solver(s), write CSVs
    pipewave compare <config>   run kinetic and MOC solvers, report errors
    pipewave check <config>     run the invariant suites

Exit codes: 0 success, 2 configuration error, 3 solver error, 4 failed
invariant check, 5 I/O error (an output file or directory could not be
written).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .checks import run_all_checks
from .config import ConfigError, RunConfig, load_config
from .core import SolverError
from .runner import compare_runs, format_report, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4
EXIT_IO = 5


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pipewave",
        description="Transient pressurized pipe flow: kinetic finite-volume "
                    "solver with a method-of-characteristics reference.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "run the configured solver(s)"),
                            ("compare", "run both solvers and compare probes"),
                            ("check", "run the invariant suites")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a key=value configuration file")
        if name != "check":         # the suites set their own meshes and CFL
            cmd.add_argument("--cells", type=int, default=None,
                             help="override the cell count")
            cmd.add_argument("--cfl", type=float, default=None,
                             help="override the CFL coefficient")
            cmd.add_argument("--out", default=None, help="override the output directory")
    return parser


def _load(args) -> RunConfig:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    config = load_config(path)
    if args.command == "check":
        return config
    try:
        return replace(config, scenario=config.scenario if args.cells is None else
                       replace(config.scenario, mesh_cells=args.cells),
                       cfl=config.cfl if args.cfl is None else args.cfl,
                       output_dir=config.output_dir if args.out is None else args.out)
    except ValueError as exc:       # Scenario and RunConfig name the field first
        field, _, rule = str(exc).partition(": ")
        raise ConfigError(f"{dict(mesh_cells='--cells', cfl='--cfl')[field]} {rule}") from exc


def _cmd_run(config: RunConfig):
    results = run_simulation(config)
    for label, result in results.items():
        print(f"{label}: {result.cells} cells, {result.steps} steps, "
              f"{result.wall_clock_s:.3f} s wall clock")
        print(f"{label}: A in [{result.min_area:.9g}, {result.max_area:.9g}] m^2, "
              f"final mass {result.final_mass:.12g} m^3 at t={result.final_time:g} s")
    print(f"output written to {config.output_dir}")
    return EXIT_OK


def _cmd_compare(config: RunConfig):
    _, reports = compare_runs(config)
    out_dir = Path(config.output_dir)
    blocks = [format_report(report) for report in reports]
    text = "\n\n".join(blocks) + "\n"
    (out_dir / "compare_report.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


def _cmd_check(config: RunConfig):
    failed = 0
    for result in run_all_checks(config):
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: residual={result.residual:.3e} "
              f"tolerance={result.tolerance:.3e}")
        failed += 0 if result.passed else 1
    return EXIT_OK if failed == 0 else EXIT_CHECK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command == "run":
            return _cmd_run(config)
        if args.command == "compare":
            return _cmd_compare(config)
        return _cmd_check(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        # invalid values reaching library constructors
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
