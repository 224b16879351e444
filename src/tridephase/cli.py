"""Command line entry point.

Three subcommands: ``run`` executes a YAML config, ``reproduce`` writes the
CSV bundle behind one figure id, ``list-states`` prints the state catalog.
Exit status 0 when everything ran, 1 when any scenario failed, 2 on a bad
config or bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .dynamics import ENGINES
from .runner import FIGURE_IDS, ConfigError, figure_scenarios, parse_config, run_scenarios
from .states import CATALOG

__all__ = ["main"]


def _summary(parts) -> str:
    """One catalog entry as a formula: a pure superposition or a p-weighted mixture."""
    if parts[0] not in CATALOG:
        return f"({' + '.join(f'|{bits}>' for bits in parts)})/sqrt({len(parts)})"
    first, second = (f"|{part}><{part}|" if part in CATALOG else part for part in parts)
    return f"p {first} + (1-p) {second}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tridephase",
        description="Dephasing dynamics of three-qubit states under local or shared baths.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for CSV output (default: current)")
    common.add_argument("--engine", default=None,
                        help=f"override the propagation engine for every scenario: {', '.join(ENGINES)}")
    common.add_argument("--points", type=int, default=None,
                        help="override the number of grid points per trace")

    run_p = sub.add_parser("run", parents=[common], help="run every scenario in a YAML config")
    run_p.add_argument("config", help="path to the YAML config file")

    rep_p = sub.add_parser("reproduce", parents=[common], help="write the CSV bundle for a figure id")
    rep_p.add_argument("figure", choices=FIGURE_IDS, help="which bundle to produce")

    sub.add_parser("list-states", help="print the available initial states")
    return parser


def _apply_overrides(scenarios, engine, points):
    for flag, field, value in (("--engine", "engine", engine), ("--points", "n_points", points)):
        if value is not None:
            try:
                scenarios = [replace(sc, **{field: value}) for sc in scenarios]
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from exc
    return scenarios


def _report(results) -> int:
    for res in results:
        if res.ok:
            print(f"wrote {res.path}")
        else:
            print(f"FAILED {res.scenario.output}: {res.error}", file=sys.stderr)
    return 0 if all(res.ok for res in results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-states":
        width = max(len(name) for name in CATALOG)
        for name, parts in CATALOG.items():
            print(f"{name:<{width}}  {_summary(parts)}")
        return 0

    try:
        if args.command == "run":
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                                  f"at offset {exc.start}") from exc
            scenarios = parse_config(text)
        else:
            scenarios = figure_scenarios(args.figure)
        results = run_scenarios(_apply_overrides(scenarios, args.engine, args.points), args.out_dir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not results:
        print("no scenarios to run")
    return _report(results)


if __name__ == "__main__":
    sys.exit(main())
