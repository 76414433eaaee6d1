"""Command-line front end: run scenarios, validate configs, print defaults.

Exit codes: 0 success, 2 configuration error (parse or validation),
3 runtime error during a scenario.

`main` may be called repeatedly in one process: each call builds its
configuration afresh and shares only the argument parser, which parsing
does not change.
"""

import argparse
import functools
import sys
from dataclasses import replace

from .config import SCENARIOS, default_document, paper_config, parse_config
from .errors import ConfigurationError
from .scenarios import emit_report, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgi-echo",
        description=(
            "Simulate storage of a polarization qubit in a pair of detuned "
            "frequency-comb memories and analyze the resulting temporal "
            "correlations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named scenario")
    run.add_argument("scenario", choices=SCENARIOS)
    run.add_argument("--config", help="configuration file (JSON); defaults "
                     "to the paper preset")
    run.add_argument("--seed", type=int, help="override statistics.seed")
    run.add_argument("--out", help="override output.directory")
    run.add_argument("--format", choices=("json", "csv", "both"),
                     help="override output.format")
    run.add_argument("--workers", type=int, help="override statistics.workers")
    run.add_argument("--report", choices=("text", "json"), default="text",
                     help="stdout report format")

    val = sub.add_parser("validate", help="check a configuration file")
    val.add_argument("--config", required=True)

    sub.add_parser("defaults", help="print the paper-preset configuration")
    return parser


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def _apply_overrides(config, args):
    stats = config.statistics
    if args.seed is not None:
        stats = replace(stats, seed=args.seed)
    if args.workers is not None:
        stats = replace(stats, workers=args.workers)
    output = config.output
    if args.out is not None:
        output = replace(output, directory=args.out)
    if args.format is not None:
        output = replace(output, format=args.format)
    return replace(config, statistics=stats, output=output)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "defaults":
            sys.stdout.write(default_document())
            return EXIT_OK

        if args.command == "validate":
            config = parse_config(_read(args.config))
            print(f"ok: scenario={config.scenario} digest={config.digest()}")
            return EXIT_OK

        if args.config:
            config = parse_config(_read(args.config), scenario=args.scenario)
        else:
            config = paper_config(args.scenario)
        config = _apply_overrides(config, args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run_scenario(config)
    except Exception as exc:
        # every failure of a run, expected or not, is exit 3 with one line
        print(f"runtime error [{config.scenario}]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME
    sys.stdout.write(emit_report(report, args.report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
