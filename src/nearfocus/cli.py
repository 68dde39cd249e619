"""Command-line front end: one experiment per invocation, table plus summary out."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import EXPERIMENTS, ConfigError, parse_config
from .runner import run_experiment, write_summary, write_table

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _error_record(code: int, exc: Exception) -> int:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_status": code}
    print(json.dumps(record), file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearfocus",
        description=(
            "Near-field focusing analysis for linear arrays: effective degrees of "
            "freedom, focusing-gain profiles, focal-point scans, and axial peak tracking."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", required=True, metavar="PATH", help="YAML experiment configuration")
    parser.add_argument("--output", metavar="DIR", help="output directory (overrides the config)")
    parser.add_argument("--format", choices=("csv", "json"), help="table format (overrides the config)")
    parser.add_argument("--seed", type=int, metavar="N", help="seed recorded for randomized verification runs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text())
    except (OSError, ConfigError) as exc:
        return _error_record(EXIT_CONFIG, exc)

    # command-line flags override the config when given
    flags = {"experiment": args.experiment, "output_dir": args.output,
             "output_format": args.format, "seed": args.seed}
    config = dataclasses.replace(config, **{name: value for name, value in flags.items() if value is not None})

    try:
        table, summary = run_experiment(config)
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        table_path = write_table(
            table, config.output_format, out_dir / f"{config.experiment}.{config.output_format}"
        )
        summary_path = write_summary(summary, out_dir / f"{config.experiment}_summary.json")
    except Exception as exc:  # a valid config that fails to run or write is a runtime failure
        return _error_record(EXIT_RUNTIME, exc)

    print(f"wrote {table_path}")
    print(f"wrote {summary_path}")
    for key, value in summary.items():
        print(f"{key} = {value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
