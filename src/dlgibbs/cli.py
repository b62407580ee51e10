"""Command-line entry point: the experiment to run, then its options."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import EXPERIMENTS, parse_config
from .errors import DlGibbsError
from .harness import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlgibbs",
        description=(
            "Detectability-lemma Gibbs sampling experiments: mixing traces, "
            "ground-space projectors, parent Hamiltonians, temperature-path "
            "preparation, purified overlaps, and resource estimates."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="the experiment to run")
    parser.add_argument(
        "--config",
        required=True,
        type=Path,
        help="path to a key = value experiment configuration",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("."),
        help="directory for the CSV and JSON artifacts (default: .)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the model seed from the config",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat bound violations as fatal errors",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if cfg.experiment != args.experiment:
            raise DlGibbsError(
                f"config declares experiment {cfg.experiment!r} but the "
                f"subcommand is {args.experiment!r}"
            )
        result = run_experiment(
            cfg, out_dir=args.out, seed=args.seed, strict=args.strict
        )
    except DlGibbsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for line in result.violations:
        print(f"violation: {line}", file=sys.stderr)
    status = "ok" if result.exit_code == 0 else "bound violations recorded"
    print(f"{args.experiment}: {status}")
    print(f"wrote {result.csv_path} and {result.summary_path}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
