"""Command line interface: run a scenario, sweep sampling frequencies, self-check."""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .checks import run_all
from .harness import load_run, run_scenario, sweep, sweep_configs, write_outputs, write_sweep_csv


def _fraction_list(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except ZeroDivisionError:
        raise ValueError(text) from None  # argparse: invalid _fraction_list value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dlfilter",
                                     description="Filtering experiments for 1-D stochastic advection")
    parser.add_argument("--version", action="version", version=f"dlfilter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write its outputs")
    run_p.add_argument("--config", required=True, type=Path,
                       help="flat key = value config file, or a manifest.json "
                            "(whose recorded --pool-trace is honoured)")
    run_p.add_argument("--out", required=True, type=Path, help="output directory")
    run_p.add_argument("--pool-trace", action="store_true",
                       help="also write the per-step live-observation pool trace")

    sweep_p = sub.add_parser("sweep", help="replicate runs over sampling frequencies")
    sweep_p.add_argument("--config", required=True, type=Path)
    sweep_p.add_argument("--xi", required=True, type=_fraction_list,
                         help="comma list of spatial frequencies, e.g. 1,1/5")
    sweep_p.add_argument("--tau", required=True, type=_fraction_list,
                         help="comma list of temporal frequencies, e.g. 1,1/10")
    sweep_p.add_argument("--replicates", type=int, default=1)
    sweep_p.add_argument("--out", required=True, type=Path)

    sub.add_parser("check", help="run the oracle/property self-checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "check":
        failures = 0
        for result in run_all():
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name}: {result.detail}")
            failures += 0 if result.passed else 1
        return 1 if failures else 0

    # Bad input, an unusable --out included, is caught here, before anything runs,
    # and reported the way argparse reports a bad flag; a failure past this point
    # is a bug and raises. --out is made last, so a bad config leaves no directory.
    try:
        cfg, recorded_pool_trace = load_run(args.config)
        if args.command == "sweep":
            cells = sweep_configs(cfg, args.xi, args.tau, args.replicates)
        args.out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        result = run_scenario(cfg, collect_pool_trace=args.pool_trace or recorded_pool_trace)
        written = write_outputs(result, args.out)
        for path in written:
            print(path)
        return 0

    rows = sweep(cells)
    out_path = args.out / "sweep_summary.csv"
    write_sweep_csv(rows, out_path)
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
