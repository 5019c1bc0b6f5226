"""Command-line experiment runner.

Usage: ``advot <subcommand> --config scenario.json --out results/ [...]``.
Each run writes a trace (CSV or JSON-lines), a final report and an echo of
the effective configuration into the output directory.  A directory holds
one run: a rerun into it removes only the five names a run can write
(``config_echo.json``, ``trace.csv``, ``trace.jsonl``, ``report.json``,
``messages.log``) and writes each output as a new file.  The ``ADVOT_LOG``
environment variable sets the logging level (debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from pathlib import Path

from .errors import AdvotError
from .scenario import SUBCOMMANDS, TRACE_FORMATS, parse_scenario, run_command

_SCHEDULE_ALIASES = {"sync": "synchronous", "async": "random-subset", "roundrobin": "round-robin"}

_HELP = {
    "solve-ot": "adversary-free regularized transport (greedy baseline at --lambda 0)",
    "static-eq": "static dispatcher/adversary equilibrium with deviation certificate",
    "dynamic-sim": "multistage play with thresholded actions and belief updates",
    "distributed-sim": "asynchronous per-source dual pricing with a message log",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="advot",
        description="Adversarial regularized optimal transport experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=_HELP[name])
        sub.add_argument("--config", required=True, type=Path, help="scenario file (JSON)")
        sub.add_argument("--out", required=True, type=Path, help="output directory")
        sub.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="override the smoothing weight")
        sub.add_argument("--tol", type=float, default=None, help="override the convergence tolerance")
        sub.add_argument("--stages", type=int, default=None, help="override the number of stages")
        sub.add_argument("--tau", type=float, default=None, help="override the threshold width")
        sub.add_argument("--schedule", choices=sorted(_SCHEDULE_ALIASES), default=None,
                         help="override the distributed schedule")
        sub.add_argument("--seed", type=int, default=None, help="override the schedule seed")
        sub.add_argument("--emit", choices=TRACE_FORMATS, default="csv",
                         help="trace file format")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("ADVOT_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"advot: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_scenario(text)
        config = config.with_overrides(
            lam=args.lam,
            tol=args.tol,
            stages=args.stages,
            tau=args.tau,
            mode=_SCHEDULE_ALIASES.get(args.schedule),
            seed=args.seed,
        )
        return run_command(args.command, config, args.out, emit=args.emit)
    except AdvotError as exc:
        print(f"advot: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"advot: cannot write outputs: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
