"""Handover CLI: ``python -m repro.handover <subcommand>``.

Subcommands:

* ``drill`` — run the coverage-loss drill (handover + baseline), print
  the report and the SIP ladder of the surviving call

The survival and defaults-off gate is ``python -m repro.gates handover``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.handover.harness import DrillConfig, run_drill


def _cmd_drill(args: argparse.Namespace) -> int:
    result = run_drill(DrillConfig(seed=args.seed, handover=not args.baseline))
    print(result.render(), end="")
    if args.ladder:
        print()
        print(result.ladder, end="")
    return 0 if (result.survived or args.baseline) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.handover",
        description="Mid-call multihomed handover drills (§5k).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_drill = sub.add_parser("drill", help="run the coverage-loss drill")
    p_drill.add_argument("--seed", type=int, default=7)
    p_drill.add_argument(
        "--baseline", action="store_true", help="run with handover disabled"
    )
    p_drill.add_argument(
        "--ladder", action="store_true", help="print the call's SIP ladder"
    )
    p_drill.set_defaults(fn=_cmd_drill)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(141)
