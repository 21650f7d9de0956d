"""Media-plane CLI: ``python -m repro.rtp <subcommand>``.

Subcommands:

* ``sweep`` — print the M1 media-stack sweep (codec × RFC 2198 depth ×
  playout policy under Gilbert–Elliott fading)

The MOS-recovery and inert-defaults gate is ``python -m repro.gates rtp``.
"""

from __future__ import annotations

import argparse


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.media import media_quality_table

    table = media_quality_table(
        codecs=tuple(args.codecs), talk_time=args.talk_time, seed=args.seed
    )
    print(table.format())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.rtp", description=__doc__.split("\n", 1)[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="print the M1 media-stack sweep")
    sweep.add_argument("--codecs", nargs="+", default=["PCMU", "G729"])
    sweep.add_argument("--talk-time", type=float, default=12.0)
    sweep.add_argument("--seed", type=int, default=3)
    sweep.set_defaults(fn=_cmd_sweep)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
