"""netsim CLI: fresh-process determinism probe for ``tools/check.sh``.

Usage::

    python -m repro.netsim trace --out a.jsonl
    python -m repro.netsim trace --out b.jsonl
    cmp a.jsonl b.jsonl

Runs one fixed seeded scenario — random mobile topology, lossy medium,
tracing on, a full SIP call — then writes the byte-exact trace export
followed by one ``summary`` line (Stats summary + event counts, canonical
JSON). The check.sh gate runs this twice in *fresh interpreters* under
different ``PYTHONHASHSEED`` values and byte-compares the two files. Each
run starts its process-global identifier counters from zero, so any
dependence of the schedule on string-hash order or on leaked process state
surfaces as a one-line ``cmp`` diff.

The in-process, fault-injecting variant of this gate lives in
``tests/netsim/test_kernel_parity.py``; this entry point exists so the
determinism contract is also enforced outside pytest, subprocess-fresh, the
same way ``repro.overload smoke`` proves byte-identical reruns.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.scenarios import ManetConfig, ManetScenario

    scenario = ManetScenario(
        ManetConfig(
            n_nodes=16,
            topology="random",
            routing="aodv",
            seed=7,
            tx_range=250.0,
            area=(600.0, 600.0),
            loss_rate=0.05,
            mobility=True,
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(15, "bob")
    scenario.converge()
    scenario.phones["alice"].place_call("sip:bob@voicehoc.ch", duration=5.0)
    scenario.sim.run(scenario.sim.now + 12.0)
    scenario.stop()
    assert scenario.trace is not None
    summary = json.dumps(
        {
            "summary": scenario.stats.summary(),
            "events_processed": scenario.sim.events_processed,
            "pending_events": scenario.sim.pending_events,
        },
        sort_keys=True,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(scenario.trace.export_jsonl())
        fh.write(summary + "\n")
    print(f"trace: wrote {args.out} ({scenario.sim.events_processed} events)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.netsim",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_trace = sub.add_parser(
        "trace",
        help="run the fixed determinism scenario, write its trace",
    )
    p_trace.add_argument("--out", required=True, help="output JSONL path")
    p_trace.set_defaults(fn=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
