#!/usr/bin/env python3
"""Benchmark of the SIPHoc reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload city --seed 1 --seconds 35 --trace 0

``--trace 0`` repeats the workload (a fresh scenario from the same seed each
time) until ``--seconds`` of host time are spent, and reports the
end-to-end metrics as medians over the repetitions. ``--trace 1`` runs the
workload once untraced and once with every layer seam wrapped, and reports
the per-layer metrics. Every run checks its outputs: each placed call ends
in a final state, no SIP transaction outlives the drain, and every
repetition (traced or not) produces the same simulated fingerprint. The
last line of standard output is the JSON result.

``--write-spec`` regenerates ``BENCHMARK.json`` from ``perfbench/spec.py``;
``--record-digests`` stores the fingerprint digests of the default and the
held-out seed in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Set-up is timed at least this many times per run; ``setup_s`` is the median.
MIN_SETUPS = 11


def _pin_hash_seed() -> None:
    """Re-execute this process under ``PYTHONHASHSEED=0``.

    String hashing is randomised per process, which moves dict and set
    layouts and with them the host time of a run by a few per cent. The
    simulated results do not depend on it; pinning it keeps that noise out
    of the timings. ``exec`` replaces the process, so no child is left.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__)), *sys.argv[1:]], env)


def _load_program() -> None:
    """Put the program's source on the import path, or exit with status 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"program source not found: {src / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


@dataclass
class Rep:
    """One repetition: a fresh scenario set up, simulated and checked."""

    setup_s: float
    wall_s: float
    events: int
    placed: int
    outcome: object  # workloads.Outcome
    stats_before: dict
    stats_after: dict
    spans: object = None  # tracer.Spans of the simulation phase, when traced

    @property
    def us_per_event(self) -> float:
        return self.wall_s / self.events * 1e6

    @property
    def failed(self) -> int:
        """Calls not established; every call, when the output check failed."""
        if self.outcome.problems:
            return self.placed
        return self.placed - self.outcome.established


def _stats(scenario) -> dict:
    stats = scenario.stats
    return {
        "traffic": {name: counter.packets for name, counter in stats.traffic.items()},
        "counters": dict(stats.counters),
    }


def _fresh_ids() -> None:
    """Restart process-global id allocators so every repetition is identical."""
    from repro.globalstate import registry

    registry.reset_all()
    gc.collect()


def time_setup(workload, seed: int) -> float:
    """Time one set-up on its own (extra ``setup_s`` samples)."""
    _fresh_ids()
    start = time.perf_counter()
    run = workload.prepare(seed)
    elapsed = time.perf_counter() - start
    run.scenario.stop()
    return elapsed


def repetition(workload, seed: int, tracer=None) -> Rep:
    """Set up, simulate and check one fresh scenario.

    With ``tracer`` (already installed) the spans recorded during set-up
    and during the output check are dropped: :attr:`Rep.spans` covers
    exactly the timed simulation phase.
    """
    _fresh_ids()
    start = time.perf_counter()
    run = workload.prepare(seed)
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.reset()
    before = _stats(run.scenario)
    start = time.perf_counter()
    run.simulate()
    wall_s = time.perf_counter() - start
    spans = tracer.reset() if tracer is not None else None
    after = _stats(run.scenario)
    events = run.events
    return Rep(setup_s, wall_s, events, run.placed, run.finish(), before, after, spans)


def guarded(fn, *args, **kwargs) -> Rep | None:
    """Run one repetition; a crash is reported and counted, not raised."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # a crashing program is a measured outcome
        traceback.print_exc()
        return None


def describe(rep: Rep, label: str) -> str:
    o = rep.outcome
    return (
        f"{label}: setup {rep.setup_s:.3f} s, simulate {rep.wall_s:.3f} s,"
        f" {rep.events} events, {rep.us_per_event:.2f} us/event,"
        f" {o.established}/{o.placed} calls established, digest {o.digest}"
        + (f", PROBLEMS: {'; '.join(o.problems)}" if o.problems else "")
    )


def check(reps: list[Rep | None]) -> list[str]:
    """Problems across a set of repetitions (empty when the outputs check out)."""
    if any(rep is None for rep in reps):
        return ["a repetition crashed"]
    problems = [p for rep in reps for p in rep.outcome.problems]
    digests = sorted({rep.outcome.digest for rep in reps})
    if len(digests) > 1:
        problems.append(f"repetitions disagree on the simulated fingerprint: {digests}")
    return problems


def reference_note(workload: str, seed: int, digest: str) -> str:
    try:
        stored = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        stored = None
    if stored is None:
        return f"fingerprint digest {digest} (no stored reference for seed {seed})"
    verdict = "matches" if stored == digest else "DIFFERS FROM"
    return f"fingerprint digest {digest} {verdict} the stored reference {stored}"


def layer_metrics(rep: Rep, untraced: Rep, peak_rss_mb: float) -> dict[str, float]:
    """Per-layer metrics from a traced repetition."""
    spans = rep.spans
    calls = spans.count
    layer_calls = spans.count_prefix
    delta = {
        name: rep.stats_after["traffic"].get(name, 0) - rep.stats_before["traffic"].get(name, 0)
        for name in ("aodv", "olsr")
    }
    counters_after, counters_before = rep.stats_after["counters"], rep.stats_before["counters"]

    def counter(name: str) -> int:
        return counters_after.get(name, 0) - counters_before.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    self_s = spans.layer_self_s()
    tx = calls("netsim.medium/broadcast", "netsim.medium/unicast")
    deliveries = calls("netsim.node/receive_wireless")
    routing_decodes = calls("routing.codec/decode_aodv", "routing.codec/decode_olsr_packet")
    aodv_datagrams = layer_calls("routing.aodv/port-")
    olsr_datagrams = layer_calls("routing.olsr/port-")
    hits, misses = counter("manetslp.cache_hits"), counter("manetslp.cache_misses")
    jitter_packets = calls("rtp.jitter/classify")
    metrics = {
        "netsim.kernel.events": rep.events,
        "netsim.kernel.us_per_event": ratio(self_s["netsim.kernel"] * 1e6, rep.events),
        "netsim.medium.tx": tx,
        "netsim.medium.deliveries": deliveries,
        "netsim.medium.deliveries_per_tx": ratio(deliveries, tx),
        "netsim.node.rx": deliveries,
        "netsim.node.forwards": spans.edges[
            "netsim.node/receive_wireless", "netsim.node/route_packet"
        ],
        "netsim.capture.runs": calls("netsim.capture/run"),
        "core.handlers.calls": layer_calls("core.handlers/"),
        "routing.codec.decodes": routing_decodes,
        "routing.codec.encodes": calls(
            "routing.codec/encode_aodv", "routing.codec/encode_olsr_packet"
        ),
        "routing.codec.bytes_decoded": spans.amount["routing.codec/decode_aodv"]
        + spans.amount["routing.codec/decode_olsr_packet"],
        "routing.codec.decodes_per_datagram": ratio(
            routing_decodes, aodv_datagrams + olsr_datagrams
        ),
        "routing.aodv.datagrams": aodv_datagrams,
        "routing.aodv.ctrl_tx": delta["aodv"],
        "routing.olsr.datagrams": olsr_datagrams,
        "routing.olsr.ctrl_tx": delta["olsr"],
        "slp.datagrams": layer_calls("slp/port-"),
        "slp.decodes": calls("slp/decode_slp"),
        "core.manet_slp.lookups": calls(
            "core.manet_slp/find_services", "core.manet_slp/lookup_cached"
        ),
        "core.manet_slp.cache_hit_ratio": ratio(hits, hits + misses),
        "sip.message.parses": calls("sip.message/parse_message"),
        "sip.message.bytes_parsed": spans.amount["sip.message/parse_message"],
        "sip.transaction.datagrams": layer_calls("sip.transaction/port-"),
        "sip.transaction.retransmissions": calls("sip.transaction/retransmit"),
        "core.tunnel.packets": calls("core.tunnel/encode_inner_packet"),
        "rtp.packet.decodes": calls("rtp.packet/decode_rtp", "rtp.packet/decode_red"),
        "rtp.packet.encodes": calls("rtp.packet/encode", "rtp.packet/encode_red"),
        "rtp.session.datagrams": layer_calls("rtp.session/port-"),
        "rtp.jitter.packets": jitter_packets,
        "rtp.jitter.late_ratio": ratio(spans.amount["rtp.jitter/classify"], jitter_packets),
        "rtp.jitter.recovered": spans.amount["rtp.jitter/on_recovered"],
        "unattributed.self_s": rep.wall_s - spans.covered_s,
        "trace.wall_s": rep.wall_s,
        "trace.overhead_s": rep.wall_s - untraced.wall_s,
        "process.peak_rss_mb": peak_rss_mb,
    }
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
    for name, value in rep.outcome.metrics.items():
        metrics[f"calls.{name}"] = value
    return metrics


def run_untraced(workload, seed: int, seconds: float) -> tuple[list, dict]:
    reps: list[Rep | None] = []
    started = time.perf_counter()
    while True:
        rep = guarded(repetition, workload, seed)
        reps.append(rep)
        if rep is None:
            break
        print(describe(rep, f"repetition {len(reps)}"), flush=True)
        elapsed = time.perf_counter() - started
        if elapsed + rep.setup_s + rep.wall_s > seconds:
            break
    good = [rep for rep in reps if rep is not None]
    if not good:
        return reps, {}
    setups = [rep.setup_s for rep in good]
    while len(setups) < MIN_SETUPS:
        setups.append(time_setup(workload, seed))
    wall = statistics.median(rep.wall_s for rep in good)
    print(
        f"{len(good)} repetitions: median simulate {wall:.3f} s,"
        f" set-ups {', '.join(f'{s:.3f}' for s in setups)} s", flush=True
    )
    return reps, {
        "host_us_per_event": statistics.median(rep.us_per_event for rep in good),
        "setup_s": statistics.median(setups),
    }


def run_traced(workload, seed: int) -> tuple[list, dict]:
    from tracer import SpanTracer, install_layer_seams

    untraced = guarded(repetition, workload, seed)
    if untraced is None:
        return [None], {}
    print(describe(untraced, "untraced"), flush=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = install_layer_seams(SpanTracer())
    try:
        traced = guarded(repetition, workload, seed, tracer)
    finally:
        tracer.restore()
    if traced is None:
        return [untraced, None], {}
    print(describe(traced, "traced"), flush=True)
    metrics = layer_metrics(traced, untraced, peak_rss_mb)
    attributed = sum(traced.spans.layer_self_s().values()) + metrics["unattributed.self_s"]
    print(f"layer self times + unattributed = {attributed:.6f} s; traced wall {traced.wall_s:.6f} s")
    return [untraced, traced], metrics


def result_line(reps: list, metrics: dict, units: dict, problems: list[str]) -> dict:
    good = [rep for rep in reps if rep is not None]
    placed = max((rep.placed for rep in good), default=1)
    attempted = sum(rep.placed if rep else placed for rep in reps)
    failed = sum(rep.failed if rep else placed for rep in reps)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        } if metrics else {},
    }


def write_spec() -> None:
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    print(f"wrote {path}")


def record_digests() -> None:
    from workloads import WORKLOADS

    digests = {}
    for name, cls in WORKLOADS.items():
        digests[name] = {}
        for seed in (spec.DEFAULT_SEED, spec.HELD_OUT_SEED):
            rep = repetition(cls(), seed)
            digests[name][str(seed)] = rep.outcome.digest
            print(describe(rep, f"{name} seed {seed}"), flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help=f"workload seed (default {spec.DEFAULT_SEED};"
                             f" held-out seed {spec.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="host seconds of repetitions to measure (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    parser.add_argument("--record-digests", action="store_true",
                        help="store reference fingerprint digests")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    _load_program()
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", flush=True)
    if args.trace:
        reps, metrics = run_traced(workload, args.seed)
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
    else:
        reps, metrics = run_untraced(workload, args.seed, args.seconds)
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    problems = check(reps)
    good = [rep for rep in reps if rep is not None]
    if good:
        o = good[0].outcome
        print("simulated outcome: " + ", ".join(f"{k} {v:.6g}" for k, v in o.metrics.items()))
        print(reference_note(args.workload, args.seed, o.digest))
    for name, unit in units.items():
        if name in metrics:
            line = f"  {name:36s} {metrics[name]:>14.6g} {unit:7s}"
            if args.trace:
                moves, on = spec.should_move(name)
                line += f"  moves {moves} on {on}"
            print(line.rstrip())
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result_line(reps, metrics, units, problems)), flush=True)
    return 0


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
