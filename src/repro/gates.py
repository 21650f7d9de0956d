"""One gate runner: ``python -m repro.gates [NAME ...]``.

Each gate is a name, a zero-argument *probe* that runs a seeded scenario
and returns a JSON-serialisable dict (the byte-exact payload plus the
facts the gate asserts), and a pure *check* ``facts -> (failures, ok)``.
The runner starts the probe in two fresh interpreters at once, under
``PYTHONHASHSEED=1`` and ``=2``, requires the two stdouts to be
byte-identical, applies the check to the first run and prints each
``FAIL:`` line or the gate's ok line. With no names it runs every gate in
order; it exits 1 if any gate failed.

Protocol identifiers (Call-ID, Via branch, RTP SSRC, packet uid) come
from process-global counters, so the byte-identity contract is between
fresh interpreters. A probe that compares configurations runs them in its
one interpreter with ``registry.reset_all()`` before each run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from subprocess import PIPE
from typing import Callable, NamedTuple

from repro.errors import MetricsError
from repro.faults.harness import run_chaos
from repro.globalstate import registry
from repro.handover.harness import DrillConfig, legacy_fingerprint, run_drill
from repro.metrics.registry import render_prometheus
from repro.metrics.scraper import load_jsonl
from repro.overload.harness import MODE_CONTROLLED, MODE_UNCONTROLLED, run_sweep, smoke_config
from repro.rtp.quality import MOS_SATISFIED
from repro.scenarios import ManetConfig, ManetScenario
from repro.trace.events import TraceError, parse_jsonl_line
from repro.trace.ladder import sip_ladder

Facts = dict
Outcome = tuple[list[str], str]

BOB = "sip:bob@voicehoc.ch"


class Gate(NamedTuple):
    name: str
    probe: Callable[[], Facts]
    check: Callable[[Facts], Outcome]


def fresh_pair(code: str) -> tuple[str, str]:
    """Run ``code`` with ``python -c`` in two fresh interpreters at once.

    They differ only in ``PYTHONHASHSEED`` (1 and 2), so a schedule that
    depends on string-hash order shows up as differing stdouts. Returns
    both stdouts; raises ``CalledProcessError`` if either interpreter fails.
    """
    children = [
        subprocess.Popen([sys.executable, "-c", code], stdout=PIPE, stderr=PIPE, text=True,
                         env={**os.environ, "PYTHONHASHSEED": seed})
        for seed in ("1", "2")
    ]
    outputs = [child.communicate() for child in children]
    for child, (_, stderr) in zip(children, outputs):
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, code, stderr=stderr)
    return outputs[0][0], outputs[1][0]


def _failed(*predicates: tuple[object, str]) -> list[str]:
    """The message of every ``(failed, message)`` pair whose test holds."""
    return [message for failed, message in predicates if failed]


def _two_phones(**config) -> ManetScenario:
    """A started, converged scenario: alice on node 0, bob on the last node."""
    scenario = ManetScenario(ManetConfig(**config))
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(config["n_nodes"] - 1, "bob")
    scenario.converge()
    return scenario


def _parse_trace(text: str) -> tuple[list, str | None]:
    """Schema-validate JSONL up to its first bad line: (events, error)."""
    events = []
    for number, line in enumerate(text.splitlines(), start=1):
        try:
            events.append(parse_jsonl_line(line))
        except TraceError as exc:
            return events, f"line {number} failed schema validation: {exc}"
    return events, None


def trace_probe() -> Facts:
    """A seeded 2-hop traced call: JSONL schema, categories, SIP ladder."""
    scenario = _two_phones(n_nodes=3, topology="chain", routing="aodv", seed=7, tracing=True)
    record = scenario.call_and_wait("alice", BOB, duration=2.0)
    scenario.stop()
    trace = scenario.trace.export_jsonl() if scenario.trace is not None else ""
    events, error = _parse_trace(trace)
    return {
        "trace": trace,
        "traced": scenario.trace is not None,
        "schema_error": error,
        "events": len(events),
        "established": record.established,
        "categories": sorted({event.category for event in events}),
        "ladder_invite": "INVITE" in sip_ladder(events),
    }


def trace_check(f: Facts) -> Outcome:
    return _failed(
        (not f["traced"], "scenario.trace is None despite tracing=True"),
        (not f["trace"], "traced scenario produced no events"),
        (f["schema_error"], str(f["schema_error"])),
        (not f["established"], "smoke call did not establish"),
        *((name not in f["categories"], f"no {name}.* events in trace")
          for name in ("packet", "aodv", "slp", "sip")),
        (not f["ladder_invite"], "SIP ladder does not show the INVITE"),
    ), (
        f"trace smoke ok: {f['events']} events, categories "
        f"{', '.join(f['categories'])}; schema valid; ladder renders INVITE"
    )


def faults_probe() -> Facts:
    """Chaos on a 4-hop chain: relay crash, gateway failure, relay restart."""
    result = run_chaos(hops=4, routing="aodv", seed=7)
    trace = result.scenario.trace
    export = trace.export_jsonl() if trace is not None else ""
    report = result.report
    return {
        "schedule_and_trace": f"{result.plan.describe()}\n=====\n{export}",
        "recovered": result.recovered,
        "planned": len(result.plan.events),
        "injected": report.faults_injected,
        "failover_s": sorted(report.gateway_failover_latency.values()),
        "reregistrations": len(report.reregistration_latency),
        "traced": trace is not None,
        "schema_error": _parse_trace(export)[1],
    }


def faults_check(f: Facts) -> Outcome:
    failures = _failed(
        (not f["recovered"], "post-fault call did not re-establish"),
        (f["injected"] != f["planned"], f"{f['planned']} fault events planned but "
         f"{f['injected']} showed up in the trace"),
        (not f["failover_s"], "no gateway failover observed after gateway_down"),
        (not f["reregistrations"], "no re-registration observed after node_restart"),
        (not f["traced"], "chaos scenario ran without a trace collector"),
        (f["traced"] and f["schema_error"], f"trace {f['schema_error']}"),
        (not f["schedule_and_trace"].strip(), "fresh-process chaos rerun produced no output"),
    )
    return failures, "" if failures else (
        f"chaos smoke ok: {f['injected']} faults injected, call re-established, "
        f"gateway failover in {min(f['failover_s']):.1f}s; same-seed reruns byte-identical"
    )


def overload_probe() -> Facts:
    """The reduced offered-load sweep, with and without admission control."""
    cfg = smoke_config()
    report = run_sweep(cfg)
    top = max(cfg.loads)
    facts: Facts = {"report": report.render(), "top": top, "knee": report.knee}
    for mode in (MODE_CONTROLLED, MODE_UNCONTROLLED):
        point = report.point(top, mode)
        facts[mode] = None if point is None else {**asdict(point), "ok_rate": point.ok_rate}
    return facts


def overload_check(f: Facts) -> Outcome:
    top, c, u = f["top"], f[MODE_CONTROLLED], f[MODE_UNCONTROLLED]
    no_knee = (f["knee"] is None, "no knee: controlled runs never cleared the threshold")
    no_output = (not f["report"].strip(), "fresh-process overload rerun produced no output")
    if c is None or u is None:
        return ["smoke sweep is missing its top-load points"] + _failed(no_knee, no_output), ""
    failures = _failed(
        (c["rejected_503"] == 0, "no 503 admission rejections at the overload point"),
        (c["admission_rejected"] == 0, "sip.admission_rejected counter never moved"),
        (u["queue_drops"] == 0, "bounded TX queues shed nothing without admission"),
        (c["ok_rate"] <= u["ok_rate"], f"admission control did not help at {top:.1f} cps "
         f"(controlled {c['ok_rate']:.3f} <= uncontrolled {u['ok_rate']:.3f})"),
        (u["rejected_503"] or u["admission_rejected"],
         "uncontrolled run unexpectedly produced 503 rejections"),
        no_knee,
        no_output,
    )
    return failures, (
        f"overload smoke ok: at {top:.1f} cps admission shed {c['rejected_503']} calls "
        f"with 503 (success {c['ok_rate']:.3f} vs {u['ok_rate']:.3f} uncontrolled, "
        f"{u['queue_drops']} queue drops); same-seed reruns byte-identical"
    )


def _metrics_run(metrics_on: bool) -> ManetScenario:
    registry.reset_all()
    scenario = _two_phones(
        n_nodes=4, seed=7, metrics=metrics_on, metrics_interval=0.5, tx_queue_capacity=8
    )
    scenario.call_and_wait("alice", BOB, duration=3.0)
    scenario.stop()
    return scenario


def metrics_probe() -> Facts:
    """A 3-hop chain with bounded TX queues and one call, scraped every half
    sim-second; then the same run with metrics off (no observer effect)."""
    on = _metrics_run(True)
    assert on.metrics is not None
    export = on.metrics.export_text()
    off = _metrics_run(False)
    try:
        sections, schema_error = load_jsonl(io.StringIO(export)), None
    except MetricsError as exc:
        sections, schema_error = [], str(exc)
    snapshots = sum(len(section.snapshots) for section in sections)
    last = sections[0].snapshots[-1] if snapshots else None
    return {
        "export": export,
        "schema_error": schema_error,
        "snapshots": snapshots,
        "missing_gauges": [
            name for name in ("txqueue.depth.sum", "routing.routes.sum")
            if last is not None and name not in last.gauges
        ],
        "prometheus_empty": last is not None and not render_prometheus(
            {"counters": last.counters, "gauges": last.gauges, "histograms": last.histograms}
        ).strip(),
        "stats_equal": on.stats.summary() == off.stats.summary(),
        "events": [on.sim.events_processed, off.sim.events_processed],
        "seq": [on.sim._kernel.seq, off.sim._kernel.seq],
    }


def metrics_check(f: Facts) -> Outcome:
    (events_on, events_off), (seq_on, seq_off) = f["events"], f["seq"]
    return _failed(
        (not f["export"].strip(), "fresh-process metrics run produced no export"),
        (f["schema_error"], f"smoke export failed schema validation: {f['schema_error']}"),
        (f["export"] and not f["schema_error"] and not f["snapshots"],
         "smoke export contains no snapshots"),
        *((True, f"gauge {name} missing from export") for name in f["missing_gauges"]),
        (f["prometheus_empty"], "Prometheus exposition rendered empty"),
        (not f["stats_equal"], "enabling metrics changed the Stats summary"),
        (events_on != events_off, f"enabling metrics changed the event schedule "
         f"({events_on} vs {events_off} events processed)"),
        (seq_on != seq_off,
         f"enabling metrics changed event sequence allocation ({seq_on} vs {seq_off})"),
    ), (
        f"metrics smoke ok: {f['snapshots']} snapshots byte-identical across fresh "
        f"processes; metrics on/off Stats and schedule identical ({events_on} events)"
    )


def _media_contrast() -> tuple[str, dict[str, float]]:
    """The M1 contrast point: fixed/no-RED baseline vs RFC 2198 + adaptive."""
    from repro.experiments.media import run_media_point

    registry.reset_all()
    lines, mos = [], {}
    for label, policy, red in (("baseline", "fixed", 0), ("full", "adaptive", 2)):
        quality, _ = run_media_point(
            codec="PCMU", policy=policy, redundancy=red,
            mean_good=1.2, mean_bad=0.05, talk_time=8.0,
        )
        if quality is None:
            lines.append(f"{label} not-established\n")
            continue
        lines.append(
            f"{label} mos={quality.mos:.4f} eff={quality.effective_loss_ratio:.4f} "
            f"m2e={quality.mouth_to_ear_delay:.4f} recovered={quality.packets_recovered}\n"
        )
        mos[label] = float(f"{quality.mos:.4f}")
    return "".join(lines), mos


def _e5_fingerprint(explicit_off: bool) -> str:
    """E5-style schedule fingerprint: call outcomes, events, Stats counters."""
    registry.reset_all()
    off = dict(media_jitter_policy="fixed", media_redundancy=0, media_vad=False)
    scenario = _two_phones(
        n_nodes=10, topology="grid", routing="aodv", seed=1, spacing=90.0, tx_range=140.0,
        **(off if explicit_off else {}),
    )
    for _ in range(3):
        scenario.call_and_wait("alice", BOB, duration=4.0)
    lines = [
        "call none" if record.quality is None else (
            f"call mos={record.quality.mos:.6f} played={record.quality.packets_played}"
            f"/{record.quality.packets_expected}"
        )
        for record in scenario.call_records()
    ]
    lines.append(f"events_processed={scenario.sim.events_processed}")
    counters = scenario.stats.counters
    lines.extend(f"{name}={counters[name]}" for name in sorted(counters))
    scenario.stop()
    return "".join(line + "\n" for line in lines)


def rtp_probe() -> Facts:
    """MOS recovery contrast, then the E5 fingerprint with media knobs
    omitted and with every knob explicitly set to its "off" value."""
    contrast, mos = _media_contrast()
    return {
        "contrast": contrast,
        "defaults": _e5_fingerprint(explicit_off=False),
        "explicit": _e5_fingerprint(explicit_off=True),
        "baseline_mos": mos.get("baseline"),
        "full_mos": mos.get("full"),
    }


def rtp_check(f: Facts) -> Outcome:
    baseline, full = f["baseline_mos"], f["full_mos"]
    established = baseline is not None and full is not None
    failures = _failed(
        (not established, f"contrast calls did not establish:\n{f['contrast']}"),
        (established and baseline >= MOS_SATISFIED,
         f"fixed/no-RED baseline unexpectedly satisfied: MOS {baseline or 0:.2f}"),
        (established and full < MOS_SATISFIED,
         f"RFC 2198 + adaptive playout did not recover: MOS {full or 0:.2f}"),
        (not f["defaults"].strip(), "E5 fingerprint run produced no output"),
        (f["defaults"] != f["explicit"],
         "media defaults are not inert: explicit-off E5 schedule differs"),
    )
    return failures, "" if failures else (
        f"media smoke ok: baseline MOS {baseline:.2f} < {MOS_SATISFIED} <= {full:.2f} "
        "with RFC 2198 + adaptive playout; defaults-off E5 schedule byte-identical"
    )


def handover_probe() -> Facts:
    """Coverage-loss drill with and without handover, then the defaults-off
    legacy trace (no multihoming, no handover config, no interface faults)."""
    registry.reset_all()
    enabled, baseline = (run_drill(DrillConfig(handover=on)) for on in (True, False))
    report = "\n".join([
        "== handover drill ==", enabled.render(),
        "== baseline drill ==", baseline.render(),
        "== handover trace slice ==", enabled.trace_jsonl,
    ])
    registry.reset_all()
    return {
        "report": report,
        "legacy": legacy_fingerprint(),
        "handover": asdict(enabled),
        "baseline": asdict(baseline),
        "silence_ms": DrillConfig().handover_config.rtp_silence_timeout * 1000,
    }


def handover_check(f: Facts) -> Outcome:
    h, gap, silence_ms = f["handover"], f["handover"]["media_gap_ms"], f["silence_ms"]
    leaked = [
        line for line in f["legacy"].splitlines()
        if '"kind":"handover.' in line or '"kind":"iface.' in line
    ]
    return _failed(
        (not h["established"], "drill call never established"),
        (not h["survived"], "handover-enabled call did not survive coverage loss"),
        (h["succeeded"] == 0, "handover.succeeded counter never moved"),
        (not h["ssrc_stable"], "RTP session was re-created across the migration"),
        (gap is None or gap >= silence_ms,
         f"media gap {gap} ms not under the {silence_ms:.0f} ms RTP silence trigger"),
        (f["baseline"]["survived"], "baseline call survived coverage loss without handover"),
        (f["baseline"]["attempted"], "baseline run attempted a handover with the policy off"),
        (not f["report"].strip(), "fresh-process drill rerun produced no output"),
        (not f["legacy"].strip(), "defaults-off fingerprint produced no output"),
        (leaked, f"defaults-off run leaked {len(leaked)} handover/iface events"),
    ), (
        f"handover smoke ok: coverage-loss call survived in {h['attempted']} attempt(s), "
        f"latency {h['handover_latency_ms']} ms, media gap {gap} ms (baseline died); "
        "same-seed reruns byte-identical; defaults-off clean"
    )


def netsim_probe() -> Facts:
    """Random mobile topology, lossy medium, tracing on, a full SIP call:
    the trace export followed by one canonical ``summary`` line."""
    scenario = _two_phones(
        n_nodes=16, topology="random", routing="aodv", seed=7, tx_range=250.0,
        area=(600.0, 600.0), loss_rate=0.05, mobility=True, tracing=True,
    )
    scenario.phones["alice"].place_call(BOB, duration=5.0)
    scenario.sim.run(scenario.sim.now + 12.0)
    scenario.stop()
    assert scenario.trace is not None
    summary = {
        "summary": scenario.stats.summary(),
        "events_processed": scenario.sim.events_processed,
        "pending_events": scenario.sim.pending_events,
    }
    return {"trace": scenario.trace.export_jsonl() + json.dumps(summary, sort_keys=True) + "\n"}


def netsim_check(f: Facts) -> Outcome:
    lines = f["trace"].count("\n")
    return _failed((not lines, "netsim trace probe produced no output")), (
        f"netsim determinism ok: {lines} trace lines byte-identical"
    )


GATES: dict[str, Gate] = {
    gate.name: gate
    for gate in (
        Gate("trace", trace_probe, trace_check),
        Gate("faults", faults_probe, faults_check),
        Gate("overload", overload_probe, overload_check),
        Gate("metrics", metrics_probe, metrics_check),
        Gate("rtp", rtp_probe, rtp_check),
        Gate("handover", handover_probe, handover_check),
        Gate("netsim", netsim_probe, netsim_check),
    )
}


def probe_code(name: str) -> str:
    """The ``python -c`` program that prints one gate's probe as JSON."""
    return (
        "import json, sys\nfrom repro.gates import GATES\n"
        f"sys.stdout.write(json.dumps(GATES[{name!r}].probe(), sort_keys=True))\n"
    )


def run_gate(gate: Gate) -> bool:
    """Probe in two fresh interpreters, compare, check; print the outcome."""
    failures: list[str] = []
    ok_line = ""
    try:
        out_a, out_b = fresh_pair(probe_code(gate.name))
    except subprocess.CalledProcessError as exc:
        failures.append(f"fresh-process {gate.name} probe crashed: {exc.stderr[-300:]}")
    else:
        facts_a = json.loads(out_a)
        if out_a != out_b:
            facts_b = json.loads(out_b)
            differing = sorted(key for key in facts_a if facts_a[key] != facts_b.get(key))
            failures.append(
                f"same-seed fresh-process {gate.name} runs differ "
                f"(PYTHONHASHSEED 1 vs 2) in: {', '.join(differing)}"
            )
        found, ok_line = gate.check(facts_a)
        failures.extend(found)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(ok_line)
    return not failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gates",
        description="Run the byte-identity gates, each probe in two fresh interpreters.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"gates to run (default: all, in order): {', '.join(GATES)}",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in GATES]
    if unknown:
        parser.error(f"unknown gate(s): {', '.join(unknown)}")
    results = [run_gate(GATES[name]) for name in args.names or GATES]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
