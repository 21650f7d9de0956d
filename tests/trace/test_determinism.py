"""Tracing determinism: byte-identical exports, no observer effect.

Traces exist to debug divergence, so they must never cause it. Two seeded
runs must export byte-identical JSONL, and turning tracing on must not
change what the simulation itself does (no extra scheduled events, no RNG
draws — the Stats output stays bit-identical to an untraced run).

Protocol identifiers (Call-ID, Via branch, packet uid) are allocated from
process-global counters, so the byte-identity contract is between *runs of
the same program*: the comparison below launches two fresh interpreters.
"""

from repro.gates import fresh_pair
from repro.scenarios import build_chain_call_scenario

_RUN_SCRIPT = """
from repro.scenarios import build_chain_call_scenario
scenario = build_chain_call_scenario(hops=2, routing="aodv", seed=11, tracing=True)
scenario.converge()
record = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=2.0)
assert record.established
scenario.stop()
import sys
sys.stdout.write(scenario.trace.export_jsonl())
"""


def run_traced_call(tracing: bool = True):
    scenario = build_chain_call_scenario(hops=2, routing="aodv", seed=11, tracing=tracing)
    scenario.converge()
    record = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=2.0)
    assert record.established
    scenario.stop()
    return scenario


def test_same_seed_exports_byte_identical_jsonl():
    first, second = fresh_pair(_RUN_SCRIPT)
    assert first  # the trace is non-trivial...
    assert first == second  # ...and reproduced byte for byte


def test_tracing_has_no_observer_effect():
    traced = run_traced_call(tracing=True)
    untraced = run_traced_call(tracing=False)
    assert untraced.trace is None
    assert traced.stats.summary() == untraced.stats.summary()
    assert traced.sim.events_processed == untraced.sim.events_processed


def test_trace_covers_the_whole_stack():
    scenario = run_traced_call()
    categories = {event.category for event in scenario.trace}
    assert {"packet", "aodv", "slp", "sip"} <= categories
    # timestamps are simulation time, monotonically non-decreasing with seq
    events = scenario.trace.events
    assert all(a.t <= b.t for a, b in zip(events, events[1:]))
    assert [event.seq for event in events] == list(range(1, len(events) + 1))
