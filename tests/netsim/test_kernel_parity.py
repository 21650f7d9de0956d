"""Same-seed parity of the event schedule under every performance path.

Batched medium delivery is pure performance work — a seeded scenario must
produce *bit-identical* results whether broadcasts ride one kernel entry
or are scheduled per neighbour, and two runs of the same seed must agree.
The run is also pinned to the trace digest each former kernel recorded
for it: the heap kernel and the removed calendar queue produced the same
bytes, and the single heap kernel must keep producing them.
This mirrors ``test_determinism.py`` but turns the screws harder: the
scenario runs with tracing, a bursty-loss channel model, a timed fault
schedule (crash/restart + partition/heal) and bounded TX queues all
enabled, then compares complete Stats summaries, event/pending counts AND
the byte-for-byte trace export.

Identifier counters (call-ids, branches, packet uids, ...) are process-
global, so in-process reruns reset them via the global-state registry's
``reset_all`` — the fresh-interpreter variant of this gate
(``python -m repro.gates netsim``) needs no reset.
"""

import hashlib

import pytest

from repro.faults.channel import GilbertElliottChannel
from repro.faults.plan import FaultPlan
from repro.globalstate import registry
from repro.scenarios import ManetConfig, ManetScenario

# sha256 of ``run_scenario()``'s trace export as recorded under each kernel
# before the calendar queue was deleted (5,969,448 bytes; 31,079 events processed).
RECORDED_TRACE_SHA256 = {
    "heap": "3c5764c0d6b5252049b3e9b7dff0474e31fc1d2210400e4818035a4d8c8b7c8b",
    "calendar": "3c5764c0d6b5252049b3e9b7dff0474e31fc1d2210400e4818035a4d8c8b7c8b",
}


def build_plan() -> FaultPlan:
    return (
        FaultPlan()
        .crash(at=14.0, node=7)
        .partition(at=16.0, group_a=(0, 1, 2), group_b=(20, 21, 22), name="split")
        .heal(at=20.0, name="split")
        .restart(at=22.0, node=7)
        .with_channel(GilbertElliottChannel(p_gb=0.05, p_bg=0.3, loss_bad=0.8))
    )


def run_scenario(batch_delivery: bool = True) -> tuple[dict, int, int, str]:
    registry.reset_all()
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=25,
            topology="random",
            routing="aodv",
            seed=2026,
            tx_range=250.0,
            area=(700.0, 700.0),
            mobility=True,
            tracing=True,
            faults=build_plan(),
            tx_queue_capacity=16,
            tx_queue_policy="tail-drop",
            batch_delivery=batch_delivery,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(24, "bob")
    scenario.converge()
    scenario.phones["alice"].place_call("sip:bob@voicehoc.ch", duration=5.0)
    scenario.sim.run(scenario.sim.now + 15.0)
    scenario.stop()
    assert scenario.trace is not None
    return (
        scenario.stats.summary(),
        scenario.sim.events_processed,
        scenario.sim.pending_events,
        scenario.trace.export_jsonl(),
    )


class TestKernelParity:
    def test_batched_delivery_matches_per_neighbor_schedule(self):
        batched = run_scenario(batch_delivery=True)
        unbatched = run_scenario(batch_delivery=False)
        assert batched == unbatched

    @pytest.mark.parametrize("kernel", ("heap", "calendar"))
    def test_same_seed_same_run(self, kernel):
        first = run_scenario()
        assert first == run_scenario()
        digest = hashlib.sha256(first[3].encode()).hexdigest()
        assert digest == RECORDED_TRACE_SHA256[kernel]
        # The scenario exercised faults and shedding, not just happy paths.
        assert '"fault.node_crash"' in first[3]
        assert '"fault.partition"' in first[3]
        assert first[0]["traffic"]["total"]["packets"] > 100
