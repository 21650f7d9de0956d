"""The determinism contract: scraping must not change what it observes.

These are the in-process halves of the ``python -m repro.gates metrics``
gate: same-seed runs with metrics on and off must agree on every Stats
counter and on the exact event schedule, and same-seed instrumented runs
must export byte-identical JSONL (after resetting the process-global
identifier streams that in-process reruns would otherwise advance).
"""

from repro.globalstate import registry as global_registry
from repro.scenarios import ManetConfig, ManetScenario


def run_workload(metrics_on: bool):
    global_registry.reset_all()
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=3,
            seed=11,
            metrics=metrics_on,
            metrics_interval=0.5,
            tx_queue_capacity=8,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(2, "bob")
    scenario.converge()
    scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=2.0)
    scenario.stop()
    return scenario


class TestNoObserverEffect:
    def test_metrics_do_not_change_stats_or_schedule(self):
        on = run_workload(metrics_on=True)
        off = run_workload(metrics_on=False)
        assert on.metrics is not None and on.metrics.snapshots
        assert off.metrics is None
        assert on.stats.summary() == off.stats.summary()
        assert on.sim.events_processed == off.sim.events_processed
        assert on.sim._kernel.seq == off.sim._kernel.seq
        assert on.sim.now == off.sim.now

    def test_same_seed_exports_are_byte_identical(self):
        first = run_workload(metrics_on=True).metrics.export_text()
        second = run_workload(metrics_on=True).metrics.export_text()
        assert first == second
        assert first.strip(), "export must not be empty"

    def test_scrape_times_are_exact_tick_multiples(self):
        scenario = run_workload(metrics_on=True)
        for index, snap in enumerate(scenario.metrics.snapshots, start=1):
            assert snap.t == index * 0.5
