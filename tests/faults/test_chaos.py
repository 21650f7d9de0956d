"""Acceptance tests for the chaos harness (ISSUE 4 acceptance criteria).

A seeded chain scenario takes a mid-call relay crash plus an abrupt
gateway failure; the call workload must re-establish, and a same-seed
rerun must reproduce the identical fault schedule and applied-event log.
(Full byte-identical *trace* reruns are a fresh-process contract —
``python -m repro.gates faults`` checks that, like
``tests/trace/test_determinism.py`` does for plain tracing.)
"""

import pytest

from repro.faults import GilbertElliottChannel, FaultPlan, analyze_recovery
from repro.faults.harness import default_chaos_plan, run_chaos
from repro.scenarios import ManetConfig, ManetScenario


@pytest.fixture(scope="module")
def chaos_result():
    return run_chaos(hops=4, routing="aodv", seed=7)


class TestRecovery:
    def test_post_fault_call_reestablishes(self, chaos_result):
        assert chaos_result.recovered
        assert chaos_result.second_call.established

    def test_every_planned_fault_fired(self, chaos_result):
        injector = chaos_result.scenario.faults
        fired = [entry[1]["kind"] for entry in injector.applied]
        assert fired == [event.kind for event in chaos_result.plan.events]

    def test_gateway_failover_observed(self, chaos_result):
        report = chaos_result.report
        assert report.gateway_failover_latency
        assert all(latency > 0 for latency in report.gateway_failover_latency.values())

    def test_relay_reregisters_after_restart(self, chaos_result):
        assert chaos_result.report.reregistration_latency

    def test_route_rediscovery_recorded(self, chaos_result):
        assert chaos_result.report.route_rediscovery_latency


class TestDeterminism:
    def test_same_seed_same_schedule_and_applied_log(self, chaos_result):
        rerun = run_chaos(hops=4, routing="aodv", seed=7)
        assert rerun.plan.describe() == chaos_result.plan.describe()
        assert rerun.scenario.faults.applied == chaos_result.scenario.faults.applied

    def test_schedule_is_tracing_independent(self):
        untraced = run_chaos(hops=4, routing="aodv", seed=7, tracing=False)
        traced_plan = default_chaos_plan(5, t0=3.0)
        assert untraced.plan.describe() == traced_plan.describe()
        assert untraced.scenario.trace is None
        assert untraced.recovered


class TestScenarioIntegration:
    def test_channel_model_plugs_into_medium(self):
        channel = GilbertElliottChannel(p_gb=0.01, p_bg=0.5)
        plan = FaultPlan().with_channel(channel)
        scenario = ManetScenario(
            ManetConfig(n_nodes=3, seed=3, faults=plan)
        )
        assert scenario.medium.channel is channel

    def test_bursty_channel_still_delivers_calls(self):
        channel = GilbertElliottChannel(p_gb=0.02, p_bg=0.6, loss_bad=0.8)
        plan = FaultPlan().with_channel(channel)
        scenario = ManetScenario(
            ManetConfig(n_nodes=3, seed=3, spacing=70.0, faults=plan)
        )
        scenario.start()
        scenario.add_phone(0, "alice")
        scenario.add_phone(2, "bob")
        scenario.converge()
        record = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=3.0)
        assert record.established

    def test_analyze_recovery_counts_call_outcomes(self, chaos_result):
        records = chaos_result.scenario.call_records()
        report = analyze_recovery([], records)
        assert report.calls_placed == len(records) > 0
        assert report.calls_established >= 2
