"""Coverage-loss drill for the §5k mid-call multihomed handover policy.

One drill is a deterministic micro-scenario: alice and bob at the ends of
a MANET chain, both multihomed (wired uplink without the gateway role),
a call established over the mesh, and alice's radio administratively
killed mid-call by an :class:`~repro.faults.plan.InterfaceDown` fault.
With handover enabled the call must survive on the wired path — same RTP
session object, same SSRC — with a bounded inbound-media gap; with it
disabled (the baseline) media dies at the moment of coverage loss.

The rendered drill pair and :func:`legacy_fingerprint` are the
byte-identity surface of the ``python -m repro.gates handover`` gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import HandoverConfig, SiphocConfig
from repro.faults.plan import FaultPlan
from repro.scenarios import ManetConfig, ManetScenario
from repro.sip.ua import CallState

ALICE_AOR = "sip:alice@voicehoc.ch"
BOB_AOR = "sip:bob@voicehoc.ch"


@dataclass
class DrillConfig:
    """One coverage-loss drill (absolute sim times, deterministic)."""

    seed: int = 7
    hops: int = 3  # chain of hops+1 nodes; alice node 0, bob node `hops`
    routing: str = "aodv"
    handover: bool = True
    converge: float = 5.0  # routing/registration settle time before dialing
    loss_at: float = 10.0  # absolute time alice's radio dies (mid-call)
    call_duration: float = 16.0
    run_until: float = 32.0
    handover_config: HandoverConfig = field(default_factory=HandoverConfig)

    @property
    def n_nodes(self) -> int:
        return self.hops + 1


@dataclass
class DrillResult:
    """Outcome of one drill run."""

    handover_enabled: bool
    established: bool
    #: Inbound media still flowing at alice near the scheduled call end.
    survived: bool
    final_state: str
    attempted: int
    succeeded: int
    abandoned: int
    #: Same RtpSession/SSRC before and after the outage (never re-created).
    ssrc_stable: bool
    handover_latency_ms: float | None
    media_gap_ms: float | None
    #: JSONL of the handover-relevant trace slice (see TRACE_CATEGORIES).
    trace_jsonl: str
    ladder: str

    def render(self) -> str:
        lines = [
            f"mode:        {'handover' if self.handover_enabled else 'baseline'}",
            f"established: {self.established}",
            f"survived:    {self.survived}",
            f"final state: {self.final_state}",
            f"attempted/succeeded/abandoned: "
            f"{self.attempted}/{self.succeeded}/{self.abandoned}",
            f"ssrc stable: {self.ssrc_stable}",
            f"latency_ms:  {_fmt(self.handover_latency_ms)}",
            f"gap_ms:      {_fmt(self.media_gap_ms)}",
        ]
        return "\n".join(lines) + "\n"


#: Trace categories exported as the drill's byte-identity fingerprint.
TRACE_CATEGORIES = ("handover", "iface", "fault")


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def build_drill_scenario(cfg: DrillConfig) -> ManetScenario:
    siphoc = None
    if cfg.handover:
        siphoc = SiphocConfig(handover=cfg.handover_config)
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=cfg.n_nodes,
            topology="chain",
            routing=cfg.routing,
            seed=cfg.seed,
            multihomed=(0, cfg.hops),
            siphoc=siphoc,
            faults=FaultPlan().interface_down(at=cfg.loss_at, node=0),
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(cfg.hops, "bob")
    return scenario


def run_drill(cfg: DrillConfig | None = None) -> DrillResult:
    cfg = cfg or DrillConfig()
    scenario = build_drill_scenario(cfg)
    sim = scenario.sim
    scenario.converge(cfg.converge)
    alice = scenario.phones["alice"]
    call = alice.place_call(BOB_AOR, duration=cfg.call_duration)
    sim.run_until(
        lambda: call.state in (CallState.ESTABLISHED, CallState.FAILED),
        timeout=cfg.loss_at - sim.now,
        step=0.1,
    )
    established = call.state is CallState.ESTABLISHED
    session = alice.media_session(call.call_id)
    ssrc_before = session.ssrc if session is not None else None
    call_end = sim.now + cfg.call_duration
    sim.run(cfg.run_until)

    # Survival: alice heard inbound media close to the scheduled call end —
    # the session object reference is ours, so it stays readable after the
    # phone retires the call.
    survived = bool(
        established
        and session is not None
        and session.last_rx_at is not None
        and call_end - session.last_rx_at <= 1.0
    )
    ssrc_stable = bool(
        session is not None
        and ssrc_before is not None
        and session.ssrc == ssrc_before
    )
    stats = scenario.stats.counters
    policy = scenario.stacks[0].handover
    latency_ms = None
    gap_ms = None
    if policy is not None and policy.latencies:
        latency_ms = round(policy.latencies[0] * 1000, 3)
    if policy is not None and policy.media_gaps:
        gap_ms = round(policy.media_gaps[0] * 1000, 3)
    trace = scenario.trace
    assert trace is not None
    slice_events = [
        event for event in trace.events if event.category in TRACE_CATEGORIES
    ]
    trace_jsonl = "".join(event.to_json_line() + "\n" for event in slice_events)
    from repro.trace.ladder import sip_ladder

    ladder = sip_ladder(trace.events, call.call_id)
    scenario.stop()
    return DrillResult(
        handover_enabled=cfg.handover,
        established=established,
        survived=survived,
        final_state=call.state.name,
        attempted=stats.get("handover.attempted", 0),
        succeeded=stats.get("handover.succeeded", 0),
        abandoned=stats.get("handover.abandoned", 0),
        ssrc_stable=ssrc_stable,
        handover_latency_ms=latency_ms,
        media_gap_ms=gap_ms,
        trace_jsonl=trace_jsonl,
        ladder=ladder,
    )


def legacy_fingerprint(seed: int = 7) -> str:
    """Defaults-off guard: a legacy scenario's full trace export.

    No multihomed nodes, no handover config, no interface faults — the
    §5k machinery must contribute *zero* events here, and the export must
    be byte-identical across fresh interpreters.
    """
    scenario = ManetScenario(
        ManetConfig(
            n_nodes=4,
            topology="chain",
            routing="aodv",
            seed=seed,
            tracing=True,
        )
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(3, "bob")
    scenario.converge(5.0)
    alice = scenario.phones["alice"]
    alice.place_call(BOB_AOR, duration=6.0)
    scenario.sim.run(18.0)
    trace = scenario.trace
    assert trace is not None
    export = trace.export_jsonl()
    scenario.stop()
    return export
