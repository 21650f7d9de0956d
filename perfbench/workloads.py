"""The benchmark's three workloads: scenario generators plus the output check.

Every workload is open loop in simulated time: the generator draws the call
schedule from the workload seed and books each call at a fixed sim-time
instant, whether earlier calls have finished or not. The simulated clock is
the schedule, so the generator never runs late. The program under test only
receives the generated scenario; all workload randomness comes from a
``random.Random`` seeded with the workload seed, never from the simulator's
own RNG.

A run is split into the two phases the benchmark times separately:

* ``prepare(seed)`` builds and starts the scenario, adds the phones,
  runs the warm-up/convergence period and books the call schedule
  (``setup_s``);
* :meth:`Run.simulate` runs from the first booked call to the end of the
  drain (``host_us_per_event``).

:meth:`Run.finish` then checks the outputs and reduces the run to its
call metrics and a fingerprint of everything the simulation produced.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.core.config import SipAccount
from repro.experiments.city import build_city_scenario
from repro.scenarios import ManetConfig, ManetScenario
from repro.sip.ua import CallState, UserAgent

#: Traffic classes whose transmissions are routing or service-discovery
#: control traffic (SLP rides inside AODV/OLSR or on its own port).
CONTROL_CLASSES = ("aodv", "olsr", "slp")

#: Sim-seconds the measured phase runs past the last scheduled hang-up, so
#: late calls finish (or fail) before measurement, as in C1.
DRAIN = 20.0

#: Longest a SIP transaction may stay live after its last message: Timer J
#: (64 * T1 = 32 s) for non-INVITE server transactions. The output check
#: lets the scenario settle this long (plus a second) after the drain, with
#: mobility stopped, before it requires every transaction to be gone.
TXN_LIFETIME = 32.0


@dataclass
class Run:
    """One prepared scenario with its booked call schedule."""

    scenario: ManetScenario
    end: float  # sim time at which the drain ends
    placed: int  # calls booked on the schedule
    internet_uas: list[UserAgent] = field(default_factory=list)
    events_before: int = 0
    control_before: int = 0

    def mark_start(self) -> None:
        """Snapshot the counters the measured phase is reported against."""
        self.events_before = self.scenario.sim.events_processed
        self.control_before = _control_packets(self.scenario)

    def simulate(self) -> None:
        """The measured phase: first booked call to the end of the drain."""
        self.scenario.sim.run(self.end)

    @property
    def events(self) -> int:
        """Simulator events processed during the measured phase."""
        return self.scenario.sim.events_processed - self.events_before

    def finish(self) -> "Outcome":
        """Check the run's outputs and reduce it to metrics + fingerprint.

        Call outcomes and the fingerprint are taken at the end of the drain.
        The scenario then settles for :data:`TXN_LIFETIME` (unmeasured, with
        mobility stopped) and must have no SIP transaction left live.
        """
        scenario = self.scenario
        records = scenario.call_records()
        placed = [r for r in records if r.direction == "out"]
        established = [r for r in placed if r.established]
        problems = []
        if len(placed) != self.placed:
            problems.append(f"{len(placed)} calls placed, {self.placed} booked")
        unfinished = [r for r in records if r.ended_at is None]
        if unfinished:
            problems.append(f"{len(unfinished)} call legs not final at the end of the drain")
        delays = sorted(
            r.post_dial_delay * 1000.0 for r in established if r.post_dial_delay is not None
        )
        scores = sorted(r.quality.mos for r in records if r.quality is not None)
        control = _control_packets(scenario) - self.control_before
        fp = fingerprint(scenario)
        if scenario.mobility is not None:
            scenario.mobility.stop()
        scenario.sim.run(scenario.sim.now + TXN_LIFETIME + 1.0)
        live = _live_transactions(scenario, self.internet_uas)
        if live:
            problems.append(f"{live} SIP transactions live {TXN_LIFETIME:.0f} s after the drain")
        scenario.stop()
        metrics = {
            "success_ratio": len(established) / len(placed) if placed else 0.0,
            "setup_delay_p50_ms": _nearest_rank(delays, 50),
            "setup_delay_p95_ms": _nearest_rank(delays, 95),
            "mos_p50": _nearest_rank(scores, 50),
            "ctrl_pkts_per_call": control / self.placed,
        }
        return Outcome(
            placed=len(placed),
            established=len(established),
            problems=problems,
            metrics=metrics,
            fingerprint=fp,
        )


@dataclass
class Outcome:
    placed: int
    established: int
    problems: list[str]
    metrics: dict[str, float]
    fingerprint: dict

    @property
    def digest(self) -> str:
        return digest(self.fingerprint)


def _nearest_rank(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of a sorted list; 0.0 for an empty one."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _control_packets(scenario: ManetScenario) -> int:
    return sum(scenario.stats.traffic_packets(name) for name in CONTROL_CLASSES)


def _live_transactions(scenario: ManetScenario, internet_uas: list[UserAgent]) -> int:
    layers = [phone.ua.transactions for phone in scenario.phones.values()]
    layers += [ua.transactions for ua in internet_uas]
    cores = [stack.proxy.core for stack in scenario.stacks]
    cores += [provider.proxy for provider in scenario.providers.values()]
    for core in cores:
        layers += [leg.transactions for leg in core.legs.values()]
    return sum(layer.active_transactions for layer in layers)


def fingerprint(scenario: ManetScenario) -> dict:
    """Everything the simulation produced that a speed-up must not change:
    events, packets and bytes per traffic class, and every call leg's
    outcome and timing."""
    calls = []
    for name in sorted(scenario.phones):
        for r in scenario.phones[name].history:
            calls.append(
                [name, r.direction, r.peer, r.placed_at, r.ringing_at,
                 r.established_at, r.ended_at, r.final_state, r.failure_status,
                 r.quality.mos if r.quality is not None else None]
            )
    summary = scenario.stats.summary()
    return {
        "events": scenario.sim.events_processed,
        "now": scenario.sim.now,
        "traffic": summary["traffic"],
        "calls": calls,
    }


def digest(fp: dict) -> str:
    """Short stable hash of a fingerprint (floats keep every digit)."""
    blob = json.dumps(fp, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _answer_after(ua: UserAgent, delay: float) -> None:
    """Internet callee: ring, then pick up ``delay`` seconds later."""

    def on_invite(call) -> None:
        call.ring()
        ua.node.sim.schedule(delay, _pick_up, call)

    ua.on_invite = on_invite


def _pick_up(call) -> None:
    if call.state is CallState.RINGING:
        call.answer()


class City:
    """C1 shape: a mobile random city, reactive AODV, no Internet.

    RREQ floods and the SLP extensions piggybacked on them dominate, so the
    routing codec, the netfilter hooks and medium broadcast do most of the
    work.
    """

    name = "city"
    N_NODES = 500
    N_CALLS = 12
    WARMUP = 5.0
    CALL_SPACING = 2.0
    CALL_DURATION = 5.0
    MAX_CALL_DISTANCE = 1200.0  # neighbourhood calls, as in C1
    MIN_DEGREE = 4

    def prepare(self, seed: int) -> Run:
        rng = random.Random(seed)
        scenario = build_city_scenario(n_nodes=self.N_NODES, seed=seed)
        pairs = self._pick_pairs(scenario, rng)
        for index in sorted({i for pair in pairs for i in pair}):
            scenario.add_phone(index, f"user{index}")
        scenario.start()
        scenario.converge(self.WARMUP)
        sim = scenario.sim
        start = sim.now
        for order, (caller, callee) in enumerate(pairs):
            sim.schedule_at(
                start + order * self.CALL_SPACING,
                scenario.phones[f"user{caller}"].place_call,
                f"sip:user{callee}@voicehoc.ch",
                self.CALL_DURATION,
            )
        last_hangup = start + (len(pairs) - 1) * self.CALL_SPACING + self.CALL_DURATION
        run = Run(scenario, end=last_hangup + DRAIN, placed=len(pairs))
        run.mark_start()
        return run

    def _pick_pairs(self, scenario: ManetScenario, rng: random.Random) -> list[tuple[int, int]]:
        """Caller/callee pairs within ``MAX_CALL_DISTANCE`` that have a
        multi-hop path when the schedule is drawn.

        Both ends need ``MIN_DEGREE`` radio neighbours: a fringe node can
        drift out of the connected component before its call is placed, and
        the 404 that follows is correct behaviour, not a workload the
        benchmark should count as a failed operation.
        """
        nodes = scenario.nodes
        medium = scenario.medium
        limit_sq = self.MAX_CALL_DISTANCE**2

        def dense(node) -> bool:
            return len(medium.neighbors(node)) >= self.MIN_DEGREE

        pairs: list[tuple[int, int]] = []
        while len(pairs) < self.N_CALLS:
            caller = rng.randrange(len(nodes))
            if not dense(nodes[caller]):
                continue
            cx, cy = nodes[caller].position
            candidates = [
                node.node_id
                for node in _reachable(medium, nodes[caller])
                if node is not nodes[caller]
                and (node.position[0] - cx) ** 2 + (node.position[1] - cy) ** 2 <= limit_sq
                and dense(node)
            ]
            if candidates:
                pairs.append((caller, candidates[rng.randrange(len(candidates))]))
        return pairs


def _reachable(medium, source) -> list:
    """Nodes connected to ``source`` over the current unit-disk graph, in
    breadth-first order."""
    seen = {source.node_id}
    order = [source]
    for node in order:
        for neighbor in medium.neighbors(node):
            if neighbor.node_id not in seen:
                seen.add(neighbor.node_id)
                order.append(neighbor)
    return order


class Media:
    """Four concurrent long calls over a static 3x3 AODV grid.

    Adaptive playout and RED(2) redundancy run on every stream; 5 % static
    link loss is hidden by the default MAC retries. Routes are found once
    and never break, so RTP, the jitter buffer, unicast forwarding and the
    20 ms frame timers do the work.
    """

    name = "media"
    N_CALLS = 4

    def __init__(self, talk_time: float = 120.0) -> None:
        self.talk_time = talk_time

    def prepare(self, seed: int) -> Run:
        rng = random.Random(seed)
        scenario = ManetScenario(
            ManetConfig(
                n_nodes=9,
                topology="grid",
                routing="aodv",
                seed=seed,
                loss_rate=0.05,
                connection_provider=False,
                media_jitter_policy="adaptive",
                media_redundancy=2,
            )
        )
        order = list(range(9))
        rng.shuffle(order)
        pairs = [(order[2 * i], order[2 * i + 1]) for i in range(self.N_CALLS)]
        for index in sorted({i for pair in pairs for i in pair}):
            scenario.add_phone(index, f"user{index}")
        scenario.start()
        scenario.converge()
        sim = scenario.sim
        start = sim.now
        offsets = sorted(rng.uniform(0.0, 1.0) for _ in pairs)
        for offset, (caller, callee) in zip(offsets, pairs):
            sim.schedule_at(
                start + offset,
                scenario.phones[f"user{caller}"].place_call,
                f"sip:user{callee}@voicehoc.ch",
                self.talk_time,
            )
        end = start + offsets[-1] + self.talk_time + DRAIN
        run = Run(scenario, end=end, placed=len(pairs))
        run.mark_start()
        return run


class Signaling:
    """An open-loop stream of short calls over a 25-node OLSR grid with one
    Internet gateway and the ``siphoc.ch`` provider; one call in four goes
    to an Internet callee through the tunnel."""

    name = "signaling"
    DOMAIN = "siphoc.ch"
    RATE = 4.0  # calls placed per sim-second
    CALL_DURATION = 2.0
    INTERNET_CALLEES = 4
    WARMUP_LIMIT = 120.0

    def __init__(self, side: int = 5, n_calls: int = 200) -> None:
        self.side = side
        self.n_calls = n_calls

    def prepare(self, seed: int) -> Run:
        rng = random.Random(seed)
        n_nodes = self.side * self.side
        scenario = ManetScenario(
            ManetConfig(
                n_nodes=n_nodes,
                topology="grid",
                routing="olsr",
                seed=seed,
                internet_gateways=1,
                providers=(self.DOMAIN,),
            )
        )
        scenario.start()
        provider = scenario.providers[self.DOMAIN]
        internet_uas = []
        for k in range(self.INTERNET_CALLEES):
            ua = provider.create_user(f"net{k}")
            _answer_after(ua, 0.2)
            internet_uas.append(ua)
        phones = list(range(n_nodes - 1))  # every node but the gateway
        for index in phones:
            scenario.add_phone(
                index,
                f"u{index}",
                account=SipAccount(username=f"u{index}", domain=self.DOMAIN),
                media=False,
            )
        stacks = [scenario.stacks[i] for i in phones]

        def warmed_up() -> bool:
            return all(
                stack.connection is not None
                and stack.connection.connected
                and stack.proxy.upstream_registrations.get(f"sip:u{i}@{self.DOMAIN}")
                for i, stack in zip(phones, stacks)
            )

        if not scenario.sim.run_until(warmed_up, timeout=self.WARMUP_LIMIT, step=0.5):
            raise RuntimeError("signaling warm-up: not every phone's tunnel came up")
        sim = scenario.sim
        start = sim.now
        spacing = 1.0 / self.RATE
        for k in range(self.n_calls):
            caller = rng.choice(phones)
            if k % 4 == 3:
                target = f"sip:net{rng.randrange(self.INTERNET_CALLEES)}@{self.DOMAIN}"
            else:
                callee = rng.choice([i for i in phones if i != caller])
                target = f"sip:u{callee}@{self.DOMAIN}"
            sim.schedule_at(
                start + k * spacing,
                scenario.phones[f"u{caller}"].place_call,
                target,
                self.CALL_DURATION,
            )
        last_hangup = start + (self.n_calls - 1) * spacing + self.CALL_DURATION
        run = Run(
            scenario,
            end=last_hangup + DRAIN,
            placed=self.n_calls,
            internet_uas=internet_uas,
        )
        run.mark_start()
        return run


#: Workload name -> scenario generator; each has ``prepare(seed) -> Run``.
WORKLOADS = {w.name: w for w in (City, Media, Signaling)}
