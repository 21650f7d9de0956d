"""OLSR — Optimized Link State Routing (RFC 3626 core).

Implements neighbor sensing via HELLO (asym -> sym two-way handshake),
multipoint relay (MPR) selection with the standard greedy cover, topology
dissemination via TC messages flooded through MPRs, duplicate suppression,
and shortest-path route calculation.

Crucially for SIPHoc, the daemon implements the *default forwarding
algorithm*: messages of unknown type (such as the SLP piggyback message,
type 130) are flooded through the MPR backbone without being understood.
This is what gives MANET SLP network-wide proactive dissemination under
OLSR at near-zero extra packet cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import CodecError
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST, Packet
from repro.routing.base import Route, RoutingProtocol
from repro.routing.messages import (
    LINK_MPR,
    LINK_SYM,
    OLSR_HELLO,
    OLSR_TC,
    HelloBody,
    OlsrMessage,
    TcBody,
    decode_hello_body,
    decode_olsr_packet,
    decode_tc_body,
    encode_hello_body,
    encode_olsr_packet,
    encode_tc_body,
)

OLSR_PORT = 698


@dataclass
class _LinkInfo:
    asym_until: float = 0.0
    sym_until: float = 0.0

    def is_sym(self, now: float) -> bool:
        return now < self.sym_until

    def is_heard(self, now: float) -> bool:
        return now < self.asym_until or now < self.sym_until


@dataclass
class _TopologyEntry:
    ansn: int
    selectors: set[str] = field(default_factory=set)
    expires_at: float = 0.0


class Olsr(RoutingProtocol):
    """An OLSR routing daemon bound to UDP port 698 on its node."""

    name = "olsr"
    port = OLSR_PORT

    HELLO_INTERVAL = 2.0
    TC_INTERVAL = 5.0
    NEIGHB_HOLD_TIME = 3 * HELLO_INTERVAL
    TOP_HOLD_TIME = 3 * TC_INTERVAL
    DUP_HOLD_TIME = 30.0

    def __init__(self, node: Node) -> None:
        super().__init__(node)
        self._links: dict[str, _LinkInfo] = {}
        self._two_hop: dict[str, tuple[set[str], float]] = {}
        self._mpr_set: set[str] = set()
        self._selectors: dict[str, float] = {}
        self._topology: dict[str, _TopologyEntry] = {}
        self._duplicates: dict[tuple[str, int, int], float] = {}
        self._msg_seq = itertools.count(1)
        self._pkt_seq = itertools.count(1)
        self._ansn = 0
        self._dirty = True
        self._hello_task = None
        self._tc_task = None
        self._retried_uids: set[int] = set()

    @property
    def topology_size(self) -> int:
        """Known TC-advertised origins (metrics gauge)."""
        return len(self._topology)

    @property
    def mpr_count(self) -> int:
        """Current multipoint-relay selection size (metrics gauge)."""
        return len(self._mpr_set)

    # -- lifecycle ------------------------------------------------------------
    def _on_start(self) -> None:
        self._hello_task = self.sim.schedule_periodic(
            self.HELLO_INTERVAL, self._send_hello, jitter=0.1, initial_delay=0.01
        )
        self._tc_task = self.sim.schedule_periodic(
            self.TC_INTERVAL, self._send_tc, jitter=0.1, initial_delay=0.5
        )

    def _on_stop(self) -> None:
        for task in (self._hello_task, self._tc_task):
            if task is not None:
                task.stop()
        self._hello_task = self._tc_task = None

    # -- IP-layer interface ------------------------------------------------------
    def dispatch(self, packet: Packet) -> None:
        if not self.started:
            return
        self._recompute_if_dirty()
        route = self.table.lookup(packet.dst, self.sim.now)
        if route is None:
            self.node.stats.increment("olsr.no_route")
            return
        self.node.link_send(route.next_hop, packet, self._on_link_failure)

    def route_to(self, destination: str):
        self._recompute_if_dirty()
        return super().route_to(destination)

    def _on_link_failure(self, next_hop: str, packet: Packet) -> None:
        if not self.started:
            return  # TX-failure feedback arriving after the daemon stopped
        link = self._links.get(next_hop)
        if link is not None:
            link.sym_until = 0.0
            link.asym_until = 0.0
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit("olsr.link_failure", self.node.ip, peer=next_hop)
        self._dirty = True
        if packet.dport == self.port:
            return
        if packet.uid in self._retried_uids:
            self.node.stats.increment("olsr.packet_lost")
            return
        if len(self._retried_uids) > 4096:
            self._retried_uids.clear()
        self._retried_uids.add(packet.uid)
        self.dispatch(packet)

    # -- neighbor queries ----------------------------------------------------------
    def symmetric_neighbors(self) -> list[str]:
        now = self.sim.now
        return [ip for ip, link in self._links.items() if link.is_sym(now)]

    def mpr_selectors(self) -> list[str]:
        now = self.sim.now
        return [ip for ip, expiry in self._selectors.items() if expiry > now]

    @property
    def mpr_set(self) -> set[str]:
        return set(self._mpr_set)

    # -- message emission --------------------------------------------------------------
    def next_message_seq(self) -> int:
        return next(self._msg_seq) & 0xFFFF

    def send_packet(self, messages: list[OlsrMessage]) -> None:
        data = encode_olsr_packet(next(self._pkt_seq) & 0xFFFF, messages)
        self.send_control(BROADCAST, data, ttl=1)

    def _send_hello(self) -> None:
        now = self.sim.now
        links: dict[int, list[str]] = {}
        for ip, link in self._links.items():
            if link.is_sym(now):
                code = LINK_MPR if ip in self._mpr_set else LINK_SYM
            elif link.is_heard(now):
                code = 1  # LINK_ASYM
            else:
                continue
            links.setdefault(code, []).append(ip)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "olsr.hello", self.node.ip,
                links={str(code): sorted(ips) for code, ips in sorted(links.items())},
            )
        body = encode_hello_body(HelloBody(links=links))
        message = OlsrMessage(
            msg_type=OLSR_HELLO,
            orig_ip=self.node.ip,
            seq=self.next_message_seq(),
            body=body,
            vtime=self.NEIGHB_HOLD_TIME,
            ttl=1,
        )
        self.send_packet([message])

    def _send_tc(self) -> None:
        selectors = self.mpr_selectors()
        if not selectors:
            return
        self._ansn = (self._ansn + 1) & 0xFFFF
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "olsr.tc", self.node.ip, ansn=self._ansn,
                selectors=sorted(selectors),
            )
        body = encode_tc_body(TcBody(ansn=self._ansn, neighbors=sorted(selectors)))
        message = OlsrMessage(
            msg_type=OLSR_TC,
            orig_ip=self.node.ip,
            seq=self.next_message_seq(),
            body=body,
            vtime=self.TOP_HOLD_TIME,
            ttl=255,
        )
        self.send_packet([message])

    # -- receive path ---------------------------------------------------------------------
    def _on_datagram(self, data: bytes, src_ip: str, sport: int) -> None:
        if not self.started:
            return
        try:
            _, messages = decode_olsr_packet(data)
        except CodecError as error:
            self._drop_malformed(error, src_ip)
            return
        forwarded: list[OlsrMessage] = []
        for message in messages:
            if message.orig_ip == self.node.ip:
                continue
            dup_key = (message.orig_ip, message.msg_type, message.seq)
            now = self.sim.now
            is_duplicate = self._duplicates.get(dup_key, 0.0) > now
            self._duplicates[dup_key] = now + self.DUP_HOLD_TIME
            if not is_duplicate:
                self._process_message(message, src_ip)
            if self._should_forward(message, src_ip, is_duplicate):
                forwarded.append(
                    OlsrMessage(
                        msg_type=message.msg_type,
                        orig_ip=message.orig_ip,
                        seq=message.seq,
                        body=message.body,
                        vtime=message.vtime,
                        ttl=message.ttl - 1,
                        hops=message.hops + 1,
                    )
                )
        if forwarded:
            self.node.stats.increment("olsr.messages_forwarded", len(forwarded))
            self.send_packet(forwarded)
        self._gc(self.sim.now)

    def _should_forward(self, message: OlsrMessage, src_ip: str, is_duplicate: bool) -> bool:
        """RFC 3626 default forwarding: relay once, only for MPR selectors."""
        if is_duplicate or message.ttl <= 1:
            return False
        if message.msg_type == OLSR_HELLO:
            return False
        link = self._links.get(src_ip)
        if link is None or not link.is_sym(self.sim.now):
            return False
        return src_ip in self._selectors and self._selectors[src_ip] > self.sim.now

    def _process_message(self, message: OlsrMessage, src_ip: str) -> None:
        if message.msg_type == OLSR_HELLO:
            self._process_hello(message, src_ip)
        elif message.msg_type == OLSR_TC:
            self._process_tc(message)
        # Unknown message types (e.g. SLP piggyback) are not processed here;
        # the netfilter INPUT hook has already seen them, and default
        # forwarding above floods them onward.

    def _process_hello(self, message: OlsrMessage, src_ip: str) -> None:
        now = self.sim.now
        hello = decode_hello_body(message.body)
        link = self._links.setdefault(src_ip, _LinkInfo())
        link.asym_until = now + self.NEIGHB_HOLD_TIME
        mentioned = hello.all_neighbors()
        if self.node.ip in mentioned:
            link.sym_until = now + self.NEIGHB_HOLD_TIME
        sym_neighbors = {
            ip
            for code in (LINK_SYM, LINK_MPR)
            for ip in hello.links.get(code, [])
            if ip != self.node.ip
        }
        self._two_hop[src_ip] = (sym_neighbors, now + self.NEIGHB_HOLD_TIME)
        if self.node.ip in hello.links.get(LINK_MPR, []):
            self._selectors[src_ip] = now + self.NEIGHB_HOLD_TIME
        else:
            self._selectors.pop(src_ip, None)
        self._select_mprs()
        self._dirty = True

    def _process_tc(self, message: OlsrMessage) -> None:
        tc = decode_tc_body(message.body)
        entry = self._topology.get(message.orig_ip)
        if entry is not None and _seq_newer(entry.ansn, tc.ansn):
            return  # stale ANSN
        self._topology[message.orig_ip] = _TopologyEntry(
            ansn=tc.ansn,
            selectors=set(tc.neighbors),
            expires_at=self.sim.now + message.vtime,
        )
        self._dirty = True

    # -- MPR selection -----------------------------------------------------------------------
    def _select_mprs(self) -> None:
        now = self.sim.now
        sym = set(self.symmetric_neighbors())
        coverage: dict[str, set[str]] = {}
        for neighbor in sorted(sym):
            two_hop, expiry = self._two_hop.get(neighbor, (set(), 0.0))
            if expiry <= now:
                continue
            coverage[neighbor] = {
                ip for ip in two_hop if ip != self.node.ip and ip not in sym
            }
        to_cover = set().union(*coverage.values()) if coverage else set()
        mprs: set[str] = set()
        covered: set[str] = set()
        # Nodes that are the sole reach to some 2-hop neighbor are mandatory.
        for target in to_cover:
            providers = [n for n, cov in coverage.items() if target in cov]
            if len(providers) == 1:
                mprs.add(providers[0])
        for mpr in sorted(mprs):
            covered |= coverage.get(mpr, set())
        # Greedily add the neighbor covering the most remaining 2-hop nodes.
        while covered < to_cover:
            best = max(
                (n for n in coverage if n not in mprs),
                key=lambda n: (len(coverage[n] - covered), n),
                default=None,
            )
            if best is None or not (coverage[best] - covered):
                break
            mprs.add(best)
            covered |= coverage[best]
        if mprs != self._mpr_set:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "olsr.mpr_change", self.node.ip,
                    old=sorted(self._mpr_set), new=sorted(mprs),
                )
        self._mpr_set = mprs

    # -- route calculation --------------------------------------------------------------------
    def _recompute_if_dirty(self) -> None:
        if self._dirty:
            self._recompute_routes()
            self._dirty = False

    def recompute_routes(self) -> None:
        """Force an immediate shortest-path recomputation (mostly for tests)."""
        self._recompute_routes()
        self._dirty = False

    def _recompute_routes(self) -> None:
        now = self.sim.now
        graph: dict[str, set[str]] = {}

        def add_edge(a: str, b: str) -> None:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set()).add(a)

        me = self.node.ip
        for neighbor in self.symmetric_neighbors():
            add_edge(me, neighbor)
        for neighbor, (two_hop, expiry) in self._two_hop.items():
            if expiry <= now:
                continue
            for far in two_hop:
                add_edge(neighbor, far)
        for origin, entry in self._topology.items():
            if entry.expires_at <= now:
                continue
            for selector in entry.selectors:
                add_edge(origin, selector)

        self.table.clear()
        # BFS from self: every edge has cost 1.
        frontier = [me]
        first_hop: dict[str, str] = {me: ""}
        depth = 0
        visited = {me}
        while frontier:
            depth += 1
            next_frontier = []
            for vertex in frontier:
                for peer in sorted(graph.get(vertex, ())):
                    if peer in visited:
                        continue
                    visited.add(peer)
                    hop = peer if vertex == me else first_hop[vertex]
                    first_hop[peer] = hop
                    self.table.upsert(
                        Route(destination=peer, next_hop=hop, hop_count=depth)
                    )
                    next_frontier.append(peer)
            frontier = next_frontier
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "olsr.route_recompute", self.node.ip, routes=len(self.table),
            )

    # -- housekeeping ------------------------------------------------------------------------
    def _gc(self, now: float) -> None:
        if len(self._duplicates) > 2048:
            self._duplicates = {
                key: expiry for key, expiry in self._duplicates.items() if expiry > now
            }


def _seq_newer(existing: int, candidate: int) -> bool:
    """True if ``existing`` ANSN is newer than ``candidate`` (wrap-aware)."""
    return ((existing - candidate) & 0xFFFF) < 0x8000 and existing != candidate
