"""Behavioural tests for the related-work discovery baselines.

Every backend is exercised through the common interface on the same
4-node chain; scheme-specific properties (traffic shape, convergence
mode) get dedicated tests.
"""

import pytest

from repro.baselines import (
    FloodingSipBackend,
    ManetSlpBackend,
    MulticastSlpBackend,
    ProactiveHelloBackend,
)
from repro.baselines.flooding_sip import FLOODING_PORT
from repro.baselines.proactive_hello import HELLO_PORT
from repro.netsim import Node, Simulator, Stats, WirelessMedium, manet_ip, place_chain
from repro.routing import Aodv
from repro.routing.wire import Writer

BACKENDS = {
    "siphoc": lambda node, daemon: ManetSlpBackend(node, daemon),
    "multicast-slp": lambda node, daemon: MulticastSlpBackend(node),
    "flooding-register": lambda node, daemon: FloodingSipBackend(node),
    "proactive-hello": lambda node, daemon: ProactiveHelloBackend(node),
}


def build(factory, n=4, seed=71):
    sim = Simulator(seed=seed)
    stats = Stats()
    medium = WirelessMedium(sim, stats=stats, tx_range=150.0)
    nodes, backends = [], []
    for index in range(n):
        node = Node(sim, index, manet_ip(index), stats=stats)
        node.join_medium(medium)
        daemon = Aodv(node)
        daemon.start()
        backend = factory(node, daemon)
        backend.start()
        nodes.append(node)
        backends.append(backend)
    place_chain(nodes, 100.0)
    return sim, stats, nodes, backends


@pytest.mark.parametrize("name", sorted(BACKENDS))
class TestCommonInterface:
    def test_resolve_remote_user(self, name):
        sim, stats, nodes, backends = build(BACKENDS[name])
        backends[3].register_user("sip:bob@voicehoc.ch", nodes[3].ip, 5060)
        sim.run(12.0)  # proactive schemes need a refresh cycle
        results = []
        backends[0].resolve("sip:bob@voicehoc.ch", results.append, timeout=4.0)
        sim.run(20.0)
        assert results, f"{name}: no callback"
        binding = results[0]
        assert binding is not None, f"{name}: unresolved"
        assert binding.host == nodes[3].ip
        assert binding.port == 5060

    def test_resolve_unknown_user_returns_none(self, name):
        sim, stats, nodes, backends = build(BACKENDS[name])
        results = []
        backends[0].resolve("sip:ghost@voicehoc.ch", results.append, timeout=3.0)
        sim.run(20.0)
        assert results == [None]

    def test_resolve_own_user(self, name):
        sim, stats, nodes, backends = build(BACKENDS[name])
        backends[0].register_user("sip:me@voicehoc.ch", nodes[0].ip, 5060)
        results = []
        backends[0].resolve("sip:me@voicehoc.ch", results.append)
        sim.run(5.0)  # multicast SLP waits out its collection window
        assert results[0] is not None


class TestFloodingRegister:
    def test_registration_traffic_is_periodic(self):
        sim, stats, nodes, backends = build(BACKENDS["flooding-register"])
        backends[0].register_user("sip:a@h", nodes[0].ip, 5060)
        sim.run(35.0)
        # Initial flood + ~3 refresh floods, each re-flooded by 3 nodes.
        assert stats.count("flooding.registers_sent") >= 3
        assert stats.count("flooding.registers_forwarded") >= 6
        assert stats.traffic_bytes("flooding-register") > 0

    def test_all_nodes_learn_the_table(self):
        sim, stats, nodes, backends = build(BACKENDS["flooding-register"])
        for index, backend in enumerate(backends):
            backend.register_user(f"sip:u{index}@h", nodes[index].ip, 5060)
        sim.run(15.0)
        assert all(backend.table_size() == 4 for backend in backends)

    def test_bindings_expire_without_refresh(self):
        sim, stats, nodes, backends = build(BACKENDS["flooding-register"])
        backends[0].register_user("sip:a@h", nodes[0].ip, 5060)
        sim.run(5.0)
        backends[0].stop()  # no more refresh floods
        expiry = FloodingSipBackend.BINDING_LIFETIME
        sim.run(5.0 + expiry + 15.0)
        assert backends[3].table_size() == 0


class TestProactiveHello:
    def test_gossip_spreads_mappings(self):
        sim, stats, nodes, backends = build(BACKENDS["proactive-hello"])
        backends[0].register_user("sip:a@h", nodes[0].ip, 5060)
        sim.run(20.0)
        assert backends[3].table_size() == 1
        assert stats.traffic_bytes("proactive-hello") > 0

    def test_hello_size_grows_with_table(self):
        sim, stats, nodes, backends = build(BACKENDS["proactive-hello"])
        for index, backend in enumerate(backends):
            backend.register_user(f"sip:user{index}@voicehoc.ch", nodes[index].ip, 5060)
        sim.run(12.0)
        early_bytes = stats.traffic_bytes("proactive-hello")
        early_packets = stats.traffic_packets("proactive-hello")
        sim.run(24.0)
        late_bytes = stats.traffic_bytes("proactive-hello") - early_bytes
        late_packets = stats.traffic_packets("proactive-hello") - early_packets
        # Once everyone gossips everyone's mappings, per-packet size grows.
        assert late_bytes / max(1, late_packets) > early_bytes / max(1, early_packets)


def assert_still_resolves(sim, nodes, backends):
    results = []
    backends[0].resolve("sip:bob@h", results.append, timeout=4.0)
    sim.run(sim.now + 8.0)
    assert results and results[0] is not None
    assert results[0].host == nodes[3].ip


class TestHostileDatagrams:
    """A malformed datagram is a counted drop, never an exception out of the run."""

    def test_hello_with_non_utf8_aor_is_counted_drop(self):
        sim, stats, nodes, backends = build(BACKENDS["proactive-hello"])
        backends[3].register_user("sip:bob@h", nodes[3].ip, 5060)
        hostile = (
            Writer().ip(nodes[0].ip).u16(1).u8(1).u16(1)
            .u16(2).raw(b"\xff\xfe").ip(nodes[0].ip).u16(5060)
            .getvalue()
        )
        nodes[0].send_udp(nodes[1].ip, HELLO_PORT, HELLO_PORT, hostile)
        sim.run(12.0)
        assert stats.count("hello.parse_errors") == 1
        assert_still_resolves(sim, nodes, backends)

    @pytest.mark.parametrize(
        ("to", "contact"),
        [
            ("<sip:m@h>", "<garbage"),
            ("garbage<<", "<sip:m@10.0.0.1>"),
            ("<sip:m@h>", "<sip:m@10.0.0.1:abc>"),
        ],
        ids=["contact-unterminated", "to-garbage", "contact-bad-port"],
    )
    def test_register_with_bad_header_is_counted_drop(self, to, contact):
        sim, stats, nodes, backends = build(BACKENDS["flooding-register"])
        backends[3].register_user("sip:bob@h", nodes[3].ip, 5060)
        hostile = (
            "REGISTER sip:h SIP/2.0\r\n"
            f"Via: SIP/2.0/UDP {nodes[0].ip}:{FLOODING_PORT};branch=z9hG4bKhostile\r\n"
            "From: <sip:m@h>\r\n"
            f"To: {to}\r\n"
            "Call-ID: hostile\r\n"
            "CSeq: 1 REGISTER\r\n"
            "Max-Forwards: 2\r\n"
            f"Contact: {contact}\r\n"
            "Content-Length: 0\r\n\r\n"
        ).encode()
        nodes[0].send_udp(nodes[1].ip, FLOODING_PORT, FLOODING_PORT, hostile)
        sim.run(12.0)
        assert stats.count("flooding.parse_errors") == 1
        assert_still_resolves(sim, nodes, backends)


class TestSiphocBackendCharacter:
    def test_no_dedicated_discovery_traffic(self):
        sim, stats, nodes, backends = build(BACKENDS["siphoc"])
        backends[3].register_user("sip:bob@h", nodes[3].ip, 5060)
        sim.run(1.0)
        results = []
        backends[0].resolve("sip:bob@h", results.append, timeout=4.0)
        sim.run(10.0)
        assert results[0] is not None
        assert stats.traffic_bytes("slp") == 0
        assert stats.traffic_bytes("flooding-register") == 0
        assert stats.traffic_bytes("proactive-hello") == 0
