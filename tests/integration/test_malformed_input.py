"""Malformed datagrams are counted drops, never exceptions out of the event loop.

Each case sends one hostile datagram into a converged 3-node chain and
then keeps simulating: the run must finish, the drop must be counted
(and traced), and the network must still carry a normal call afterwards.
"""

import pytest

from repro.scenarios import ManetConfig, ManetScenario


def converged_chain(routing: str, tracing: bool = False) -> ManetScenario:
    scenario = ManetScenario(
        ManetConfig(n_nodes=3, topology="chain", routing=routing, seed=1, tracing=tracing)
    )
    scenario.start()
    scenario.add_phone(0, "alice")
    scenario.add_phone(2, "bob")
    scenario.converge()
    return scenario


def assert_call_still_works(scenario: ManetScenario) -> None:
    record = scenario.call_and_wait("alice", "sip:bob@voicehoc.ch", duration=2.0)
    assert record.established


class TestRoutingControl:
    @pytest.mark.parametrize(
        ("routing", "port", "data"),
        [
            ("aodv", 654, b"\x01\x00"),  # RREQ type byte, then truncated
            ("olsr", 698, b"\x01"),  # shorter than the packet header
        ],
        ids=["aodv", "olsr"],
    )
    def test_truncated_datagram_is_counted_drop(self, routing, port, data):
        scenario = converged_chain(routing, tracing=True)
        scenario.nodes[0].send_udp(scenario.nodes[1].ip, port, port, data)
        scenario.sim.run(scenario.sim.now + 1.0)
        assert scenario.stats.counters[f"{routing}.malformed"] == 1
        assert scenario.trace is not None
        drops = [e for e in scenario.trace.events if e.kind == f"{routing}.malformed"]
        assert [e.node for e in drops] == [scenario.nodes[1].ip]
        assert drops[0].detail["src"] == scenario.nodes[0].ip
        assert_call_still_works(scenario)

    @pytest.mark.parametrize("routing", ["aodv", "olsr"])
    def test_clean_run_adds_no_counter(self, routing):
        scenario = converged_chain(routing)
        assert_call_still_works(scenario)
        assert f"{routing}.malformed" not in scenario.stats.to_dict()["counters"]


_HEADERS = (
    "Via: SIP/2.0/UDP {src}:5060;branch=z9hG4bK-hostile\r\n"
    "Max-Forwards: 70\r\n"
    "Call-ID: hostile@{src}\r\n"
    "Content-Length: 0\r\n"
)


class TestSipHeaders:
    @pytest.mark.parametrize(
        "head",
        [
            "INVITE sip:bob@voicehoc.ch SIP/2.0\r\n"
            "From: <sip:mallory@voicehoc.ch>;tag=m1\r\n"
            "To: <sip:bob@voicehoc.ch>\r\n"
            "CSeq: abc INVITE\r\n"
            "Contact: <sip:mallory@{src}:5060>\r\n",
            "REGISTER sip:voicehoc.ch SIP/2.0\r\n"
            "From: <sip:mallory@voicehoc.ch>;tag=m2\r\n"
            "To: <sip:mallory@voicehoc.ch>\r\n"
            "CSeq: 1 REGISTER\r\n"
            "Contact: <garbage\r\n",
            "INVITE sip:bob@voicehoc.ch SIP/2.0\r\n"
            "From: <sip:mallory@voicehoc.ch>\r\n"
            "To: <sip:bob@voicehoc.ch>\r\n"
            "CSeq: 1 INVITE\r\n",
            "INVITE sip:bob@voicehoc.ch SIP/2.0\r\n"
            "From: <sip:mallory@voicehoc.ch>;tag=m4\r\n"
            "CSeq: 1 INVITE\r\n",
        ],
        ids=[
            "invite-bad-cseq", "register-bad-contact", "invite-no-from-tag", "invite-no-to",
        ],
    )
    def test_bad_header_value_is_parse_error(self, head):
        scenario = converged_chain("aodv", tracing=True)
        src = scenario.nodes[0].ip
        wire = (head + _HEADERS).format(src=src) + "\r\n"
        scenario.nodes[0].send_udp(scenario.nodes[1].ip, 5060, 5060, wire.encode())
        scenario.sim.run(scenario.sim.now + 1.0)
        assert scenario.stats.counters["sip.parse_errors"] == 1
        assert scenario.trace is not None
        drops = [e for e in scenario.trace.events if e.kind == "sip.malformed"]
        assert [e.node for e in drops] == [scenario.nodes[1].ip]
        assert drops[0].detail["src"] == src
        assert drops[0].detail["error"]
        assert_call_still_works(scenario)

    def test_wildcard_contact_register_is_answered(self):
        # ``Contact: *`` is legal (RFC 3261 10.2.2) but names no address;
        # the SIPHoc proxy must refuse it, not crash on it.
        scenario = converged_chain("aodv")
        src = scenario.nodes[0].ip
        wire = (
            "REGISTER sip:voicehoc.ch SIP/2.0\r\n"
            "From: <sip:mallory@voicehoc.ch>;tag=m3\r\n"
            "To: <sip:mallory@voicehoc.ch>\r\n"
            "CSeq: 1 REGISTER\r\n"
            "Contact: *\r\n"
            "Expires: 0\r\n" + _HEADERS
        ).format(src=src) + "\r\n"
        scenario.nodes[0].send_udp(scenario.nodes[1].ip, 5060, 5060, wire.encode())
        scenario.sim.run(scenario.sim.now + 1.0)
        assert "sip.parse_errors" not in scenario.stats.to_dict()["counters"]
        assert_call_still_works(scenario)
