"""Baseline: broadcast REGISTER flooding (Leggio et al. [12]).

Every node periodically floods a real SIP REGISTER message network-wide at
the application layer. All nodes maintain the full mapping table, so
lookups are local — but the registration traffic grows with (nodes x
refresh rate x network size), and the scheme is *SIP-incompatible*: stock
clients do not broadcast REGISTERs, which is exactly the criticism the
paper levels at this approach.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import DiscoveryBackend, ResolveCallback, UserBinding
from repro.errors import SipParseError
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST
from repro.sip.message import Headers, SipRequest, parse_message
from repro.sip.uri import NameAddr, SipUri

FLOODING_PORT = 5065


@dataclass
class _FloodEntry:
    binding: UserBinding
    expires_at: float


class FloodingSipBackend(DiscoveryBackend):
    """REGISTER-flooding user location."""

    name = "flooding-register"
    REFRESH_INTERVAL = 10.0
    BINDING_LIFETIME = 30.0
    FLOOD_HOPS = 8

    def __init__(self, node: Node, refresh_interval: float | None = None) -> None:
        super().__init__(node)
        if refresh_interval is not None:
            self.REFRESH_INTERVAL = refresh_interval
        self._socket = node.bind(FLOODING_PORT, self._on_datagram)
        self._local: dict[str, UserBinding] = {}
        self._table: dict[str, _FloodEntry] = {}
        self._seen: dict[str, float] = {}
        self._task = None
        self._register_seq = 0

    def start(self) -> "FloodingSipBackend":
        if self._task is None:
            self._task = self.sim.schedule_periodic(
                self.REFRESH_INTERVAL, self._broadcast_all, jitter=0.2
            )
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None
        self._socket.close()

    # -- API ------------------------------------------------------------------
    def register_user(self, aor: str, host: str, port: int) -> None:
        binding = UserBinding(aor=aor, host=host, port=port)
        self._local[aor] = binding
        self._flood_register(binding)

    def resolve(self, aor: str, callback: ResolveCallback, timeout: float = 2.0) -> None:
        binding = self._lookup(aor)
        if binding is not None:
            self.sim.schedule(0.0, callback, binding)
            return
        # No query mechanism exists in this scheme: wait out one refresh.
        self.sim.schedule(timeout, lambda: callback(self._lookup(aor)))

    def _lookup(self, aor: str) -> UserBinding | None:
        local = self._local.get(aor)
        if local is not None:
            return local
        entry = self._table.get(aor)
        if entry is not None and entry.expires_at > self.sim.now:
            return entry.binding
        return None

    def table_size(self) -> int:
        now = self.sim.now
        return len(self._local) + sum(
            1 for entry in self._table.values() if entry.expires_at > now
        )

    # -- flooding ------------------------------------------------------------------
    def _broadcast_all(self) -> None:
        for binding in self._local.values():
            self._flood_register(binding)

    def _flood_register(self, binding: UserBinding) -> None:
        self._register_seq += 1
        aor_uri = SipUri.parse(binding.aor)
        headers = Headers()
        identity = NameAddr(uri=aor_uri)
        headers.add("Via", f"SIP/2.0/UDP {self.node.ip}:{FLOODING_PORT};branch=z9hG4bKfl{self._register_seq}")
        headers.add("From", str(identity))
        headers.add("To", str(identity))
        headers.add("Call-ID", f"flood-{self.node.ip}-{self._register_seq}")
        headers.add("CSeq", f"{self._register_seq} REGISTER")
        headers.add("Max-Forwards", str(self.FLOOD_HOPS))
        headers.add(
            "Contact",
            f"<{SipUri(user=aor_uri.user, host=binding.host, port=binding.port)}>",
        )
        headers.add("Expires", str(int(self.BINDING_LIFETIME)))
        request = SipRequest("REGISTER", SipUri(user=None, host=aor_uri.host), headers=headers)
        self.node.stats.increment("flooding.registers_sent")
        self._socket.send(BROADCAST, FLOODING_PORT, request.serialize(), ttl=self.FLOOD_HOPS)

    def _on_datagram(self, data: bytes, src_ip: str, sport: int) -> None:
        # The To/Contact accessors parse lazily and raise on garbage, so
        # they sit in the same guard as the framing parse.
        try:
            message = parse_message(data)
            if not isinstance(message, SipRequest) or message.method != "REGISTER":
                return
            to = message.to
            contact = message.contact
        except SipParseError:
            self.node.stats.increment("flooding.parse_errors")
            return
        call_id = message.call_id or ""
        now = self.sim.now
        if self._seen.get(call_id, 0.0) > now:
            return
        self._seen[call_id] = now + 60.0
        if len(self._seen) > 4096:
            self._seen = {k: v for k, v in self._seen.items() if v > now}
        if to is None or contact is None:
            return
        aor = to.uri.address_of_record
        if aor not in self._local:
            self._table[aor] = _FloodEntry(
                binding=UserBinding(
                    aor=aor,
                    host=contact.uri.host,
                    port=contact.uri.effective_port(),
                ),
                expires_at=now + self.BINDING_LIFETIME,
            )
        # Application-layer re-flood (decrementing Max-Forwards).
        raw = message.headers.get("Max-Forwards")
        try:
            remaining = int(raw) if raw is not None else 0
        except ValueError:
            remaining = 0
        if remaining > 1:
            message.headers.set("Max-Forwards", str(remaining - 1))
            self.node.stats.increment("flooding.registers_forwarded")
            self._socket.send(
                BROADCAST, FLOODING_PORT, message.serialize(), ttl=remaining - 1
            )
