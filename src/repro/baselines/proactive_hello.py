"""Baseline: proactive HELLO mapping (Pico-SIP, O'Doherty [13]).

Every node periodically floods a compact HELLO carrying *all* SIP mappings
it knows (its own and learned ones — gossip-style), so the full mapping
table converges everywhere. The paper's criticism: resources are spent
proactively on mappings that may never be used, and the HELLO method is
not SIP-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import DiscoveryBackend, ResolveCallback, UserBinding
from repro.errors import CodecError
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST
from repro.routing.wire import Reader, Writer

HELLO_PORT = 5066


def _encode_hello(origin: str, seq: int, bindings: list[UserBinding]) -> bytes:
    writer = Writer()
    writer.ip(origin).u16(seq).u8(8)  # ttl field for app-level flooding
    writer.u16(len(bindings))
    for binding in bindings:
        aor = binding.aor.encode("utf-8")
        writer.u16(len(aor)).raw(aor)
        writer.ip(binding.host).u16(binding.port)
    return writer.getvalue()


def _decode_hello(data: bytes) -> tuple[str, int, int, list[UserBinding]]:
    reader = Reader(data)
    origin = reader.ip()
    seq = reader.u16()
    ttl = reader.u8()
    count = reader.u16()
    bindings = []
    for _ in range(count):
        length = reader.u16()
        try:
            aor = reader.raw(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"HELLO AoR is not valid UTF-8: {exc.reason}") from exc
        host = reader.ip()
        port = reader.u16()
        bindings.append(UserBinding(aor=aor, host=host, port=port))
    return origin, seq, ttl, bindings


def _rewrite_ttl(data: bytes, ttl: int) -> bytes:
    return data[:6] + bytes([ttl]) + data[7:]


@dataclass
class _HelloEntry:
    binding: UserBinding
    expires_at: float


class ProactiveHelloBackend(DiscoveryBackend):
    """Pico-SIP style proactive mapping dissemination."""

    name = "proactive-hello"
    HELLO_INTERVAL = 5.0
    BINDING_LIFETIME = 20.0
    FLOOD_HOPS = 8

    def __init__(self, node: Node, hello_interval: float | None = None) -> None:
        super().__init__(node)
        if hello_interval is not None:
            self.HELLO_INTERVAL = hello_interval
        self._socket = node.bind(HELLO_PORT, self._on_datagram)
        self._local: dict[str, UserBinding] = {}
        self._table: dict[str, _HelloEntry] = {}
        self._seen: dict[tuple[str, int], float] = {}
        self._seq = 0
        self._task = None

    def start(self) -> "ProactiveHelloBackend":
        if self._task is None:
            self._task = self.sim.schedule_periodic(
                self.HELLO_INTERVAL, self._send_hello, jitter=0.2
            )
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None
        self._socket.close()

    # -- API --------------------------------------------------------------------
    def register_user(self, aor: str, host: str, port: int) -> None:
        self._local[aor] = UserBinding(aor=aor, host=host, port=port)
        self._send_hello()

    def resolve(self, aor: str, callback: ResolveCallback, timeout: float = 2.0) -> None:
        binding = self._lookup(aor)
        if binding is not None:
            self.sim.schedule(0.0, callback, binding)
            return
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

    # -- dissemination ----------------------------------------------------------------
    def _send_hello(self) -> None:
        now = self.sim.now
        bindings = list(self._local.values()) + [
            entry.binding for entry in self._table.values() if entry.expires_at > now
        ]
        if not bindings:
            return
        self._seq = (self._seq + 1) & 0xFFFF
        self._seen[(self.node.ip, self._seq)] = now + 60.0
        data = _encode_hello(self.node.ip, self._seq, bindings)
        self.node.stats.increment("hello.messages_sent")
        self._socket.send(BROADCAST, HELLO_PORT, data, ttl=self.FLOOD_HOPS)

    def _on_datagram(self, data: bytes, src_ip: str, sport: int) -> None:
        try:
            origin, seq, ttl, bindings = _decode_hello(data)
        except CodecError:
            self.node.stats.increment("hello.parse_errors")
            return
        now = self.sim.now
        key = (origin, seq)
        if self._seen.get(key, 0.0) > now or origin == self.node.ip:
            return
        self._seen[key] = now + 60.0
        if len(self._seen) > 4096:
            self._seen = {k: v for k, v in self._seen.items() if v > now}
        for binding in bindings:
            if binding.aor not in self._local:
                self._table[binding.aor] = _HelloEntry(
                    binding=binding, expires_at=now + self.BINDING_LIFETIME
                )
        if ttl > 1:
            self.node.stats.increment("hello.messages_forwarded")
            self._socket.send(BROADCAST, HELLO_PORT, _rewrite_ttl(data, ttl - 1), ttl=ttl - 1)
