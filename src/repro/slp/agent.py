"""Standard SLP agent over UDP port 427 (multicast emulated by flooding).

This is the *baseline* MANET service discovery the related work measured
and found wanting ([7] in the paper): every lookup floods a SrvRqst through
the whole network at the application layer, and every reply is a dedicated
unicast — which in a reactive MANET additionally triggers route discovery.
MANET SLP (in ``repro.core``) exists to avoid exactly this traffic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import CodecError
from repro.netsim.node import Node
from repro.netsim.packet import BROADCAST, PORT_SLP
from repro.slp.messages import (
    SrvAck,
    SrvDeReg,
    SrvReg,
    SrvRply,
    SrvRqst,
    UrlEntry,
    decode_slp,
    encode_slp,
)
from repro.slp.service import ServiceEntry, ServiceUrl

LookupCallback = Callable[[list[ServiceEntry]], None]


@dataclass
class _PendingLookup:
    service_type: str
    results: dict[str, ServiceEntry] = field(default_factory=dict)
    callback: LookupCallback | None = None
    done: bool = False


class SlpAgent:
    """Combined SLP user/service agent with application-layer flooding."""

    DEFAULT_LIFETIME = 60.0
    LOOKUP_TIMEOUT = 2.0
    FLOOD_HOPS = 8

    def __init__(self, node: Node, rebroadcast: bool = True) -> None:
        self.node = node
        self.sim = node.sim
        self.rebroadcast = rebroadcast
        self._socket = node.bind(PORT_SLP, self._on_datagram)
        self._local: dict[str, ServiceEntry] = {}
        self._xid = itertools.count(1)
        self._pending: dict[int, _PendingLookup] = {}
        self._seen: dict[tuple[str, int], float] = {}

    def close(self) -> None:
        self._socket.close()

    # -- service agent side ------------------------------------------------------
    def register(
        self,
        url: ServiceUrl | str,
        attributes: dict[str, str] | None = None,
        lifetime: float = DEFAULT_LIFETIME,
    ) -> ServiceEntry:
        parsed = ServiceUrl.parse(url) if isinstance(url, str) else url
        entry = ServiceEntry(
            url=parsed,
            attributes=dict(attributes or {}),
            lifetime=lifetime,
            expires_at=self.sim.now + lifetime,
            origin=self.node.ip,
        )
        self._local[entry.key()] = entry
        return entry

    def deregister(self, url: ServiceUrl | str) -> None:
        key = str(ServiceUrl.parse(url) if isinstance(url, str) else url)
        self._local.pop(key, None)

    def local_services(self) -> list[ServiceEntry]:
        now = self.sim.now
        return [entry for entry in self._local.values() if entry.is_valid(now)]

    # -- user agent side -----------------------------------------------------------
    def find_services(
        self,
        service_type: str,
        predicate: str = "",
        timeout: float = LOOKUP_TIMEOUT,
        callback: LookupCallback | None = None,
    ) -> int:
        """Flood a SrvRqst; ``callback(entries)`` fires when ``timeout`` expires.

        Returns the transaction id (useful for tests). Local matches are
        included in the results immediately.
        """
        xid = next(self._xid)
        pending = _PendingLookup(service_type=service_type, callback=callback)
        now = self.sim.now
        for entry in self._local.values():
            if entry.is_valid(now) and entry.matches(service_type, predicate):
                pending.results[entry.key()] = entry
        self._pending[xid] = pending
        request = SrvRqst(
            xid=xid,
            service_type=service_type,
            predicate=predicate,
            requester=self.node.ip,
        )
        self._seen[(self.node.ip, xid)] = now + 30.0
        self._socket.send(BROADCAST, PORT_SLP, encode_slp(request), ttl=self.FLOOD_HOPS)
        self.node.stats.increment("slp.requests_sent")
        self.sim.schedule(timeout, self._finish_lookup, xid)
        return xid

    def _finish_lookup(self, xid: int) -> None:
        pending = self._pending.pop(xid, None)
        if pending is None or pending.done:
            return
        pending.done = True
        if pending.callback is not None:
            pending.callback(list(pending.results.values()))

    # -- receive path ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, src_ip: str, sport: int) -> None:
        try:
            message = decode_slp(data)
        except CodecError as error:
            self.node.stats.increment("slp.parse_errors")
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit("slp.malformed", self.node.ip, src=src_ip, error=str(error))
            return
        if isinstance(message, SrvRqst):
            self._handle_request(message, src_ip)
        elif isinstance(message, SrvRply):
            self._handle_reply(message, src_ip)
        elif isinstance(message, SrvReg):
            # Unicast registration toward a DA is out of scope for the MANET
            # baseline; acknowledge for protocol completeness.
            self._socket.send(src_ip, sport, encode_slp(SrvAck(xid=message.xid)))
        elif isinstance(message, SrvDeReg):
            self._socket.send(src_ip, sport, encode_slp(SrvAck(xid=message.xid)))

    def _handle_request(self, request: SrvRqst, src_ip: str) -> None:
        if not request.requester or request.requester == self.node.ip:
            return
        key = (request.requester, request.xid)
        now = self.sim.now
        if self._seen.get(key, 0.0) > now:
            return
        self._seen[key] = now + 30.0
        matches = [
            entry
            for entry in self._local.values()
            if entry.is_valid(now) and entry.matches(request.service_type, request.predicate)
        ]
        if matches:
            reply = SrvRply(
                xid=request.xid,
                entries=[
                    UrlEntry.from_service_entry(entry, entry.expires_at - now)
                    for entry in matches
                ],
            )
            self._socket.send(request.requester, PORT_SLP, encode_slp(reply))
            self.node.stats.increment("slp.replies_sent")
        if self.rebroadcast:
            self._socket.send(
                BROADCAST, PORT_SLP, encode_slp(request), ttl=self.FLOOD_HOPS
            )
            self.node.stats.increment("slp.requests_forwarded")
        if len(self._seen) > 2048:
            self._seen = {k: v for k, v in self._seen.items() if v > now}

    def _handle_reply(self, reply: SrvRply, src_ip: str) -> None:
        pending = self._pending.get(reply.xid)
        if pending is None or pending.done:
            return
        now = self.sim.now
        for url_entry in reply.entries:
            try:
                entry = url_entry.to_service_entry(now, origin=src_ip)
            except Exception:
                continue
            pending.results[entry.key()] = entry
