"""Per-layer self time and work counts, measured from outside the program.

:class:`SpanTracer` wraps callables with a timer stack: each call opens a
span, and when it closes its duration minus the time covered by its child
spans is charged to the span's name as *self time*. Spans are aggregated in
memory by name (count, self time, a per-call measure such as bytes decoded,
and caller→callee edge counts) instead of being kept one by one: the city
workload makes millions of calls into the wrapped seams.

:func:`install_layer_seams` wraps the public entry points of every protocol
layer a packet crosses. It rebinds class attributes and the module-level
names the ``repro`` modules imported, never editing the program's source,
and :meth:`SpanTracer.restore` puts every original back. Install before the
scenario is built: bound methods and socket handlers captured afterwards
then go through the wrappers.

Span names are ``"<layer>/<entry point>"``; :data:`LAYERS` lists the layers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: Every layer a span can be charged to, in the order a packet meets them.
LAYERS = (
    "netsim.kernel",
    "netsim.medium",
    "netsim.node",
    "netsim.capture",
    "core.handlers",
    "routing.codec",
    "routing.aodv",
    "routing.olsr",
    "slp",
    "core.manet_slp",
    "sip.message",
    "sip.transaction",
    "core.tunnel",
    "rtp.packet",
    "rtp.session",
    "rtp.jitter",
    "app.other",
)

Measure = Callable[[tuple, Any], int]


class Spans:
    """Spans recorded by a :class:`SpanTracer`, aggregated per span name."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.amount: Counter[str] = Counter()
        self.edges: Counter[tuple[str, str]] = Counter()
        #: Time covered by top-level spans; the rest of a timed interval is
        #: unattributed (harness code between calls into the program).
        self.covered_s = 0.0

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (every layer in :data:`LAYERS`, zero if unused)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.split("/", 1)[0]] += seconds
        return totals

    def count(self, *names: str) -> int:
        """Calls of the named spans, summed."""
        return sum(self.calls[name] for name in names)

    def count_prefix(self, prefix: str) -> int:
        """Calls of every span whose name starts with ``prefix``."""
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))


class SpanTracer:
    """Timer stack over wrapped callables, recording into :attr:`spans`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[list] = []  # open spans: [name, time covered by children]
        self._patches: list[tuple[Any, str, Any]] = []
        self.spans = Spans()

    def reset(self) -> Spans:
        """Start recording afresh; returns what was recorded so far.

        No span may be open, so every returned span has closed.
        """
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        recorded, self.spans = self.spans, Spans()
        return recorded

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def wrap(self, name: str, fn: Callable, measure: Measure | None = None) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``measure(args, result)`` adds to :attr:`Spans.amount` after a call
        that returned. A call that raises still closes its span.
        """
        stack = self._stack
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                spans = tracer.spans
                spans.calls[name] += 1
                spans.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    spans.covered_s += duration
                if parent is not None:
                    spans.edges[parent, name] += 1
            if measure is not None:
                tracer.spans.amount[name] += measure(args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------------
    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def patch_method(
        self, cls: type, attribute: str, name: str, measure: Measure | None = None
    ) -> None:
        """Wrap a method defined on ``cls`` itself."""
        self._patch(cls, attribute, self.wrap(name, vars(cls)[attribute], measure))

    def patch_function(self, fn: Callable, name: str, measure: Measure | None = None) -> None:
        """Wrap a module-level function everywhere a ``repro`` module bound it."""
        wrapper = self.wrap(name, fn, measure)
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attribute, wrapper)

    def patch_registrar(
        self, cls: type, attribute: str, wrap_call: Callable[[Callable, tuple, dict], Any]
    ) -> None:
        """Wrap a method that stores a callback, so the stored callback is
        traced: ``wrap_call(original, args, kwargs)`` performs the call."""
        original = vars(cls)[attribute]

        @functools.wraps(original)
        def registrar(*args, **kwargs):
            return wrap_call(original, args, kwargs)

        self._patch(cls, attribute, registrar)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def _first_arg_len(args: tuple, result: Any) -> int:
    return len(args[0])


def _non_empty(args: tuple, result: Any) -> int:
    return 1 if result else 0


def install_layer_seams(tracer: SpanTracer) -> SpanTracer:
    """Wrap the entry points of every layer in :data:`LAYERS`."""
    from repro.core.manet_slp import ManetSlp
    from repro.core.tunnel import decode_inner_packet, encode_inner_packet
    from repro.netsim.capture import NetfilterHooks
    from repro.netsim.medium import WirelessMedium
    from repro.netsim.node import Node
    from repro.netsim.packet import (
        PORT_AODV,
        PORT_OLSR,
        PORT_SIPHOC_CTRL,
        PORT_SIPHOC_TUNNEL,
        PORT_SLP,
    )
    from repro.netsim.simulator import Simulator
    from repro.routing.messages import (
        decode_aodv,
        decode_olsr_packet,
        encode_aodv,
        encode_olsr_packet,
    )
    from repro.rtp.jitter import LATE, JitterBuffer
    from repro.rtp.packet import RtpPacket, decode_red, decode_rtp, encode_red
    from repro.sip.message import parse_message
    from repro.sip.transaction import ClientTransaction
    from repro.slp.messages import decode_slp, encode_slp

    port_layers = {
        PORT_AODV: "routing.aodv",
        PORT_OLSR: "routing.olsr",
        PORT_SLP: "slp",
        PORT_SIPHOC_TUNNEL: "core.tunnel",
        PORT_SIPHOC_CTRL: "core.tunnel",
    }

    def handler_layer(port: int, handler: Callable) -> str:
        if port in port_layers:
            return port_layers[port]
        if 5060 <= port < 5100:
            return "sip.transaction"
        if 16384 <= port < 32768:
            return "rtp.session"
        # Ephemeral ports: the tunnel client's control socket, for one.
        owner = type(getattr(handler, "__self__", None)).__module__
        return "core.tunnel" if owner == "repro.core.tunnel" else "app.other"

    def traced_bind(original, args, kwargs):
        node, port, handler = args
        name = f"{handler_layer(port, handler)}/port-{port}"
        return original(node, port, tracer.wrap(name, handler), **kwargs)

    def traced_register(original, args, kwargs):
        hooks, chain, ports, fn, *rest = args
        label = kwargs.get("name") or (rest[0] if rest else "") or fn.__name__
        return original(hooks, chain, ports, tracer.wrap(f"core.handlers/{label}", fn),
                        *rest, **kwargs)

    tracer.patch_method(Simulator, "run", "netsim.kernel/Simulator.run")
    tracer.patch_method(WirelessMedium, "broadcast", "netsim.medium/broadcast")
    tracer.patch_method(WirelessMedium, "unicast", "netsim.medium/unicast")
    tracer.patch_method(Node, "receive_wireless", "netsim.node/receive_wireless")
    tracer.patch_method(Node, "route_packet", "netsim.node/route_packet")
    tracer.patch_method(Node, "send_udp", "netsim.node/send_udp")
    tracer.patch_registrar(Node, "bind", traced_bind)
    tracer.patch_method(NetfilterHooks, "run", "netsim.capture/run")
    tracer.patch_registrar(NetfilterHooks, "register", traced_register)
    for fn, measure in (
        (decode_aodv, _first_arg_len),
        (encode_aodv, None),
        (decode_olsr_packet, _first_arg_len),
        (encode_olsr_packet, None),
    ):
        tracer.patch_function(fn, f"routing.codec/{fn.__name__}", measure)
    tracer.patch_function(decode_slp, "slp/decode_slp")
    tracer.patch_function(encode_slp, "slp/encode_slp")
    tracer.patch_method(ManetSlp, "find_services", "core.manet_slp/find_services")
    tracer.patch_method(ManetSlp, "lookup_cached", "core.manet_slp/lookup_cached")
    tracer.patch_function(parse_message, "sip.message/parse_message", _first_arg_len)
    tracer.patch_method(ClientTransaction, "_retransmit", "sip.transaction/retransmit")
    tracer.patch_function(encode_inner_packet, "core.tunnel/encode_inner_packet")
    tracer.patch_function(decode_inner_packet, "core.tunnel/decode_inner_packet")
    tracer.patch_function(decode_rtp, "rtp.packet/decode_rtp")
    tracer.patch_method(RtpPacket, "encode", "rtp.packet/encode")
    tracer.patch_function(encode_red, "rtp.packet/encode_red")
    tracer.patch_function(decode_red, "rtp.packet/decode_red")
    tracer.patch_method(
        JitterBuffer, "classify", "rtp.jitter/classify",
        lambda args, result: 1 if result == LATE else 0,
    )
    tracer.patch_method(JitterBuffer, "on_recovered", "rtp.jitter/on_recovered", _non_empty)
    return tracer
