"""What the benchmark measures and why: the source of ``BENCHMARK.json``.

``python3 perfbench/run.py --write-spec`` regenerates ``BENCHMARK.json``
from the tables below. That file only has room for a metric's name, unit
and direction, so the rationale columns (which end-to-end metric a layer
metric should move, and on which workload) live here, next to the numbers
they explain.
"""

from __future__ import annotations

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept out of tuning and of writing any change: re-check a claimed
#: gain on it before believing it.
HELD_OUT_SEED = 4242

#: Host seconds an untraced run spends repeating its workload (``--seconds``).
RUN_SECONDS = 35

WORKLOADS = {
    "city": (
        "500-node mobile random city, reactive hello-less AODV, 12 calls: RREQ floods"
        " and piggybacked SLP make the routing codec, hooks and medium broadcast the cost"
    ),
    "media": (
        "4 long calls on a static 9-node AODV grid with adaptive playout, RED(2) and 5 %"
        " link loss: RTP, jitter buffer, unicast forwarding and frame timers do the work"
    ),
    "signaling": (
        "200 short calls at 4/s on a 25-node OLSR grid with a gateway, 1 in 4 to the"
        " Internet: SIP parsing, transactions, the tunnel and OLSR/SLP-on-TC carry the cost"
    ),
}

END_TO_END = [
    {"name": "host_us_per_event", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

#: Per-layer metrics: (name, unit, better). Counts are deterministic per
#: seed; ``*.self_s`` are host seconds from the traced run.
PER_LAYER = [
    ("netsim.kernel.events", "count", "lower"),
    ("netsim.kernel.self_s", "s", "lower"),
    ("netsim.kernel.us_per_event", "us", "lower"),
    ("netsim.medium.tx", "count", "lower"),
    ("netsim.medium.deliveries", "count", "lower"),
    ("netsim.medium.deliveries_per_tx", "ratio", "lower"),
    ("netsim.medium.self_s", "s", "lower"),
    ("netsim.node.rx", "count", "lower"),
    ("netsim.node.forwards", "count", "lower"),
    ("netsim.node.self_s", "s", "lower"),
    ("netsim.capture.runs", "count", "lower"),
    ("netsim.capture.self_s", "s", "lower"),
    ("core.handlers.calls", "count", "lower"),
    ("core.handlers.self_s", "s", "lower"),
    ("routing.codec.decodes", "count", "lower"),
    ("routing.codec.encodes", "count", "lower"),
    ("routing.codec.bytes_decoded", "B", "lower"),
    ("routing.codec.decodes_per_datagram", "ratio", "lower"),
    ("routing.codec.self_s", "s", "lower"),
    ("routing.aodv.datagrams", "count", "lower"),
    ("routing.aodv.ctrl_tx", "count", "lower"),
    ("routing.aodv.self_s", "s", "lower"),
    ("routing.olsr.datagrams", "count", "lower"),
    ("routing.olsr.ctrl_tx", "count", "lower"),
    ("routing.olsr.self_s", "s", "lower"),
    ("slp.datagrams", "count", "lower"),
    ("slp.decodes", "count", "lower"),
    ("slp.self_s", "s", "lower"),
    ("core.manet_slp.lookups", "count", "lower"),
    ("core.manet_slp.cache_hit_ratio", "ratio", "higher"),
    ("core.manet_slp.self_s", "s", "lower"),
    ("sip.message.parses", "count", "lower"),
    ("sip.message.bytes_parsed", "B", "lower"),
    ("sip.message.self_s", "s", "lower"),
    ("sip.transaction.datagrams", "count", "lower"),
    ("sip.transaction.retransmissions", "count", "lower"),
    ("sip.transaction.self_s", "s", "lower"),
    ("core.tunnel.packets", "count", "lower"),
    ("core.tunnel.self_s", "s", "lower"),
    ("rtp.packet.decodes", "count", "lower"),
    ("rtp.packet.encodes", "count", "lower"),
    ("rtp.packet.self_s", "s", "lower"),
    ("rtp.session.datagrams", "count", "lower"),
    ("rtp.session.self_s", "s", "lower"),
    ("rtp.jitter.packets", "count", "lower"),
    ("rtp.jitter.late_ratio", "ratio", "lower"),
    ("rtp.jitter.recovered", "count", "higher"),
    ("rtp.jitter.self_s", "s", "lower"),
    ("app.other.self_s", "s", "lower"),
    ("unattributed.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("calls.success_ratio", "ratio", "higher"),
    ("calls.setup_delay_p50_ms", "ms", "lower"),
    ("calls.setup_delay_p95_ms", "ms", "lower"),
    ("calls.mos_p50", "MOS", "higher"),
    ("calls.ctrl_pkts_per_call", "packets", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
]

#: Which end-to-end metric each group of per-layer metrics should move, and
#: the workload where that should show (longest matching prefix wins).
#: ``calls.*`` are the simulated outcomes a behaviour-changing PR moves; a
#: pure speed-up must leave them, and the fingerprint digest, identical.
SHOULD_MOVE = {
    "netsim.kernel": ("host_us_per_event", "media (densest timers); all"),
    "netsim.medium": ("host_us_per_event", "city (~10 deliveries per flood tx) vs media (1)"),
    "netsim.node": ("host_us_per_event", "media, city"),
    "netsim.capture": ("host_us_per_event", "city, signaling"),
    "core.handlers": ("host_us_per_event", "city, signaling"),
    "routing.codec": ("host_us_per_event", "city (~2.0 decodes per datagram); ~0 on media"),
    "routing.aodv": (
        "host_us_per_event, calls.ctrl_pkts_per_call, calls.setup_delay_p50_ms", "city"
    ),
    "routing.olsr": (
        "host_us_per_event, calls.ctrl_pkts_per_call, calls.setup_delay_p50_ms", "signaling"
    ),
    "slp": ("host_us_per_event", "city, signaling"),
    "core.manet_slp": ("calls.setup_delay_p50_ms", "signaling (cache) vs city (in-band)"),
    "sip.message": ("host_us_per_event", "signaling"),
    "sip.transaction": ("calls.setup_delay_p95_ms, host_us_per_event", "signaling"),
    "core.tunnel": ("host_us_per_event, calls.setup_delay_p95_ms", "signaling"),
    "rtp.packet": ("host_us_per_event", "media"),
    "rtp.session": ("host_us_per_event", "media"),
    "rtp.jitter": ("calls.mos_p50, host_us_per_event", "media"),
    "app.other": ("n/a", "all"),
    "unattributed": ("n/a (harness time outside every span)", "all"),
    "trace": ("n/a (the cost of tracing itself)", "all"),
    "calls": ("the simulated outcome itself", "all; must stay identical under a speed-up"),
    "process": ("setup_s (state built before the measured phase)", "city"),
}


def should_move(metric: str) -> tuple[str, str]:
    """(end-to-end metric, workload) a per-layer metric should move."""
    parts = metric.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in SHOULD_MOVE:
            return SHOULD_MOVE[prefix]
    raise KeyError(metric)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }
