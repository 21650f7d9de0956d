"""Instrument registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` holds every instrument of one simulation.
Instruments are deliberately minimal — no labels, no exemplars — because
the registry's contract is *determinism*: a snapshot is a pure function of
simulation state, so two same-seed runs export byte-identical time series.
Three instrument types cover what the experiments need:

``Counter``
    A monotonically increasing integer (e.g. ``metrics.scrapes``). Owned
    by the metrics layer itself or by harness code; simulation hot paths
    keep using :class:`repro.netsim.stats.Stats` counters, which gauges
    mirror read-only at scrape time.

``Gauge``
    A point-in-time reading, either set imperatively (:meth:`Gauge.set`)
    or — the common case — computed by a callback at scrape time
    (``registry.gauge("txqueue.depth.max", fn=...)``). Callback gauges
    cost nothing between scrapes and cannot perturb the simulation: they
    must only *read* state (see DESIGN.md §5i determinism contract).

``Histogram``
    Fixed upper-bound buckets chosen at registration time (Prometheus
    classic-histogram semantics: cumulative ``le`` buckets plus ``+Inf``,
    a running sum and a count). Fed either by ``observe()`` calls or by a
    registered *sampler* that observes a whole population per scrape
    (e.g. every node's TX-queue depth).

The registry never reads the host clock and never draws randomness — lint
rule OBS001 enforces that for the whole package.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable

from repro.errors import MetricsError

#: Default histogram bucket bounds for small queue-depth style populations.
DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_.]*$")
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricsError(
            f"invalid metric name {name!r}: use dotted identifiers "
            "(letters, digits, '_', '.')"
        )
    return name


class Counter:
    """A monotonically increasing integer instrument."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def read(self) -> int:
        return self.value


class Gauge:
    """A point-in-time reading: callback-driven or imperatively set."""

    __slots__ = ("name", "help", "fn", "_value")

    kind = "gauge"

    def __init__(
        self, name: str, fn: Callable[[], float] | None = None, help: str = ""
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.fn = fn
        self._value: float = 0.0

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise MetricsError(f"gauge {self.name} is callback-driven; cannot set()")
        self._value = value

    def read(self) -> float:
        if self.fn is not None:
            return self.fn()
        return self._value


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` semantics at export time).

    ``bounds`` are the finite upper bucket edges, strictly ascending; an
    implicit ``+Inf`` bucket catches everything above the last edge. The
    internal counts are *per-bucket* (non-cumulative); the snapshot codec
    and the Prometheus renderer cumulate on the way out.
    """

    __slots__ = ("name", "help", "bounds", "counts", "total", "count")

    kind = "histogram"

    def __init__(self, name: str, bounds: Iterable[float], help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise MetricsError(f"histogram {name} needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise MetricsError(
                f"histogram {name} bounds must be strictly ascending, got {edges}"
            )
        if any(math.isnan(edge) or math.isinf(edge) for edge in edges):
            raise MetricsError(f"histogram {name} bounds must be finite, got {edges}")
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)  # last slot is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def read(self) -> dict[str, object]:
        """Snapshot form: cumulative bucket counts aligned with ``bounds``."""
        cumulative = []
        running = 0
        for bucket in self.counts:
            running += bucket
            cumulative.append(running)
        return {
            "bounds": list(self.bounds),
            "buckets": cumulative,  # cumulative, +Inf last == count
            "count": self.count,
            "sum": self.total,
        }


#: A sampler runs once per scrape, *before* instrument values are read.
#: It receives the scrape's simulation time and may observe histograms or
#: set imperative gauges; it must never mutate simulation state.
Sampler = Callable[[float], None]


class MetricsRegistry:
    """All instruments of one simulation, with get-or-create registration."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._samplers: list[Sampler] = []

    # -- registration -------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help=help)

    def gauge(
        self, name: str, fn: Callable[[], float] | None = None, help: str = ""
    ) -> Gauge:
        return self._register(Gauge, name, fn=fn, help=help)

    def histogram(
        self, name: str, bounds: Iterable[float] = DEPTH_BUCKETS, help: str = ""
    ) -> Histogram:
        return self._register(Histogram, name, bounds=bounds, help=help)

    def _register(self, cls, name: str, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricsError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"cannot re-register as {cls.kind}"
                )
            return existing
        instrument = cls(name, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def add_sampler(self, sampler: Sampler) -> None:
        """Run ``sampler(t)`` at every scrape before values are read."""
        self._samplers.append(sampler)

    # -- access -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._instruments.get(name)

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        """Every instrument, sorted by name (the canonical export order)."""
        return [self._instruments[name] for name in sorted(self._instruments)]

    # -- collection ---------------------------------------------------------
    def run_samplers(self, t: float) -> None:
        for sampler in self._samplers:
            sampler(t)

    def collect(self, t: float) -> dict[str, dict[str, object]]:
        """One scrape: samplers first, then every value, sorted by name.

        Returns ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``
        with each section's keys sorted — the deterministic snapshot body
        the JSONL codec serializes.
        """
        self.run_samplers(t)
        counters: dict[str, object] = {}
        gauges: dict[str, object] = {}
        histograms: dict[str, object] = {}
        for instrument in self.instruments():
            if instrument.kind == "counter":
                counters[instrument.name] = instrument.read()
            elif instrument.kind == "gauge":
                gauges[instrument.name] = instrument.read()
            else:
                histograms[instrument.name] = instrument.read()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


# ---------------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4)
# ---------------------------------------------------------------------------


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Map a dotted metric name onto the Prometheus grammar."""
    flat = _PROM_BAD.sub("_", name)
    return f"{prefix}_{flat}" if prefix else flat


def _fmt_value(value: object) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)  # type: ignore[arg-type]
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    return repr(number)


def render_prometheus(
    sections: dict[str, dict[str, object]],
    prefix: str = "repro",
    registry: MetricsRegistry | None = None,
) -> str:
    """Render one snapshot body as Prometheus text exposition format.

    ``sections`` is the dict :meth:`MetricsRegistry.collect` returns (or a
    parsed JSONL snapshot's body). When the originating ``registry`` is
    passed, instrument ``help`` strings become ``# HELP`` lines.
    """
    lines: list[str] = []

    def help_for(name: str) -> str:
        if registry is not None:
            instrument = registry.get(name)
            if instrument is not None and instrument.help:
                return instrument.help
        return ""

    for name, value in sections.get("counters", {}).items():
        prom = prometheus_name(name, prefix)
        text = help_for(name)
        if text:
            lines.append(f"# HELP {prom} {text}")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_fmt_value(value)}")
    for name, value in sections.get("gauges", {}).items():
        prom = prometheus_name(name, prefix)
        text = help_for(name)
        if text:
            lines.append(f"# HELP {prom} {text}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_fmt_value(value)}")
    for name, data in sections.get("histograms", {}).items():
        prom = prometheus_name(name, prefix)
        text = help_for(name)
        if text:
            lines.append(f"# HELP {prom} {text}")
        lines.append(f"# TYPE {prom} histogram")
        bounds = data["bounds"]  # type: ignore[index]
        buckets = data["buckets"]  # type: ignore[index]
        for bound, cumulative in zip(bounds, buckets):
            lines.append(f'{prom}_bucket{{le="{_fmt_value(bound)}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {data["count"]}')  # type: ignore[index]
        lines.append(f"{prom}_sum {_fmt_value(data['sum'])}")  # type: ignore[index]
        lines.append(f"{prom}_count {data['count']}")  # type: ignore[index]
    return "\n".join(lines) + ("\n" if lines else "")
