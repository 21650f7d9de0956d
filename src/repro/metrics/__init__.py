"""Sim-time metrics: instrument registry and deterministic scraper.

Public surface:

* :class:`MetricsRegistry`, :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` — the instruments (:mod:`repro.metrics.registry`);
* :class:`MetricsScraper`, :func:`load_jsonl` and the process-wide
  default toggle (:mod:`repro.metrics.scraper`);
* :func:`install_scenario_instruments` — the standard gauge set over a
  :class:`~repro.scenarios.ManetScenario`;
* ``python -m repro.metrics`` — tables, sparkline dashboards and
  Prometheus exposition (the gate is ``python -m repro.gates metrics``).

Nothing here reads the host clock (lint rule OBS001). Host wall time per
protocol layer is measured outside ``src/``, by the benchmark's span
tracer: ``python3 perfbench/run.py --workload city --trace 1``.
Design and the determinism contract: DESIGN.md §5i.
"""

from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.metrics.scraper import (
    SCHEMA,
    MetricsScraper,
    MetricsSection,
    Snapshot,
    default_interval,
    disable_default,
    enable_default,
    export_registered,
    load_jsonl,
    register,
    registered,
)
from repro.metrics.instruments import install_scenario_instruments

__all__ = [
    "SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScraper",
    "MetricsSection",
    "Snapshot",
    "default_interval",
    "disable_default",
    "enable_default",
    "export_registered",
    "install_scenario_instruments",
    "load_jsonl",
    "register",
    "registered",
    "render_prometheus",
]
