"""Terminal rendering for metrics exports: tables and sparkline dashboards.

Pure text transforms over parsed :class:`~repro.metrics.scraper.
MetricsSection` data — no simulation imports, no clock, no randomness.
"""

from __future__ import annotations

from typing import Iterable

from repro.metrics.scraper import MetricsSection, Snapshot

SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Iterable[float], width: int = 60) -> str:
    """Render a numeric series as a fixed-width ASCII sparkline.

    Longer series are downsampled by taking the max of each chunk (peaks
    are what queue-depth dashboards must not lose); shorter series are
    rendered one glyph per sample. A flat series renders as all-minimum.
    """
    series = [float(v) for v in values]
    if not series:
        return ""
    if len(series) > width:
        chunk = len(series) / width
        series = [
            max(series[int(i * chunk) : max(int((i + 1) * chunk), int(i * chunk) + 1)])
            for i in range(width)
        ]
    lo = min(series)
    hi = max(series)
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(series)
    top = len(SPARK_CHARS) - 1
    return "".join(SPARK_CHARS[int((v - lo) / span * top)] for v in series)


def series_for(snapshots: list[Snapshot], name: str) -> list[tuple[float, float]]:
    """Extract one metric's ``(t, value)`` series across snapshots.

    Counters and gauges yield their value; histograms yield their running
    observation count (the scalar that is meaningful as a time series).
    """
    series: list[tuple[float, float]] = []
    for snap in snapshots:
        if name in snap.gauges:
            series.append((snap.t, float(snap.gauges[name])))
        elif name in snap.counters:
            series.append((snap.t, float(snap.counters[name])))
        elif name in snap.histograms:
            series.append((snap.t, float(snap.histograms[name].get("count", 0))))
    return series


def metric_names(snapshots: list[Snapshot]) -> list[str]:
    names: set[str] = set()
    for snap in snapshots:
        names.update(snap.counters)
        names.update(snap.gauges)
        names.update(snap.histograms)
    return sorted(names)


def _section_title(section: MetricsSection, index: int) -> str:
    label = section.label or f"section {index}"
    return (
        f"== {label}: {len(section.snapshots)} snapshots @ "
        f"{section.interval:g}s =="
    )


def render_table(
    sections: list[MetricsSection], names: list[str] | None = None
) -> str:
    """Per-metric min/max/last table, one block per section."""
    blocks: list[str] = []
    for index, section in enumerate(sections):
        lines = [_section_title(section, index)]
        available = metric_names(section.snapshots)
        selected = [n for n in (names or available) if n in available]
        lines.append(f"{'metric':<34} {'min':>10} {'max':>10} {'last':>10}")
        for name in selected:
            series = [value for _, value in series_for(section.snapshots, name)]
            if not series:
                continue
            lines.append(
                f"{name:<34} {min(series):>10g} {max(series):>10g} {series[-1]:>10g}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_dash(
    sections: list[MetricsSection],
    names: list[str] | None = None,
    width: int = 60,
) -> str:
    """Sparkline dashboard: one row per metric, peaks preserved."""
    blocks: list[str] = []
    for index, section in enumerate(sections):
        lines = [_section_title(section, index)]
        available = metric_names(section.snapshots)
        selected = [n for n in (names or available) if n in available]
        for name in selected:
            series = [value for _, value in series_for(section.snapshots, name)]
            if not series:
                continue
            lines.append(
                f"{name:<34} {sparkline(series, width=width)}  "
                f"[{min(series):g}..{max(series):g}]"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)

