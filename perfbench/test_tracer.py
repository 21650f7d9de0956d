"""Tests of the benchmark's tracer on tiny scenarios.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import itertools

import pytest

import spec
from run import layer_metrics, repetition
from tracer import LAYERS, SpanTracer, install_layer_seams
from workloads import Media, Signaling


def tick_clock():
    """A clock that advances one second per reading."""
    return itertools.count().__next__


def test_raising_call_still_closes_its_span():
    tracer = SpanTracer(clock=tick_clock())

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap("rtp.packet/fail", fail)

    def guarded():
        try:
            inner()
        except ValueError:
            return "caught"

    outer = tracer.wrap("rtp.session/guarded", guarded)
    assert outer() == "caught"
    with pytest.raises(ValueError):
        inner()
    spans = tracer.reset()
    assert tracer.open_spans == 0
    assert spans.calls == {"rtp.session/guarded": 1, "rtp.packet/fail": 2}
    # Clock readings: outer 0..3 wraps inner 1..2; the bare inner call is 4..5.
    assert spans.self_s["rtp.session/guarded"] == 2
    assert spans.self_s["rtp.packet/fail"] == 2
    assert spans.covered_s == 4
    assert spans.edges == {("rtp.session/guarded", "rtp.packet/fail"): 1}


def test_layer_self_times_plus_unattributed_equal_traced_wall():
    tracer = install_layer_seams(SpanTracer())
    try:
        rep = repetition(Media(talk_time=2.0), seed=1, tracer=tracer)
    finally:
        tracer.restore()
    spans = rep.spans
    layers = spans.layer_self_s()
    assert set(layers) == set(LAYERS)
    assert all(seconds >= -1e-9 for seconds in layers.values())
    unattributed = rep.wall_s - spans.covered_s
    assert unattributed >= 0
    assert sum(layers.values()) + unattributed == pytest.approx(rep.wall_s, rel=1e-9)
    assert spans.count("rtp.jitter/classify") > 0
    assert spans.count("netsim.kernel/Simulator.run") == 1
    metrics = layer_metrics(rep, rep, peak_rss_mb=1.0)
    assert set(metrics) == {name for name, _, _ in spec.PER_LAYER}
    assert all(spec.should_move(name) for name in metrics)


def test_traced_run_restores_every_seam():
    workload = Signaling(side=3, n_calls=8)
    fresh = repetition(workload, seed=2).outcome
    tracer = install_layer_seams(SpanTracer())
    patched = list(tracer._patches)
    assert patched
    try:
        traced = repetition(workload, seed=2, tracer=tracer)
    finally:
        tracer.restore()
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original, f"{owner}.{attribute} not restored"
    later = repetition(workload, seed=2)
    assert later.spans is None
    assert traced.spans.count("core.tunnel/encode_inner_packet") > 0
    assert traced.spans.count_prefix("routing.olsr/port-") > 0
    assert fresh.problems == [] and fresh.established == fresh.placed
    assert traced.outcome.digest == fresh.digest
    assert later.outcome.digest == fresh.digest
    assert later.outcome.fingerprint == fresh.fingerprint
