"""Unit tests for the offered-load soak harness (repro.overload)."""

import math

from repro.overload.__main__ import build_parser
from repro.overload.harness import (
    MODE_CONTROLLED,
    MODE_UNCONTROLLED,
    LoadPoint,
    OverloadConfig,
    SweepReport,
    build_overload_scenario,
    run_load_point,
    smoke_config,
)


def point(load, mode, ok, attempted=20, **overrides):
    fields = dict(
        load=load,
        mode=mode,
        attempted=attempted,
        ok=ok,
        established=ok,
        rejected_503=0,
        failed_other=attempted - ok,
        setup_p50=0.5,
        setup_p95=0.8,
        mos_mean=4.2,
        queue_drops=0,
        admission_rejected=0,
    )
    fields.update(overrides)
    return LoadPoint(**fields)


def report_with(*points):
    report = SweepReport(config=OverloadConfig(loads=(0.5, 1.0, 2.0, 4.0)))
    report.points.extend(points)
    return report


class TestLoadPoint:
    def test_ok_rate(self):
        assert point(1.0, MODE_CONTROLLED, ok=15, attempted=20).ok_rate == 0.75

    def test_ok_rate_of_empty_point_is_zero(self):
        assert point(1.0, MODE_CONTROLLED, ok=0, attempted=0).ok_rate == 0.0


class TestSweepReport:
    def test_point_lookup_tolerates_float_noise(self):
        p = point(2.0, MODE_CONTROLLED, ok=20)
        report = report_with(p)
        assert report.point(2.0 + 1e-12, MODE_CONTROLLED) is p
        assert report.point(2.0, MODE_UNCONTROLLED) is None
        assert report.point(3.0, MODE_CONTROLLED) is None

    def test_knee_is_highest_passing_controlled_load(self):
        report = report_with(
            point(0.5, MODE_CONTROLLED, ok=20),
            point(1.0, MODE_CONTROLLED, ok=20),
            point(2.0, MODE_CONTROLLED, ok=10),  # 0.5 < knee_threshold 0.8
            point(1.0, MODE_UNCONTROLLED, ok=20),  # uncontrolled never counts
        )
        assert report.knee == 1.0

    def test_no_knee_when_nothing_clears_threshold(self):
        report = report_with(point(1.0, MODE_CONTROLLED, ok=5))
        assert report.knee is None
        assert report.graceful() is None
        assert not report.graceful_pass
        assert "knee: none" in report.render()

    def test_graceful_pass_at_half_the_knee_rate(self):
        report = report_with(
            point(1.0, MODE_CONTROLLED, ok=20),
            point(2.0, MODE_CONTROLLED, ok=11),
        )
        knee, at_knee, at_double, passed = report.graceful()
        assert (knee, at_knee, at_double) == (1.0, 1.0, 0.55)
        assert passed and report.graceful_pass

    def test_collapse_below_half_fails(self):
        report = report_with(
            point(1.0, MODE_CONTROLLED, ok=20),
            point(2.0, MODE_CONTROLLED, ok=9),
        )
        assert report.graceful() == (1.0, 1.0, 0.45, False)
        assert not report.graceful_pass
        assert "COLLAPSED" in report.render()

    def test_graceful_na_when_double_not_swept(self):
        report = report_with(point(4.0, MODE_CONTROLLED, ok=20))
        assert report.knee == 4.0
        assert report.graceful() is None
        assert "not swept" in report.render()

    def test_render_mentions_every_point_and_uses_dash_for_nan(self):
        report = report_with(
            point(1.0, MODE_UNCONTROLLED, ok=20),
            point(
                1.0,
                MODE_CONTROLLED,
                ok=0,
                attempted=0,
                setup_p50=math.nan,
                setup_p95=math.nan,
                mos_mean=math.nan,
            ),
        )
        rendered = report.render()
        assert MODE_UNCONTROLLED in rendered and MODE_CONTROLLED in rendered
        assert "     -" in rendered  # nan percentiles render as dashes
        assert rendered.endswith("\n")

    def test_render_is_pure(self):
        report = report_with(point(1.0, MODE_CONTROLLED, ok=20))
        assert report.render() == report.render()


class TestScenarioWiring:
    def test_controlled_arms_admission_everywhere(self):
        cfg = smoke_config()
        scenario = build_overload_scenario(cfg, controlled=True)
        try:
            for stack in scenario.stacks:
                admission = stack.proxy.core.admission
                assert admission is not None
                assert admission.max_inflight == cfg.admission_max_inflight
                assert admission.retry_after == cfg.admission_retry_after
                assert stack.node.tx_queue is not None
                assert stack.node.tx_queue.capacity == cfg.tx_queue_capacity
        finally:
            scenario.stop()

    def test_uncontrolled_keeps_queues_but_no_admission(self):
        scenario = build_overload_scenario(smoke_config(), controlled=False)
        try:
            for stack in scenario.stacks:
                assert stack.proxy.core.admission is None
                assert stack.node.tx_queue is not None
        finally:
            scenario.stop()


class TestRunLoadPoint:
    def test_light_load_all_ok(self):
        cfg = OverloadConfig(loads=(0.5,), window=4.5, grace=10.0)
        result = run_load_point(cfg, 0.5, controlled=True)
        assert result.mode == MODE_CONTROLLED
        assert result.attempted == 2  # round(0.5 * 4.5)
        assert result.ok == result.established == result.attempted
        assert result.rejected_503 == 0
        assert result.setup_p50 <= cfg.setup_sla
        assert result.mos_mean >= 3.6


class TestCli:
    def test_parser_accepts_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--seed", "3", "--routing", "olsr", "--loads", "1", "2"]
        )
        assert (args.seed, args.routing, args.loads) == (3, "olsr", [1.0, 2.0])
