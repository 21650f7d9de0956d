"""The gate runner: pure checks, the byte-identity comparison, the CLI.

Each gate's check is a pure function of its probe's facts, so every
asserted predicate is tested here by breaking exactly that predicate in an
otherwise passing facts dict — no scenario runs. One end-to-end run of the
cheap ``trace`` gate covers the fresh-interpreter path.
"""

import copy
import json
import subprocess

import pytest

from repro import gates

CONTRAST = (
    "baseline mos=2.5800 eff=0.2000 m2e=0.1000 recovered=0\n"
    "full mos=4.0100 eff=0.0100 m2e=0.1200 recovered=40\n"
)

#: One passing facts dict per gate, shaped like the probe's output.
GOOD = {
    "trace": {
        "trace": '{"kind":"packet.tx"}\n',
        "traced": True,
        "schema_error": None,
        "events": 1015,
        "established": True,
        "categories": ["aodv", "packet", "rtp", "sip", "slp"],
        "ladder_invite": True,
    },
    "faults": {
        "schedule_and_trace": "plan\n=====\ntrace\n",
        "recovered": True,
        "planned": 3,
        "injected": 3,
        "failover_s": [22.5, 30.0],
        "reregistrations": 1,
        "traced": True,
        "schema_error": None,
    },
    "overload": {
        "report": "report\n",
        "top": 2.0,
        "knee": 1.0,
        "controlled": {
            "rejected_503": 12, "admission_rejected": 12, "queue_drops": 40, "ok_rate": 0.52,
        },
        "uncontrolled": {
            "rejected_503": 0, "admission_rejected": 0, "queue_drops": 3813, "ok_rate": 0.0,
        },
    },
    "metrics": {
        "export": '{"t":0.5}\n',
        "schema_error": None,
        "snapshots": 13,
        "missing_gauges": [],
        "prometheus_empty": False,
        "stats_equal": True,
        "events": [2236, 2236],
        "seq": [3000, 3000],
    },
    "rtp": {
        "contrast": CONTRAST,
        "defaults": "events_processed=9\n",
        "explicit": "events_processed=9\n",
        "baseline_mos": 2.58,
        "full_mos": 4.01,
    },
    "handover": {
        "report": "== handover drill ==\n",
        "legacy": '{"kind":"packet.tx"}\n',
        "handover": {
            "established": True,
            "survived": True,
            "attempted": 1,
            "succeeded": 1,
            "ssrc_stable": True,
            "handover_latency_ms": 48.781,
            "media_gap_ms": 312.903,
        },
        "baseline": {"survived": False, "attempted": 0},
        "silence_ms": 1000.0,
    },
    "netsim": {"trace": "a\nb\n"},
}

OK_LINES = {
    "trace": "trace smoke ok: 1015 events, categories aodv, packet, rtp, sip, slp; "
    "schema valid; ladder renders INVITE",
    "faults": "chaos smoke ok: 3 faults injected, call re-established, gateway failover "
    "in 22.5s; same-seed reruns byte-identical",
    "overload": "overload smoke ok: at 2.0 cps admission shed 12 calls with 503 (success "
    "0.520 vs 0.000 uncontrolled, 3813 queue drops); same-seed reruns byte-identical",
    "metrics": "metrics smoke ok: 13 snapshots byte-identical across fresh processes; "
    "metrics on/off Stats and schedule identical (2236 events)",
    "rtp": "media smoke ok: baseline MOS 2.58 < 3.6 <= 4.01 with RFC 2198 + adaptive "
    "playout; defaults-off E5 schedule byte-identical",
    "handover": "handover smoke ok: coverage-loss call survived in 1 attempt(s), latency "
    "48.781 ms, media gap 312.903 ms (baseline died); same-seed reruns byte-identical; "
    "defaults-off clean",
    "netsim": "netsim determinism ok: 2 trace lines byte-identical",
}

#: (gate, {dotted fact path: doctored value}, the one failure it must cause)
BREAKS = [
    ("trace", {"traced": False}, "scenario.trace is None despite tracing=True"),
    ("trace", {"trace": ""}, "traced scenario produced no events"),
    (
        "trace",
        {"schema_error": "line 3 failed schema validation: bad kind"},
        "line 3 failed schema validation: bad kind",
    ),
    ("trace", {"established": False}, "smoke call did not establish"),
    *(
        (
            "trace",
            {"categories": [c for c in GOOD["trace"]["categories"] if c != missing]},
            f"no {missing}.* events in trace",
        )
        for missing in ("packet", "aodv", "slp", "sip")
    ),
    ("trace", {"ladder_invite": False}, "SIP ladder does not show the INVITE"),
    ("faults", {"recovered": False}, "post-fault call did not re-establish"),
    ("faults", {"injected": 2}, "3 fault events planned but 2 showed up in the trace"),
    ("faults", {"failover_s": []}, "no gateway failover observed after gateway_down"),
    ("faults", {"reregistrations": 0}, "no re-registration observed after node_restart"),
    ("faults", {"traced": False}, "chaos scenario ran without a trace collector"),
    (
        "faults",
        {"schema_error": "line 2 failed schema validation: bad kind"},
        "trace line 2 failed schema validation: bad kind",
    ),
    ("faults", {"schedule_and_trace": ""}, "fresh-process chaos rerun produced no output"),
    ("overload", {"controlled": None}, "smoke sweep is missing its top-load points"),
    (
        "overload",
        {"controlled.rejected_503": 0},
        "no 503 admission rejections at the overload point",
    ),
    (
        "overload",
        {"controlled.admission_rejected": 0},
        "sip.admission_rejected counter never moved",
    ),
    (
        "overload",
        {"uncontrolled.queue_drops": 0},
        "bounded TX queues shed nothing without admission",
    ),
    (
        "overload",
        {"controlled.ok_rate": 0.0},
        "admission control did not help at 2.0 cps (controlled 0.000 <= uncontrolled 0.000)",
    ),
    (
        "overload",
        {"uncontrolled.admission_rejected": 1},
        "uncontrolled run unexpectedly produced 503 rejections",
    ),
    ("overload", {"knee": None}, "no knee: controlled runs never cleared the threshold"),
    ("overload", {"report": ""}, "fresh-process overload rerun produced no output"),
    ("metrics", {"export": ""}, "fresh-process metrics run produced no export"),
    (
        "metrics",
        {"schema_error": "line 1: not JSON", "snapshots": 0},
        "smoke export failed schema validation: line 1: not JSON",
    ),
    ("metrics", {"snapshots": 0}, "smoke export contains no snapshots"),
    (
        "metrics",
        {"missing_gauges": ["txqueue.depth.sum"]},
        "gauge txqueue.depth.sum missing from export",
    ),
    ("metrics", {"prometheus_empty": True}, "Prometheus exposition rendered empty"),
    ("metrics", {"stats_equal": False}, "enabling metrics changed the Stats summary"),
    (
        "metrics",
        {"events": [2236, 2237]},
        "enabling metrics changed the event schedule (2236 vs 2237 events processed)",
    ),
    (
        "metrics",
        {"seq": [3000, 3001]},
        "enabling metrics changed event sequence allocation (3000 vs 3001)",
    ),
    ("rtp", {"full_mos": None}, f"contrast calls did not establish:\n{CONTRAST}"),
    (
        "rtp",
        {"baseline_mos": 3.7},
        "fixed/no-RED baseline unexpectedly satisfied: MOS 3.70",
    ),
    ("rtp", {"full_mos": 3.5}, "RFC 2198 + adaptive playout did not recover: MOS 3.50"),
    ("rtp", {"defaults": "", "explicit": ""}, "E5 fingerprint run produced no output"),
    (
        "rtp",
        {"explicit": "events_processed=10\n"},
        "media defaults are not inert: explicit-off E5 schedule differs",
    ),
    ("handover", {"handover.established": False}, "drill call never established"),
    (
        "handover",
        {"handover.survived": False},
        "handover-enabled call did not survive coverage loss",
    ),
    ("handover", {"handover.succeeded": 0}, "handover.succeeded counter never moved"),
    (
        "handover",
        {"handover.ssrc_stable": False},
        "RTP session was re-created across the migration",
    ),
    (
        "handover",
        {"handover.media_gap_ms": 1000.0},
        "media gap 1000.0 ms not under the 1000 ms RTP silence trigger",
    ),
    (
        "handover",
        {"handover.media_gap_ms": None},
        "media gap None ms not under the 1000 ms RTP silence trigger",
    ),
    (
        "handover",
        {"baseline.survived": True},
        "baseline call survived coverage loss without handover",
    ),
    (
        "handover",
        {"baseline.attempted": 1},
        "baseline run attempted a handover with the policy off",
    ),
    ("handover", {"report": ""}, "fresh-process drill rerun produced no output"),
    ("handover", {"legacy": ""}, "defaults-off fingerprint produced no output"),
    (
        "handover",
        {"legacy": '{"kind":"iface.down"}\n{"kind":"handover.trigger"}\n'},
        "defaults-off run leaked 2 handover/iface events",
    ),
    ("netsim", {"trace": ""}, "netsim trace probe produced no output"),
]


def doctored(gate: str, changes: dict) -> dict:
    facts = copy.deepcopy(GOOD[gate])
    for path, value in changes.items():
        *parents, leaf = path.split(".")
        target = facts
        for key in parents:
            target = target[key]
        target[leaf] = value
    return facts


def test_every_gate_is_covered_in_check_sh_order():
    assert list(gates.GATES) == [
        "trace", "faults", "overload", "metrics", "rtp", "handover", "netsim",
    ]
    assert set(GOOD) == set(gates.GATES)
    assert {gate for gate, _, _ in BREAKS} == set(gates.GATES)


@pytest.mark.parametrize("name", list(GOOD))
def test_passing_facts_print_the_ok_line(name):
    assert gates.GATES[name].check(GOOD[name]) == ([], OK_LINES[name])


@pytest.mark.parametrize(
    ("name", "changes", "message"),
    BREAKS,
    ids=[f"{gate}-{message[:40]}" for gate, _, message in BREAKS],
)
def test_each_predicate_reports_exactly_its_failure(name, changes, message):
    failures, _ = gates.GATES[name].check(doctored(name, changes))
    assert failures == [message]


def _fake_pair(monkeypatch, out_a: str, out_b: str) -> None:
    monkeypatch.setattr(gates, "fresh_pair", lambda code: (out_a, out_b))


def test_differing_fresh_runs_are_a_byte_identity_failure(monkeypatch, capsys):
    run_b = doctored("trace", {"trace": '{"kind":"packet.rx"}\n'})
    _fake_pair(monkeypatch, json.dumps(GOOD["trace"]), json.dumps(run_b))
    assert gates.run_gate(gates.GATES["trace"]) is False
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "FAIL: same-seed fresh-process trace runs differ (PYTHONHASHSEED 1 vs 2) in: trace\n"
    )


def test_identical_fresh_runs_print_the_ok_line(monkeypatch, capsys):
    out = json.dumps(GOOD["netsim"])
    _fake_pair(monkeypatch, out, out)
    assert gates.run_gate(gates.GATES["netsim"]) is True
    assert capsys.readouterr().out == OK_LINES["netsim"] + "\n"


def test_crashed_probe_is_reported(monkeypatch, capsys):
    def crash(code):
        raise subprocess.CalledProcessError(1, code, stderr="Traceback ...\nValueError: boom")

    monkeypatch.setattr(gates, "fresh_pair", crash)
    assert gates.run_gate(gates.GATES["rtp"]) is False
    assert "FAIL: fresh-process rtp probe crashed: Traceback ...\nValueError: boom" in (
        capsys.readouterr().err
    )


def test_no_names_runs_every_gate_in_order(monkeypatch):
    ran = []
    monkeypatch.setattr(gates, "run_gate", lambda gate: ran.append(gate.name) or True)
    assert gates.main([]) == 0
    assert ran == list(gates.GATES)


def test_any_failed_gate_exits_one(monkeypatch):
    monkeypatch.setattr(gates, "run_gate", lambda gate: gate.name != "rtp")
    assert gates.main(["trace", "rtp"]) == 1


def test_unknown_gate_name_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        gates.main(["trace", "nope"])
    assert excinfo.value.code != 0
    assert "unknown gate(s): nope" in capsys.readouterr().err


def test_fresh_pair_runs_under_two_hash_seeds():
    first, second = gates.fresh_pair("print(hash('siphoc'))")
    assert first != second


def test_trace_gate_end_to_end(capsys):
    assert gates.main(["trace"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trace smoke ok: ")
    assert "categories aodv, packet, rtp, sip, slp" in out
