"""repro.lint — determinism & cache-coherence static analyzer.

The reproduction's headline property — bit-identical seeded runs of the
SIPHoc call flow — rests on conventions that ordinary tests cannot see:
all time must come from :attr:`Simulator.now`, all randomness from
:attr:`Simulator.rng`, every cache-backed object must be mutated through
its versioned API, and nothing order-sensitive may iterate a bare ``set``.
This package machine-checks those conventions with a stdlib-only AST
analyzer, the way sanitizers and race detectors guard a systems codebase.

Usage::

    python -m repro.lint src/              # lint, text report, exit 1 on findings
    python -m repro.lint --format json src/
    python -m repro.lint --list-rules

Rules (see DESIGN.md §5c and §5h for rationale):

========  ====================================================================
DET001    wall-clock reads (``time.time``/``monotonic``/``perf_counter``,
          ``datetime.now``) anywhere outside ``benchmarks/``
DET002    module-level ``random.*`` calls / un-seeded ``random.Random()``
DET003    iteration over bare ``set``/``frozenset`` in ``netsim/``, ``core/``,
          ``routing/`` (set order feeds event scheduling)
CACHE001  external mutation of cache-versioned private attributes of
          ``Headers``/``SipMessage``
CACHE002  writes to ``Node._position`` that bypass the epoch-notifying setter
SIM001    ``==``/``!=`` on simulation-time expressions (float clock values)
FAULT001  wall-clock or ``random.*`` (even seeded) under ``faults/``
OBS001    wall-clock or ``random.*`` (even seeded) under ``metrics/`` and
          ``handover/``
OVR001    unbounded queues in ``netsim/`` and ``core/`` hot paths
PERF001   direct ``heapq`` use outside ``repro/netsim/kernel.py`` (event
          ordering must go through the event kernel)
SHARD001  whole-program: module-level mutable state written at runtime but
          not registered with ``repro.globalstate.registry`` (in-process
          reruns rely on ``registry.reset_all()``)
========  ====================================================================

DET002 also runs a whole-program sweep: the global ``random`` module
passed as an argument to a parameter that draws from it.

Findings are suppressed per line with ``# lint: disable=RULEID`` (comma
separated ids, or bare ``# lint: disable`` for every rule).
"""

from repro.lint.core import (
    Finding,
    Rule,
    RuleVisitor,
    analyze_file,
    analyze_source,
    iter_python_files,
    run_paths,
)
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "Rule",
    "RuleVisitor",
    "analyze_file",
    "analyze_source",
    "get_rules",
    "iter_python_files",
    "render_json",
    "render_text",
    "run_paths",
]
