"""§5k mid-call multihomed handover: drills and reports.

The policy itself lives in :class:`repro.core.connection.HandoverPolicy`;
this package holds the harness around it. Like :mod:`repro.overload`, the
namespace is deliberately import-light — the harness imports
:mod:`repro.scenarios`, so re-exporting it here could grow an import
cycle with the scenario layer. Import as::

    from repro.handover.harness import DrillConfig, run_drill

or drive it from the command line: ``python -m repro.handover drill``.
"""
