#!/usr/bin/env bash
# Repo gate: determinism lint, style lint, test suite — in order, failing fast.
#
# Usage: tools/check.sh
#
# ruff and mypy come from the dev extra (`pip install -e '.[dev]'`); when not
# installed those steps are reported and skipped so the determinism lint and
# the test suite still gate the change.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro.lint (whole-program: determinism, cache coherence, registered global state) =="
python -m repro.lint src/

echo "== repro.trace smoke (traced scenario, JSONL schema) =="
python -m repro.trace smoke

echo "== repro.faults smoke (chaos recovery + deterministic schedules) =="
python -m repro.faults smoke

echo "== repro.overload smoke (graceful shedding + byte-identical reruns) =="
python -m repro.overload smoke

echo "== repro.metrics smoke (byte-identical exports + no observer effect) =="
python -m repro.metrics smoke

echo "== repro.rtp smoke (MOS recovery contrast + inert media defaults) =="
python -m repro.rtp smoke

echo "== repro.handover smoke (mid-call survival + byte-identical reruns) =="
python -m repro.handover smoke

echo "== netsim determinism smoke (two fresh interpreters, byte-identical traces) =="
trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT
PYTHONHASHSEED=1 python -m repro.netsim trace --out "$trace_dir/a.jsonl"
PYTHONHASHSEED=2 python -m repro.netsim trace --out "$trace_dir/b.jsonl"
cmp "$trace_dir/a.jsonl" "$trace_dir/b.jsonl"
echo "netsim determinism ok: $(wc -l < "$trace_dir/a.jsonl") trace lines byte-identical"

echo "== ruff check =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src/
else
    echo "ruff not installed (pip install -e '.[dev]') — skipped"
fi

echo "== mypy (src/repro/lint, src/repro/netsim) =="
if command -v mypy >/dev/null 2>&1; then
    mypy src/repro/lint src/repro/netsim
else
    echo "mypy not installed (pip install -e '.[dev]') — skipped"
fi

echo "== pytest =="
python -m pytest -x -q
