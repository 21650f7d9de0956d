#!/usr/bin/env bash
# Repo gate: determinism lint, byte-identity gates, style lint, test suite — in
# order, failing fast.
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

echo "== repro.gates (schema, recovery, shedding, no observer effect, MOS contrast, handover survival; fresh-process byte identity) =="
python -m repro.gates

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
