"""Tier-1 enforcement: the production tree must satisfy its own analyzer.

This is the contract that keeps the determinism/cache invariants from
regressing: any new wall-clock read, global-RNG draw, bare-set iteration
in an order-sensitive subsystem, cache-bypassing mutation or unregistered
module-global state fails the suite, not just a code review.
"""

import contextlib
import io
from pathlib import Path

import pytest

from repro.lint import iter_python_files
from repro.lint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def cli_run():
    # Lint src/repro once through the CLI; both checks below read this run.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([str(SRC)])
    return status, out.getvalue()


def test_src_repro_has_zero_findings(cli_run):
    status, out = cli_run
    assert status == 0, "repro.lint findings in src/repro:\n" + out


def test_cli_clean_run_exits_zero(cli_run):
    status, out = cli_run
    assert status == 0
    assert "clean: 0 findings" in out


def test_src_tree_is_nontrivial():
    # Guard against a path typo silently turning the self-clean test into
    # a no-op: the production tree is dozens of modules.
    assert len(list(iter_python_files([SRC]))) > 50
