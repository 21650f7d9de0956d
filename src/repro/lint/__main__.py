"""CLI: ``python -m repro.lint [paths] [options]``.

Options::

    --format text|json   report format (default: text)
    --select IDS         comma-separated rule ids to run
    --list-rules         print the rule registry and exit

Every run analyzes the whole tree cold. Exits 0 when every checked file
is clean, 1 when there are findings, and 2 on usage errors (unknown rule
id, no files).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.lint.core import ProjectAnalyzer, iter_python_files
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import ALL_RULES, get_rules

_RENDERERS = {"text": render_text, "json": render_json}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism & cache-coherence static analyzer for the "
        "SIPHoc reproduction (whole-program).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(_RENDERERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        seen: set[str] = set()
        for rule in ALL_RULES:
            marker = "*" if rule.id in seen else " "
            seen.add(rule.id)
            print(f"{rule.id:9}{marker} {rule.title}")
        return 0

    try:
        rules = get_rules(args.select.split(",")) if args.select else None
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    files = list(iter_python_files(args.paths))
    if not files:
        print(f"no python files under: {', '.join(args.paths)}", file=sys.stderr)
        return 2

    result = ProjectAnalyzer(rules).analyze_paths(files)
    renderer = _RENDERERS[args.format]
    print(renderer(result.findings, files_checked=result.files_checked))
    return 1 if result.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
