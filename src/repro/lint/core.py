"""Analyzer core: findings, suppressions, the visitor framework, the engine.

Two analysis stages share this module. The *per-file* stage runs each
:class:`Rule` over one module AST; rules report :class:`Finding`\\ s
through a :class:`FileContext`, and most subclass :class:`RuleVisitor`.
The *whole-program* stage runs after every file has been summarized: a
:class:`ProgramRule` sees the :class:`~repro.lint.graph.ProjectGraph` of
module summaries and reports findings into any module, with that module's
suppressions still honoured.

:class:`ProjectAnalyzer` runs both stages, cold, over the whole tree on
every invocation.

Suppression: a trailing ``# lint: disable=DET001`` (comma-separated ids)
or a bare ``# lint: disable`` silences findings reported on that physical
line — or, when the comment sits on a continuation line, on the logical
line it belongs to. Suppressions are per line, never per file: a blanket
opt-out would defeat the determinism contract the analyzer enforces.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Matches ``# lint: disable`` / ``# lint: disable=DET001,CACHE001``.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable(?:\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+))?")

#: Sentinel stored in the suppression table meaning "every rule".
_ALL_RULES = "*"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


class Suppressions:
    """Per-line ``# lint: disable=...`` comments, parsed from the token stream.

    Comments are read with :mod:`tokenize` rather than a regex over raw
    lines so a ``# lint: disable`` inside a string literal is not honoured.
    A comment on a *continuation* line of a multi-line statement also
    registers on the logical line's first physical line, because rules
    report findings at the statement's start.
    """

    def __init__(self, source: str) -> None:
        self._by_line: dict[int, set[str]] = {}
        logical_start: int | None = None
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.NEWLINE:
                    logical_start = None
                    continue
                if token.type == tokenize.COMMENT:
                    match = _SUPPRESS_RE.search(token.string)
                    if match is None:
                        continue
                    ids_text = match.group("ids")
                    lines = {token.start[0]}
                    if logical_start is not None:
                        lines.add(logical_start)
                    for line in lines:
                        line_set = self._by_line.setdefault(line, set())
                        if ids_text is None:
                            line_set.add(_ALL_RULES)
                        else:
                            line_set.update(
                                chunk.strip().upper()
                                for chunk in ids_text.split(",")
                                if chunk.strip()
                            )
                    continue
                if token.type in (
                    tokenize.NL,
                    tokenize.INDENT,
                    tokenize.DEDENT,
                    tokenize.ENCODING,
                    tokenize.ENDMARKER,
                ):
                    continue
                if logical_start is None:
                    logical_start = token.start[0]
        except tokenize.TokenError:
            pass  # unterminated source; the parse error surfaces elsewhere

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        ids = self._by_line.get(line)
        if not ids:
            return False
        return _ALL_RULES in ids or rule_id.upper() in ids


class FileContext:
    """Per-file state shared by every rule: source, imports, findings."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.suppressions = Suppressions(source)
        self.findings: list[Finding] = []
        self.suppressed_count = 0
        self.import_map: dict[str, str] = {}

    def build_import_map(self, tree: ast.Module) -> None:
        """Map local names to dotted origins (``m`` -> ``time.monotonic``)."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    self.import_map[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    origin = f"{module}.{alias.name}" if module else alias.name
                    self.import_map[local] = origin

    def resolve_dotted(self, node: ast.expr) -> str | None:
        """Dotted name of an expression, resolved through the import map.

        ``datetime.now`` with ``from datetime import datetime`` resolves to
        ``datetime.datetime.now``; non-name expressions resolve to ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.import_map.get(node.id, node.id)
        parts.append(base)
        parts.reverse()
        return ".".join(parts)

    def report(self, rule: "Rule", node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressions.is_suppressed(line, rule.id):
            self.suppressed_count += 1
            return
        self.findings.append(Finding(self.path, line, col + 1, rule.id, message))


class Rule:
    """Base class for per-file analyzer rules.

    Subclasses set :attr:`id`, :attr:`title` and :attr:`rationale`, narrow
    :meth:`applies_to` if path-scoped, and either provide a
    :attr:`visitor_class` (a :class:`RuleVisitor` subclass) or override
    :meth:`check` for whole-module analyses.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    visitor_class: "type[RuleVisitor] | None" = None

    def applies_to(self, path: Path) -> bool:
        return True

    def check(self, tree: ast.Module, ctx: FileContext) -> None:
        if self.visitor_class is None:  # pragma: no cover - abstract misuse
            raise NotImplementedError(f"{self.id}: no visitor_class and no check()")
        self.visitor_class(self, ctx).visit(tree)


class ProgramRule(Rule):
    """Base class for whole-program rules (SHARD001, the DET002 sweep).

    These run once per analysis over the assembled
    :class:`~repro.lint.graph.ProjectGraph` instead of per file; they see
    every module's summary (imports, dataflow facts) and
    report through ``report(summary, line, col, message)``. Suppression
    comments in the *flagged* module still apply.
    """

    def check(self, tree: ast.Module, ctx: FileContext) -> None:
        """Program rules do not participate in the per-file stage."""

    def check_program(self, graph: "ProjectGraph", report: "ProgramReporter") -> None:
        raise NotImplementedError(f"{self.id}: check_program() not implemented")


class RuleVisitor(ast.NodeVisitor):
    """``ast.NodeVisitor`` with class/function scope stacks.

    Subclasses override ``visit_*`` for the nodes they care about and call
    ``self.generic_visit(node)`` to keep descending. ``visit_ClassDef`` /
    function visits maintain the stacks; override ``handle_ClassDef`` etc.
    to hook those nodes without losing the bookkeeping.
    """

    def __init__(self, rule: Rule, ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.class_stack: list[ast.ClassDef] = []
        self.function_stack: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    @property
    def current_class(self) -> ast.ClassDef | None:
        return self.class_stack[-1] if self.class_stack else None

    def report(self, node: ast.AST, message: str) -> None:
        self.ctx.report(self.rule, node, message)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node)
        self.handle_ClassDef(node)
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.function_stack.append(node)
        self.handle_FunctionDef(node)
        self.generic_visit(node)
        self.function_stack.pop()

    def handle_ClassDef(self, node: ast.ClassDef) -> None:
        """Hook for subclasses; scope bookkeeping is already done."""

    def handle_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Hook for subclasses; scope bookkeeping is already done."""


# ---------------------------------------------------------------------------
# Whole-program orchestration
# ---------------------------------------------------------------------------

from repro.lint.dataflow import analyze_module as _analyze_dataflow  # noqa: E402
from repro.lint.graph import ModuleSummary, ProjectGraph, module_name_for_path  # noqa: E402


class ProgramReporter:
    """Routes program-rule findings through per-module suppression tables."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self.suppressed_count = 0
        self._rule: Rule | None = None

    def bind(self, rule: Rule) -> None:
        self._rule = rule

    def __call__(
        self, summary: ModuleSummary, line: int, col: int, message: str
    ) -> None:
        assert self._rule is not None
        if summary.suppressions.is_suppressed(line, self._rule.id):
            self.suppressed_count += 1
            return
        self.findings.append(
            Finding(summary.path, line, col + 1, self._rule.id, message)
        )


@dataclass
class ProjectResult:
    """Outcome of one whole-program analysis."""

    findings: list[Finding]
    files_checked: int


def _unreadable(path: str, line: int, col: int, message: str) -> ModuleSummary:
    """Summary of a module that could not be decoded or parsed."""
    finding = Finding(path, line, col, "PARSE", message)
    return ModuleSummary(
        path=path,
        module=module_name_for_path(Path(path)),
        suppressions=Suppressions(""),
        findings=[finding],
    )


class ProjectAnalyzer:
    """Runs the per-file stage over every module, then the whole-program stage."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        if rules is None:
            from repro.lint.rules import ALL_RULES

            rules = ALL_RULES
        self.file_rules = [r for r in rules if not isinstance(r, ProgramRule)]
        self.program_rules = [r for r in rules if isinstance(r, ProgramRule)]

    # -- per-file stage ----------------------------------------------------

    def summarize_file(self, path: Path) -> ModuleSummary:
        """Read one module and summarize it; undecodable bytes are a ``PARSE`` finding."""
        try:
            source = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raw = exc.object
            line_start = raw.rfind(b"\n", 0, exc.start) + 1
            return _unreadable(
                str(path),
                raw.count(b"\n", 0, exc.start) + 1,
                exc.start - line_start + 1,
                f"cannot decode source as UTF-8: {exc.reason} (byte 0x{raw[exc.start]:02x})",
            )
        return self.summarize_source(source, str(path))

    def summarize_source(self, source: str, path: str) -> ModuleSummary:
        """Run per-file rules and dataflow extraction over one module."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return _unreadable(
                path, exc.lineno or 1, exc.offset or 1, f"syntax error: {exc.msg}"
            )
        ctx = FileContext(path, source)
        ctx.build_import_map(tree)
        resolved = Path(path)
        for rule in self.file_rules:
            if rule.applies_to(resolved):
                rule.check(tree, ctx)
        return ModuleSummary(
            path=path,
            module=module_name_for_path(resolved),
            suppressions=ctx.suppressions,
            import_map=ctx.import_map,
            findings=sorted(ctx.findings, key=Finding.sort_key),
            flow=_analyze_dataflow(tree, ctx.import_map),
        )

    # -- whole-program stage ----------------------------------------------

    def run_program_rules(self, graph: ProjectGraph) -> list[Finding]:
        reporter = ProgramReporter()
        for rule in self.program_rules:
            reporter.bind(rule)
            rule.check_program(graph, reporter)
        return reporter.findings

    def _analyze(self, summaries: list[ModuleSummary]) -> list[Finding]:
        findings = [finding for summary in summaries for finding in summary.findings]
        findings.extend(self.run_program_rules(ProjectGraph(summaries)))
        return sorted(findings, key=Finding.sort_key)

    # -- orchestration -----------------------------------------------------

    def analyze_paths(self, paths: Iterable[str | Path]) -> ProjectResult:
        files = list(iter_python_files(paths))
        summaries = [self.summarize_file(path) for path in files]
        return ProjectResult(findings=self._analyze(summaries), files_checked=len(files))

    def analyze_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Single-module analysis: per-file rules plus a one-module program."""
        return self._analyze([self.summarize_source(source, path)])

    def analyze_file(self, path: str | Path) -> list[Finding]:
        return self._analyze([self.summarize_file(Path(path))])


# ---------------------------------------------------------------------------
# Module-level helpers (the public API)
# ---------------------------------------------------------------------------


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py":
            yield path


def analyze_source(
    source: str, path: str = "<string>", rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Analyze one module's source text with the given (default: all) rules."""
    return ProjectAnalyzer(rules).analyze_source(source, path)


def analyze_file(path: str | Path, rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Analyze one file on disk."""
    return ProjectAnalyzer(rules).analyze_file(path)


def run_paths(
    paths: Iterable[str | Path], rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths`` as one whole program."""
    return ProjectAnalyzer(rules).analyze_paths(paths).findings
