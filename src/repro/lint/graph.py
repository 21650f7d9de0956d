"""Whole-program structure: module summaries, name resolution, write index.

The per-file stage (:mod:`repro.lint.core`) produces one
:class:`ModuleSummary` per analyzed file — its dotted module name, import
map, suppressions, per-file findings and the dataflow facts from
:mod:`repro.lint.dataflow`. This module assembles those summaries into a
:class:`ProjectGraph`: function resolution through the import graph plus
a cross-module index of writes to module globals, on which SHARD001 and
the DET002 indirection sweep run without touching an AST again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.lint.dataflow import FunctionFlow, ModuleFlow

if TYPE_CHECKING:
    from repro.lint.core import Finding, Suppressions

__all__ = [
    "ModuleSummary",
    "ProjectGraph",
    "module_name_for_path",
]

#: Maximum re-export hops followed while resolving a dotted name.
_MAX_RESOLVE_DEPTH = 8


def module_name_for_path(path: Path) -> str:
    """Dotted module name for a source path.

    Paths under a ``src`` directory map to their package-dotted name
    (``src/repro/sip/dialog.py`` -> ``repro.sip.dialog``); anything else
    (fixtures, scratch files) maps to its stem so single-file programs
    still form a one-module graph.
    """
    parts = list(path.parts)
    if "src" in parts:
        rel = parts[len(parts) - 1 - parts[::-1].index("src") + 1 :]
    else:
        rel = [parts[-1]] if parts else []
    if not rel:
        return path.stem
    rel = list(rel)
    rel[-1] = rel[-1][:-3] if rel[-1].endswith(".py") else rel[-1]
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel) if rel else path.stem


@dataclass
class ModuleSummary:
    """Everything the whole-program pass knows about one module."""

    path: str
    module: str
    suppressions: Suppressions
    import_map: dict[str, str] = field(default_factory=dict)
    #: Per-file rule findings, sorted.
    findings: list[Finding] = field(default_factory=list)
    flow: ModuleFlow = field(default_factory=ModuleFlow)


@dataclass(frozen=True)
class ResolvedFunction:
    """A function definition located in the project."""

    module: str
    fn: FunctionFlow

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.fn.qualname}"


class ProjectGraph:
    """Name resolution and the global-write index over module summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        self._function_index: dict[str, dict[str, FunctionFlow]] = {
            name: {fn.qualname: fn for fn in summary.flow.functions}
            for name, summary in self.modules.items()
        }

    def __iter__(self) -> Iterator[ModuleSummary]:
        for name in sorted(self.modules):
            yield self.modules[name]

    def resolve_function(
        self, dotted: str, from_module: str | None = None
    ) -> ResolvedFunction | None:
        """Locate a module-level function by dotted name, following re-exports."""
        for _ in range(_MAX_RESOLVE_DEPTH):
            if from_module is not None and "." not in dotted:
                local = self._function_index.get(from_module, {}).get(dotted)
                if local is not None:
                    return ResolvedFunction(from_module, local)
                origin = self.modules[from_module].import_map.get(dotted) if (
                    from_module in self.modules
                ) else None
                if origin is None or origin == dotted:
                    return None
                dotted, from_module = origin, None
                continue
            head, _, tail = dotted.rpartition(".")
            if head in self.modules and tail:
                found = self._function_index[head].get(tail)
                if found is not None:
                    return ResolvedFunction(head, found)
                origin = self.modules[head].import_map.get(tail)
                if origin is not None and origin != dotted:
                    dotted, from_module = origin, None
                    continue
                return None
            return None
        return None

    def global_writes_to(self, module: str, name: str) -> list[dict[str, Any]]:
        """Every runtime write to ``module.name``, local or cross-module.

        Returns write records augmented with a ``from`` key naming the
        writing module. Cross-module writes match on the dotted spelling
        the writer imported (``from repro.sip import auth`` records
        ``repro.sip.auth``); aliases of aliases are not chased.
        """
        writes: list[dict[str, Any]] = []
        target = self.modules.get(module)
        if target is not None:
            for fn in target.flow.functions:
                for write in fn.global_writes:
                    if write["name"] == name:
                        writes.append({**write, "from": module})
        for other_name in sorted(self.modules):
            for fn in self.modules[other_name].flow.functions:
                for write in fn.external_writes:
                    if write["name"] == name and write["module"] == module:
                        writes.append({**write, "from": other_name})
        return writes
