"""Intra-procedural dataflow facts for the whole-program pass.

This module answers, per function, the two questions the whole-program
rules need. Which module globals does the function write at runtime —
locally or across a module boundary (SHARD001)? Which of its parameters
draw from an RNG, and which of its call sites pass the bare ``random``
module as an argument (the DET002 indirection sweep)? Per module it also
lists the mutable module-level bindings and whether each is registered
with :mod:`repro.globalstate`.

The facts are plain data (:class:`FunctionFlow`, :class:`ModuleFlow`) so
:mod:`repro.lint.graph` can join them across modules without touching an
AST again.

The analysis is deliberately conservative and syntactic: no fixpoints, no
aliasing beyond single assignment chains. False negatives are acceptable
(the rules certify known-risky *patterns*, they are not a soundness
proof); false positives are not, because ``tools/check.sh`` enforces a
clean tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "FunctionFlow",
    "ModuleFlow",
    "analyze_module",
]

#: ``random.Random`` consumer methods: a parameter these are called on is
#: an RNG sink, so passing the global ``random`` module into it smuggles
#: process-global randomness past DET002's per-module view.
RNG_METHODS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Constructor spellings that produce a mutable container / allocator.
#: Maps resolved dotted name (or syntactic kind) to a human-readable kind.
MUTABLE_CONSTRUCTORS = {
    "bytearray": "bytearray",
    "collections.Counter": "counter-dict",
    "collections.OrderedDict": "dict",
    "collections.defaultdict": "dict",
    "collections.deque": "deque",
    "dict": "dict",
    "itertools.count": "id counter",
    "list": "list",
    "set": "set",
}

#: Dotted prefixes that mark a module-level binding as registered with the
#: global-state registry (repro.globalstate) and therefore resettable.
REGISTRY_PREFIXES = ("repro.globalstate.",)
REGISTRY_FACTORY_SUFFIXES = (
    ".registry.counter",
    ".registry.mapping",
    ".registry.sequence",
    ".registry.register",
)


def _dotted(node: ast.expr, import_map: dict[str, str]) -> str | None:
    """Resolve an attribute chain through the import map (cf. FileContext)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(import_map.get(node.id, node.id))
    parts.reverse()
    return ".".join(parts)


def is_registry_call(value: ast.expr, import_map: dict[str, str]) -> bool:
    """True if ``value`` is a call into the repro.globalstate registry."""
    if not isinstance(value, ast.Call):
        return False
    name = _dotted(value.func, import_map)
    if name is None:
        return False
    return name.startswith(REGISTRY_PREFIXES) or name.endswith(REGISTRY_FACTORY_SUFFIXES)


def mutable_kind(value: ast.expr, import_map: dict[str, str]) -> str | None:
    """Classify ``value`` as a mutable-container constructor, or ``None``."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        name = _dotted(value.func, import_map)
        if name is not None:
            return MUTABLE_CONSTRUCTORS.get(name)
    return None


@dataclass
class FunctionFlow:
    """Per-function dataflow facts."""

    qualname: str
    params: list[str] = field(default_factory=list)
    #: Params that have RNG consumer methods called on them.
    rng_consuming_params: list[str] = field(default_factory=list)
    #: Module globals this function writes at runtime: ``[{name, line, col, how}]``.
    global_writes: list[dict[str, Any]] = field(default_factory=list)
    #: Writes to another module's top-level binding:
    #: ``[{module, name, line, col, how}]`` (module is the *resolved dotted*
    #: spelling from this module's import map).
    external_writes: list[dict[str, Any]] = field(default_factory=list)
    #: Call sites passing the bare ``random`` module as an argument:
    #: ``[{callee, line, col, arg_position, keyword}]``.
    random_module_args: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class ModuleFlow:
    """Everything the whole-program pass needs to know about one module."""

    #: Module-level mutable bindings: ``[{name, line, col, kind, registered}]``.
    mutable_globals: list[dict[str, Any]] = field(default_factory=list)
    functions: list[FunctionFlow] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _iter_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Nodes lexically in ``node``'s scope, not descending into nested scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(child))


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


class _FunctionAnalyzer:
    """Single-pass extraction over one function body."""

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        import_map: dict[str, str],
        module_globals: set[str],
        imported_module_aliases: dict[str, str],
    ) -> None:
        self.func = func
        self.import_map = import_map
        self.module_globals = module_globals
        self.imported_module_aliases = imported_module_aliases
        self.flow = FunctionFlow(qualname=qualname, params=_param_names(func))
        self.declared_global: set[str] = set()
        self.locals: set[str] = set()

    def _is_random_module(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Name)
            and node.id not in self.locals
            and self.import_map.get(node.id, None) == "random"
        )

    def run(self) -> FunctionFlow:
        statements = list(_iter_scope(self.func))
        # Pass 1: local bindings and global declarations.
        for node in statements:
            if isinstance(node, ast.Global):
                self.declared_global.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.locals.add(node.id)
        self.locals -= self.declared_global
        # Pass 2: calls and stores.
        for node in statements:
            if isinstance(node, ast.Call):
                self._inspect_call(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._inspect_store(node, target)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._inspect_store(node, node.target)
            elif isinstance(node, ast.AugAssign):
                self._inspect_store(node, node.target, how="augmented assignment")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._inspect_store(node, target, how="del")
        return self.flow

    # -- call / store inspection ------------------------------------------

    def _inspect_call(self, node: ast.Call) -> None:
        callee = _dotted(node.func, self.import_map)
        # RNG consumer params: p.random()/p.choice() on a parameter name.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in RNG_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.flow.params
        ):
            if node.func.value.id not in self.flow.rng_consuming_params:
                self.flow.rng_consuming_params.append(node.func.value.id)
        # The bare `random` module passed as an argument.
        if callee is not None:
            for position, arg in enumerate(node.args):
                if self._is_random_module(arg):
                    self._record_random_arg(node, callee, position, None)
            for keyword in node.keywords:
                if keyword.arg is not None and self._is_random_module(keyword.value):
                    self._record_random_arg(node, callee, None, keyword.arg)
        # next(counter) on a module global, and in-place mutation of module
        # globals / other modules' globals.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "next"
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            target = node.args[0]
            if target.id not in self.locals and target.id in self.module_globals:
                self._record_global_write(node, target.id, "next() draw")
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATING_METHODS:
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id not in self.locals
                and receiver.id in self.module_globals
            ):
                self._record_global_write(node, receiver.id, f".{node.func.attr}()")
            self._maybe_external_write(node, receiver, f".{node.func.attr}()")

    def _record_random_arg(
        self, node: ast.Call, callee: str, position: int | None, keyword: str | None
    ) -> None:
        self.flow.random_module_args.append(
            {
                "callee": callee,
                "line": node.lineno,
                "col": node.col_offset,
                "arg_position": position,
                "keyword": keyword,
            }
        )

    def _record_global_write(self, node: ast.AST, name: str, how: str) -> None:
        self.flow.global_writes.append(
            {
                "name": name,
                "line": getattr(node, "lineno", 1),
                "col": getattr(node, "col_offset", 0),
                "how": how,
            }
        )

    def _maybe_external_write(self, node: ast.AST, target: ast.expr, how: str) -> None:
        """Record ``other_module.binding`` writes (attribute on a module alias)."""
        if not isinstance(target, ast.Attribute):
            return
        base = target.value
        if not isinstance(base, ast.Name) or base.id in self.locals:
            return
        module = self.imported_module_aliases.get(base.id)
        if module is None:
            return
        self.flow.external_writes.append(
            {
                "module": module,
                "name": target.attr,
                "line": getattr(node, "lineno", 1),
                "col": getattr(node, "col_offset", 0),
                "how": how,
            }
        )

    def _inspect_store(self, stmt: ast.AST, target: ast.expr, how: str = "assignment") -> None:
        # global NAME = ... rebinding, NAME[k] = ... on module globals.
        root = target
        while isinstance(root, ast.Subscript):
            root = root.value
        if isinstance(root, ast.Name):
            if root.id in self.declared_global and root.id in self.module_globals:
                self._record_global_write(stmt, root.id, how)
            elif (
                isinstance(target, ast.Subscript)
                and root.id not in self.locals
                and root.id in self.module_globals
            ):
                self._record_global_write(stmt, root.id, "item " + how)
        elif isinstance(root, ast.Attribute):
            self._maybe_external_write(stmt, root, how)


def analyze_module(
    tree: ast.Module,
    import_map: dict[str, str],
) -> ModuleFlow:
    """Extract the whole-program facts for one parsed module."""
    module_globals = _module_level_names(tree)
    imported_module_aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                imported_module_aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                # `from repro.sip import dialog` binds a module object; we
                # cannot know statically, so record the candidate — the
                # project graph checks whether the dotted target is a module.
                imported_module_aliases[local] = f"{module}.{alias.name}" if module else alias.name

    flow = ModuleFlow()

    # Module-level mutable bindings.
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        kind = mutable_kind(value, import_map)
        registered = is_registry_call(value, import_map)
        if kind is None and not registered:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                flow.mutable_globals.append(
                    {
                        "name": target.id,
                        "line": node.lineno,
                        "col": node.col_offset,
                        "kind": kind or "registered state",
                        "registered": registered,
                    }
                )

    # Functions and methods (one level of class nesting).
    def visit_functions(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                analyzer = _FunctionAnalyzer(
                    node,
                    prefix + node.name,
                    import_map,
                    module_globals,
                    imported_module_aliases,
                )
                flow.functions.append(analyzer.run())
                # Nested defs get their own (shallow) analysis so closures
                # passed around inside helpers are still inspected.
                visit_functions(
                    [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))],
                    prefix + node.name + ".",
                )
            elif isinstance(node, ast.ClassDef):
                visit_functions(node.body, prefix + node.name + ".")

    visit_functions(tree.body, "")
    return flow
