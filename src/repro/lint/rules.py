"""The project rule set.

Per-file rules: DET001–DET003, CACHE001–CACHE002, SIM001, FAULT001,
OBS001, OVR001, PERF001. Whole-program rules: SHARD001 (unregistered
module-global state) and the cross-call DET002 sweep. Every rule guards
an invariant that seeded-run determinism, the serialize caches or
in-process reruns depend on; DESIGN.md §5c/§5h document the rationale
for each.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Sequence

from repro.lint.core import FileContext, ProgramRule, ProgramReporter, Rule, RuleVisitor
from repro.lint.graph import ProjectGraph

# ---------------------------------------------------------------------------
# DET001 — wall-clock access
# ---------------------------------------------------------------------------

#: Resolved dotted names that read the host clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class _WallClockVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_dotted(node.func)
        if name in _WALL_CLOCK_CALLS:
            self.report(
                node,
                f"wall-clock call {name}(): simulation code must read time "
                "from Simulator.now so seeded runs stay bit-identical",
            )
        self.generic_visit(node)


class WallClockRule(Rule):
    id = "DET001"
    title = "no wall-clock reads outside benchmarks"
    rationale = (
        "Any code path keyed on host time diverges between runs; simulation "
        "time is Simulator.now, and only benchmarks may touch the real clock."
    )
    visitor_class = _WallClockVisitor

    def applies_to(self, path: Path) -> bool:
        return "benchmarks" not in path.parts


# ---------------------------------------------------------------------------
# DET002 — global random module usage
# ---------------------------------------------------------------------------


class _GlobalRandomVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_dotted(node.func)
        if name == "random.Random":
            if not node.args and not node.keywords:
                self.report(
                    node,
                    "un-seeded random.Random(): seed it from the scenario "
                    "(ultimately Simulator.seed) or draw from Simulator.rng",
                )
        elif name == "random.SystemRandom":
            self.report(
                node,
                "random.SystemRandom() is entropy-backed and never "
                "reproducible; draw from Simulator.rng",
            )
        elif name is not None and name.startswith("random.") and name.count(".") == 1:
            self.report(
                node,
                f"{name}() uses the process-global RNG: randomness must flow "
                "from the simulator's seeded Simulator.rng",
            )
        self.generic_visit(node)


class GlobalRandomRule(Rule):
    id = "DET002"
    title = "no module-level random.* calls or un-seeded random.Random()"
    rationale = (
        "The process-global RNG is shared, import-order dependent and "
        "unseeded; every draw must come from the simulator's seeded "
        "random.Random so a scenario seed pins the whole run."
    )
    visitor_class = _GlobalRandomVisitor


# ---------------------------------------------------------------------------
# DET003 — iteration over bare sets in order-sensitive subsystems
# ---------------------------------------------------------------------------

#: Annotation spellings that make a name set-typed.
_SET_ANNOTATION_RE = re.compile(
    r"^(typing\.)?(set|frozenset|Set|FrozenSet|MutableSet|AbstractSet)\b"
)

#: Builtins whose call on a set is flagged: they materialize an ordered
#: sequence from the set's hash order.
_ORDERED_SINKS = frozenset({"list", "tuple", "enumerate", "iter", "next"})


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - defensive
        return False
    return _SET_ANNOTATION_RE.match(text) is not None


class _SetTypes:
    """Names/attributes known set-typed within one lexical scope."""

    def __init__(self, local_names: set[str], self_attrs: set[str]) -> None:
        self.local_names = local_names
        self.self_attrs = self_attrs

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
        if isinstance(node, ast.Name):
            return node.id in self.local_names
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.self_attrs
            )
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False


def _is_scope_boundary(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))


def _scope_statements(scope: ast.AST) -> list[ast.AST]:
    """All nodes lexically inside ``scope``, not descending into nested scopes."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        out.append(node)
        if not _is_scope_boundary(node):
            stack.extend(ast.iter_child_nodes(node))
    return out


def _collect_local_set_names(scope: ast.AST) -> set[str]:
    """Names assigned a syntactic set (or annotated as one) in this scope."""
    names: set[str] = set()
    syntactic = _SetTypes(set(), set())
    for node in _scope_statements(scope):
        if isinstance(node, ast.Assign) and syntactic.is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation) or (
                node.value is not None and syntactic.is_set_expr(node.value)
            ):
                names.add(node.target.id)
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_set(arg.annotation):
                names.add(arg.arg)
    return names


def _collect_self_set_attrs(class_node: ast.ClassDef) -> set[str]:
    """``self.X`` attributes assigned/annotated set-typed anywhere in the class."""
    attrs: set[str] = set()
    syntactic = _SetTypes(set(), set())
    for node in ast.walk(class_node):
        target: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if syntactic.is_set_expr(node.value):
                target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            if _annotation_is_set(node.annotation) or (
                node.value is not None and syntactic.is_set_expr(node.value)
            ):
                target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            attrs.add(target.attr)
    return attrs


class SetIterationRule(Rule):
    id = "DET003"
    title = "no ordered iteration over bare sets in netsim/, core/, routing/"
    rationale = (
        "Set iteration order follows hash seeds and insertion history, not "
        "the scenario seed; anything it feeds (event scheduling, neighbor "
        "visits, route selection) becomes run-dependent. Iterate "
        "sorted(the_set) instead."
    )

    SCOPED_DIRS = frozenset({"netsim", "core", "routing"})

    def applies_to(self, path: Path) -> bool:
        return any(part in self.SCOPED_DIRS for part in path.parts)

    def check(self, tree: ast.Module, ctx: FileContext) -> None:
        class_attrs: dict[ast.ClassDef, set[str]] = {
            node: _collect_self_set_attrs(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        self._check_scope(tree, ctx, _collect_local_set_names(tree), set())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = self._enclosing_class(tree, node)
                self_attrs = class_attrs.get(owner, set()) if owner else set()
                self._check_scope(
                    node, ctx, _collect_local_set_names(node), self_attrs
                )

    @staticmethod
    def _enclosing_class(
        tree: ast.Module, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> ast.ClassDef | None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and func in node.body:
                return node
        return None

    def _check_scope(
        self,
        scope: ast.AST,
        ctx: FileContext,
        local_names: set[str],
        self_attrs: set[str],
    ) -> None:
        types = _SetTypes(local_names, self_attrs)
        for node in _scope_statements(scope):
            if isinstance(node, ast.For) and types.is_set_expr(node.iter):
                self._flag(ctx, node, node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if types.is_set_expr(generator.iter):
                        self._flag(ctx, node, generator.iter)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDERED_SINKS and node.args:
                    if types.is_set_expr(node.args[0]):
                        self._flag(ctx, node, node.args[0])
            elif isinstance(node, ast.Starred) and types.is_set_expr(node.value):
                self._flag(ctx, node, node.value)

    def _flag(self, ctx: FileContext, node: ast.AST, iter_expr: ast.expr) -> None:
        try:
            shown = ast.unparse(iter_expr)
        except Exception:  # pragma: no cover - defensive
            shown = "<set>"
        ctx.report(
            self,
            node,
            f"ordered iteration over bare set {shown!r}: set order is not "
            "seed-stable; iterate sorted(...) (or keep it unordered via "
            "set/len/membership)",
        )


# ---------------------------------------------------------------------------
# CACHE001 — external mutation of cache-versioned private state
# ---------------------------------------------------------------------------

#: Private attribute -> classes allowed to touch it (via self/cls).
_VERSIONED_PRIVATE_ATTRS: dict[str, tuple[str, ...]] = {
    "_items": ("Headers",),
    "_version": ("Headers",),
    "_wire": ("SipMessage", "SipRequest", "SipResponse"),
    "_wire_key": ("SipMessage", "SipRequest", "SipResponse"),
}

#: Method names that mutate a list/dict in place (``x._items.append(...)``).
_MUTATING_METHODS = frozenset(
    {"append", "insert", "extend", "remove", "pop", "clear", "sort", "reverse", "update"}
)


def _is_self_or_cls(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in {"self", "cls"}


class _CacheStateVisitor(RuleVisitor):
    def _flag_target(self, stmt: ast.AST, target: ast.expr) -> None:
        while isinstance(target, ast.Subscript):
            target = target.value
        if not isinstance(target, ast.Attribute):
            return
        owners = _VERSIONED_PRIVATE_ATTRS.get(target.attr)
        if owners is None or _is_self_or_cls(target.value):
            return
        self.report(
            stmt,
            f"external write to {owners[0]}.{target.attr}: mutate through the "
            "public API so the serialize-cache version counter stays coherent",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._flag_target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._flag_target(node, node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._flag_target(node, node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._flag_target(node, target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Attribute)
            and func.value.attr in _VERSIONED_PRIVATE_ATTRS
            and not _is_self_or_cls(func.value.value)
        ):
            owners = _VERSIONED_PRIVATE_ATTRS[func.value.attr]
            self.report(
                node,
                f"in-place mutation of {owners[0]}.{func.value.attr}."
                f"{func.attr}(): bypasses the version counter; use the "
                "public mutation API",
            )
        self.generic_visit(node)


class CacheStateRule(Rule):
    id = "CACHE001"
    title = "no external mutation of versioned private cache state"
    rationale = (
        "SipMessage.serialize() memoizes on Headers.version; a write to "
        "_items/_version/_wire from outside the owning class can serve "
        "stale bytes (wrong sizes on the air interface) without any test "
        "noticing."
    )
    visitor_class = _CacheStateVisitor


# ---------------------------------------------------------------------------
# CACHE002 — position writes that bypass the epoch-notifying setter
# ---------------------------------------------------------------------------


class _PositionWriteVisitor(RuleVisitor):
    def _flag_target(self, stmt: ast.AST, target: ast.expr) -> None:
        while isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "_position"
            and not _is_self_or_cls(target.value)
        ):
            self.report(
                stmt,
                "direct write to Node._position bypasses the position setter: "
                "the medium's spatial index epoch is never bumped and "
                "neighbor caches go stale; assign node.position instead",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._flag_target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._flag_target(node, node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._flag_target(node, node.target)
        self.generic_visit(node)


class PositionWriteRule(Rule):
    id = "CACHE002"
    title = "no Node position writes that bypass the epoch-notifying setter"
    rationale = (
        "WirelessMedium invalidates its spatial index and neighbor caches on "
        "a position epoch bumped by the Node.position setter; writing "
        "_position directly moves a node without telling the radio layer."
    )
    visitor_class = _PositionWriteVisitor


# ---------------------------------------------------------------------------
# SIM001 — float equality on simulation-time expressions
# ---------------------------------------------------------------------------

#: Identifier (or terminal attribute) spellings that denote a point in
#: simulated time.
_TIME_NAME_RE = re.compile(r"(?:^|_)(now|time|deadline|expires?_at)$")


def _time_named(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name) and _TIME_NAME_RE.search(node.id):
        return node.id
    if isinstance(node, ast.Attribute) and _TIME_NAME_RE.search(node.attr):
        return node.attr
    return None


def _is_none_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class _TimeEqualityVisitor(RuleVisitor):
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_none_constant(left) or _is_none_constant(right):
                continue
            name = _time_named(left) or _time_named(right)
            if name is not None:
                self.report(
                    node,
                    f"exact ==/!= on simulation-time value {name!r}: clock "
                    "values are float sums of delays; use <=/>= bounds or an "
                    "explicit tolerance",
                )
        self.generic_visit(node)


class TimeEqualityRule(Rule):
    id = "SIM001"
    title = "no float equality on simulation-time expressions"
    rationale = (
        "Virtual timestamps are accumulated float arithmetic; two paths to "
        "'the same' instant can differ by one ulp, so equality checks work "
        "on one seed and silently fail on another."
    )
    visitor_class = _TimeEqualityVisitor


# ---------------------------------------------------------------------------
# FAULT001 — fault-schedule code must not own any randomness or clock
# ---------------------------------------------------------------------------


class _FaultScheduleVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_dotted(node.func)
        if name in _WALL_CLOCK_CALLS:
            self.report(
                node,
                f"wall-clock call {name}() in fault-schedule code: fault "
                "timing must come from the plan and Simulator.now only",
            )
        elif name is not None and name.startswith("random."):
            # Stricter than DET002: even a *seeded* random.Random is banned
            # here. Fault code owning its own RNG forks the random stream,
            # so the injected schedule stops being pinned by the scenario
            # seed alone.
            self.report(
                node,
                f"{name}() in fault-schedule code: channel models and fault "
                "plans must draw exclusively from the Simulator.rng handed "
                "to them, never construct or call their own RNG",
            )
        self.generic_visit(node)


class FaultScheduleRule(Rule):
    id = "FAULT001"
    title = "no wall-clock or random.* calls (even seeded) under faults/"
    rationale = (
        "The fault subsystem's contract is byte-identical schedules for a "
        "given seed, tracing on or off. That only holds if fault code is a "
        "pure function of the plan, Simulator.now and the Simulator.rng it "
        "is passed — any private clock or RNG (seeded or not) breaks the "
        "reproduction of a failure run."
    )
    visitor_class = _FaultScheduleVisitor

    def applies_to(self, path: Path) -> bool:
        return "faults" in path.parts


# ---------------------------------------------------------------------------
# OBS001 — observability code must not perturb or fork determinism sources
# ---------------------------------------------------------------------------


class _MetricsPurityVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_dotted(node.func)
        if name in _WALL_CLOCK_CALLS:
            self.report(
                node,
                f"wall-clock call {name}() in observability code: scrape and "
                "drill timing must derive from sim time only, or the observer "
                "changes what it observes",
            )
        elif name is not None and name.startswith("random."):
            # Stricter than DET002: even a *seeded* random.Random is banned.
            # Observability code drawing randomness (sampling, jitter) would
            # fork the random stream, so enabling it would change the run it
            # is supposed to passively observe.
            self.report(
                node,
                f"{name}() in observability code: instruments, scrapers and "
                "handover drills must be pure readers — no sampling jitter, "
                "no private RNG — so observing cannot perturb the run",
            )
        self.generic_visit(node)


class MetricsPurityRule(Rule):
    id = "OBS001"
    title = "no wall-clock or random.* calls under metrics/ or handover/"
    rationale = (
        "The observability layers' contract is zero observer effect: "
        "same-seed runs are byte-identical with scraping on or off, and the "
        "§5k handover drills must fingerprint identically across fresh "
        "interpreters. That only holds if metrics and handover-harness code "
        "is a pure function of registry/trace state and Simulator.now — any "
        "wall-clock read or RNG (seeded or not) couples output to the host. "
        "(The policy's own retry jitter draws a *private* integer-seeded "
        "RNG in repro.core.connection, outside this scope by design.)"
    )
    visitor_class = _MetricsPurityVisitor

    def applies_to(self, path: Path) -> bool:
        parts = path.parts
        return "metrics" in parts or "handover" in parts


# ---------------------------------------------------------------------------
# OVR001 — unbounded queues in overload-sensitive subsystems
# ---------------------------------------------------------------------------

#: Terminal names that declare an intent to queue. Matching assignment
#: targets must not be initialized as unbounded lists.
_QUEUE_NAME_RE = re.compile(r"(queue|backlog|fifo)$", re.IGNORECASE)


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _deque_is_bounded(node: ast.Call) -> bool:
    """``deque(iterable, maxlen)`` or any explicit ``maxlen=`` keyword."""
    if len(node.args) >= 2:
        return True
    return any(kw.arg == "maxlen" for kw in node.keywords)


class _UnboundedQueueVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_dotted(node.func)
        if name == "collections.deque" and not _deque_is_bounded(node):
            self.report(
                node,
                "unbounded collections.deque(): hot-path queues in netsim/ "
                "and core/ must declare a capacity (maxlen=...) or carry an "
                "explicit '# lint: disable=OVR001' justifying the exception",
            )
        self.generic_visit(node)

    def _flag_list_queue(self, stmt: ast.AST, target: ast.expr, value: ast.expr) -> None:
        name = _terminal_name(target)
        if name is None or _QUEUE_NAME_RE.search(name) is None:
            return
        is_bare_list = isinstance(value, ast.List) and not value.elts
        is_list_call = (
            isinstance(value, ast.Call)
            and self.ctx.resolve_dotted(value.func) == "list"
            and not value.args
            and not value.keywords
        )
        if is_bare_list or is_list_call:
            self.report(
                stmt,
                f"queue-named {name!r} initialized as an unbounded list: use "
                "a capacity-bounded structure (deque(maxlen=...) or "
                "InterfaceTxQueue) or '# lint: disable=OVR001' with a reason",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._flag_list_queue(node, target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._flag_list_queue(node, node.target, node.value)
        self.generic_visit(node)


class UnboundedQueueRule(Rule):
    id = "OVR001"
    title = "no unbounded queues in netsim/ and core/ hot paths"
    rationale = (
        "Overload control (§5f) only degrades gracefully if every buffer "
        "between admission and the air interface is bounded; one unbounded "
        "deque or bare-list queue turns backpressure into silent memory "
        "growth and unbounded latency."
    )
    visitor_class = _UnboundedQueueVisitor

    SCOPED_DIRS = frozenset({"netsim", "core"})

    def applies_to(self, path: Path) -> bool:
        return any(part in self.SCOPED_DIRS for part in path.parts)


# ---------------------------------------------------------------------------
# PERF001 — direct heapq use outside the event-kernel module
# ---------------------------------------------------------------------------


class _HeapqUseVisitor(RuleVisitor):
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "heapq" or alias.name.startswith("heapq."):
                self.report(
                    node,
                    "direct 'import heapq': event ordering must go through "
                    "the event kernel (Simulator.schedule* / "
                    "repro.netsim.kernel), not a private heap",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "heapq":
            self.report(
                node,
                "direct 'from heapq import ...': event ordering must go "
                "through the event kernel (Simulator.schedule* / "
                "repro.netsim.kernel), not a private heap",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.resolve_dotted(node.func)
        if name is not None and name.startswith("heapq."):
            self.report(
                node,
                f"direct {name}(): event ordering must go through the "
                "event kernel (repro.netsim.kernel), not a private heap",
            )
        self.generic_visit(node)


class HeapqUseRule(Rule):
    id = "PERF001"
    title = "no direct heapq use outside repro/netsim/kernel.py"
    rationale = (
        "The event kernel (repro.netsim.kernel) is the single owner of "
        "pending-event ordering; a side heap of timers bypasses "
        "cancellation accounting, the determinism gates and the O(1) "
        "diagnostics (pending_events/queue_size), and its pop order is "
        "invisible to the (time, seq) determinism contract."
    )
    visitor_class = _HeapqUseVisitor

    def applies_to(self, path: Path) -> bool:
        parts = path.parts
        return not (len(parts) >= 2 and parts[-2:] == ("netsim", "kernel.py"))


# ---------------------------------------------------------------------------
# SHARD001 — whole-program: unregistered module-global state. Runs over the
# ProjectGraph, not per file.
# ---------------------------------------------------------------------------

#: Modules whose process-global state must be resettable between
#: in-process runs: everything a scenario run executes, including the
#: repro.handover drills. lint/, trace/, experiments/, faults/, overload/
#: and the other harnesses drive runs but hold no state a run leaves
#: behind, so they stay out of scope.
_SHARD_SCOPE_PREFIXES = (
    "repro.netsim.",
    "repro.core.",
    "repro.sip.",
    "repro.routing.",
    "repro.slp.",
    "repro.rtp.",
    "repro.handover.",
)
_SHARD_SCOPE_MODULES = frozenset(
    {
        "repro.scenarios",
        "repro.netsim",
        "repro.core",
        "repro.sip",
        "repro.routing",
        "repro.slp",
        "repro.rtp",
        "repro.handover",
    }
)


def _shard_in_scope(module: str) -> bool:
    """Scope by dotted module name; bare-named modules (fixtures) are in."""
    if module == "repro" or module.startswith("repro."):
        return module in _SHARD_SCOPE_MODULES or module.startswith(_SHARD_SCOPE_PREFIXES)
    return True


class ShardGlobalStateRule(ProgramRule):
    id = "SHARD001"
    title = "no unregistered module-level mutable state in per-run modules"
    rationale = (
        "Module-global counters/dicts/lists written at runtime outlive a "
        "scenario: a second run in the same process starts from the first "
        "run's leftovers, so in-process reruns (the gate probes' on/off "
        "comparison, the kernel-parity tests, the perfbench digests) stop "
        "being byte-identical. Registering the binding with "
        "repro.globalstate.registry puts it under registry.reset_all(), the "
        "one reset those reruns call."
    )

    def check_program(self, graph: ProjectGraph, report: ProgramReporter) -> None:
        for summary in graph:
            if not _shard_in_scope(summary.module):
                continue
            for binding in summary.flow.mutable_globals:
                if binding["registered"]:
                    continue
                writes = graph.global_writes_to(summary.module, binding["name"])
                if not writes:
                    continue
                writers = sorted({write["from"] for write in writes})
                report(
                    summary,
                    binding["line"],
                    binding["col"],
                    f"module-level mutable {binding['kind']} "
                    f"{binding['name']!r} is written at runtime "
                    f"(by {', '.join(writers)}): register it with "
                    "repro.globalstate.registry so registry.reset_all() "
                    "restores it between in-process runs",
                )


class GlobalRandomIndirectionRule(ProgramRule):
    """DET002, one call level deep: the global ``random`` module smuggled in
    as an "rng" argument. The per-file rule sees ``rng.random()`` inside the
    callee and trusts it; the call graph exposes call sites that bind that
    parameter to the process-global ``random`` module itself."""

    id = "DET002"
    title = "no global random module passed as an rng argument"
    rationale = GlobalRandomRule.rationale

    def check_program(self, graph: ProjectGraph, report: ProgramReporter) -> None:
        for summary in graph:
            for fn in summary.flow.functions:
                for record in fn.random_module_args:
                    resolved = graph.resolve_function(
                        record["callee"], from_module=summary.module
                    )
                    if resolved is None:
                        continue
                    param = self._bound_param(resolved.fn.params, record)
                    if param is None or param not in resolved.fn.rng_consuming_params:
                        continue
                    report(
                        summary,
                        record["line"],
                        record["col"],
                        f"passes the process-global random module to "
                        f"{resolved.dotted}() whose parameter {param!r} draws "
                        "from it: randomness must flow from the simulator's "
                        "seeded Simulator.rng, even through indirection",
                    )

    @staticmethod
    def _bound_param(params: list[str], record: dict) -> str | None:
        if record["keyword"] is not None:
            return record["keyword"] if record["keyword"] in params else None
        position = record["arg_position"]
        if position is not None and position < len(params):
            return params[position]
        return None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    GlobalRandomRule(),
    GlobalRandomIndirectionRule(),
    SetIterationRule(),
    CacheStateRule(),
    PositionWriteRule(),
    TimeEqualityRule(),
    FaultScheduleRule(),
    MetricsPurityRule(),
    UnboundedQueueRule(),
    HeapqUseRule(),
    ShardGlobalStateRule(),
)

_RULES_BY_ID: dict[str, list[Rule]] = {}
for _rule in ALL_RULES:
    _RULES_BY_ID.setdefault(_rule.id, []).append(_rule)


def get_rules(ids: Sequence[str] | None = None) -> tuple[Rule, ...]:
    """The full registry, or the subset named by ``ids`` (case-insensitive).

    An id shared by a per-file rule and its whole-program generalization
    (DET002) selects both.
    """
    if ids is None:
        return ALL_RULES
    selected: list[Rule] = []
    for raw in ids:
        rules = _RULES_BY_ID.get(raw.strip().upper())
        if rules is None:
            known = ", ".join(sorted(_RULES_BY_ID))
            raise KeyError(f"unknown rule id {raw!r} (known: {known})")
        selected.extend(rules)
    return tuple(selected)
