"""Process-global mutable state, made explicit and resettable.

The simulator's determinism story tolerates a small set of process-global
identifier counters (call-ids, tags, Via branches, nonces, RTP ports,
SSRCs, packet uids): they need process-lifetime uniqueness, not
seed-determinism, so they live outside any :class:`Simulator`. But an
unregistered module global would leak one run's state into the next run
in the same interpreter, so every such binding must be enumerable and
resettable. This module is the single choke point: every process-global
mutable binding in the production tree registers here, and
``repro.lint``'s SHARD001 rule rejects any that does not.

Usage::

    from repro.globalstate import registry

    _tag_counter = registry.counter("sip.dialog.tag", start=1)

    def new_tag() -> str:
        return f"tag{_tag_counter.next():06x}"

Parity harnesses that byte-compare trace exports across in-process runs
call :func:`GlobalStateRegistry.reset_all` between runs (never while a
scenario is live: colliding identifiers would corrupt dialogs mid-flight).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List

__all__ = [
    "GlobalCounter",
    "GlobalMapping",
    "GlobalSequence",
    "GlobalStateRegistry",
    "registry",
]


class GlobalCounter:
    """A resettable monotonically increasing integer allocator."""

    __slots__ = ("name", "start", "_it")

    def __init__(self, name: str, start: int = 0) -> None:
        self.name = name
        self.start = start
        self._it = itertools.count(start)

    def next(self) -> int:
        """Allocate the next integer."""
        return next(self._it)

    def reset(self) -> None:
        self._it = itertools.count(self.start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalCounter({self.name!r}, start={self.start})"


class GlobalMapping(Dict[object, object]):
    """A registered process-global dict; ``reset()`` clears it."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def reset(self) -> None:
        self.clear()


class GlobalSequence(List[object]):
    """A registered process-global list; ``reset()`` clears it."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def reset(self) -> None:
        self.clear()


class GlobalStateRegistry:
    """Registry of every process-global mutable binding in the tree.

    Handles are created through :meth:`counter` / :meth:`mapping` /
    :meth:`sequence` (or :meth:`register` for bespoke state) and reset in
    deterministic (sorted-name) order by :meth:`reset_all`.
    """

    def __init__(self) -> None:
        self._resets: dict[str, Callable[[], None]] = {}

    def counter(self, name: str, start: int = 0) -> GlobalCounter:
        handle = GlobalCounter(name, start)
        self.register(name, handle.reset)
        return handle

    def mapping(self, name: str) -> GlobalMapping:
        handle = GlobalMapping(name)
        self.register(name, handle.reset)
        return handle

    def sequence(self, name: str) -> GlobalSequence:
        handle = GlobalSequence(name)
        self.register(name, handle.reset)
        return handle

    def register(self, name: str, reset: Callable[[], None]) -> None:
        """Register bespoke global state by name with its reset function."""
        if name in self._resets:
            raise ValueError(f"global state {name!r} registered twice")
        self._resets[name] = reset

    def names(self) -> list[str]:
        """Registered state names, sorted (the reset order)."""
        return sorted(self._resets)

    def reset_all(self) -> None:
        """Restart every registered process-global identifier/state.

        Identifiers only need process-lifetime uniqueness, so two same-seed
        scenarios built in one process differ in their identifiers (and
        therefore in trace exports) even though schedules and Stats match.
        Parity harnesses that byte-compare traces across in-process runs
        call this between runs. Never call it while any scenario is live.
        """
        for name in sorted(self._resets):
            self._resets[name]()

    def __len__(self) -> int:
        return len(self._resets)


#: The process-wide registry instance. All production modules register
#: their globals here at import time.
registry = GlobalStateRegistry()
