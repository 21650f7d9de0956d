"""The discrete-event simulator's event kernel.

The :class:`~repro.netsim.simulator.Simulator` facade owns the seeded RNG
and the public API; :class:`HeapKernel` owns the clock, the sequence
counter and the pending-event structure: one binary heap of
``(time, seq, event)`` tuples (tuple entries compare in C, never touching
the callback). Events pop in exactly ascending ``(time, seq)`` order.
Cancellation leaves a tombstone; the heap is lazily compacted with
hysteresis (see :attr:`HeapKernel.COMPACT_MIN`). Batched medium deliveries
ride as one heap entry per batch (:class:`_DeliveryTrain`).

This module is the only place allowed to import :mod:`heapq`
(lint rule PERF001): everything else must go through the kernel.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Sequence

from repro.errors import SimulationError

#: (delay, callback, args) triples accepted by ``schedule_batch``.
BatchEntry = tuple[float, Callable[..., None], tuple[Any, ...]]


class EventHandle:
    """A scheduled event and its cancellation handle (one object, no wrapper).

    The kernel constructs these via ``__new__`` + direct stores — profiled ~35%
    faster than ``__init__`` dispatch, and this is the hottest allocation in
    the simulator.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "popped", "_kernel")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.popped = False
        self._kernel = None

    @property
    def done(self) -> bool:
        """True once the event can never fire again (fired or cancelled)."""
        return self.cancelled or self.popped

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if self.cancelled or self.popped:
            return
        self.cancelled = True
        kernel = self._kernel
        if kernel is not None:
            kernel._on_cancel(self)


class _DeliveryTrain:
    """One kernel entry carrying a whole batch of pre-drawn deliveries.

    ``items`` is sorted ascending by ``(time, seq)``; the seq values were
    reserved from the kernel's counter at batch-submission time, so every
    delivery pops in exactly the global order it would have had as an
    individual event. The train re-arms itself with the *next* item's
    original ``(time, seq)`` after each firing — N deliveries cost one
    pending-structure entry instead of N.
    """

    __slots__ = ("items", "index")

    def fire(self, kernel: "HeapKernel") -> None:
        items = self.items
        index = self.index
        entry = items[index]
        index += 1
        if index < len(items):
            self.index = index
            nxt = items[index]
            kernel._push_raw(nxt[0], nxt[1], self)
        kernel._live -= 1
        entry[2](*entry[3])


class HeapKernel:
    """Binary-heap event kernel with tombstone cancellation.

    Compaction fires only once tombstones both exceed an absolute floor
    (:attr:`COMPACT_MIN`) *and* outnumber live events two to one. The floor
    is the hysteresis: the previous ``tombstones > live`` trigger re-fired
    on nearly every cancellation when few live events were pending
    (schedule-then-cancel churn around a lone keepalive compacted the heap
    every other cycle), which is exactly the 0.5 ops/s pathology in
    BENCH_2026-08-06's ``test_cancelled_timer_churn``.
    """

    __slots__ = ("now", "seq", "processed", "_heap", "_live", "_tombstones", "_compactions")

    #: Hysteresis floor: never compact with fewer tombstones than this.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self.now = 0.0
        self.seq = 0
        self.processed = 0
        self._heap: list[tuple] = []
        self._live = 0
        self._tombstones = 0
        self._compactions = 0

    # -- scheduling ------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        self.seq = seq = self.seq + 1
        event = EventHandle.__new__(EventHandle)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.popped = False
        event._kernel = self
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, clock is already at {self.now:.6f}"
            )
        self.seq = seq = self.seq + 1
        event = EventHandle.__new__(EventHandle)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.popped = False
        event._kernel = self
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def schedule_batch(self, entries: Sequence[BatchEntry]) -> int:
        """Schedule many ``(delay, callback, args)`` deliveries as one train.

        Sequence numbers are reserved in input order — exactly as if each
        entry had been passed to :meth:`schedule` individually — so the
        global (time, seq) pop order, and therefore every downstream RNG
        draw and trace line, is identical to the unbatched path.
        """
        now = self.now
        seq = self.seq
        items = []
        append = items.append
        for delay, callback, args in entries:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            seq += 1
            append((now + delay, seq, callback, args))
        self.seq = seq
        count = len(items)
        if count == 0:
            return 0
        if count > 1:
            items.sort()  # (time, seq) — seq is unique, callbacks never compared
        train = _DeliveryTrain.__new__(_DeliveryTrain)
        train.items = items
        train.index = 0
        first = items[0]
        self._push_raw(first[0], first[1], train)
        self._live += count
        return count

    def _push_raw(self, time: float, seq: int, obj: Any) -> None:
        heapq.heappush(self._heap, (time, seq, obj))

    # -- cancellation ----------------------------------------------------
    def _on_cancel(self, event: EventHandle) -> None:
        self._live -= 1
        self._tombstones = tombstones = self._tombstones + 1
        if tombstones >= self.COMPACT_MIN and tombstones > 2 * self._live:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones; pop order is unchanged.

        In place: a :meth:`run` loop in progress holds the list object, so a
        callback that triggers compaction must not swap it out from under it.
        """
        heap = self._heap
        heap[:] = [
            entry
            for entry in heap
            if not (entry[2].__class__ is EventHandle and entry[2].cancelled)
        ]
        heapq.heapify(heap)
        self._tombstones = 0
        self._compactions += 1

    # -- event loop ------------------------------------------------------
    def run(self, until: float) -> None:
        """Fire every pending entry with ``time <= until`` in (time, seq) order.

        Leaves ``now`` at the last fired event; the Simulator facade is
        responsible for the final clock advance of :meth:`Simulator.run`.
        """
        heap = self._heap
        pop = heapq.heappop
        handle_cls = EventHandle
        processed = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > until:
                    break
                pop(heap)
                obj = entry[2]
                if obj.__class__ is handle_cls:
                    if obj.cancelled:
                        self._tombstones -= 1
                        continue
                    obj.popped = True
                    self._live -= 1
                    self.now = time
                    processed += 1
                    obj.callback(*obj.args)
                else:  # _DeliveryTrain
                    self.now = time
                    processed += 1
                    obj.fire(self)
        finally:
            self.processed += processed

    def run_scraped(self, until: float, scraper: Any) -> None:
        """Advance to ``until``, pausing at scrape boundaries.

        Chops one clock advance into chunks at the scraper's due times and
        snapshots between chunks. Chunked :meth:`run` calls pop exactly the
        same ``(time, seq)`` sequence as one big call (events fire at their
        own times; the intermediate ``now`` writes below are overwritten by
        the Simulator facade's final advance), so the event schedule is
        byte-identical with scraping on or off — the metrics determinism
        contract (DESIGN.md §5i).
        """
        nxt = scraper.next_due
        while nxt <= until:
            self.run(nxt)
            if self.now < nxt:
                self.now = nxt
            scraper.scrape(nxt)
            nxt = scraper.next_due
        self.run(until)

    @property
    def size(self) -> int:
        """Pending-structure entries including tombstones (memory diagnostics)."""
        return len(self._heap)

    @property
    def live(self) -> int:
        """Number of live (non-cancelled) scheduled events. O(1)."""
        return self._live

    @property
    def compactions(self) -> int:
        return self._compactions
