"""Discrete-event simulation core.

The simulator is single-threaded and fully deterministic: events fire in
(time, sequence) order and all randomness flows from one seeded
``random.Random`` instance owned by the simulator. All higher layers (radio
medium, routing daemons, SIP timers, RTP schedules) are driven by this clock.

The clock, sequence counter and pending events live in the event kernel
(:class:`repro.netsim.kernel.HeapKernel`). Hot entry points (``schedule``,
``schedule_at``, ``schedule_batch``) are bound straight to the kernel as
instance attributes, skipping a delegation frame on the busiest calls in the
system.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.errors import SimulationError
from repro.netsim.kernel import EventHandle, HeapKernel

__all__ = ["EventHandle", "PeriodicTask", "Simulator"]


class PeriodicTask:
    """A repeating task created by :meth:`Simulator.schedule_periodic`."""

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._jitter = jitter
        self._callback = callback
        self._stopped = False
        self._handle: EventHandle | None = None

    def start(self, initial_delay: float | None = None) -> "PeriodicTask":
        delay = self._next_delay() if initial_delay is None else initial_delay
        self._handle = self._sim.schedule(delay, self._fire)
        return self

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def running(self) -> bool:
        return not self._stopped

    def _next_delay(self) -> float:
        if self._jitter <= 0:
            return self._interval
        spread = self._jitter * self._interval
        return self._interval + self._sim.rng.uniform(-spread, spread)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._handle = self._sim.schedule(self._next_delay(), self._fire)


class Simulator:
    """Deterministic discrete-event simulator with a virtual clock in seconds.

    Cancelled events remain as tombstones swept by hysteresis-bounded lazy
    compaction; a live-event counter keeps :attr:`pending_events` O(1), so
    long runs with heavy timer churn (SIP transaction timers are scheduled
    and cancelled constantly) stay bounded in memory. Compaction never
    changes the (time, seq) pop order, so it is invisible to the simulation.
    """

    #: Compaction hysteresis floor, for callers sizing queue-hygiene
    #: assertions.
    COMPACT_MIN_QUEUE = HeapKernel.COMPACT_MIN

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self._kernel = HeapKernel()
        # Bind the hot scheduling entry points directly to the kernel: one
        # attribute load instead of a Python delegation frame per event.
        self.schedule = self._kernel.schedule
        self.schedule_at = self._kernel.schedule_at
        self.schedule_batch = self._kernel.schedule_batch
        # Optional repro.trace.TraceCollector; None means tracing is off and
        # emission sites pay only this attribute read plus a None check.
        self.tracer = None
        # Optional repro.metrics.MetricsScraper; None means metrics are off
        # and run() takes the direct kernel.run path.
        self.metrics = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._kernel.now

    @property
    def events_processed(self) -> int:
        return self._kernel.processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) scheduled events. O(1)."""
        return self._kernel.live

    @property
    def queue_size(self) -> int:
        """Pending-structure entries including tombstones (memory diagnostics)."""
        return self._kernel.size

    @property
    def compactions(self) -> int:
        """How many times the kernel has swept tombstones from its heap."""
        return self._kernel.compactions

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        initial_delay: float | None = None,
    ) -> PeriodicTask:
        """Run ``callback`` every ``interval`` seconds (optionally jittered).

        ``jitter`` is a fraction of the interval: with ``jitter=0.1`` each
        period is drawn uniformly from ``interval * [0.9, 1.1]``. Returns the
        started :class:`PeriodicTask`; call :meth:`PeriodicTask.stop` to end it.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, jitter=jitter)
        return task.start(initial_delay=initial_delay)

    def run(self, until: float) -> None:
        """Process events until the clock reaches ``until`` seconds.

        The clock always ends exactly at ``until`` even if the queue drains
        early, so repeated ``run`` calls compose predictably.
        """
        kernel = self._kernel
        if until < kernel.now:
            raise SimulationError(
                f"cannot run until {until:.6f}, clock is already at {kernel.now:.6f}"
            )
        scraper = self.metrics
        if scraper is not None and scraper.enabled:
            kernel.run_scraped(until, scraper)
        else:
            kernel.run(until)
        kernel.now = until

    def run_until_idle(self, max_time: float = 3600.0) -> None:
        """Process events until the queue drains or ``max_time`` is reached.

        Useful in tests; periodic tasks never drain, so most scenarios should
        prefer :meth:`run`. Metrics scraping does not piggyback here: the
        clock stops at the last event rather than ``max_time``, so scrape
        boundaries past the drain point would advance it — an observer
        effect. :meth:`run` is the only scrape piggyback point.
        """
        self._kernel.run(max_time)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        step: float = 0.05,
    ) -> bool:
        """Advance time in ``step`` increments until ``predicate()`` is true.

        Returns ``True`` if the predicate became true before ``timeout``
        (absolute deadline of ``now + timeout``), ``False`` otherwise.
        """
        deadline = self._kernel.now + timeout
        while self._kernel.now < deadline:
            if predicate():
                return True
            self.run(min(self._kernel.now + step, deadline))
        return predicate()

    # -- scheduling ---------------------------------------------------------
    # These class-level definitions document the API and keep
    # ``Simulator.schedule`` resolvable through the class; instances shadow
    # them in __init__ with the kernel's bound methods (one attribute load
    # instead of a delegation frame on the hottest calls in the system).
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        return self._kernel.schedule(delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self._kernel.schedule_at(time, callback, *args)

    def schedule_batch(self, entries: list[tuple]) -> int:
        """Schedule many ``(delay, callback, args)`` deliveries as one train.

        Sequence numbers are reserved in input order, so the pop order (and
        every downstream RNG draw) is identical to scheduling each entry
        individually — see :meth:`repro.netsim.kernel.HeapKernel.schedule_batch`.
        """
        return self._kernel.schedule_batch(entries)
