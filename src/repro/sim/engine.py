"""The discrete-event simulation engine.

The engine owns a priority queue of (time, sequence, event) entries and a
virtual clock.  Triggered events are enqueued and processed in timestamp
order; equal timestamps are processed in trigger order (FIFO), which makes
the simulation deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import typing as _t

from ..errors import SimulationError
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator


class _Sleep(Timeout):
    """A :meth:`Engine.sleep` timer: back to its engine once it has run.

    It returns to the pool after its callbacks, so a process that sleeps
    again from inside them takes another timer; its emptied callback
    list is kept for the next waiter.
    """

    __slots__ = ()

    def _process(self) -> None:
        self._processed = True
        callbacks = self.callbacks
        if callbacks is not None:
            for cb in callbacks:
                cb(self)
            callbacks.clear()
        pool = self.engine._sleep_pool
        if len(pool) < Engine.POOL_MAX:
            pool.append(self)


class Engine:
    """Event loop and virtual clock for one simulation.

    All simulation objects (networks, GPUs, MPI ranks, daemons) are built
    against one engine and share its clock.  Typical driver::

        eng = Engine()
        proc = eng.process(my_generator())
        eng.run(until=proc)
        print(eng.now, proc.value)
    """

    #: Compaction threshold: rebuild the heap once more than half of at
    #: least this many entries are cancelled (lazy deletion hygiene).
    COMPACT_MIN = 64
    #: Upper bound on recycled hot-path timer objects kept around.
    POOL_MAX = 128

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        #: Cancelled entries still sitting in the heap (lazy deletion).
        self._n_dead = 0
        #: Recycled timers and race() deadlines (see :meth:`pooled_timer`).
        self._timeout_pool: list[Timeout] = []
        #: Fired sleep timers, for the next :meth:`sleep`.
        self._sleep_pool: list[_Sleep] = []

    # -- scheduling -----------------------------------------------------
    def _enqueue(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        event._scheduled = True
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), event))

    def succeed_after(self, event: Event, delay: float) -> None:
        """Fire the pre-created pending ``event`` ``delay`` seconds from now.

        A ``Timeout(delay)`` followed by ``event.succeed()`` folded into
        one heap entry, for callback chains (fabric transmissions, DMA
        copies, kernels) whose completion event exists before its time is
        known.  A transmission comes here twice, for its injection and
        again, already processed, for its delivery.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        event._ok = True
        event._value = None
        # _enqueue() inlined: this fires twice per message and once per
        # DMA, like Event.succeed() and Timeout.__init__.
        event._scheduled = True
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), event))

    def _note_dead(self) -> None:
        """A scheduled event was cancelled: count it, compact if rotten.

        Cancelled entries stay in the heap (lazy deletion — popping
        mid-heap is O(n) anyway); once more than half the heap is dead
        it is rebuilt without them, so RPC ``race()`` deadlines cannot
        rot the queue for the rest of a long run.
        """
        self._n_dead += 1
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN and self._n_dead * 2 > len(heap):
            live = []
            for entry in heap:
                if entry[2]._cancelled:
                    self._retire(entry[2])
                else:
                    live.append(entry)
            # In place, so the run loops' local heap binding stays valid.
            heap[:] = live
            heapq.heapify(heap)
            self._n_dead = 0

    def _retire(self, event: Event) -> None:
        """A dead heap entry is gone; recycle a poolable timer slot.

        The exact-type check keeps subclasses with extra state out of the
        pool.
        """
        event._scheduled = False
        if (getattr(event, "_poolable", False) and type(event) is Timeout
                and len(self._timeout_pool) < self.POOL_MAX):
            self._timeout_pool.append(event)

    @property
    def queued(self) -> int:
        """Live (non-cancelled) events in the queue."""
        return len(self._heap) - self._n_dead

    def run(self, until: Event | float | None = None) -> _t.Any:
        """Run the simulation.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until the event is processed and return its
          value (re-raising its exception if it failed).
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        # The loops below pop the next live entry with local bindings: one
        # dict lookup per event instead of a method call plus several
        # attribute loads, on the hottest loop in the whole simulator.
        # Compaction rewrites self._heap *in place*, so the local heap
        # binding stays valid across callbacks.
        heap = self._heap
        heappop = heapq.heappop
        try:
            if until is None:
                while heap:
                    entry = heappop(heap)
                    event = entry[2]
                    if event._cancelled:
                        self._n_dead -= 1
                        self._retire(event)
                        continue
                    event._scheduled = False
                    self.now = entry[0]
                    event._process()
                return None
            if isinstance(until, Event):
                stop = until
                while not stop._processed:
                    if not heap:
                        raise SimulationError(
                            "deadlock: event queue empty before 'until' event fired"
                        )
                    entry = heappop(heap)
                    event = entry[2]
                    if event._cancelled:
                        self._n_dead -= 1
                        self._retire(event)
                        continue
                    event._scheduled = False
                    self.now = entry[0]
                    event._process()
                if not stop.ok:
                    raise stop.value
                return stop.value
            horizon = float(until)
            if horizon < self.now:
                raise SimulationError(
                    f"cannot run until {horizon}, clock already at {self.now}"
                )
            while heap:
                entry = heappop(heap)
                event = entry[2]
                if event._cancelled:
                    self._n_dead -= 1
                    self._retire(event)
                    continue
                if entry[0] > horizon:
                    # Too far: put the live entry back (cheap, once).
                    heapq.heappush(heap, entry)
                    break
                event._scheduled = False
                self.now = entry[0]
                event._process()
            self.now = horizon
            return None
        finally:
            self._running = False

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def pooled_timer(self, delay: float) -> Timeout:
        """A plain valueless :class:`Timeout` recycled through the slot pool.

        For internal timers that are frequently cancelled and replaced
        (:meth:`race` deadlines): once a cancelled instance is popped
        from the heap it is re-armed for the next caller instead of
        allocating afresh.  Callers must not keep references past
        cancellation.
        """
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
            t._rearm(delay)
            return t
        t = Timeout(self, delay)
        t._poolable = True
        return t

    def sleep(self, delay: float) -> Timeout:
        """A timer for a process to yield at once: ``yield engine.sleep(s)``.

        Recycled: a sleep that has fired goes back to the engine, and a
        later :meth:`sleep` re-arms it, so a process waiting out a
        software cost (a daemon's request handling, a staging copy)
        allocates nothing.  The caller must yield it at once and never
        reference it afterwards (the contract of a :meth:`race`
        deadline); for a delay that is kept, raced or cancelled, use
        :meth:`timeout`.
        """
        pool = self._sleep_pool
        if not pool:
            return _Sleep(self, delay)
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        t = pool.pop()
        t._processed = False
        t.delay = delay = float(delay)
        t._scheduled = True
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), t))
        return t

    def process(self, gen: ProcessGenerator, name: str | None = None) -> Process:
        """Start a new process from ``gen``."""
        return Process(self, gen, name=name)

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        """Event that succeeds once all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """Event that succeeds once any of ``events`` has succeeded."""
        return AnyOf(self, events)

    def call_at(self, when: float, fn: _t.Callable[[], None]) -> Timeout:
        """Run ``fn()`` at absolute virtual time ``when``.

        Fault/chaos injections are pure state flips at known instants;
        scheduling them as timer callbacks avoids one generator frame per
        injection.  A ``when`` at or before ``now`` runs at the current
        instant.  Returns the timer (``cancel()`` to unschedule).
        """
        t = Timeout(self, max(0.0, when - self.now))
        t.add_callback(lambda _ev: fn())
        return t

    def race(self, event: Event, seconds: float) -> tuple[AnyOf, Timeout]:
        """Race ``event`` against a fresh deadline of ``seconds``.

        Returns ``(condition, deadline)``.  A process yields the condition;
        afterwards ``event.triggered`` tells whether the real event won.  If
        it did, cancel the deadline (unless already processed) to keep the
        event heap clean::

            cond, dl = engine.race(reply.done, timeout_s)
            yield cond
            if reply.done.triggered:
                if not dl.processed:
                    dl.cancel()
            else:
                ...  # the deadline fired first

        The deadline is a :meth:`pooled_timer`: once cancelled and
        retired from the heap, the object is re-armed for a later race
        or timer instead of allocating a fresh one (the RPC hot path
        makes one per request).  Do not keep references to ``dl`` beyond
        the race.
        """
        dl = self.pooled_timer(seconds)
        return self.any_of([event, dl]), dl

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine t={self.now:.9f} queued={self.queued}>"
