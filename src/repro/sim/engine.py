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
from .events import PENDING, AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator


class _Sleep(Timeout):
    """An :meth:`Engine.sleep` timer: back to its engine once its entry is gone.

    A fired one returns after its callbacks (so a process that sleeps
    again from inside them takes another timer), keeping its emptied
    callback list; a cancelled one in :meth:`Engine._retire`.
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
        #: Sleep timers whose heap entry is gone, for the next :meth:`sleep`.
        self._sleep_pool: list[_Sleep] = []

    # -- scheduling -----------------------------------------------------
    def _enqueue(self, event: Event, delay: float = 0.0) -> None:
        if not delay >= 0:
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
        if not delay >= 0:
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
        """A cancelled heap entry is gone: a sleep goes back to the pool."""
        event._scheduled = False
        if type(event) is _Sleep and len(self._sleep_pool) < self.POOL_MAX:
            event._cancelled = False
            self._sleep_pool.append(event)

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
            if not horizon >= self.now:
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

    def sleep(self, delay: float) -> Timeout:
        """A recycled timer: ``yield engine.sleep(s)``.

        Its holder drops it when it fires or when it cancels it, and
        keeps no reference: the timer goes back to the engine as soon as
        its heap entry is gone, and a later :meth:`sleep` re-arms it, so
        a process waiting out a software cost (a daemon's request
        handling, a staging copy) and a :meth:`race` deadline allocate
        nothing.  A delay that is kept past its firing is a
        :meth:`timeout`.
        """
        pool = self._sleep_pool
        if not pool:
            return _Sleep(self, delay)
        if not delay >= 0:
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
        t = Timeout(self, 0.0 if when < self.now else when - self.now)
        t.add_callback(lambda _ev: fn())
        return t

    def race(self, event: Event, seconds: float) -> Event:
        """One event that settles as ``event`` or a deadline, whichever first.

        A process yields it, then asks ``event.triggered`` whether the
        real event won.  The race owns the deadline, a :meth:`sleep`: it
        cancels it the instant ``event`` settles, inside ``event``'s
        callbacks, so no caller holds a timer.  A deadline that fired is
        back in the pool, perhaps already re-armed for another process at
        this instant: the race never touches it again.
        """
        race = Event(self)
        deadline = self.sleep(seconds)

        def settle(child: Event) -> None:
            if race._value is PENDING:          # else the other side won
                if child is not deadline:
                    deadline.cancel()
                race._trigger(child._ok, child._value)

        # Deadline first: an ``event`` already fired settles the race here.
        deadline.add_callback(settle)
        event.add_callback(settle)
        return race

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine t={self.now:.9f} queued={self.queued}>"
