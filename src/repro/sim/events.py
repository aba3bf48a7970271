"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in virtual time.  It
starts *pending*, becomes *triggered* when given a value (success) or an
exception (failure), and becomes *processed* once the engine has run its
callbacks.  Processes (see :mod:`repro.sim.process`) suspend by yielding
events and are resumed when the event is processed.

The design follows the SimPy event model but is implemented from scratch and
trimmed to what the cluster simulation needs: plain events, timeouts,
all-of / any-of conditions, and cancellation (used by the fluid bandwidth
sharing model to rescind provisional completion timers).
"""

from __future__ import annotations

import heapq
import typing as _t

from ..errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

#: Sentinel meaning "this event has not been triggered yet".
PENDING = object()


class Event:
    """A one-shot occurrence on the simulation timeline.

    Callbacks are callables of one argument (the event itself).  They run when
    the engine processes the event; callbacks added *after* processing are
    invoked immediately so late waiters do not hang.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_processed",
                 "_cancelled", "_scheduled")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        # Lazily allocated: many events (timers especially) are created,
        # fired, and collected without anyone ever registering a callback.
        self.callbacks: list[_t.Callable[["Event"], None]] | None = None
        self._value: _t.Any = PENDING
        self._ok: bool | None = None
        self._processed = False
        self._cancelled = False
        #: True while an entry for this event sits in the engine's heap
        #: (set by the engine; lets cancel() keep the live-event count).
        self._scheduled = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self._processed

    @property
    def cancelled(self) -> bool:
        """True if the event was cancelled before triggering."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> _t.Any:
        """The success value or failure exception. Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- transitions ----------------------------------------------------
    def succeed(self, value: _t.Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        # _trigger() inlined: succeed() fires on every message, flow, and
        # RPC completion, so one saved call per event is measurable.
        if self._cancelled:
            raise SimulationError("cannot trigger a cancelled event")
        if self._value is not PENDING:
            raise SimulationError(
                f"event already triggered (value={self._value!r})"
            )
        self._ok = True
        self._value = value
        engine = self.engine
        self._scheduled = True
        heapq.heappush(engine._heap,
                       (engine.now, next(engine._seq), self))
        return self

    def fire(self, value: _t.Any = None) -> None:
        """Trigger the event and run its callbacks now, with no heap entry.

        For a completion reached by a chain already running at this
        instant (a receive matched at its message's delivery): waiters
        resume inside the caller, which must have settled its own state
        first.  ``triggered`` and ``processed`` become true together.
        """
        if self._cancelled:
            raise SimulationError("cannot trigger a cancelled event")
        if self._value is not PENDING:
            raise SimulationError(
                f"event already triggered (value={self._value!r})"
            )
        self._ok = True
        self._value = value
        self._process()

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        A process waiting on the event has the exception thrown into it.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._trigger(False, exception)
        return self

    def cancel(self) -> None:
        """Cancel a pending event.

        A cancelled event's callbacks never run, so they are dropped
        here: a race deadline cancelled long before its time would
        otherwise keep the race, and what it waited on, alive in the heap.
        Used for provisional timers.  Cancelling an already-processed
        event is an error.  The heap entry is *lazily* deleted: the
        engine counts it dead and compacts the heap when dead entries
        dominate (see :meth:`Engine._note_dead`).
        """
        if self._processed:
            raise SimulationError("cannot cancel a processed event")
        self._cancelled = True
        self.callbacks = None
        if self._scheduled:
            self.engine._note_dead()

    def _trigger(self, ok: bool, value: _t.Any) -> None:
        if self._cancelled:
            raise SimulationError("cannot trigger a cancelled event")
        if self._value is not PENDING:
            raise SimulationError(
                f"event already triggered (value={self._value!r})"
            )
        self._ok = ok
        self._value = value
        self.engine._enqueue(self)

    def _process(self) -> None:
        """Run callbacks.  Called by the engine."""
        if self._cancelled:
            return
        self._processed = True
        callbacks = self.callbacks
        if callbacks is not None:
            # _processed is already set, so a callback registered *during*
            # this loop runs immediately instead of appending — iterating
            # then clearing in place is safe and allocation-free.
            for cb in callbacks:
                cb(self)
            callbacks.clear()

    def add_callback(self, callback: _t.Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self._processed:
            callback(self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "cancelled"
            if self._cancelled
            else "processed"
            if self._processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: _t.Any = None):
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Event.__init__ unrolled — timers are the most-allocated event
        # type (one per simulated latency, plus every provisional timer).
        self.engine = engine
        self.callbacks = None
        self._value = value
        self._ok = True
        self._processed = False
        self._cancelled = False
        self.delay = float(delay)
        self._scheduled = True
        heapq.heappush(engine._heap,
                       (engine.now + self.delay, next(engine._seq), self))

    def succeed(self, value: _t.Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout triggers automatically")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout triggers automatically")


class Condition(Event):
    """Composite event over a list of child events.

    ``AllOf`` succeeds once every child succeeded; ``AnyOf`` succeeds as soon
    as one child does.  If any child fails, the condition fails with that
    child's exception (first failure wins).
    """

    __slots__ = ("events", "_n_needed", "_n_done")

    def __init__(self, engine: "Engine", events: _t.Sequence[Event], n_needed: int):
        super().__init__(engine)
        self.events = list(events)
        if any(ev.engine is not engine for ev in self.events):
            raise SimulationError("condition mixes events from different engines")
        self._n_needed = min(n_needed, len(self.events))
        self._n_done = 0
        if self._n_needed == 0:
            self.succeed(self._collect())
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _collect(self) -> dict[Event, _t.Any]:
        return {ev: ev._value for ev in self.events
                if ev._value is not PENDING and ev._ok}

    def _on_child(self, child: Event) -> None:
        # Slot access over the property wrappers: this runs once per
        # child (a D2H joins every block receive through one condition).
        if self._value is not PENDING:
            return
        if not child._ok:
            self.fail(child._value)
            return
        self._n_done += 1
        if self._n_done >= self._n_needed:
            self.succeed(self._collect())


class AllOf(Condition):
    """Succeeds once all child events have succeeded."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: _t.Iterable[Event]):
        # Materialised once: a one-shot iterable counted here and listed
        # again by Condition would need zero events and never wait.
        events = list(events)
        super().__init__(engine, events, n_needed=len(events))


class AnyOf(Condition):
    """Succeeds as soon as any child event succeeds."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: _t.Sequence[Event]):
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        super().__init__(engine, events, n_needed=1)
