"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
instances.  Yielding an event suspends the process until the event is
processed; the event's value is sent back into the generator (or its
exception thrown in).  A :class:`Process` is itself an event that succeeds
with the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

import typing as _t

from ..errors import ProcessInterrupt, SimulationError
from .events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

ProcessGenerator = _t.Generator[Event, _t.Any, _t.Any]


class Process(Event):
    """A running simulation process wrapping a generator.

    The process starts at the current simulation time (the first resumption
    is scheduled immediately, not executed synchronously, so a process never
    runs before ``engine.run()``).
    """

    __slots__ = ("_gen", "_send", "_throw", "_target", "name")

    def __init__(self, engine: "Engine", gen: ProcessGenerator, name: str | None = None):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(f"Process needs a generator, got {gen!r}")
        super().__init__(engine)
        self._gen = gen
        # Bound methods cached once: _resume runs once per event on the
        # hot path and the attribute chain is measurable there.
        self._send = gen.send
        self._throw = gen.throw
        self._target: Event | None = None
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off via an immediately-succeeding event so execution order is
        # controlled by the engine, not by construction order.
        start = Event(engine)
        self._target = start
        start.callbacks = [self._resume]
        start.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: _t.Any = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process.

        The interrupt is delivered at the current simulation time.  The
        event the process was waiting on is abandoned (its eventual value is
        ignored).  Interrupting a finished process is an error.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        # Deliver through a failing event so the engine sequences it.
        interrupt_ev = Event(self.engine)
        old_target = self._target
        self._target = interrupt_ev
        interrupt_ev.add_callback(lambda ev: self._resume(ev))
        interrupt_ev.fail(ProcessInterrupt(cause))
        # old_target's pending callback will see a stale target and no-op.
        del old_target

    # -- internal -------------------------------------------------------
    def _wait_on(self, event: Event) -> None:
        self._target = event
        event.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        if event is not self._target:
            return  # stale wake-up (process was interrupted meanwhile)
        self._target = None
        send = self._send
        while True:
            try:
                # Hot path: read the event slots directly (the property
                # wrappers re-validate "triggered", which is a given here).
                if event._ok:
                    target = send(event._value)
                else:
                    target = self._throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except ProcessInterrupt as exc:
                # An unhandled interrupt terminates the process as a failure.
                self.fail(exc)
                return
            except Exception as exc:
                if not self.callbacks:
                    # Nobody is waiting: surface the crash instead of
                    # silently swallowing it.
                    raise
                self.fail(exc)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
            if target.engine is not self.engine:
                raise SimulationError(
                    f"process {self.name!r} yielded an event from another engine"
                )
            if target._processed:
                # Already done: continue synchronously.
                event = target
                continue
            self._target = target
            if target.callbacks is None:
                target.callbacks = [self._resume]
            else:
                target.callbacks.append(self._resume)
            return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
