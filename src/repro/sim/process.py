"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
instances.  Yielding an event suspends the process until the event is
processed; the event's value is sent back into the generator (or its
exception thrown in).  A :class:`Process` is itself an event that succeeds
with the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

import typing as _t

from ..errors import SimulationError
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

    __slots__ = ("_gen", "_send", "_throw", "name")

    def __init__(self, engine: "Engine", gen: ProcessGenerator, name: str | None = None):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(f"Process needs a generator, got {gen!r}")
        super().__init__(engine)
        self._gen = gen
        # Bound methods cached once: _resume runs once per event on the
        # hot path and the attribute chain is measurable there.
        self._send = gen.send
        self._throw = gen.throw
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off through a zero-delay sleep (the heap entry of an
        # immediately-succeeding event, recycled) so execution order is
        # controlled by the engine, not by construction order.
        engine.sleep(0.0).add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    # -- internal -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Invariant: _resume sits on one callback list per suspension
        # (registered below and in __init__) and an event runs its list
        # once (a cancelled one never, a re-armed timer drops it), so
        # ``event`` is the one being waited on.  Anything that abandons a
        # wait would need a stale-wake-up check here.
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
            if target.callbacks is None:
                target.callbacks = [self._resume]
            else:
                target.callbacks.append(self._resume)
            return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
