"""Synchronous driver for scripts and examples.

Inside the simulation, middleware calls are generators driven by processes.
:class:`SyncSession` lets plain Python code (the examples, notebooks, quick
experiments) call them sequentially: each call spins the engine until the
operation completes and returns its value, advancing the shared virtual
clock.
"""

from __future__ import annotations

import typing as _t

from ..sim import Engine


class SyncSession:
    """Runs middleware generators to completion on a shared engine."""

    def __init__(self, engine: Engine):
        self.engine = engine

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.engine.now

    def call(self, generator: _t.Iterator, name: str | None = None) -> _t.Any:
        """Run one operation to completion; returns its result."""
        proc = self.engine.process(generator, name=name or "sync-call")
        return self.engine.run(until=proc)
