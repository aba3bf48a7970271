"""Synchronous driver for scripts and examples.

Inside the simulation, middleware calls are generators driven by processes.
:class:`SyncSession` lets plain Python code (the examples, notebooks, quick
experiments) call them sequentially: each call spins the engine until the
operation completes and returns its value, advancing the shared virtual
clock.
"""

from __future__ import annotations

import typing as _t

from ..obs.spans import collector_for
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

    def parallel(self, generators: _t.Sequence[_t.Iterator]) -> list[_t.Any]:
        """Run several operations concurrently; returns their results.

        The first failure propagates annotated with which branches failed
        (see :func:`~repro.core.api.run_parallel`).
        """
        from .api import _annotate_parallel_failure
        procs = [self.engine.process(g) for g in generators]
        if not procs:
            return []
        try:
            self.engine.run(until=self.engine.all_of(procs))
        except Exception as exc:
            _annotate_parallel_failure(exc, procs)
            collector_for(self.engine).abort_open(
                f"parallel branch failed: {type(exc).__name__}")
            raise
        return [p.value for p in procs]

    def sleep(self, seconds: float) -> None:
        """Advance virtual time by ``seconds``."""
        self.engine.run(until=self.engine.now + seconds)
