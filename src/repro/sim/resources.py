"""Synchronization and flow-control primitives built on the event kernel.

* :class:`Resource` — counted resource with ``when_granted``/``release`` (a
  ``capacity=1`` resource is a lock; used to serialize DMA engines, NIC
  injection, CPU cores).
* :class:`BandwidthShare` — a fluid-flow bandwidth pool: concurrent flows
  share the capacity equally, and rates are recomputed whenever a flow
  starts or finishes.  This models fair-share link contention without
  simulating individual packets.
"""

from __future__ import annotations

import collections
import heapq
import typing as _t

from ..errors import SimulationError
from .engine import Engine
from .events import Event, Timeout


class Resource:
    """Counted resource; ``capacity=1`` behaves as a mutex.

    Waiters are served FIFO in one queue.  :meth:`when_granted` calls the
    waiter at the grant itself, so a callback chain whose next step
    belongs to the same instant needs no heap entry in between (a
    process waits by passing an event's ``succeed``).  ``release()`` must
    be called exactly once per grant; a double release raises.
    """

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity!r}")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._waiters: collections.deque[_t.Callable[[], _t.Any]] = (
            collections.deque())

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def when_granted(self, granted: _t.Callable[[], _t.Any]) -> None:
        """Call ``granted()`` once a unit is held for it.

        Now if a unit is free, otherwise from inside the ``release()``
        that hands one over.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            granted()
        else:
            self._waiters.append(granted)

    def release(self) -> None:
        """Return a unit; hands it to the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching grant")
        if self._waiters:
            self._waiters.popleft()()
        else:
            self._in_use -= 1


class _Flow:
    __slots__ = ("remaining", "on_done")

    def __init__(self, nbytes: float, on_done: _t.Callable[[], _t.Any]):
        self.remaining = float(nbytes)
        self.on_done = on_done


class BandwidthShare:
    """Fluid-flow model of a shared bandwidth pool.

    Each of the *n* active flows transfers at rate ``capacity / n``
    (max-min fair sharing with equal shares).  Whenever the flow set
    changes, all remaining byte counts are advanced to the current time
    and the single next-completion timer is rescheduled.

    With one flow at a time a flow of *b* bytes takes ``b / capacity``
    exactly, so uncontended transfers are precise.
    """

    def __init__(self, engine: Engine, capacity_bytes_per_s: float):
        if capacity_bytes_per_s <= 0:
            raise SimulationError(f"capacity must be positive: {capacity_bytes_per_s!r}")
        self.engine = engine
        self.capacity = float(capacity_bytes_per_s)
        self._flows: list[_Flow] = []
        self._timer: Timeout | None = None
        self._last_t = engine.now

    def drain(self, nbytes: float, on_done: _t.Callable[[], _t.Any]) -> None:
        """Start a flow of ``nbytes``; ``on_done()`` is called at completion.

        The completion runs inside the share's own timer callback, at the
        completion instant, instead of through one more heap entry.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes!r}")
        if nbytes == 0:
            on_done()
            return
        flows = self._flows
        if not flows:
            # Idle (no live timer, nothing to debit): the lone-flow step
            # arms the timer, or completes the flow if it is too small.
            self._last_t = self.engine.now
            flows.append(_Flow(nbytes, on_done))
            self._on_timer(None)
            return
        self._advance()
        flows.append(_Flow(nbytes, on_done))
        self._reschedule()

    # -- internal -------------------------------------------------------
    def _advance(self) -> None:
        """Debit elapsed bytes from each active flow."""
        now = self.engine.now
        dt = now - self._last_t
        self._last_t = now
        flows = self._flows
        if dt <= 0 or not flows:
            return
        debit = self.capacity * (1.0 / len(flows)) * dt
        for f in flows:
            f.remaining -= debit
        # Numerical guard: clamp tiny negatives from float error.
        for f in flows:
            if f.remaining < 0:
                f.remaining = 0.0

    #: Flows with less than this many bytes left are considered complete
    #: (absorbs float error from incremental debiting).
    _EPSILON_BYTES = 1e-6
    #: Timers shorter than this cannot advance the clock reliably; the flow
    #: is force-completed instead of spinning on zero-delay timers.
    _MIN_TIMER_S = 1e-12

    def _reschedule(self) -> None:
        if self._timer is not None and not self._timer._processed:
            self._timer.cancel()
        self._timer = None
        finished: list[_Flow] = []
        while True:
            # Complete any flows that are done (or numerically done).
            done_now = [f for f in self._flows
                        if f.remaining <= self._EPSILON_BYTES]
            if done_now:
                finished += done_now
                self._flows = [f for f in self._flows
                               if f.remaining > self._EPSILON_BYTES]
            if not self._flows:
                break
            rate = self.capacity * (1.0 / len(self._flows))
            next_dt = min(f.remaining for f in self._flows) / rate
            if next_dt <= self._MIN_TIMER_S:
                # Residue below timer resolution: drain it and loop.
                for f in self._flows:
                    if f.remaining / rate <= self._MIN_TIMER_S:
                        f.remaining = 0.0
                continue
            # Pooled: every new flow cancels and replaces this timer, so
            # the share would otherwise allocate one Timeout per block of
            # every pipeline stream.
            self._timer = self.engine.pooled_timer(next_dt)
            self._timer.add_callback(self._on_timer)
            break
        # Completions run last, with the flow list settled and the next
        # timer armed, so one may start a new flow on this share.
        for f in finished:
            f.on_done()

    def _on_timer(self, _ev: Event | None) -> None:
        flows = self._flows
        if len(flows) > 1:
            self._advance()
            self._reschedule()
            return
        # The lone flow (nearly every message): the general step for n = 1
        # inline, bit-identical since capacity * (1.0 / 1) is capacity.
        f = flows[0]
        now = self.engine.now
        f.remaining -= self.capacity * (now - self._last_t)
        self._last_t = now
        if f.remaining > self._EPSILON_BYTES:
            next_dt = f.remaining / self.capacity
            if next_dt > self._MIN_TIMER_S:
                t = self._timer
                if t is not None and t._processed:
                    # The share's own last timer fired and left the heap:
                    # re-arm it (``Timeout._rearm`` inlined; its value,
                    # ``_ok`` and ``_cancelled`` are still a fresh
                    # timer's) instead of taking one per flow.
                    engine = self.engine
                    t._processed = False
                    t.delay = next_dt
                    t._scheduled = True
                    heapq.heappush(engine._heap, (
                        now + next_dt, next(engine._seq), t))
                else:
                    t = self._timer = self.engine.pooled_timer(next_dt)
                # A fresh list: this may run inside the timer's own
                # callback loop, which must not see the new entry.
                t.callbacks = [self._on_timer]
                return
        flows.clear()
        f.on_done()
