"""Synchronization and flow-control primitives built on the event kernel.

* :class:`Resource` — counted resource with ``when_granted``/``release`` (a
  ``capacity=1`` resource is a lock; used to serialize DMA engines, NIC
  injection, CPU cores).
* :class:`BandwidthShare` — a fluid-flow bandwidth pool: concurrent flows
  share the capacity equally, and rates are recomputed whenever a flow
  starts or finishes.  This models fair-share link contention without
  simulating individual packets.  A lone flow (nearly every message)
  costs no object: it is two fields of the share, and the share's own
  timer, re-armed in place, runs its step.
"""

from __future__ import annotations

import collections
import heapq
import typing as _t

from ..errors import SimulationError
from .engine import Engine
from .events import Timeout


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
    """One of several concurrent flows on a share (a lone flow is two
    fields of the share instead)."""

    __slots__ = ("remaining", "on_done")

    def __init__(self, nbytes: float, on_done: _t.Callable[[], _t.Any]):
        self.remaining = float(nbytes)
        self.on_done = on_done


class _ShareTimer(Timeout):
    """A share's completion timer: its own step is the share's.

    Processing the timer runs :meth:`BandwidthShare._on_timer` directly,
    so arming it allocates no callback list.  The share keeps the timer
    its last flow fired and re-arms it in place; one it cancelled waits
    in the share's spares until its heap entry is gone.
    """

    __slots__ = ("share",)

    def __init__(self, share: "BandwidthShare", delay: float):
        super().__init__(share.engine, delay)
        self.share = share

    def _process(self) -> None:
        self._processed = True
        self.share._on_timer()


class BandwidthShare:
    """Fluid-flow model of a shared bandwidth pool.

    Each of the *n* active flows transfers at rate ``capacity / n``
    (max-min fair sharing with equal shares).  Whenever the flow set
    changes, all remaining byte counts are advanced to the current time
    and the single next-completion timer is rescheduled.

    With one flow at a time a flow of *b* bytes takes ``b / capacity``
    exactly, so uncontended transfers are precise.  That lone flow —
    nearly every message — is two fields of the share, not a record, and
    its completion re-arms the share's own timer: an uncontended flow
    allocates nothing.  Flows become :class:`_Flow` records only while
    several share the capacity.
    """

    def __init__(self, engine: Engine, capacity_bytes_per_s: float):
        if capacity_bytes_per_s <= 0:
            raise SimulationError(f"capacity must be positive: {capacity_bytes_per_s!r}")
        self.engine = engine
        self.capacity = float(capacity_bytes_per_s)
        #: Concurrent flows; empty while the share is idle or has a lone
        #: flow.
        self._flows: list[_Flow] = []
        #: The lone flow: bytes left at ``_last_t`` and its completion
        #: (None when there is no lone flow).
        self._lone_left = 0.0
        self._lone_done: _t.Callable[[], _t.Any] | None = None
        self._timer: _ShareTimer | None = None
        #: Timers cancelled by a reschedule, oldest first: the head is
        #: re-armed once its dead heap entry has been popped.
        self._spares: collections.deque[_ShareTimer] = collections.deque()
        self._last_t = engine.now

    def drain(self, nbytes: float, on_done: _t.Callable[[], _t.Any]) -> None:
        """Start a flow of ``nbytes``; ``on_done()`` is called at completion.

        The completion runs inside the share's own timer step, at the
        completion instant, instead of through one more heap entry.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes!r}")
        if nbytes == 0:
            on_done()
            return
        flows = self._flows
        lone = self._lone_done
        if lone is None and not flows:
            # Idle (no live timer, nothing to debit): the lone-flow step
            # arms the timer, or completes the flow if it is too small.
            self._last_t = self.engine.now
            self._lone_left = float(nbytes)
            self._lone_done = on_done
            self._on_timer()
            return
        if lone is not None:
            # A second flow: the lone one becomes a record.
            flows.append(_Flow(self._lone_left, lone))
            self._lone_done = None
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
    #: Cancelled timers a share keeps for re-arming.
    _SPARES_MAX = 8

    def _arm(self, delay: float) -> None:
        """Schedule the share's timer ``delay`` seconds from now.

        The timer the share last fired (or whose cancelled entry has left
        the heap) is re-armed in place, as :meth:`Engine.sleep` re-arms a
        pooled timer (its value and ``_ok`` are still a fresh timer's).
        A timer whose cancelled entry still waits in the heap joins the
        spares, and the oldest spare whose entry is gone is re-armed
        instead; a fresh timer is made only when there is none.
        """
        t = self._timer
        if t is None or t._scheduled:
            spares = self._spares
            if t is not None and len(spares) < self._SPARES_MAX:
                spares.append(t)
            if not spares or spares[0]._scheduled:
                self._timer = _ShareTimer(self, delay)
                return
            t = self._timer = spares.popleft()
        engine = self.engine
        t._processed = False
        t._cancelled = False
        t.delay = delay
        t._scheduled = True
        heapq.heappush(engine._heap,
                       (engine.now + delay, next(engine._seq), t))

    def _reschedule(self) -> None:
        t = self._timer
        if t is not None and t._scheduled and not t._cancelled:
            t.cancel()
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
            self._arm(next_dt)
            break
        # Completions run last, with the flow list settled and the next
        # timer armed, so one may start a new flow on this share.
        for f in finished:
            f.on_done()

    def _on_timer(self) -> None:
        if self._flows:
            self._advance()
            self._reschedule()
            return
        # The lone flow: the general step for n = 1 inline, bit-identical
        # since capacity * (1.0 / 1) is capacity.
        now = self.engine.now
        left = self._lone_left - self.capacity * (now - self._last_t)
        self._last_t = now
        if left > self._EPSILON_BYTES:
            next_dt = left / self.capacity
            if next_dt > self._MIN_TIMER_S:
                self._lone_left = left
                self._arm(next_dt)
                return
        on_done = self._lone_done
        self._lone_done = None
        on_done()
