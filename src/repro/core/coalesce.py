"""Cross-front-end control-frame coalescing (the job service's merge point).

A front-end's ``batch_rpc`` turns *consecutive control ops of one caller*
into a sub-frame and sends it as a one-rider MBATCH frame.  A serving
front door multiplexes many concurrent jobs — different tenants,
different front-ends — onto the same gateway rank, and their sub-frames
still pay one round trip each.  The Acceleration-as-a-Service
observation (PAPERS.md, arXiv:1508.02558) is that virtualized
accelerators only pay off when those concurrent clients' requests are
aggregated at the service boundary.

:class:`FrameCoalescer` is that aggregation point: one instance per
(gateway rank, daemon) pair.  Front-ends holding it submit their
*sub-frames* (each a short list of batchable control ops under its own
sub-frame id) here instead of sending them alone; the coalescer's pump
gathers everything submitted within a virtual-time window and ships the
set as a single :data:`~repro.core.protocol.Op.MBATCH` request — the
same frame type, with more riders.  The daemon executes the sub-frames
independently (one tenant's failure never skips another's) and replies
with one response list per sub-frame.

Semantics preserved across the merge:

* **at-most-once** — dedup identity is the *carrier's*: the frame
  travels under one request id and ``MBATCH`` is in
  :data:`~repro.core.protocol.DEDUP_OPS`, so a retried frame replays
  every recorded sub-response exactly once (the daemon's dedup window
  is weighted by sub-response count so merged entries age out
  honestly).  Sub-frame ids only label the riders' responses and spans;
* **span parenting** — each sub-frame carries its originating front-end's
  span context out-of-band (``Request.sub_traces``), so daemon-side spans
  parent under the right tenant's trace, not the carrier's;
* **failure isolation** — a frame-level failure (timeout after retries,
  broken device) fails every waiter identically, but the coalescer itself
  is not sticky: later submissions proceed, because the waiters belong to
  unrelated jobs.

With ``window_s=0`` the pump still merges whatever accumulated while the
previous frame was in flight (flush-on-drain), which is where most of the
round-trip savings come from under load; a positive window trades a small
added latency for denser frames.
"""

from __future__ import annotations

import collections
import typing as _t

from ..obs.spans import NULL_SPAN, collector_for
from ..sim import Event
from .protocol import Op, TAG_REQUEST
from .reliability import DEFAULT_RETRY, reliable_rpc

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..mpisim import RankHandle

#: Most sub-frames merged into one MBATCH frame.  Bounds the daemon time
#: one frame can monopolize and the work a lost frame retries.
MAX_MERGE = 16

#: Merged frames concurrently in flight per coalescer.  Two keeps the
#: daemon fed (one frame executing while the next accumulates and
#: travels); one would idle the daemon for a full client round trip
#: between frames, costing more than the merge saves.
MAX_INFLIGHT = 2


class _SubFrame:
    """One submitted sub-frame awaiting its merged round trip."""

    __slots__ = ("sub_id", "ops", "trace", "event")

    def __init__(self, sub_id: int, ops: list, trace, event: Event):
        self.sub_id = sub_id
        self.ops = ops
        self.trace = trace
        self.event = event


class FrameCoalescer:
    """Merges concurrent sub-frames to one daemon into MBATCH frames."""

    def __init__(self, rank: "RankHandle", daemon_rank: int,
                 window_s: float = 0.0):
        if not window_s >= 0:
            raise ValueError(f"window_s must be >= 0: {window_s!r}")
        self.rank = rank
        self.daemon_rank = daemon_rank
        self.engine = rank.comm.engine
        self.window_s = window_s
        self.name = f"coalesce:cn{rank.index}->r{daemon_rank}"
        self._obs = collector_for(self.engine)
        self._pending: collections.deque[_SubFrame] = collections.deque()
        self._pump = None
        self._inflight = 0
        self._slot_free: Event | None = None
        #: Accounting: sub-frames submitted, ops inside them, wire frames
        #: actually sent, and sub-frames that shared a frame with another.
        self.subs_in = 0
        self.ops_in = 0
        self.frames_out = 0
        self.merged_subs = 0
        #: reliable_rpc stats protocol (wire attempts / expired deadlines).
        self.requests = 0
        self.timeouts = 0

    def submit(self, ops: _t.Sequence[tuple], span=NULL_SPAN):
        """Queue one sub-frame (generator); returns its response list.

        ``ops`` is the wire form ``[(op_value, params), ...]`` (framing and
        scoping are the caller's job — see ``RemoteAccelerator.batch_rpc``).
        The sub-frame gets an id of its own and rides the next merged
        frame, whose request id is what the daemon deduplicates on; this
        generator resumes with the list of per-op
        :class:`~repro.core.protocol.Response` objects once the daemon's
        reply lands, or raises the carrier frame's failure.
        """
        ev = Event(self.engine)
        self._pending.append(_SubFrame(next(self.rank.comm.ids), list(ops),
                                       span.wire, ev))
        self.subs_in += 1
        self.ops_in += len(ops)
        self._ensure_pump()
        subs = yield ev
        return subs

    def _ensure_pump(self) -> None:
        if self._pump is None or self._pump.triggered:
            self._pump = self.engine.process(self._drain(),
                                             name=f"{self.name}:pump")

    def _drain(self):
        while self._pending:
            if self.window_s > 0.0:
                # Let concurrent jobs' submissions accumulate.  The window
                # is virtual time, so merging on/off stays deterministic.
                yield self.engine.sleep(self.window_s)
            while self._inflight >= MAX_INFLIGHT:
                # Backpressure: new submissions keep accumulating into
                # `_pending` while we wait, which is where flush-on-drain
                # merging comes from.
                self._slot_free = Event(self.engine)
                yield self._slot_free
            if not self._pending:
                return
            batch = [self._pending.popleft()
                     for _ in range(min(len(self._pending), MAX_MERGE))]
            self._inflight += 1
            self.engine.process(self._issue_slot(batch),
                                name=f"{self.name}:frame")

    def _issue_slot(self, batch: list[_SubFrame]):
        try:
            yield from self._issue(batch)
        finally:
            self._inflight -= 1
            if self._slot_free is not None and not self._slot_free.triggered:
                self._slot_free.succeed(None)

    def _issue(self, batch: list[_SubFrame]):
        self.frames_out += 1
        if len(batch) > 1:
            self.merged_subs += len(batch)
        params = {"reqs": [(s.sub_id, s.ops) for s in batch]}
        span = self._obs.start("coalesce.frame", f"cn{self.rank.index}",
                               subs=len(batch),
                               ops=sum(len(s.ops) for s in batch))
        try:
            with span:
                resp = yield from reliable_rpc(
                    self.rank, self.daemon_rank, TAG_REQUEST, Op.MBATCH,
                    params, DEFAULT_RETRY, stats=self, span=span,
                    sub_traces=[s.trace for s in batch])
                resp.raise_for_status()
        except Exception as exc:
            # Carrier-level failure: every rider fails identically, but the
            # coalescer keeps serving — the waiters are unrelated jobs.
            for s in batch:
                s.event.fail(exc)
            return
        for s, sub in zip(batch, resp.value):
            s.event.succeed(sub)
