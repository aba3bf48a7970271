"""Asynchronous command streams with RPC batching.

The synchronous ``ac*`` API pays two MPI messages per operation (Sect. IV),
so control-heavy sequences like ``acKernelCreate -> acKernelSetArgs ->
acKernelRun`` serialize on network round trips even while the GPU idles.
A :class:`Stream` removes that cost the way rCUDA-style remote-GPU stacks
do: operations are *queued* and return :class:`StreamFuture` handles
immediately; a per-stream pump process drains the queue in FIFO order and
coalesces consecutive small control ops (see
:data:`~repro.core.protocol.BATCHABLE_OPS`) into a single sub-frame that
the front-end's ``batch_rpc`` sends as a one-rider
:data:`~repro.core.protocol.Op.MBATCH` request — one round trip instead
of N, and the same frame the job service's coalescer merges tenants
into.  Bulk transfers keep their own frames (their data blocks
travel on per-request tags) but still overlap with work on *other*
streams, because every stream pumps in its own simulation process.

Ordering and failure semantics follow CUDA streams:

* ops within one stream execute strictly in queue order (the pump issues
  one frame at a time and the simulated-MPI layer is non-overtaking per
  (source, destination) pair);
* ops on different streams may interleave arbitrarily;
* the first failing op fails its future, aborts everything queued behind
  it, and leaves the stream in a sticky error state that
  :meth:`Stream.synchronize` re-raises.

Retries are safe: a whole batch frame travels under one request id and
``Op.MBATCH`` is in :data:`~repro.core.protocol.DEDUP_OPS`, so a timed-out
frame that is resent replays the daemon's recorded sub-responses instead
of re-executing the ops — at-most-once, exactly like the single-op path.

A future may be passed *as a parameter* to a later op on any stream (a
``mem_alloc`` future as a copy destination, or inside a ``kernel_run``
parameter dict).  The pump resolves it before issuing; if it is still
pending — e.g. the alloc sits in an earlier frame of the same stream —
the pump flushes up to it and waits, so data dependencies are honoured
without the caller ever blocking.
"""

from __future__ import annotations

import collections
import typing as _t

from ..errors import MiddlewareError
from ..obs.spans import collector_for
from ..sim import Engine, Event
from .protocol import BATCHABLE_OPS, Op

#: Largest number of control ops coalesced into one sub-frame.  Bounded
#: so one frame's daemon-side execution cannot starve interleaved streams
#: and a lost frame retries a bounded amount of work.
DEFAULT_MAX_BATCH = 16


class StreamFuture:
    """Deferred result of one queued stream operation.

    ``result()`` is valid once the op completed (after a
    :meth:`Stream.synchronize`, or whenever :attr:`done` turns True); a
    pending or failed future raises.  Futures can also be passed as
    parameters to later stream ops — the pump resolves them in order.
    """

    __slots__ = ("stream", "label", "_event")

    def __init__(self, stream: "Stream", label: str):
        self.stream = stream
        self.label = label
        self._event = Event(stream.engine)

    @property
    def done(self) -> bool:
        """True once the op has completed (successfully or not)."""
        return self._event.triggered

    @property
    def ok(self) -> bool:
        """True once the op completed successfully."""
        return self._event.triggered and self._event.ok

    def result(self) -> _t.Any:
        """The op's return value; raises its error if it failed."""
        if not self._event.triggered:
            raise MiddlewareError(
                f"stream op {self.label!r} has not completed — "
                f"synchronize the stream first")
        if not self._event.ok:
            raise self._event.value
        return self._event.value

    def wait(self):
        """Block (generator) until this op completes; returns its value."""
        if not self._event.processed:
            yield self._event
        return self.result()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("pending" if not self._event.triggered
                 else "ok" if self._event.ok else "failed")
        return f"<StreamFuture {self.label} {state}>"


class _QueuedOp:
    """One queued operation: how to issue it, and its future."""

    __slots__ = ("op", "method", "kwargs", "future")

    def __init__(self, op: Op | None, method: str, kwargs: dict,
                 future: StreamFuture):
        self.op = op              # protocol op when batchable, else None
        self.method = method      # front-end method name for the solo path
        #: The front-end method's keyword arguments — which, for a
        #: batchable op, are also its wire params.
        self.kwargs = kwargs
        self.future = future

    def pending_futures(self) -> list[StreamFuture]:
        """Unresolved futures among this op's parameters."""
        out: list[StreamFuture] = []
        _collect_pending(self.kwargs, out)
        return out


def _collect_pending(value: _t.Any, out: list[StreamFuture]) -> None:
    if isinstance(value, StreamFuture):
        if not value.done:
            out.append(value)
    elif isinstance(value, dict):
        for v in value.values():
            _collect_pending(v, out)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _collect_pending(v, out)


def _resolve(value: _t.Any) -> _t.Any:
    """Replace completed futures with their results, recursively."""
    if isinstance(value, StreamFuture):
        return value.result()
    if isinstance(value, dict):
        return {k: _resolve(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolve(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_resolve(v) for v in value)
    return value


class Stream:
    """An in-order asynchronous command queue over one remote front-end.

    Runs of consecutive batchable control ops go to the
    :class:`~repro.core.api.RemoteAccelerator`'s ``batch_rpc`` as one
    sub-frame each; bulk transfers and a ``kernel_run`` with its own
    deadline go through the front-end's method, one frame each.  Launch
    parameters travel with ``kernel_run(params=...)``.

    Obtain streams through :meth:`RemoteAccelerator.stream
    <repro.core.api.RemoteAccelerator.stream>` rather than constructing
    directly.
    """

    def __init__(self, ac: _t.Any, engine: Engine,
                 max_batch: int | None = None, name: str = "stream"):
        if max_batch is None:
            max_batch = DEFAULT_MAX_BATCH
        if max_batch < 1:
            raise MiddlewareError(f"max_batch must be >= 1: {max_batch!r}")
        self.ac = ac
        self.engine = engine
        self.max_batch = max_batch
        self.name = name
        self._obs = collector_for(engine)
        self._queue: collections.deque[_QueuedOp] = collections.deque()
        self._pump = None
        self._error: Exception | None = None
        #: Accounting: logical ops queued, frames actually issued, and how
        #: many ops rode inside multi-op sub-frames.
        self.ops_issued = 0
        self.frames_issued = 0
        self.ops_batched = 0

    # -- queueing --------------------------------------------------------
    def _submit(self, op: Op | None, method: str,
                kwargs: dict) -> StreamFuture:
        if self._error is not None:
            raise MiddlewareError(
                f"stream {self.name!r} is in a sticky error state "
                f"({self._error}); create a new stream") from self._error
        future = StreamFuture(self, method)
        self._queue.append(_QueuedOp(op, method, kwargs, future))
        self.ops_issued += 1
        self._ensure_pump()
        return future

    def _ensure_pump(self) -> None:
        if self._pump is None or self._pump.triggered:
            self._pump = self.engine.process(self._drain(),
                                             name=f"{self.name}:pump")

    # -- the ac* surface (all return futures immediately) ----------------
    def mem_alloc(self, nbytes: int) -> StreamFuture:
        return self._submit(Op.MEM_ALLOC, "mem_alloc",
                            {"nbytes": int(nbytes)})

    def mem_free(self, addr: int | StreamFuture) -> StreamFuture:
        return self._submit(Op.MEM_FREE, "mem_free", {"addr": addr})

    def memcpy_h2d(self, dst: int | StreamFuture, payload: _t.Any,
                   **kw) -> StreamFuture:
        return self._submit(None, "memcpy_h2d",
                            {"dst": dst, "payload": payload, **kw})

    def memcpy_d2h(self, src: int | StreamFuture, nbytes: int,
                   **kw) -> StreamFuture:
        return self._submit(None, "memcpy_d2h",
                            {"src": src, "nbytes": int(nbytes), **kw})

    def kernel_create(self, name: str) -> StreamFuture:
        return self._submit(Op.KERNEL_CREATE, "kernel_create", {"name": name})

    def kernel_run(self, name: str, params: dict | None = None,
                   real: bool = True,
                   timeout_s: float | None = None) -> StreamFuture:
        kwargs = {"name": name, "params": params, "real": real}
        if timeout_s is not None:
            # A custom deadline needs its own frame (the solo path).
            return self._submit(None, "kernel_run",
                                {**kwargs, "timeout_s": timeout_s})
        return self._submit(Op.KERNEL_RUN, "kernel_run", kwargs)

    def ping(self) -> StreamFuture:
        return self._submit(Op.PING, "ping", {})

    # -- synchronization -------------------------------------------------
    def synchronize(self):
        """Wait (generator) until every queued op has completed.

        Raises the stream's first error, if any — after which the stream
        refuses further ops (sticky, like a CUDA stream error).
        """
        while self._queue or (self._pump is not None
                              and not self._pump.triggered):
            yield self._pump
        if self._error is not None:
            raise self._error
        return None

    # -- the pump --------------------------------------------------------
    def _drain(self):
        while self._queue:
            head = self._queue[0]
            pending = head.pending_futures()
            if pending:
                # A parameter is produced by an op still in flight (or
                # queued on another stream): wait for it, then re-check.
                try:
                    yield pending[0]._event
                except Exception:
                    pass  # dependency failed; handled just below
                if not pending[0].ok:
                    self._abort(MiddlewareError(
                        f"stream op {head.method!r} depends on failed "
                        f"op {pending[0].label!r}"))
                    return
                continue
            if head.op in BATCHABLE_OPS:
                run = [self._queue.popleft()]
                while (self._queue and len(run) < self.max_batch
                       and self._queue[0].op in BATCHABLE_OPS
                       and not self._queue[0].pending_futures()):
                    run.append(self._queue.popleft())
                if len(run) == 1:
                    yield from self._issue_solo(run[0])
                else:
                    yield from self._issue_batch(run)
            else:
                yield from self._issue_solo(self._queue.popleft())
            if self._error is not None:
                return

    def _issue_solo(self, item: _QueuedOp):
        self.frames_issued += 1
        with self._obs.start("stream.frame", self.name, ops=1,
                             method=item.method,
                             queue_depth=len(self._queue)) as frame:
            try:
                kwargs = _resolve(item.kwargs)
                method = getattr(self.ac, item.method)
                # The front-end's own client.* span adopts the frame span
                # as parent (stage-then-call, no yield in between), so the
                # op becomes the frame's per-op child.
                self._obs.adopt_parent(frame.context)
                try:
                    result = yield from method(**kwargs)
                finally:
                    self._obs.clear_adopted()
            except Exception as exc:
                self._fail(item, exc)
                return
        item.future._event.succeed(result)

    def _issue_batch(self, run: list[_QueuedOp]):
        self.frames_issued += 1
        self.ops_batched += len(run)
        frame = self._obs.start("stream.frame", self.name, ops=len(run),
                                queue_depth=len(self._queue))
        with frame:
            children = [frame.child(f"stream.{item.method}", op=i)
                        for i, item in enumerate(run)]
            try:
                calls = [(item.op, _resolve(item.kwargs)) for item in run]
                self._obs.adopt_parent(frame.context)
                try:
                    subs = yield from self.ac.batch_rpc(calls)
                finally:
                    self._obs.clear_adopted()
            except Exception as exc:
                # The frame itself failed (timeout after retries, broken
                # accelerator, ...): every op in it fails identically.
                for item, child in zip(run, children):
                    child.finish(error=type(exc).__name__)
                    item.future._event.fail(exc)
                self._abort_rest(exc)
                return
            failed: Exception | None = None
            for item, sub, child in zip(run, subs, children):
                if failed is not None:
                    child.finish(skipped=True)
                    item.future._event.fail(failed)
                    continue
                try:
                    sub.raise_for_status()
                except Exception as exc:
                    child.finish(error=type(exc).__name__)
                    failed = exc
                    self._fail(item, exc)
                    continue
                child.finish()
                item.future._event.succeed(sub.value)

    # -- failure ---------------------------------------------------------
    def _fail(self, item: _QueuedOp, exc: Exception) -> None:
        item.future._event.fail(exc)
        self._abort_rest(exc)

    def _abort_rest(self, exc: Exception) -> None:
        if self._error is None:
            self._error = exc
        while self._queue:
            dropped = self._queue.popleft()
            dropped.future._event.fail(MiddlewareError(
                f"stream op {dropped.method!r} aborted: an earlier stream "
                f"op failed ({exc})"))

    def _abort(self, exc: Exception) -> None:
        head = self._queue.popleft()
        head.future._event.fail(exc)
        self._abort_rest(exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Stream {self.name} ops={self.ops_issued} "
                f"frames={self.frames_issued} queued={len(self._queue)}>")
