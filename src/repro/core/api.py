"""The middleware front-end: the ``ac*`` computation API.

:class:`RemoteAccelerator` is what application code on a compute node uses
to drive one assigned accelerator — the paper's Listing 2 surface:

=====================  =========================================
Paper API              This library
=====================  =========================================
``acMemAlloc``         ``yield from ac.mem_alloc(nbytes)``
``acMemCpy`` (H2D)     ``yield from ac.memcpy_h2d(ptr, data)``
``acMemCpy`` (D2H)     ``yield from ac.memcpy_d2h(ptr, nbytes)``
``acKernelCreate``     ``yield from ac.kernel_create(name)``
``acKernelSetArgs``    ``ac.kernel_set_args(name, params)``
``acKernelRun``        ``yield from ac.kernel_run(name)``
``acMemFree``          ``yield from ac.mem_free(ptr)``
=====================  =========================================

All remote calls are generators to be driven inside a simulation process
(or through :class:`~repro.core.session.SyncSession` in plain scripts).
Every operation costs exactly two MPI messages (request + response) plus
data messages for bulk transfers, matching Sect. IV.

Every operation also opens a ``client.*`` span on the engine's
:class:`~repro.obs.TraceCollector`; the span's context rides the request
frame so the daemon's network/staging/DMA phases become children on the
same trace id (see :mod:`repro.obs`).  With tracing disabled the spans
are the shared no-op :data:`~repro.obs.NULL_SPAN` and virtual time is
bit-identical.
"""

from __future__ import annotations

import typing as _t

from ..errors import MiddlewareError, RequestTimeout
from ..mpisim import RankHandle, payload_nbytes
from ..obs.spans import NULL_SPAN, BranchScope, collector_for
from .blocksize import DEFAULT_TRANSFER, H2D_BLOCK_POST_S, TransferConfig
from .interface import reject_bool_transfer
from .protocol import (
    AcceleratorHandle,
    BATCHABLE_OPS,
    Op,
    Request,
    Response,
    TAG_REQUEST,
    VirtualAcceleratorHandle,
    data_tag,
    reply_tag,
)
from .reliability import DEFAULT_RETRY, RetryPolicy, reliable_rpc
from .transfer import assemble_chunks, payload_meta, send_blocks, slice_chunks

#: Most control ops one :meth:`RemoteAccelerator.control_run` sub-frame
#: carries, so one frame's daemon-side execution stays bounded and a lost
#: frame retries a bounded amount of work.
MAX_RUN_OPS = 16

#: The ``client.*`` span attribute of a control op sent alone: (attribute,
#: param), as the front-end's own method records it.
_SPAN_ATTR = {Op.MEM_ALLOC: ("nbytes", "nbytes"),
              Op.MEM_FREE: ("addr", "addr"),
              Op.KERNEL_CREATE: ("kernel", "name"),
              Op.KERNEL_RUN: ("kernel", "name")}


class RemoteAccelerator:
    """Front-end bound to one compute-node rank and one accelerator handle."""

    def __init__(self, rank: RankHandle, handle: AcceleratorHandle,
                 transfer: TransferConfig = DEFAULT_TRANSFER,
                 retry: RetryPolicy | None = None):
        self.rank = rank
        self.handle = handle
        self.transfer = transfer
        self.retry = retry or DEFAULT_RETRY
        #: Tenant scoping: a virtual handle stamps its lease id onto every
        #: request, and the daemon resolves ops against that slice.
        self._scope = ({"vac": handle.vac_id}
                       if isinstance(handle, VirtualAcceleratorHandle) else {})
        self._kernels: dict[str, dict] = {}  # name -> staged args
        #: Live device allocations (the job service frees and parks them).
        self._live: dict[int, int] = {}      # addr -> nbytes
        #: Where this front-end's sub-frames of batchable control ops go:
        #: ``None`` sends each alone, a
        #: :class:`~repro.core.coalesce.FrameCoalescer` (set by the job
        #: service, one per gateway/daemon pair) merges them with other
        #: front-ends' into shared frames.
        self.coalescer = None
        self._obs = collector_for(rank.comm.engine)
        self._actor = f"cn{rank.index}"
        #: Cumulative accounting for the experiment harness.
        self.bytes_h2d = 0
        self.bytes_d2h = 0
        self.requests = 0
        self.timeouts = 0

    # -- plumbing -------------------------------------------------------
    def _cfg(self, transfer: TransferConfig | None) -> TransferConfig:
        """The per-call transfer configuration, else this front end's."""
        reject_bool_transfer(transfer)
        return transfer or self.transfer

    def _rpc(self, op: Op, params: dict, span=NULL_SPAN,
             sub_traces: list | None = None):
        """One request/response round trip (generator). Returns Response.

        With a retry-policy timeout, the reply is raced against a
        virtual-time deadline; retryable ops are resent on expiry per the
        policy's backoff schedule, and :class:`RequestTimeout` surfaces
        once all deadlines passed.
        """
        if self._scope:
            params = {**params, **self._scope}
        resp = yield from reliable_rpc(
            self.rank, self.handle.daemon_rank, TAG_REQUEST, op, params,
            self.retry, stats=self, span=span, sub_traces=sub_traces)
        resp.raise_for_status()
        return resp

    def _control(self, op: Op, params: dict, **attrs):
        """One batchable control op (generator); returns its value.

        The op is its own two-message request (Sect. IV) — or, when this
        front-end has a coalescer, a one-op sub-frame of a shared frame.
        """
        if self.coalescer is not None:
            (resp,) = yield from self.batch_rpc([(op, params)])
            resp.raise_for_status()
            return resp.value
        with self._obs.start(f"client.{op.value}", self._actor,
                             **attrs) as span:
            resp = yield from self._rpc(op, params, span=span)
            self._track(op, params, resp.value)
            return resp.value

    def _track(self, op: Op, params: dict, value: _t.Any) -> None:
        """Client-side bookkeeping for a control op that succeeded."""
        if op is Op.MEM_ALLOC:
            self._live[value] = params["nbytes"]
        elif op is Op.MEM_FREE:
            self._live.pop(params["addr"], None)
        elif op is Op.KERNEL_CREATE:
            self._kernels[params["name"]] = {}

    def _await(self, event, timeout_s: float | None, what: str):
        """Wait for ``event`` or time out (generator); returns its value.

        ``what`` opens the :class:`RequestTimeout` message raised once
        ``timeout_s`` (None: unbounded) has passed without the event;
        its ``{}`` takes the accelerator id.  The race cancels its own
        deadline when ``event`` wins.
        """
        if timeout_s is None:
            return (yield event)
        yield self.rank.comm.engine.race(event, timeout_s)
        if not event.triggered:
            self.timeouts += 1
            raise RequestTimeout(f"{what.format(self.handle.ac_id)} "
                                 f"({timeout_s:g} s deadline)")
        return event.value

    # -- memory management ----------------------------------------------
    def mem_alloc(self, nbytes: int):
        """Allocate ``nbytes`` of device memory; returns the device address."""
        addr = yield from self._control(Op.MEM_ALLOC, {"nbytes": int(nbytes)},
                                        nbytes=int(nbytes))
        return addr

    def mem_free(self, addr: int):
        """Release a device allocation."""
        yield from self._control(Op.MEM_FREE, {"addr": addr}, addr=addr)

    # -- data movement ----------------------------------------------------
    def _send_header(self, op: Op, params: dict, cfg: TransferConfig, span,
                     n_recv: int = 0):
        """Send one bulk copy's header; returns ``(dtag, reply, block_reqs)``.

        The reply receive is posted before the header leaves — and so
        are ``n_recv`` block receives on the data tag: a D2H pre-posts
        them all, because the protocol knows the block count.
        """
        rank, daemon = self.rank, self.handle.daemon_rank
        req_id = next(rank.comm.ids)
        dtag = data_tag(req_id)
        block_reqs = [rank.irecv(source=daemon, tag=dtag)
                      for _ in range(n_recv)]
        reply = rank.irecv(source=daemon, tag=reply_tag(req_id))
        rank.isend(daemon, TAG_REQUEST, Request(
            op=op, req_id=req_id, reply_to=rank.index,
            params={**params, "data_tag": dtag, "gpudirect": cfg.gpudirect,
                    **self._scope},
            trace=span.wire))
        self.requests += 1
        return dtag, reply, block_reqs

    def memcpy_h2d(self, dst: int, payload: _t.Any,
                   transfer: TransferConfig | None = None, offset: int = 0):
        """Copy a host payload to device address ``dst`` (+ ``offset``).

        ``payload`` is a numpy array, bytes, or a
        :class:`~repro.mpisim.Phantom` for timing-only transfers.
        """
        cfg = self._cfg(transfer)
        nbytes = payload_nbytes(payload)
        blocks = cfg.plan_blocks(nbytes, "h2d")
        span = self._obs.start("client.memcpy_h2d", self._actor,
                               nbytes=nbytes, blocks=len(blocks),
                               protocol=cfg.name)
        with span:
            dtag, reply, _ = self._send_header(Op.MEMCPY_H2D, {
                "dst": dst, "offset": int(offset), "blocks": blocks,
                "meta": payload_meta(payload) if offset == 0 else None,
            }, cfg, span)
            # Each block pays the per-block registration/posting surcharge.
            with span.child("inject", nbytes=nbytes):
                yield from send_blocks(
                    self.rank, self.handle.daemon_rank, dtag,
                    slice_chunks(payload, blocks), H2D_BLOCK_POST_S)
            msg = yield from self._await(
                reply, self.retry.transfer_timeout_s(nbytes),
                "memcpy_h2d to ac{} timed out")
            msg.payload.raise_for_status()
            self.bytes_h2d += nbytes

    def memcpy_d2h(self, src: int, nbytes: int,
                   transfer: TransferConfig | None = None, offset: int = 0):
        """Copy ``nbytes`` from device address ``src`` (+ ``offset``) back.

        Returns a typed array when the whole buffer is read and it has
        recorded dtype/shape, a flat uint8 array otherwise, or a Phantom
        for timing-only buffers.
        """
        cfg = self._cfg(transfer)
        nbytes = int(nbytes)
        blocks = cfg.plan_blocks(nbytes, "d2h")
        span = self._obs.start("client.memcpy_d2h", self._actor,
                               nbytes=nbytes, blocks=len(blocks),
                               protocol=cfg.name)
        with span:
            _, reply, block_reqs = self._send_header(Op.MEMCPY_D2H, {
                "src": src, "offset": int(offset), "blocks": blocks,
            }, cfg, span, n_recv=len(blocks))
            deadline_s = self.retry.transfer_timeout_s(nbytes)
            msg = yield from self._await(reply, deadline_s,
                                         "memcpy_d2h to ac{} timed out")
            resp: Response = msg.payload
            # On failure the daemon sent no data; the pre-posted receives are
            # abandoned (their unique tag is never reused).
            resp.raise_for_status()
            if block_reqs:
                with span.child("net.recv", blocks=len(block_reqs)):
                    yield from self._await(
                        self.rank.comm.engine.all_of(block_reqs),
                        deadline_s, "memcpy_d2h data stream from ac{} stalled")
            self.bytes_d2h += nbytes
            return assemble_chunks([r.message.payload for r in block_reqs],
                                   blocks, resp.value)

    def peer_put(self, src: int, nbytes: int, peer: "RemoteAccelerator",
                 dst: int, *, transfer: TransferConfig | None = None):
        """Copy device memory directly to another accelerator.

        The data flows accelerator-to-accelerator over the fabric without
        touching this compute node — the capability the paper highlights as
        impossible with CUDA 4.2 / OpenCL 1.2 (Sect. III-C).  ``dst`` is
        the destination address on ``peer`` (wire name ``peer_addr``).
        """
        cfg = self._cfg(transfer)
        blocks = cfg.plan_blocks(int(nbytes), "d2h")
        with self._obs.start("client.peer_put", self._actor,
                             nbytes=int(nbytes),
                             peer=f"ac{peer.handle.ac_id}") as span:
            resp = yield from self._rpc(Op.PEER_PUT, {
                "src": src, "blocks": blocks,
                "peer_rank": peer.handle.daemon_rank, "peer_addr": dst,
                "gpudirect": cfg.gpudirect,
            }, span=span)
            return resp

    # -- kernels ----------------------------------------------------------
    def kernel_create(self, name: str):
        """Declare intent to run kernel ``name`` (validates it remotely)."""
        yield from self._control(Op.KERNEL_CREATE, {"name": name},
                                 kernel=name)

    def _staged(self, name: str) -> dict:
        """The launch parameters staged for a created kernel."""
        if name not in self._kernels:
            raise MiddlewareError(
                f"kernel {name!r} was not created on this accelerator")
        return self._kernels[name]

    def kernel_set_args(self, name: str, params: dict) -> None:
        """Stage launch parameters locally (sent with the next run)."""
        self._staged(name)
        self._kernels[name] = dict(params)

    def kernel_run(self, name: str, params: dict | None = None,
                   real: bool = True):
        """Launch the kernel and wait for completion; returns its result."""
        if params is None:
            params = self._staged(name)
        result = yield from self._control(
            Op.KERNEL_RUN, {"name": name, "params": params, "real": real},
            kernel=name)
        return result

    # -- virtual-accelerator lifecycle ------------------------------------
    def vac_attach(self):
        """Instantiate this front-end's lease as a slice on the daemon.

        Only meaningful when the front-end was built from a
        :class:`~repro.core.protocol.VirtualAcceleratorHandle` (an ARM
        ``valloc`` grant).
        Must run before any other op — until then the daemon answers
        ``Status.PREEMPTED`` for this lease.
        """
        if not self._scope:
            raise MiddlewareError("vac_attach needs a virtual handle")
        with self._obs.start("client.vac_attach", self._actor,
                             vac=self.handle.vac_id) as span:
            yield from self._rpc(Op.VAC_ATTACH, {
                "vac_id": self.handle.vac_id}, span=span)

    def vac_detach(self):
        """Tear the slice down on the daemon; returns bytes freed there."""
        if not self._scope:
            raise MiddlewareError("vac_detach needs a virtual handle")
        with self._obs.start("client.vac_detach", self._actor,
                             vac=self.handle.vac_id) as span:
            resp = yield from self._rpc(Op.VAC_DETACH,
                                        {"vac_id": self.handle.vac_id},
                                        span=span)
            self._live.clear()
            return resp.value

    # -- batching ---------------------------------------------------------
    def batch_rpc(self, calls: _t.Sequence[tuple[Op, dict]]):
        """Execute control ops as one sub-frame of a batch frame (generator).

        ``calls`` is a list of ``(op, params)`` pairs drawn from
        :data:`~repro.core.protocol.BATCHABLE_OPS`, ``params`` as the
        single-op request would carry them (a ``KERNEL_RUN`` whose
        ``params`` is None launches with the staged arguments).  The
        sub-frame costs one round trip: it travels alone as a one-rider
        :data:`~repro.core.protocol.Op.MBATCH` frame or, with a
        :attr:`coalescer`, shares a frame with other front-ends'.  The
        daemon executes the ops in order and answers one
        :class:`Response` per op, which this returns without raising —
        the caller (:meth:`_control`, :meth:`control_run`) inspects
        each.  A retried frame is at-most-once via the daemon's
        dedup cache.
        """
        wire = []
        fresh: set[str] = set()     # kernels created earlier in this list
        for op, params in calls:
            if op not in BATCHABLE_OPS:
                raise MiddlewareError(
                    f"op {op.value!r} cannot ride a batch frame")
            if op is Op.KERNEL_CREATE:
                fresh.add(params["name"])
            elif op is Op.KERNEL_RUN and params.get("params") is None:
                # The create riding ahead in this frame will have staged
                # empty arguments by the time the run executes.
                name = params["name"]
                params = {**params, "params": {} if name in fresh
                          else self._staged(name)}
            # The daemon resolves each op from its own params, so each
            # needs the lease scope too.
            wire.append((op.value, {**params, **self._scope}))
        with self._obs.start("client.mbatch", self._actor,
                             ops=len(wire)) as span:
            if self.coalescer is not None:
                subs = yield from self.coalescer.submit(wire, span=span)
            else:
                resp = yield from self._rpc(
                    Op.MBATCH, {"reqs": [(next(self.rank.comm.ids), wire)]},
                    span=span, sub_traces=[span.wire])
                (subs,) = resp.value
            for (op, params), sub in zip(calls, subs):
                if sub.ok:
                    self._track(op, params, sub.value)
            return subs

    def control_run(self, calls: _t.Sequence[tuple[Op, dict]]):
        """Execute control ops in order, one frame per run (generator).

        ``calls`` are ``(op, params)`` pairs as :meth:`batch_rpc` takes
        them.  Each run of at most :data:`MAX_RUN_OPS` consecutive ops is
        one round trip: a lone op travels as its own request, a longer
        run as one :meth:`batch_rpc` sub-frame.  Returns the ops' values;
        the first failed op raises its error (the daemon skipped the rest
        of its sub-frame, and no later run is sent).
        """
        values = []
        for i in range(0, len(calls), MAX_RUN_OPS):
            run = calls[i:i + MAX_RUN_OPS]
            if len(run) == 1:
                op, params = run[0]
                attr, key = _SPAN_ATTR[op]
                values.append((yield from self._control(
                    op, params, **{attr: params[key]})))
                continue
            for sub in (yield from self.batch_rpc(run)):
                sub.raise_for_status()
                values.append(sub.value)
        return values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RemoteAccelerator ac{self.handle.ac_id} via rank {self.rank.index}>"


def run_parallel(engine, generators: _t.Sequence[_t.Iterator]):
    """Run several front-end operations concurrently (generator).

    Spawns each generator as its own process and waits for all — e.g. the
    multi-GPU factorizations use this to drive their accelerators in
    parallel from one compute-node process.  Returns the list of results.

    If any branch raises, the first failure propagates annotated with
    which branches failed — the bare AllOf condition would otherwise
    surface an exception with no hint of its origin, and silently drop
    every failure after the first.  The traces the branches opened are
    closed (marked aborted) before the failure surfaces: a branch that died
    mid-request must not leak half-open spans into the export.  Other
    callers' traces — a concurrent job's — keep running.
    """
    col = collector_for(engine)
    if col.enabled:
        scope = BranchScope(col)
        procs = [engine.process(scope.watch(g), name=g.__name__)
                 for g in generators]
    else:
        scope, procs = None, [engine.process(g) for g in generators]
    if procs:
        try:
            yield engine.all_of(procs)
        except Exception as exc:
            _annotate_parallel_failure(exc, procs)
            if scope is not None:
                scope.abort(f"run_parallel branch failed: "
                            f"{type(exc).__name__}")
            raise
    return [p.value for p in procs]


def _annotate_parallel_failure(exc: Exception, procs) -> None:
    """Attach which parallel branches failed to the surfaced exception."""
    failed = [f"branch {i} ({p.name}): "
              f"{type(p.value).__name__}: {p.value}"
              for i, p in enumerate(procs)
              if p.triggered and not p.ok]
    if not failed:
        failed = [f"{type(exc).__name__}: {exc}"]
    note = ("run_parallel: " + "; ".join(failed)
            + (f" [{len(failed)} of {len(procs)} branches failed]"
               if len(failed) > 1 else ""))
    if hasattr(exc, "add_note"):  # Python >= 3.11
        exc.add_note(note)
    else:  # pragma: no cover - exercised on the 3.10 CI leg
        exc.args = (f"{exc.args[0] if exc.args else exc}\n{note}",
                    *exc.args[1:])
