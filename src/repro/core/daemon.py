"""The middleware back-end: one daemon per accelerator node.

The daemon is the software of Figure 4's right-hand side: it receives
requests over simulated MPI, executes them on the local GPU through the
(virtual) CUDA driver API, and replies.  Requests are served strictly in
order — the daemon is single-threaded, like the prototype's.

Bulk transfers run the block pipeline of :mod:`repro.core.transfer`:
the naive protocol is its one-block case (host staging memory equal to
the full message), the pipeline protocol overlaps each block's DMA with
the next block on the wire (staging bounded by the in-flight window).
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

from ..errors import DeviceMemoryError, GPUError, KernelError
from ..mpisim import RankHandle
from ..obs.spans import NULL_SPAN, collector_for
from .protocol import (
    DEDUP_OPS, Op, Request, Response, Status, TAG_REQUEST, data_tag, reply_tag,
)
from .blocksize import D2H_BLOCK_POST_S
from .transfer import DeviceEnd, recv_blocks, send_blocks

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import AcceleratorNode


@dataclasses.dataclass
class DaemonStats:
    """Operation counters and staging-memory accounting."""

    requests: int = 0
    #: Requests that moved bulk data (H2D/D2H/peer copies).  Everything
    #: else is a *control* round trip — the traffic batch frames cut.
    transfer_requests: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    kernels_run: int = 0

    @property
    def control_requests(self) -> int:
        return self.requests - self.transfer_requests
    #: MBATCH frames served, the sub-frames they carried (one for a
    #: front-end's own run of ops, several when a coalescer merged
    #: tenants), and the control ops inside those sub-frames.
    mbatches: int = 0
    mbatched_subs: int = 0
    mbatched_ops: int = 0
    #: Duplicate requests answered from the dedup cache (at-most-once).
    dedup_hits: int = 0
    #: Virtual-accelerator slices instantiated / revoked by preemption.
    vac_attaches: int = 0
    vac_revocations: int = 0
    #: Requests refused because their lease had been revoked.
    preempted_requests: int = 0
    #: Peak host staging bytes in use at any instant (naive transfers
    #: buffer the whole message; the pipeline stays bounded).
    staging_peak: int = 0
    staging_now: int = 0

    def stage(self, nbytes: int) -> None:
        self.staging_now += nbytes
        if self.staging_now > self.staging_peak:
            self.staging_peak = self.staging_now

    def unstage(self, nbytes: int) -> None:
        self.staging_now -= nbytes


#: At-most-once window: completed responses kept for duplicate detection.
#: The window is counted in *replayable sub-responses*, not cache entries:
#: an MBATCH entry holds one recorded response per coalesced op, so a
#: batch frame consumes a proportional share of the window (otherwise 512
#: full frames could pin ~100x that many responses, and — worse — frames
#: evicted by entry count would lose at-most-once protection for every op
#: they carried at once).
DEDUP_CACHE_SIZE = 512


def _replay_weight(resp: Response) -> int:
    """How many recorded sub-responses a cached reply replays.

    1 for plain ops; the op count for MBATCH (``value`` is one response
    list per sub-frame).
    """
    value = resp.value
    if not isinstance(value, list):
        return 1
    n = sum(isinstance(e, Response)
            for sub in value if isinstance(sub, list) for e in sub)
    return max(n, 1)

#: Lease-lifecycle ops exempt from the revoked-lease guard: they manage
#: the vac table itself (attach re-creates what the guard would reject).
_VAC_LIFECYCLE = frozenset({Op.VAC_ATTACH, Op.VAC_DETACH, Op.VAC_REVOKE})


class _Tombstone:
    """Marker for a lease revoked before its first attach arrived."""

    revoked = True

    def revoke(self) -> int:
        return 0


class Daemon:
    """Back-end daemon bound to one accelerator node."""

    def __init__(self, node: "AcceleratorNode", rank: RankHandle):
        self.node = node
        self.rank = rank
        self.engine = rank.comm.engine
        self.gpu = node.gpu
        self.cpu = node.cpu
        self.stats = DaemonStats()
        #: Set by fault injection: the accelerator hardware has failed.
        self.broken = False
        #: Set by fault injection: the daemon host itself is gone — requests
        #: are silently dropped, which is what makes client deadlines fire.
        self.crashed = False
        #: Software version advertised in discovery reports; a rolling
        #: upgrade bumps it through :meth:`restart`.
        self.version = "v1"
        #: Straggler dial: multiplies every software cost (request
        #: handling, mallocs) — 1.0 is nominal.  A severe straggler also
        #: publishes its discovery reports late and ages out of the pool.
        self.slow_factor = 1.0
        self.restarts = 0
        #: Per-block receive deadline for accepted transfers, or None for
        #: unbounded (the historical behavior).  Under a partition the
        #: blocks of an accepted H2D may never arrive; without a deadline
        #: the single-threaded serve loop would wedge forever.
        self.data_stall_s: float | None = None
        #: Responses of completed non-idempotent requests, for replaying to
        #: duplicate (retried) requests instead of re-executing them.
        self._dedup: collections.OrderedDict[int, Response] = collections.OrderedDict()
        #: Total replayable sub-responses held in ``_dedup`` (the eviction
        #: unit — see :data:`DEDUP_CACHE_SIZE`).
        self._dedup_weight = 0
        #: Virtual-accelerator slices attached to this device, by vac id.
        #: Revoked slices stay in the table so tenant requests against
        #: them answer PREEMPTED instead of "unknown".
        self._vacs: dict[int, _t.Any] = {}
        self._stopped = False
        self._obs = collector_for(self.engine)
        #: The span of the request currently being served.  The daemon is
        #: single-threaded (strictly in-order), so one slot suffices; the
        #: transfer handlers parent their network / staging / DMA child
        #: spans under it.
        self._cur_span = NULL_SPAN
        #: Dispatch tables built once — _serve() consults the handlers per
        #: request, batch frames the executors per op.
        self._executor_map = self._executors()
        self._handler_map = self._handlers()
        self.proc = self.engine.process(self._serve(), name=f"daemon:{node.name}")

    # -- main loop ------------------------------------------------------
    def _serve(self):
        while not self._stopped:
            msg = yield from self.rank.recv(tag=TAG_REQUEST)
            req: Request = msg.payload
            if self.crashed:
                # A dead host: the request vanishes.  No reply, no drain —
                # the sender's deadline is its only way out.
                continue
            self.stats.requests += 1
            if req.op in (Op.MEMCPY_H2D, Op.MEMCPY_D2H, Op.PEER_PUT):
                self.stats.transfer_requests += 1
            # Software cost of receiving + dispatching one request.
            yield self.engine.sleep(
                self.cpu.request_handling_s * self.slow_factor)
            if req.op == Op.SHUTDOWN:
                self._reply(req, Response(req.req_id, Status.OK))
                self._stopped = True
                break
            if self.broken:
                # The GPU is gone, but the daemon host can still answer so
                # the compute node is not taken down with it (the paper's
                # fault-tolerance property).
                self._reply(req, Response(req.req_id, Status.BROKEN,
                                          error=f"{self.node.name} has failed"))
                # A broken transfer still has in-flight data blocks to drain.
                yield from self._drain_data(req, msg.source)
                continue
            cached = self._dedup.get(req.req_id)
            if cached is not None and req.op in DEDUP_OPS:
                # Duplicate of an already-executed request (the original
                # reply was lost or late): replay the recorded response —
                # at-most-once execution for ops with side effects.
                self.stats.dedup_hits += 1
                with self._obs.start(f"daemon.{req.op.value}",
                                     self.node.name,
                                     parent=req.trace,
                                     req_id=req.req_id, dedup_replay=True):
                    yield from self._drain_data(req, msg.source)
                    self._reply(req, cached, dedup=True)
                continue
            vac_id = req.params.get("vac")
            if vac_id is not None and req.op not in _VAC_LIFECYCLE:
                vgpu = self._vacs.get(vac_id)
                if vgpu is None or vgpu.revoked:
                    # The lease behind this request is gone (preempted or
                    # never attached here).  PREEMPTED — not BROKEN — so
                    # the tenant's resilience layer re-leases instead of
                    # reporting healthy hardware as failed.
                    self._reply(req, self._preempted(req.req_id, vac_id))
                    yield from self._drain_data(req, msg.source)
                    continue
            handler = self._handler_map.get(req.op)
            if handler is None:
                self._reply(req, Response(req.req_id, Status.ERROR,
                                          error=f"unsupported op {req.op}"))
                continue
            obs = self._obs
            span = (obs.start(f"daemon.{req.op.value}", self.node.name,
                              parent=req.trace,
                              req_id=req.req_id)
                    if obs.enabled else NULL_SPAN)
            self._cur_span = span
            try:
                with span:
                    yield from handler(req, msg.source)
            finally:
                self._cur_span = NULL_SPAN

    def _handlers(self):
        return {
            **dict.fromkeys(self._executor_map, self._solo),
            Op.MEMCPY_H2D: self._memcpy_h2d,
            Op.MEMCPY_D2H: self._memcpy_d2h,
            Op.PEER_PUT: self._peer_put,
            Op.MBATCH: self._mbatch,
            Op.VAC_ATTACH: self._vac_attach,
            Op.VAC_DETACH: self._vac_detach,
            Op.VAC_REVOKE: self._vac_revoke,
        }

    def _executors(self):
        """Control-op bodies usable standalone or inside a batch frame.

        Each is a generator taking ``(req_id, params)`` and returning a
        :class:`Response` without sending it — the caller decides whether
        the response travels alone or as one entry of a batch reply.
        """
        return {
            Op.MEM_ALLOC: self._exec_mem_alloc,
            Op.MEM_FREE: self._exec_mem_free,
            Op.KERNEL_CREATE: self._exec_kernel_create,
            Op.KERNEL_RUN: self._exec_kernel_run,
        }

    def _solo(self, req: Request, src: int):
        """A control op travelling alone: execute it, send its response."""
        resp = yield from self._executor_map[req.op](req.req_id, req.params)
        self._reply(req, resp)

    def _reply(self, req: Request, resp: Response, dedup: bool = False) -> None:
        if not dedup and req.op in DEDUP_OPS:
            prev = self._dedup.pop(req.req_id, None)
            if prev is not None:
                self._dedup_weight -= _replay_weight(prev)
            self._dedup[req.req_id] = resp
            self._dedup_weight += _replay_weight(resp)
            while self._dedup_weight > DEDUP_CACHE_SIZE and len(self._dedup) > 1:
                _, evicted = self._dedup.popitem(last=False)
                self._dedup_weight -= _replay_weight(evicted)
        self.rank.isend(req.reply_to, reply_tag(req.req_id), resp)

    def restart(self, version: str | None = None) -> None:
        """Bounce the daemon in place (one rolling-upgrade step).

        Device slices do not survive a restart: every live slice is
        revoked (its tenant discovers PREEMPTED and re-leases) and the
        lease / dedup tables reset.  Fault flags clear, the straggler
        dial returns to nominal, and the advertised version bumps.
        """
        for vgpu in self._vacs.values():
            if not vgpu.revoked:
                vgpu.revoke()
        self._vacs.clear()
        self._dedup.clear()
        self._dedup_weight = 0
        self.broken = False
        self.crashed = False
        self.slow_factor = 1.0
        self.restarts += 1
        if version is not None:
            self.version = version

    def _drain_data(self, req: Request, src: int):
        """Consume data blocks of a request that was rejected up-front."""
        if req.op == Op.MEMCPY_H2D:
            yield from recv_blocks(self.rank, src, req.params["data_tag"],
                                   req.params["blocks"], self)

    # -- virtual accelerators -------------------------------------------
    def _target(self, params: dict):
        """The execution target: the physical GPU, or the request's slice.

        The serve loop already rejected requests whose slice is missing
        or revoked, and the daemon is single-threaded, so resolution here
        cannot fail for requests that reached a handler.
        """
        vac_id = params.get("vac")
        return self.gpu if vac_id is None else self._vacs[vac_id]

    def _preempted(self, req_id: int, vac_id: int) -> Response:
        """The answer to a request on a revoked (or unattached) lease."""
        self.stats.preempted_requests += 1
        return Response(req_id, Status.PREEMPTED,
                        error=f"virtual accelerator {vac_id} was revoked")

    def _vac_attach(self, req: Request, src: int):
        """Instantiate a lease granted by the ARM as a device slice."""
        vac_id = req.params["vac_id"]
        yield self.engine.sleep(self.cpu.malloc_s * self.slow_factor)
        existing = self._vacs.get(vac_id)
        if existing is not None:
            if existing.revoked:
                # The ARM's VAC_REVOKE landed before (or between retries
                # of) this attach.  Re-creating the slice would resurrect
                # a lease the ARM already ended and possibly reassigned;
                # PREEMPTED routes the tenant to a fresh valloc instead.
                self._reply(req, self._preempted(req.req_id, vac_id))
                return
            # Already attached (idempotent re-attach outside the dedup
            # window); keep the live slice and its allocations.
            self._reply(req, Response(req.req_id, Status.OK))
            return
        self._vacs[vac_id] = self.gpu.virtualize(
            f"{self.gpu.name}/vac{vac_id}")
        self.stats.vac_attaches += 1
        self._reply(req, Response(req.req_id, Status.OK))

    def _vac_detach(self, req: Request, src: int):
        """Tear a slice down and free everything it still holds."""
        yield self.engine.sleep(self.cpu.malloc_s * self.slow_factor)
        vgpu = self._vacs.pop(req.params["vac_id"], None)
        freed = vgpu.revoke() if vgpu is not None else 0
        self._reply(req, Response(req.req_id, Status.OK, value=freed))

    def _vac_revoke(self, req: Request, src: int):
        """ARM-initiated preemption: stop the slice, free its memory.

        Sent one-way by the ARM (``params["oneway"]``) so its single-
        threaded serve loop never blocks on a daemon reply; the revoked
        tenant finds out via PREEMPTED on its next operation.
        """
        vgpu = self._vacs.get(req.params["vac_id"])
        freed = 0
        if vgpu is None:
            # The revoke raced ahead of the lease's first attach: leave a
            # tombstone so the late attach answers PREEMPTED instead of
            # silently resurrecting a lease the ARM already ended.
            self._vacs[req.params["vac_id"]] = _Tombstone()
            self.stats.vac_revocations += 1
        elif not vgpu.revoked:
            freed = vgpu.revoke()
            self.stats.vac_revocations += 1
        if not req.params.get("oneway"):
            self._reply(req, Response(req.req_id, Status.OK, value=freed))
        return
        yield  # pragma: no cover - makes this a generator

    # -- simple ops -----------------------------------------------------
    def _exec_mem_alloc(self, req_id: int, params: dict):
        yield self.engine.sleep(self.cpu.malloc_s * self.slow_factor)
        try:
            # Lease-scoped allocations go through the slice's partition:
            # ownership tracking for isolation.
            addr = self._target(params).memory.malloc(params["nbytes"])
        except DeviceMemoryError as exc:
            return Response(req_id, Status.ERROR, error=str(exc))
        return Response(req_id, Status.OK, value=addr)

    def _exec_mem_free(self, req_id: int, params: dict):
        yield self.engine.sleep(self.cpu.malloc_s * self.slow_factor)
        try:
            self._target(params).memory.free(params["addr"])
        except DeviceMemoryError as exc:
            return Response(req_id, Status.ERROR, error=str(exc))
        return Response(req_id, Status.OK)

    # -- batched control frames -----------------------------------------
    def _exec_merged_op(self, sub_id: int, op_value: _t.Any, params: dict):
        """One sub-op of a batch frame: per-op validation + vac guard.

        Merged sub-frames come from *different* tenants, so the serve
        loop's frame-level revoked-lease guard cannot cover them — each
        op re-checks its own lease here, answering PREEMPTED exactly as
        a solo request against a revoked slice would.
        """
        try:
            op = Op(op_value)
        except ValueError:
            op = None
        exec_fn = self._executor_map.get(op)
        if exec_fn is None:
            return Response(sub_id, Status.ERROR,
                            error=f"op {op_value!r} is not batchable")
        vac_id = params.get("vac")
        if vac_id is not None:
            vgpu = self._vacs.get(vac_id)
            if vgpu is None or vgpu.revoked:
                return self._preempted(sub_id, vac_id)
        resp = yield from exec_fn(sub_id, params)
        return resp

    def _mbatch(self, req: Request, src: int):
        """Execute a batch frame: M sub-frames of control ops, one round trip.

        ``params["reqs"]`` is a list of ``(sub_req_id, ops)`` sub-frames:
        one when a front-end sent its run of ops alone
        (``RemoteAccelerator.control_run``), several when a
        :class:`~repro.core.coalesce.FrameCoalescer` gathered them from
        *different* front-ends/tenants inside one coalescing window.  Ops
        of a sub-frame run strictly in list order and its first failure
        skips the rest of *that* sub-frame (their entries answer ERROR
        without touching device state, so the client can map failures
        back to queue positions), but never touches the others — one
        tenant's error must not poison its neighbours' merged requests.

        The reply is OK whenever the frame was well-formed; its value is
        one per-op response list per sub-frame, and the whole frame is
        dedup-cached under the carrier request id, so a retried frame
        replays every sub-response exactly once.  Each sub-frame's spans
        parent under its originating front-end's trace context
        (``req.sub_traces``), not the carrier frame's.
        """
        subs = req.params["reqs"]
        self.stats.mbatches += 1
        self.stats.mbatched_subs += len(subs)
        traces = req.sub_traces or [None] * len(subs)
        obs = self._obs
        value: list[list[Response]] = []
        first = True
        for j, (sub_id, ops) in enumerate(subs):
            self.stats.mbatched_ops += len(ops)
            span = (obs.start("daemon.mbatch.sub", self.node.name,
                              parent=traces[j], req_id=sub_id,
                              ops=len(ops))
                    if obs.enabled else NULL_SPAN)
            prev_span, self._cur_span = self._cur_span, span
            sub: list[Response] = []
            failed: str | None = None
            try:
                with span:
                    for i, (op_value, params) in enumerate(ops):
                        if not first:
                            # Dispatching each additional op costs daemon
                            # CPU just like a separate request would —
                            # only the network round trips are saved.
                            yield self.engine.sleep(
                                self.cpu.request_handling_s * self.slow_factor)
                        first = False
                        if failed is not None:
                            sub.append(Response(sub_id, Status.ERROR,
                                                error=f"skipped: {failed}"))
                            continue
                        resp = yield from self._exec_merged_op(
                            sub_id, op_value, params)
                        sub.append(resp)
                        if not resp.ok:
                            failed = f"op {i} ({op_value}) failed: {resp.error}"
            finally:
                self._cur_span = prev_span
            value.append(sub)
        self._reply(req, Response(req.req_id, Status.OK, value=value))

    # -- transfers (the block pipeline is core/transfer.py) ---------------
    def _device_end(self, req: Request, addr_key: str) -> DeviceEnd | None:
        """This daemon's end of ``req``'s block pipeline.

        Runs the transfer-header check; a header that fails it is
        answered ERROR here and None is returned.
        """
        vac_id = req.params.get("vac")
        try:
            return DeviceEnd.check(
                self.gpu, self.cpu, self.stats, self._cur_span, req.params,
                addr_key,
                None if vac_id is None else self._vacs[vac_id].memory)
        except DeviceMemoryError as exc:
            self._reply(req, Response(req.req_id, Status.ERROR, error=str(exc)))
            return None

    def _memcpy_h2d(self, req: Request, src: int):
        dev = self._device_end(req, "dst")
        if dev is None:
            yield from self._drain_data(req, src)
            return
        stalled = yield from recv_blocks(self.rank, src, dev.dtag,
                                         dev.blocks, self, dev)
        if stalled is not None:
            self._reply(req, Response(
                req.req_id, Status.ERROR,
                error=f"data stream for request {req.req_id} stalled "
                      f"at block {stalled}/{len(dev.blocks)}"))
            return
        meta = req.params.get("meta")
        if meta is not None and dev.covers(dev.alloc.nbytes):
            self.gpu.memory.set_array_meta(dev.addr, meta[0], meta[1])
        self.stats.bytes_h2d += dev.nbytes
        self._reply(req, Response(req.req_id, Status.OK))

    def _memcpy_d2h(self, req: Request, src: int):
        dev = self._device_end(req, "src")
        if dev is None:
            return
        yield from send_blocks(self.rank, src, dev.dtag, dev.loan(),
                               D2H_BLOCK_POST_S, dev)
        self.stats.bytes_d2h += dev.nbytes
        self._reply(req, Response(req.req_id, Status.OK,
                                  value=dev.source_meta))

    def _peer_put(self, req: Request, src: int):
        """Direct accelerator-to-accelerator copy (no compute node involved).

        The D2H sender wired to the peer daemon's H2D receiver: this
        daemon forwards a regular H2D request to the peer and streams
        the blocks to it, so the device-to-host DMA here overlaps the
        network stream into the peer, which pipelines into its own GPU.

        Validation replies synchronously; the forward-and-stream body
        (which waits on the peer daemon's reply) runs as its own process
        so this serve loop stays responsive.  Handled inline, a ring of
        concurrent peer_puts would deadlock: every daemon blocked on its
        successor's reply while the successor's loop — the only thing
        that could service the incoming forwarded H2D — is itself
        blocked the same way.
        """
        dev = self._device_end(req, "src")
        if dev is not None:
            self.engine.process(
                self._peer_put_stream(req, dev, next(self.rank.comm.ids)),
                name=f"peerput:{self.node.name}")
        return
        yield  # pragma: no cover - makes this a generator

    def _peer_put_stream(self, req: Request, dev: DeviceEnd, fwd_id: int):
        """The streaming body of one PEER_PUT (its own process).

        Parents its span under the handler span (``dev.span``) by wire
        context instead of touching ``self._cur_span``, which by now
        belongs to whatever request the serve loop moved on to.
        """
        p = req.params
        peer_rank = p["peer_rank"]
        trace = dev.span.wire
        obs = self._obs
        span = (obs.start("daemon.peer_put.stream", self.node.name,
                          parent=trace, req_id=req.req_id,
                          nbytes=dev.nbytes)
                if obs.enabled else NULL_SPAN)
        with span:
            # The forwarded request carries the handler's span context,
            # so the peer's H2D handling joins the originating trace.
            self.rank.isend(peer_rank, TAG_REQUEST, Request(
                op=Op.MEMCPY_H2D, req_id=fwd_id, reply_to=self.rank.index,
                params={"dst": p["peer_addr"], "blocks": dev.blocks,
                        "data_tag": data_tag(fwd_id),
                        "gpudirect": dev.gpudirect, "meta": dev.source_meta},
                trace=trace))
            dev.span = span
            yield from send_blocks(self.rank, peer_rank, data_tag(fwd_id),
                                   dev.loan(), D2H_BLOCK_POST_S, dev)
            msg = yield from self.rank.recv(source=peer_rank,
                                            tag=reply_tag(fwd_id))
            peer_resp: Response = msg.payload
            self._reply(req, Response(req.req_id, peer_resp.status,
                                      error=peer_resp.error))

    # -- kernels --------------------------------------------------------
    def _exec_kernel_create(self, req_id: int, params: dict):
        from ..gpusim.kernels import resolve
        name = params["name"]
        # kernel_create uploads the module if the device lacks it.
        if not resolve(self.gpu.registry, name):
            return Response(req_id, Status.ERROR,
                            error=f"unknown kernel {name!r}")
        return Response(req_id, Status.OK)
        yield  # pragma: no cover - makes this a generator

    def _exec_kernel_run(self, req_id: int, params: dict):
        try:
            # A lease-scoped launch goes through its slice, which checks
            # the lease and launches on the device.  The launch is awaited
            # here, so this daemon never puts a second one on its device.
            result = yield self._target(params).launch(
                params["name"], params.get("params") or {},
                real=params.get("real", True), ctx=self._cur_span.wire)
        except (KernelError, DeviceMemoryError) as exc:
            return Response(req_id, Status.ERROR, error=str(exc))
        except GPUError as exc:
            # The slice refused the launch: it has been revoked.
            return Response(req_id, Status.PREEMPTED, error=str(exc))
        self.stats.kernels_run += 1
        return Response(req_id, Status.OK, value=result)
