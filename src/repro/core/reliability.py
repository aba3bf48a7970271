"""Robustness layer for the middleware RPC path.

The paper's availability claim (Sect. III-B2, Fig. 3) is that a broken
accelerator must not take its compute node down, and that the ARM can hand
out a replacement at runtime.  This module supplies the client-side
machinery that turns those claims into observable behaviour:

* :class:`RetryPolicy` — per-request virtual-time timeouts with a
  deterministic (jitterless) exponential backoff schedule.  Timed-out
  idempotent operations (see :data:`~repro.core.protocol.RETRYABLE_OPS`)
  are resent under the *same* request id; the daemon's request-id dedup
  cache makes the retries at-most-once for ops with side effects.
* :func:`reliable_rpc` — the shared request/reply engine used by both the
  accelerator front-end and the ARM client.
* :class:`FailoverConfig` — how often to recover when an operation fails
  with :class:`~repro.errors.AcceleratorFault` (the daemon answered
  ``Status.BROKEN``) or :class:`~repro.errors.RequestTimeout` (the daemon
  is unresponsive).
* :class:`ResilientAccelerator` — a front-end wrapper that reports breaks
  to the ARM, allocates a replacement, replays registered kernels and
  re-uploads tracked buffers, then resumes the interrupted operation.

Buffer addresses returned by :class:`ResilientAccelerator` are *virtual*:
stable across failover, translated to the current device addresses on
every call, so application code survives a reallocation without pointer
patching.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

import numpy as np

from ..errors import AcceleratorFault, MiddlewareError, RequestTimeout
from ..mpisim import Phantom, RankHandle
from ..obs.spans import NULL_SPAN, collector_for
from .protocol import (
    AcceleratorHandle,
    Op,
    Request,
    Response,
    RETRYABLE_OPS,
    reply_tag,
)
from .transfer import as_flat_bytes, payload_meta

if _t.TYPE_CHECKING:  # pragma: no cover
    from .api import RemoteAccelerator
    from .arm import ArmClient


#: Sends of one retryable op under a deadline, the first included.
MAX_ATTEMPTS = 4
#: Resend *k* waits ``BACKOFF_BASE_S * BACKOFF_FACTOR**k`` first.
BACKOFF_BASE_S = 100e-6
BACKOFF_FACTOR = 2.0
#: Throughput a bulk transfer's deadline allows for on top of the RPC one.
TRANSFER_FLOOR_BPS = 100e6


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Timeout and deterministic backoff schedule for middleware RPCs.

    ``timeout_s=None`` (the default) disables deadlines entirely — the
    legacy wait-forever behaviour.  With a timeout set, retryable ops are
    resent up to :data:`MAX_ATTEMPTS` times with a deterministic
    exponential backoff (no jitter, so simulations stay deterministic).
    Bulk-transfer deadlines get a size-proportional allowance on top of
    ``timeout_s`` assuming at least :data:`TRANSFER_FLOOR_BPS` of
    throughput.
    """

    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise MiddlewareError(f"timeout must be positive: {self.timeout_s!r}")

    def backoff_s(self, attempt: int) -> float:
        """Deterministic delay before resend number ``attempt + 1``."""
        return BACKOFF_BASE_S * BACKOFF_FACTOR ** attempt

    def transfer_timeout_s(self, nbytes: int) -> float | None:
        """Deadline for a bulk transfer of ``nbytes`` (None when disabled)."""
        if self.timeout_s is None:
            return None
        return self.timeout_s + nbytes / TRANSFER_FLOOR_BPS


#: Timeouts disabled; identical to the pre-reliability behaviour.
DEFAULT_RETRY = RetryPolicy()


def reliable_rpc(rank: RankHandle, dst: int, tag: int, op: Op, params: dict,
                 policy: RetryPolicy, stats: _t.Any,
                 span=NULL_SPAN, sub_traces: list | None = None):
    """One request/reply exchange with timeout + retry (generator).

    Posts a single reply receive, then sends the request up to
    :data:`MAX_ATTEMPTS` times (same request id, ``attempt`` counted
    up) while racing the receive against a deadline per attempt: the
    policy's ``timeout_s``, the only deadline source (None: wait
    forever, one attempt).  Each :meth:`~repro.sim.Engine.race` owns
    its deadline, so nothing is left to cancel here.
    Non-retryable ops get exactly one attempt.  Returns the
    :class:`Response` (``raise_for_status`` is the caller's job); raises
    :class:`RequestTimeout` when every deadline expired.

    ``stats`` has ``requests`` / ``timeouts`` integer attributes to
    increment (the front-end passes itself).  ``span`` is the
    caller's open trace span: its context rides each request frame and
    timeouts / resends are recorded as span events.  ``sub_traces``
    (MBATCH frames) rides each send too, so retried merged frames keep
    their per-sub-frame span parenting.
    """
    engine = rank.comm.engine
    timeout_s = policy.timeout_s
    req_id = next(rank.comm.ids)
    rreq = rank.irecv(source=dst, tag=reply_tag(req_id))
    attempts = MAX_ATTEMPTS if (timeout_s is not None
                                and op in RETRYABLE_OPS) else 1
    for attempt in range(attempts):
        stats.requests += 1
        if attempt:
            span.event("retry", attempt=attempt, req_id=req_id)
        rank.isend(dst, tag, Request(op=op, req_id=req_id,
                                     reply_to=rank.index, params=params,
                                     attempt=attempt, trace=span.wire,
                                     sub_traces=sub_traces))
        yield rreq if timeout_s is None else engine.race(rreq, timeout_s)
        if timeout_s is None or rreq.completed:
            break
        stats.timeouts += 1
        span.event("timeout", attempt=attempt, deadline_s=timeout_s)
        if attempt + 1 < attempts:
            yield engine.sleep(policy.backoff_s(attempt))
            if rreq.completed:  # the straggler reply landed during backoff
                break
    if not rreq.completed:
        raise RequestTimeout(
            f"{op.value} to rank {dst} timed out "
            f"({attempts} attempt(s), {timeout_s:g} s deadline each)")
    resp: Response = rreq.message.payload
    return resp


@dataclasses.dataclass(frozen=True)
class FailoverConfig:
    """Tuning for :class:`ResilientAccelerator`."""

    #: Recovery attempts per guarded operation before giving up (0: the
    #: fault surfaces to the application unchanged).
    max_failovers: int = 3
    #: Queue FIFO at the ARM when the pool is empty instead of failing
    #: with :class:`~repro.errors.AllocationError`.
    wait_for_replacement: bool = False
    #: Job label for replacement allocations.
    job: str | None = None

    def __post_init__(self) -> None:
        if self.max_failovers < 0:
            raise MiddlewareError(f"max_failovers must be >= 0: {self.max_failovers!r}")


class _TrackedBuffer:
    """Host-side shadow of one device buffer, for replay after failover."""

    __slots__ = ("nbytes", "shadow", "meta", "has_real")

    def __init__(self, nbytes: int):
        self.nbytes = nbytes
        self.shadow: np.ndarray | None = None  # lazy uint8 mirror
        self.meta = None                       # (dtype str, shape) of full writes
        self.has_real = False

    def record_write(self, payload: _t.Any, offset: int) -> None:
        flat = as_flat_bytes(payload)
        if flat is None:  # Phantom: timing-only, device holds no data either
            return
        if self.shadow is None:
            self.shadow = np.zeros(self.nbytes, dtype=np.uint8)
        self.shadow[offset:offset + flat.nbytes] = flat
        self.has_real = True
        if offset == 0 and flat.nbytes == self.nbytes:
            self.meta = payload_meta(payload)

    def replay_payload(self) -> _t.Any:
        """The payload to re-upload on a replacement accelerator."""
        if not self.has_real or self.shadow is None:
            return Phantom(self.nbytes)
        if self.meta is not None:
            dtype, shape = self.meta
            return self.shadow.view(np.dtype(dtype)).reshape(shape)
        return self.shadow


#: Virtual-address space handed out by ResilientAccelerator.  Far above any
#: simulated device address so kernel parameters that happen to be small
#: integers can never be mistaken for a buffer reference.
VADDR_BASE = 0x5EED_0000_0000
VADDR_STEP = 0x1_0000


class ResilientAccelerator:
    """Failover-capable front-end over one ARM-assigned accelerator.

    Mirrors the :class:`~repro.core.api.RemoteAccelerator` surface
    (``mem_alloc`` / ``memcpy_h2d`` / ``memcpy_d2h`` / ``kernel_create`` /
    ``kernel_set_args`` / ``kernel_run`` / ``mem_free``) but:

    * device addresses are virtualized and stay valid across failover;
    * every operation is guarded: on :class:`AcceleratorFault` or
      :class:`RequestTimeout` the wrapper recovers and the operation is
      retried, up to ``config.max_failovers`` times;
    * recovery (the paper's dynamic re-assignment) reports the break to
      the ARM, allocates a replacement, re-creates registered kernels,
      re-uploads every tracked buffer from its host shadow, and resumes.

    Kernel side effects since the last upload are *not* replayed — device
    state on the replacement equals the last uploaded contents.  Wrap a
    multi-operation sequence with :meth:`run_guarded` to re-run it as a
    unit when a fault interrupts it mid-way.
    """

    def __init__(self, arm: "ArmClient",
                 make_remote: _t.Callable[[AcceleratorHandle], "RemoteAccelerator"],
                 handle: AcceleratorHandle,
                 config: FailoverConfig | None = None):
        self.arm = arm
        self.config = config or FailoverConfig()
        self._make_remote = make_remote
        self._ac = make_remote(handle)
        self._vaddrs = itertools.count()
        self._vmap: dict[int, int] = {}            # vaddr -> device addr
        self._buffers: dict[int, _TrackedBuffer] = {}
        self._kernels: dict[int, str] = {}          # creation order -> name
        self._kernel_args: dict[str, dict] = {}
        #: Failover metrics for the experiments.
        self.failovers = 0
        self._retired_requests = 0   # RPC counters of replaced front-ends
        self._retired_timeouts = 0
        #: Duration of each recovery (fault surfaced -> state replayed).
        self.recovery_latencies: list[float] = []
        #: Absolute virtual time each recovery completed (lets experiments
        #: measure injection-to-recovery, i.e. including detection time).
        self.recovered_at: list[float] = []

    # -- introspection ----------------------------------------------------
    @property
    def current(self) -> "RemoteAccelerator":
        """The underlying front-end currently in use."""
        return self._ac

    @property
    def handle(self) -> AcceleratorHandle:
        return self._ac.handle

    @property
    def engine(self):
        return self._ac.rank.comm.engine

    @property
    def requests(self) -> int:
        """RPCs sent, aggregated across all front-ends this wrapper used."""
        return self._retired_requests + self._ac.requests

    @property
    def timeouts(self) -> int:
        """Request deadlines that fired, aggregated across front-ends."""
        return self._retired_timeouts + self._ac.timeouts

    def _phys(self, vaddr: int) -> int:
        try:
            return self._vmap[vaddr]
        except KeyError:
            raise MiddlewareError(f"unknown buffer {vaddr:#x}") from None

    def _translate_params(self, params: dict) -> dict:
        return {k: self._vmap.get(v, v) if isinstance(v, int) else v
                for k, v in params.items()}

    # -- the failover guard ----------------------------------------------
    def run_guarded(self, op_factory: _t.Callable[[], _t.Iterator]):
        """Run ``op_factory()`` (a fresh generator per attempt) with failover.

        On :class:`AcceleratorFault` / :class:`RequestTimeout` the wrapper
        recovers, then a *new* generator from ``op_factory`` is executed
        against the (possibly replaced) accelerator.  Application-level
        transactions — e.g. one upload/compute/download iteration — go
        through here so the whole unit re-runs on restored state.
        """
        remaining = self.config.max_failovers
        pending: Exception | None = None
        while True:
            try:
                if pending is not None:
                    cause, pending = pending, None
                    yield from self._recover(cause)
                result = yield from op_factory()
                return result
            except (AcceleratorFault, RequestTimeout) as exc:
                # A fault during recovery itself (e.g. the replacement died
                # too) lands here as well and consumes another attempt.
                if remaining <= 0:
                    raise
                remaining -= 1
                pending = exc

    def _recover(self, cause: Exception):
        t0 = self.engine.now
        self.failovers += 1
        broken = self._ac.handle
        with collector_for(self.engine).start(
                "failover.recover", f"cn{self._ac.rank.index}",
                cause=type(cause).__name__,
                broken=f"ac{broken.ac_id}") as span:
            replacement = yield from self._reacquire(broken, span)
            self._retired_requests += self._ac.requests
            self._retired_timeouts += self._ac.timeouts
            self._ac = self._make_remote(replacement)
            yield from self._prepare_replacement(span)
            yield from self._replay_state(span)
            self.recovery_latencies.append(self.engine.now - t0)
            self.recovered_at.append(self.engine.now)

    def _reacquire(self, broken: AcceleratorHandle, span):
        """Obtain the replacement handle (generator).

        The whole-device path reports the break to the ARM and allocates
        a fresh accelerator; :class:`TenantAccelerator` overrides this to
        release its revoked lease and lease anew instead.
        """
        yield from self.arm.report_break(broken.ac_id)
        span.event("break_reported", ac=broken.ac_id)
        replacement = yield from self.arm.alloc(
            count=1, wait=self.config.wait_for_replacement,
            job=self.config.job)
        span.event("replacement_assigned", ac=replacement[0].ac_id)
        return replacement[0]

    def _prepare_replacement(self, span):
        """Hook between front-end swap and state replay (generator).

        The whole-device path needs nothing here; lease-based subclasses
        attach the new slice on its daemon before replay can allocate.
        """
        return
        yield  # pragma: no cover - makes this a generator

    def _replay_state(self, span):
        """Re-create buffers and kernels on the replacement (generator).

        Buffers replay from their host shadows in virtual-address order
        and kernels in creation order, so the rebuilt device state is
        bit-identical and deterministic regardless of which operation the
        fault interrupted.
        """
        for vaddr, buf in sorted(self._buffers.items()):
            addr = yield from self._ac.mem_alloc(buf.nbytes)
            self._vmap[vaddr] = addr
            yield from self._ac.memcpy_h2d(addr, buf.replay_payload())
        for _, name in sorted(self._kernels.items()):
            yield from self._ac.kernel_create(name)
            if name in self._kernel_args:
                self._ac.kernel_set_args(
                    name, self._translate_params(self._kernel_args[name]))
        span.set(replayed_buffers=len(self._buffers),
                 replayed_kernels=len(self._kernels))

    # -- the ac* surface --------------------------------------------------
    def mem_alloc(self, nbytes: int):
        """Allocate device memory; returns a failover-stable address."""
        nbytes = int(nbytes)
        addr = yield from self.run_guarded(lambda: self._ac.mem_alloc(nbytes))
        vaddr = VADDR_BASE + next(self._vaddrs) * VADDR_STEP
        self._vmap[vaddr] = addr
        self._buffers[vaddr] = _TrackedBuffer(nbytes)
        return vaddr

    def mem_free(self, addr: int):
        self._phys(addr)  # validate before touching the wire
        yield from self.run_guarded(
            lambda: self._ac.mem_free(self._phys(addr)))
        del self._vmap[addr]
        del self._buffers[addr]

    def memcpy_h2d(self, dst: int, payload: _t.Any, transfer=None,
                   offset: int = 0):
        buf = self._buffers.get(dst)
        if buf is None:
            raise MiddlewareError(f"unknown buffer {dst:#x}")
        yield from self.run_guarded(
            lambda: self._ac.memcpy_h2d(self._phys(dst), payload,
                                        transfer=transfer, offset=offset))
        buf.record_write(payload, offset)

    def memcpy_d2h(self, src: int, nbytes: int, transfer=None,
                   offset: int = 0):
        result = yield from self.run_guarded(
            lambda: self._ac.memcpy_d2h(self._phys(src), int(nbytes),
                                        transfer=transfer, offset=offset))
        return result

    def kernel_create(self, name: str):
        yield from self.run_guarded(lambda: self._ac.kernel_create(name))
        self._kernels[len(self._kernels)] = name

    def kernel_set_args(self, name: str, params: dict) -> None:
        """Stage launch parameters (in virtual-address space)."""
        if name not in self._kernels.values():
            raise MiddlewareError(
                f"kernel {name!r} was not created on this accelerator")
        self._kernel_args[name] = dict(params)
        self._ac.kernel_set_args(name, self._translate_params(params))

    def kernel_run(self, name: str, params: dict | None = None,
                   real: bool = True):
        """Launch a kernel; buffer references in ``params`` may be virtual."""
        if params is None:
            params = self._kernel_args.get(name)

        def attempt():
            # Translate per attempt: after a failover the virtual->device
            # mapping has changed and a pre-translated dict would point at
            # the dead accelerator's addresses.
            if params is None:
                result = yield from self._ac.kernel_run(name, real=real)
            else:
                result = yield from self._ac.kernel_run(
                    name, self._translate_params(params), real=real)
            return result

        result = yield from self.run_guarded(attempt)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ResilientAccelerator ac{self._ac.handle.ac_id} "
                f"failovers={self.failovers}>")


class TenantAccelerator(ResilientAccelerator):
    """Failover wrapper over one tenant's virtual-accelerator lease.

    The ARM may revoke a lease at any moment to admit a higher-priority
    tenant; the next operation then fails with
    :class:`~repro.errors.AcceleratorFault` (``Status.PREEMPTED`` on the
    wire).  Recovery releases the revoked lease (idempotent), leases a
    fresh virtual accelerator — queueing under the tenant's WFQ weight
    when ``config.wait_for_replacement`` — attaches it on the hosting
    daemon, and replays tracked buffers and kernels from their host
    shadows, exactly like whole-device failover.
    The preempted tenant's device state is thereby parked in the replay
    machinery while it waits its turn again.

    Construct via :func:`tenant_accelerator` or directly from an ARM
    ``valloc`` grant; the initial ``VAC_ATTACH`` must have been issued
    (both helpers do).
    """

    def __init__(self, arm: "ArmClient",
                 make_remote: _t.Callable[[AcceleratorHandle], "RemoteAccelerator"],
                 grant: dict, config: FailoverConfig | None = None):
        super().__init__(arm, make_remote, grant["vac"], config=config)
        self.tenant: str = grant["vac"].tenant
        self._grant = grant

    def _reacquire(self, broken, span):
        # The revoked lease is already torn down server-side; vrelease
        # acknowledges it (and is a plain release if the fault was a
        # timeout rather than a preemption).
        yield from self.arm.vrelease(broken)
        span.event("lease_released", vac=broken.vac_id)
        self._grant = yield from self.arm.valloc(
            self.tenant, wait=self.config.wait_for_replacement,
            job=self.config.job)
        handle = self._grant["vac"]
        span.event("lease_reacquired", vac=handle.vac_id, ac=handle.ac_id)
        return handle

    def _prepare_replacement(self, span):
        # The new slice must exist on its daemon before replay allocates.
        yield from self._ac.vac_attach()
        span.event("lease_attached", vac=self._grant["vac"].vac_id)

    def release_lease(self):
        """Detach the slice and return the lease to the ARM (generator)."""
        try:
            yield from self._ac.vac_detach()
        except AcceleratorFault:
            # Already revoked daemon-side; the ARM release below settles it.
            pass
        yield from self.arm.vrelease(self._ac.handle)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TenantAccelerator {self.tenant!r} "
                f"vac{self._ac.handle.vac_id} "
                f"failovers={self.failovers}>")


def tenant_accelerator(arm: "ArmClient",
                       make_remote: _t.Callable[[AcceleratorHandle], "RemoteAccelerator"],
                       tenant: str, config: FailoverConfig | None = None,
                       job: str | None = None):
    """Lease and attach a virtual accelerator for ``tenant`` (generator).

    Performs the full acquisition handshake — ARM ``valloc`` then daemon
    ``VAC_ATTACH`` — and returns a ready :class:`TenantAccelerator`.
    """
    grant = yield from arm.valloc(tenant, job=job)
    ac = TenantAccelerator(arm, make_remote, grant, config=config)
    # Guarded: a VAC_REVOKE can race ahead of this very first attach (the
    # ARM preempts or loses the device before the daemon ever saw the
    # lease).  The daemon answers PREEMPTED and the guard reacquires a
    # fresh lease instead of surfacing a fault for a session that never
    # started.  After a recovery the replacement slice is already
    # attached, so re-running the attempt is an idempotent re-attach.
    yield from ac.run_guarded(
        lambda: ac.current.vac_attach())
    return ac
