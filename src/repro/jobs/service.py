"""Ensemble job service: DAG scheduling, warm leases, kernel caching.

The service sits in front of the middleware the way the Pegasus ensemble
manager sits in front of an MPI cluster: clients submit :class:`JobSpec`
ensembles (priority, tenant, accelerator count, dependencies) and the
service runs them concurrently over one simulated cluster, multiplexing
all jobs' control traffic through shared gateway ranks.

Scheduling reuses the multi-tenant machinery end to end:

* ready jobs queue in per-priority
  :class:`~repro.core.scheduler.WeightedFairQueue` instances (weight =
  the tenant's registered WFQ weight, cost = accelerator count), so a
  backlogged tenant's admission share tracks its weight;
* in-flight leases are capped by the
  :class:`~repro.core.scheduler.AdmissionController` capacity
  (``devices x slots_per_device``), so the ARM's own admission path never
  has to reject or preempt — which keeps job *outcomes* independent of
  request timing, the property the coalescing on/off identity check
  relies on;
* each granted job leases virtual accelerators through the ARM
  (``valloc`` + ``VAC_ATTACH``) and its body drives the leases
  themselves: a :class:`JobAccelerator` is one lease and a
  :class:`~repro.core.api.RemoteAccelerator` at once.

Warm paths (all deterministic, all outcome-neutral):

* :class:`LeasePool` — a returned lease is kept attached for
  ``lease_ttl_s`` of virtual time and handed to the next same-tenant job
  on the same gateway, skipping the ARM valloc/attach round trips; an
  expiry watcher detaches leases nobody reclaimed.
* :class:`KernelCache` — KERNEL_CREATE only validates a module against
  the device-global registry, so once one job of a tenant created kernel
  K on device D, later creates of (tenant, D, K) are answered from the
  cache with no wire traffic at all.
* allocation cache — a freed device buffer is parked on its lease
  (still allocated in the lease's partition) and handed to the next
  same-size ``mem_alloc`` with no wire traffic; daemon-side malloc/free
  is serial daemon CPU, so under load this is the largest warm-path
  saving.  VAC_DETACH frees parked buffers with the lease.

Terminal states are distinct: DONE, FAILED (the body raised), and
CANCELLED (a dependency did not finish DONE — failure cascades down the
DAG without running descendants).  A device break or a revoked lease
mid-job surfaces in the body, so the job ends FAILED and its leases are
torn down rather than parked.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from ..core.api import RemoteAccelerator
from ..core.coalesce import FrameCoalescer
from ..core.scheduler import TenantSpec, WeightedFairQueue
from ..errors import AllocationError, WorkloadError
from ..obs.metrics import MetricsRegistry
from ..sim import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..cluster.builder import Cluster
    from ..core.protocol import VirtualAcceleratorHandle
    from ..mpisim import RankHandle

#: Default coalescing window (virtual seconds).  Zero means flush-on-
#: drain: the pump merges whatever accumulated while the previous frame
#: was in flight, which captures most of the round-trip savings under
#: load without adding any latency on an idle path.  A positive window
#: (a fraction of the ~4 us control round trip) buys denser frames at
#: the cost of that much added latency per frame.
DEFAULT_WINDOW_S = 0.0

#: Default time a returned lease stays warm before the pool detaches it.
DEFAULT_LEASE_TTL_S = 50e-3


class JobState(enum.Enum):
    """Lifecycle of one submitted job."""

    PENDING = "pending"        # submitted; waiting on arrival/deps/slots
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"          # the body raised
    CANCELLED = "cancelled"    # a dependency ended FAILED or CANCELLED


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One job of an ensemble.

    ``deps`` names jobs this one must wait for; a job only runs when every
    dependency finished ``DONE`` (anything else cancels it).  ``priority``
    orders dispatch strictly (higher first); within a priority level the
    weighted fair queue interleaves tenants by weight.
    """

    name: str
    tenant: str
    body: _t.Callable[["JobContext"], _t.Iterator]
    n_accelerators: int = 1
    priority: int = 0
    deps: tuple[str, ...] = ()
    arrival_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("job name must be non-empty")
        if not self.tenant:
            raise WorkloadError(f"job {self.name!r} needs a tenant")
        if self.n_accelerators < 1:
            raise WorkloadError(
                f"job {self.name!r} needs at least one accelerator")
        if not self.arrival_s >= 0:
            raise WorkloadError(f"job {self.name!r}: negative arrival time")
        if self.name in self.deps:
            raise WorkloadError(
                f"dependency cycle: job {self.name!r} depends on itself")


@dataclasses.dataclass
class JobRecord:
    """Outcome and timeline of one submitted job."""

    spec: JobSpec
    state: JobState
    gateway: int
    submitted_s: float
    ready_s: float | None = None
    start_s: float | None = None
    end_s: float | None = None
    result: _t.Any = None
    error: BaseException | None = None
    #: Fires once the job reaches a terminal state (value: this record).
    done: Event = dataclasses.field(repr=False, default=None)
    #: Fires when the dispatcher grants the job its slots.
    _granted: Event = dataclasses.field(repr=False, default=None)
    _wfq_token: int | None = dataclasses.field(repr=False, default=None)

    @property
    def finished(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED,
                              JobState.CANCELLED)

    @property
    def ok(self) -> bool:
        return self.state is JobState.DONE

    @property
    def latency_s(self) -> float | None:
        """Submission-to-terminal latency (arrival-adjusted)."""
        if self.end_s is None:
            return None
        return self.end_s - max(self.submitted_s, self.spec.arrival_s)


class KernelCache:
    """Per-tenant kernel-module residency cache.

    Keyed ``(tenant, device id, kernel name)``: once a tenant's job
    created kernel K on device D, later jobs of the same tenant assigned
    to D skip the KERNEL_CREATE round trip entirely.  Safe because the
    daemon's KERNEL_CREATE only validates the name against the
    device-global registry — it holds no per-lease state — so a cached
    create has exactly the effect of a repeated one.
    """

    def __init__(self) -> None:
        self._resident: set[tuple[str, int, str]] = set()
        self.hits = 0
        self.misses = 0

    def lookup(self, tenant: str, ac_id: int, name: str) -> bool:
        """True (and counted as a hit) when the module is resident."""
        if (tenant, ac_id, name) in self._resident:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def record(self, tenant: str, ac_id: int, name: str) -> None:
        self._resident.add((tenant, ac_id, name))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class JobAccelerator(RemoteAccelerator):
    """One attached virtual-accelerator lease, and a job's front end on it.

    Made at a cold acquire, parked in the :class:`LeasePool` between
    jobs and reclaimed warm, so everything cached on it outlives the job
    that filled it.  Every op frames itself as the plain front end does
    (through the gateway's :class:`~repro.core.coalesce.FrameCoalescer`,
    or alone for the uncoalesced baseline); only the warm paths differ:

    * KERNEL_CREATE consults the tenant's :class:`KernelCache` first;
    * ``mem_free`` parks the buffer on the lease, still allocated in its
      partition, and ``mem_alloc`` hands it to the next same-size
      allocation with no wire traffic — every daemon-side malloc/free
      costs serial daemon CPU.  VAC_DETACH frees parked buffers with the
      lease, so parking costs no teardown RPC either.

    With caching off (``kernel_cache`` and ``pool`` None) it is the plain
    front end.
    """

    def __init__(self, rank: "RankHandle", handle: "VirtualAcceleratorHandle",
                 gateway: int, kernel_cache: KernelCache | None,
                 pool: "LeasePool | None"):
        super().__init__(rank, handle)
        self.tenant = handle.tenant
        self.gateway = gateway
        self._cache = kernel_cache
        self._pool = pool
        #: Set while a job holds the lease (an expiry must not take it).
        self.taken = True
        #: Allocation cache: parked device buffers by exact size.
        self._parked: dict[int, list[int]] = {}

    def mem_alloc(self, nbytes: int):
        nbytes = int(nbytes)
        if self._pool is not None:
            stack = self._parked.get(nbytes)
            if stack:
                # Warm hit: allocated in the partition by an earlier job.
                # Contents are stale; bodies must fully write what they
                # read, which every kernel path here does.
                addr = stack.pop()
                self._live[addr] = nbytes
                self._pool.alloc_hits += 1
                return addr
            self._pool.alloc_misses += 1
        addr = yield from super().mem_alloc(nbytes)
        return addr

    def mem_free(self, addr: int):
        nbytes = self._live.get(addr)
        if self._pool is None or nbytes is None:
            yield from super().mem_free(addr)
            return
        del self._live[addr]
        self._parked.setdefault(nbytes, []).append(addr)

    def kernel_create(self, name: str):
        ac_id = self.handle.ac_id
        if self._cache is not None and self._cache.lookup(
                self.tenant, ac_id, name):
            # Module already resident for this tenant+device: no wire
            # traffic, only the client-side staging bookkeeping.
            self._kernels[name] = {}
            return
        yield from super().kernel_create(name)
        if self._cache is not None:
            self._cache.record(self.tenant, ac_id, name)

    def release(self):
        """Free (or park) every allocation the job still holds (generator)."""
        for addr in list(self._live):
            yield from self.mem_free(addr)


class LeasePool:
    """Warm allocation-lease reuse, keyed (tenant, gateway).

    A returned lease stays attached for ``ttl_s`` of virtual time; the
    next same-tenant job on the same gateway claims it LIFO (the most
    recently parked lease is the most likely to still be cached hot along
    the whole path) and skips the ARM valloc + VAC_ATTACH round trips.
    An expiry watcher per parked lease detaches it when the TTL passes
    unclaimed, so idle tenants do not pin device slots forever.
    """

    def __init__(self, service: "JobService", ttl_s: float):
        if not ttl_s > 0:
            raise WorkloadError(f"lease TTL must be positive: {ttl_s!r}")
        self.service = service
        self.ttl_s = ttl_s
        self._warm: dict[tuple[str, int], list[JobAccelerator]] = {}
        #: Parked leases oldest-first (eviction order, across all keys).
        self._order: list[JobAccelerator] = []
        self.reused = 0
        self.parked = 0
        self.expired = 0
        self.evicted = 0
        #: Allocation-cache accounting across every lease in the pool.
        self.alloc_hits = 0
        self.alloc_misses = 0

    @property
    def alloc_hit_rate(self) -> float:
        total = self.alloc_hits + self.alloc_misses
        return self.alloc_hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._order)

    def warm_count(self, tenant: str, gateway: int) -> int:
        """Parked leases currently claimable by (tenant, gateway)."""
        return len(self._warm.get((tenant, gateway), ()))

    def take(self, tenant: str, gateway: int) -> JobAccelerator | None:
        stack = self._warm.get((tenant, gateway))
        if not stack:
            return None
        lease = stack.pop()
        lease.taken = True
        self._order.remove(lease)
        self.reused += 1
        return lease

    def park(self, lease: JobAccelerator) -> None:
        lease.taken = False
        self._warm.setdefault((lease.tenant, lease.gateway), []).append(lease)
        self._order.append(lease)
        self.parked += 1
        engine = self.service.engine
        engine.process(self._expire(lease), name=f"lease-ttl:{lease.tenant}")

    def _unpark(self, lease: JobAccelerator) -> None:
        self._warm[(lease.tenant, lease.gateway)].remove(lease)
        self._order.remove(lease)
        lease.taken = True

    def evict_one(self):
        """Tear down the oldest parked lease (generator).

        The make-room path: parked leases pin ARM device slots, so a cold
        allocation that finds the ARM full must reclaim one first or it
        would block until a TTL expiry — warm-path head-of-line blocking
        across tenants.  Oldest-first keeps the order deterministic.
        """
        if not self._order:
            return False
        lease = self._order[0]
        self._unpark(lease)
        self.evicted += 1
        yield from self.service._teardown_lease(lease)
        return True

    def _expire(self, lease: JobAccelerator):
        yield self.service.engine.sleep(self.ttl_s)
        if lease.taken or lease not in self._order:
            return
        self._unpark(lease)
        self.expired += 1
        yield from self.service._teardown_lease(lease)

    def drain(self):
        """Detach every parked lease (generator; end-of-run cleanup)."""
        while self._order:
            lease = self._order[0]
            self._unpark(lease)
            yield from self.service._teardown_lease(lease)


class JobService:
    """The ensemble front door over one cluster (see module docstring)."""

    def __init__(self, cluster: "Cluster", *,
                 coalescing: bool = True,
                 window_s: float = DEFAULT_WINDOW_S,
                 caching: bool = True,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S):
        if not window_s >= 0:
            raise WorkloadError(f"window_s must be >= 0: {window_s!r}")
        self.cluster = cluster
        self.engine = cluster.engine
        self.admission = cluster.arm.admission
        #: Every compute node is a gateway.
        self.gateways = list(range(len(cluster.compute_nodes)))
        self.coalescing = coalescing
        self.window_s = window_s
        self.metrics = MetricsRegistry()
        #: Concurrent-lease cap: the admission capacity, so the ARM grants
        #: every valloc immediately — job outcomes then cannot depend on
        #: request timing (the on/off identity property).
        self.max_in_flight = (len(cluster.accelerator_nodes)
                              * self.admission.slots_per_device)
        self._free = self.max_in_flight
        self._kick_scheduled = False
        self.kernel_cache = KernelCache() if caching else None
        self.lease_pool = (LeasePool(self, lease_ttl_s) if caching else None)
        self._arm_clients = {cn: cluster.arm_client(cn)
                             for cn in self.gateways}
        self._coalescers: dict[tuple[int, int], FrameCoalescer] = {}
        self._queues: dict[int, WeightedFairQueue] = {}
        self._records: dict[str, JobRecord] = {}
        self._tenant_gateway: dict[str, int] = {}
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.leases_cold = 0
        #: Leases currently held at the ARM (active + parked) — the
        #: make-room path keeps this below capacity before a cold valloc.
        self._arm_held = 0

    # -- tenants ---------------------------------------------------------
    def ensure_tenant(self, tenant_id: str, weight: float = 1.0) -> None:
        """Register (or update) a tenant with the shared admission policy.

        ``max_vaccels`` is pinned to the full capacity and the ARM
        priority to 0 for every tenant: the service's own dispatcher is
        the real admission point (strict :attr:`JobSpec.priority` levels,
        WFQ within a level), and a tighter ARM quota or a non-zero ARM
        priority would let grant outcomes — preemption, DENIED — depend
        on request arrival timing, breaking the warm-path on/off
        bit-identity.
        """
        self.admission.register(TenantSpec(
            tenant_id=tenant_id, weight=weight, priority=0,
            max_vaccels=max(self.max_in_flight, 1)))

    def _tenant_weight(self, tenant_id: str) -> float:
        spec = self.admission.tenants.get(tenant_id)
        return spec.weight if spec is not None else 1.0

    # -- submission ------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Submit one job; its dependencies must already be submitted."""
        if spec.name in self._records:
            raise WorkloadError(f"duplicate job name {spec.name!r}")
        for dep in spec.deps:
            if dep not in self._records:
                raise WorkloadError(
                    f"job {spec.name!r} depends on unknown job {dep!r}")
        self._check_fits(spec)
        if spec.tenant not in self.admission.tenants:
            self.ensure_tenant(spec.tenant)
        # Tenant-sticky gateway assignment (tenants spread round-robin in
        # first-seen order): a tenant's jobs share one gateway so its
        # parked leases and coalescer are actually reclaimable — random
        # spreading would strand warm state behind the (tenant, gateway)
        # pool key.
        gateway = self._tenant_gateway.setdefault(
            spec.tenant,
            self.gateways[len(self._tenant_gateway) % len(self.gateways)])
        rec = JobRecord(spec=spec, state=JobState.PENDING, gateway=gateway,
                        submitted_s=self.engine.now,
                        done=Event(self.engine),
                        _granted=Event(self.engine))
        self._records[spec.name] = rec
        self.engine.process(self._job(rec), name=f"job:{spec.name}")
        return rec

    def submit_many(self, specs: _t.Sequence[JobSpec]) -> list[JobRecord]:
        """Submit a whole ensemble; rejects dependency cycles and jobs the
        pool can never hold up front."""
        order = self._toposort(specs)
        for spec in specs:
            self._check_fits(spec)
        by_name = {s.name: s for s in specs}
        records = [self.submit(by_name[name]) for name in order]
        by_rec = {r.spec.name: r for r in records}
        return [by_rec[s.name] for s in specs]

    def _check_fits(self, spec: JobSpec) -> None:
        """Reject a job wider than the lease capacity: it could never be
        granted, and it would block every job queued behind it."""
        if spec.n_accelerators > self.max_in_flight:
            raise WorkloadError(
                f"job {spec.name!r} wants {spec.n_accelerators} "
                f"accelerators, the pool holds {self.max_in_flight}")

    @staticmethod
    def _toposort(specs: _t.Sequence[JobSpec]) -> list[str]:
        """Kahn's algorithm; raises on cycles and unknown dependencies.

        Independent jobs keep the caller's order (FIFO submission)."""
        by_name: dict[str, JobSpec] = {}
        for s in specs:
            if s.name in by_name:
                raise WorkloadError(f"duplicate job name {s.name!r}")
            by_name[s.name] = s
        indeg = {s.name: 0 for s in specs}
        dependents: dict[str, list[str]] = {s.name: [] for s in specs}
        for s in specs:
            for dep in s.deps:
                if dep not in by_name:
                    raise WorkloadError(
                        f"job {s.name!r} depends on unknown job {dep!r}")
                indeg[s.name] += 1
                dependents[dep].append(s.name)
        frontier = [n for n, d in indeg.items() if d == 0]
        order: list[str] = []
        while frontier:
            name = frontier.pop(0)
            order.append(name)
            for child in dependents[name]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    frontier.append(child)
        if len(order) != len(specs):
            stuck = sorted(n for n, d in indeg.items() if d > 0)
            raise WorkloadError(
                f"dependency cycle among jobs: {', '.join(stuck)}")
        return order

    def record(self, name: str) -> JobRecord:
        return self._records[name]

    @property
    def records(self) -> list[JobRecord]:
        return list(self._records.values())

    # -- plumbing --------------------------------------------------------
    def coalescer_for(self, gateway: int, daemon_rank: int) -> FrameCoalescer | None:
        """The merge point for one (gateway, daemon) pair (None when off)."""
        if not self.coalescing:
            return None
        key = (gateway, daemon_rank)
        co = self._coalescers.get(key)
        if co is None:
            co = FrameCoalescer(self.cluster.compute_rank(gateway),
                                daemon_rank, window_s=self.window_s)
            self._coalescers[key] = co
        return co

    def coalesce_stats(self) -> dict[str, float]:
        """Aggregate merge accounting across every gateway/daemon pair."""
        subs = sum(c.subs_in for c in self._coalescers.values())
        frames = sum(c.frames_out for c in self._coalescers.values())
        merged = sum(c.merged_subs for c in self._coalescers.values())
        return {
            "subs_in": subs,
            "frames_out": frames,
            "merged_subs": merged,
            "merged_ratio": merged / subs if subs else 0.0,
            "roundtrips_saved": subs - frames,
        }

    # -- the scheduler ---------------------------------------------------
    #: How far past the WFQ head the dispatcher may reach to grant a job
    #: that its tenant's parked leases can serve warm.  Bounds the
    #: fairness distortion the warm-first preference can introduce.
    WARM_LOOKAHEAD = 8

    def _schedule_kick(self) -> None:
        """Dispatch at the end of the current timestep, not synchronously.

        A finishing job frees its slots before its ``done`` event has
        woken dependents; dispatching immediately would hand the freed
        (and freshly parked) leases to whoever else is queued, while the
        same-tenant child that could run warm is still one engine step
        from enqueueing.  A zero-delay timeout sorts after those wakeups
        at the same virtual instant, so the dispatcher sees every job
        made ready by this step — deterministically, and with no
        virtual-time cost.
        """
        if self._kick_scheduled:
            return
        self._kick_scheduled = True
        self.engine.process(self._deferred_kick(), name="jobs:dispatch")

    def _deferred_kick(self):
        yield self.engine.sleep(0.0)
        self._kick_scheduled = False
        self._kick()

    def _kick(self) -> None:
        """Grant free slots to ready jobs (synchronous, deterministic).

        Strict priority across levels; start-time weighted fair queueing
        within a level (weight = tenant weight, cost = accelerator
        count).  Within the top level the dispatcher prefers — up to
        :data:`WARM_LOOKAHEAD` entries past the head — a job whose
        tenant has enough parked leases to run entirely warm: without
        this, the WFQ's cross-tenant interleave hands every freed slot
        to a *different* tenant, which must evict the parked lease and
        re-allocate cold, churning away the pool's whole benefit.  When
        the head job of the top non-empty level does not fit, lower
        levels wait (no backfill) — simple and timing-stable.
        """
        while True:
            level = None
            for prio in sorted(self._queues, reverse=True):
                if len(self._queues[prio]):
                    level = prio
                    break
            if level is None:
                return
            q = self._queues[level]
            head: JobRecord = q.peek()
            if head.spec.n_accelerators > self._free:
                return
            pick = head
            if self.lease_pool is not None and not self._warm_ready(head):
                for rec in q.items()[:self.WARM_LOOKAHEAD]:
                    if (rec.spec.n_accelerators <= self._free
                            and self._warm_ready(rec)):
                        pick = rec
                        break
            if pick is head:
                q.pop()
            else:
                q.remove(pick._wfq_token)
            self._free -= pick.spec.n_accelerators
            pick._granted.succeed(None)

    def _warm_ready(self, rec: JobRecord) -> bool:
        """True when the pool can serve every lease of ``rec`` warm."""
        return (self.lease_pool.warm_count(rec.spec.tenant, rec.gateway)
                >= rec.spec.n_accelerators)

    def _finish(self, rec: JobRecord, state: JobState,
                result: _t.Any = None,
                error: BaseException | None = None) -> None:
        rec.state = state
        rec.result = result
        rec.error = error
        rec.end_s = self.engine.now
        if state is JobState.DONE:
            self.jobs_done += 1
        elif state is JobState.FAILED:
            self.jobs_failed += 1
        else:
            self.jobs_cancelled += 1
        if state is not JobState.CANCELLED:
            self.metrics.histogram("job.latency_s",
                                   tenant=rec.spec.tenant).observe(
                rec.latency_s)
            self.metrics.histogram("jobs.latency_s").observe(rec.latency_s)
        self.metrics.counter(f"jobs.{state.value}").inc()
        rec.done.succeed(rec)

    def _job(self, rec: JobRecord):
        spec = rec.spec
        if self.engine.now < spec.arrival_s:
            yield self.engine.sleep(spec.arrival_s - self.engine.now)
        # 1. Dependencies: every parent must finish DONE.
        for dep_name in spec.deps:
            dep = self._records[dep_name]
            if not dep.finished:
                yield dep.done
        bad = [d for d in spec.deps
               if self._records[d].state is not JobState.DONE]
        if bad:
            cause = self._records[bad[0]]
            self._finish(rec, JobState.CANCELLED, error=WorkloadError(
                f"job {spec.name!r} cancelled: dependency "
                f"{cause.spec.name!r} {cause.state.value}"))
            return
        # 2. Queue for slots (priority levels, WFQ within a level).
        rec.ready_s = self.engine.now
        q = self._queues.setdefault(spec.priority, WeightedFairQueue())
        rec._wfq_token = q.enqueue(spec.tenant,
                                   self._tenant_weight(spec.tenant), rec,
                                   cost=float(spec.n_accelerators))
        self._schedule_kick()
        yield rec._granted
        rec.state = JobState.RUNNING
        rec.start_s = self.engine.now
        # 3. Acquire leases (warm pool first), run the body, clean up.
        leases: list[JobAccelerator] = []
        result, error = None, None
        try:
            for _ in range(spec.n_accelerators):
                lease = yield from self._acquire_lease(spec.tenant,
                                                       rec.gateway,
                                                       job=spec.name)
                leases.append(lease)
            ctx = JobContext(service=self, spec=spec, record=rec,
                             accelerators=leases)
            result = yield from spec.body(ctx)
            for lease in leases:
                yield from lease.release()
        except Exception as exc:
            error = exc
        for lease in leases:
            yield from self._return_lease(lease, dirty=error is not None)
        self._free += spec.n_accelerators
        self._schedule_kick()
        if error is None:
            self._finish(rec, JobState.DONE, result=result)
        else:
            self._finish(rec, JobState.FAILED, error=error)

    # -- leases ----------------------------------------------------------
    def _acquire_lease(self, tenant: str, gateway: int, job: str):
        if self.lease_pool is not None:
            lease = self.lease_pool.take(tenant, gateway)
            if lease is not None:
                return lease
            # Parked leases (any tenant, any gateway) pin ARM device
            # slots; reclaim until the valloc below cannot block.  The
            # dispatcher admits at most `capacity` jobs' worth of leases,
            # so active + parked <= capacity and this always terminates
            # with a free slot.
            while self._arm_held >= self.max_in_flight:
                freed = yield from self.lease_pool.evict_one()
                if not freed:
                    break
        self.leases_cold += 1
        arm = self._arm_clients[gateway]
        # Reserve the slot before the valloc: a concurrent cold acquire
        # must not count this still-in-flight grant as free room, or one
        # of the two queues at a full ARM until a TTL expiry.
        self._arm_held += 1
        try:
            grant = yield from arm.valloc(tenant, wait=True, job=job)
        except BaseException:
            self._arm_held -= 1
            raise
        lease = JobAccelerator(self.cluster.compute_rank(gateway),
                               grant["vac"], gateway, self.kernel_cache,
                               self.lease_pool)
        # A lease never leaves its (gateway, daemon) pair, so it keeps
        # that pair's merge point for life.
        lease.coalescer = self.coalescer_for(gateway,
                                             lease.handle.daemon_rank)
        yield from lease.vac_attach()
        return lease

    def _return_lease(self, lease: JobAccelerator, dirty: bool = False):
        """Park a clean lease warm; tear down a dirty (failed-job) one."""
        if self.lease_pool is not None and not dirty:
            self.lease_pool.park(lease)
            return
        yield from self._teardown_lease(lease)

    def _teardown_lease(self, lease: JobAccelerator):
        self._arm_held -= 1
        try:
            yield from lease.vac_detach()
        except Exception:
            pass  # revoked/broken mid-teardown: vrelease still settles it
        try:
            yield from self._arm_clients[lease.gateway].vrelease(
                lease.handle)
        except AllocationError:
            pass  # already released (idempotent teardown)

    def drain(self):
        """Detach every warm lease (generator; run after the ensemble)."""
        if self.lease_pool is not None:
            yield from self.lease_pool.drain()
        return None

    # -- driving ---------------------------------------------------------
    def run_all(self, specs: _t.Sequence[JobSpec]) -> list[JobRecord]:
        """Submit an ensemble, run to completion, drain the warm pool."""
        records = self.submit_many(specs)
        if records:
            self.engine.run(until=self.engine.all_of(
                [r.done for r in records]))
        proc = self.engine.process(self.drain(), name="jobs:drain")
        self.engine.run(until=proc)
        return records


@dataclasses.dataclass
class JobContext:
    """What a running job's body receives."""

    service: JobService
    spec: JobSpec
    record: JobRecord
    accelerators: list[JobAccelerator]

    @property
    def engine(self):
        return self.service.engine

    @property
    def cluster(self):
        return self.service.cluster

    @property
    def cpu(self):
        """The CPU of the job's gateway compute node."""
        return self.cluster.compute_nodes[self.record.gateway].cpu
