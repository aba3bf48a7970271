"""The Accelerator Resource Manager (ARM) and its client API.

The ARM (Sect. III-B2) maintains which accelerators are free, assigned, or
broken, and answers allocation requests from compute nodes with exclusive
:class:`~repro.core.protocol.AcceleratorHandle` s.  Both assignment
strategies of Figure 3 are supported:

* **static** — accelerators are requested before the job's compute phase
  starts and held for the job's duration;
* **dynamic** — compute-node processes allocate and release at runtime via
  the resource-management API (:class:`ArmClient`); unsatisfiable requests
  may wait FIFO until a release frees capacity.

Beyond the paper's whole-device model, the ARM is also a multi-tenant
scheduler: tenants are registered with its admission controller
(``arm.admission.register(TenantSpec(...))``: weight / priority / lease
cap) and lease *virtual* accelerators
(:class:`~repro.core.protocol.VirtualAcceleratorHandle`) that are
multiplexed onto physical devices — ``slots_per_device`` leases per
device, memory partitioned per lease, kernel launches served first come
first served on the device's compute engine (its daemon serves one request
at a time).  A tenant's weight acts here and in job dispatch: admission
applies weighted fair queueing to backlogged lease requests and priority
preemption when the pool is full: the lowest-priority active lease below
the requester's priority is revoked (its daemon is told with a one-way
``VAC_REVOKE``), and its tenant discovers the revocation as
``Status.PREEMPTED`` on its next operation, which the resilience layer
turns into a reacquire-and-replay.

The ARM also records per-accelerator assignment time so the economy claim
(improved utilization) is measurable.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import typing as _t

from ..mpisim import RankHandle
from .protocol import (
    AcceleratorHandle,
    Op,
    Request,
    Response,
    Status,
    TAG_ARM,
    TAG_REQUEST,
    VirtualAcceleratorHandle,
    reply_tag,
)
from .reliability import DEFAULT_RETRY, RetryPolicy, reliable_rpc
from .scheduler import (
    DEFAULT_SLOTS_PER_DEVICE,
    AdmissionController,
    TenantSpec,
    WeightedFairQueue,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import AcceleratorNode


class AcceleratorState(enum.Enum):
    FREE = "free"
    ASSIGNED = "assigned"
    BROKEN = "broken"


@dataclasses.dataclass
class AcceleratorRecord:
    """ARM-side bookkeeping for one accelerator."""

    ac_id: int
    daemon_rank: int
    state: AcceleratorState = AcceleratorState.FREE
    owner_rank: int | None = None
    job: str | None = None
    #: Fabric switch the device hangs off (None on a single switch);
    #: drives topology-aware multi-device placement.
    switch: str | None = None
    #: Total seconds held — ASSIGNED, or hosting at least one virtual
    #: lease (utilization accounting).
    assigned_seconds: float = 0.0
    _assigned_at: float | None = None
    #: Completed holding intervals as (start, end) virtual times, so
    #: windowed utilization can intersect them with the window instead of
    #: mis-charging pre-window service to it.
    _history: list[tuple[float, float]] = dataclasses.field(
        default_factory=list, repr=False)

    def handle(self) -> AcceleratorHandle:
        return AcceleratorHandle(ac_id=self.ac_id, daemon_rank=self.daemon_rank)


class ResourceManager:
    """The ARM service process."""

    def __init__(self, rank: RankHandle,
                 accelerators: _t.Sequence[tuple[int, int]],
                 slots_per_device: int = DEFAULT_SLOTS_PER_DEVICE,
                 topology: _t.Any = None,
                 switches: _t.Mapping[int, str | None] | None = None):
        """``accelerators`` is a list of (ac_id, daemon_rank) pairs.

        ``topology`` (a :class:`~repro.netsim.Topology`) plus a
        ``switches`` map (ac_id → switch name) turn on topology-aware
        placement: multi-device allocations prefer co-located devices.
        """
        self.rank = rank
        self.engine = rank.comm.engine
        self.topology = topology
        self._switches = dict(switches) if switches else {}
        self.records: dict[int, AcceleratorRecord] = {
            ac_id: AcceleratorRecord(ac_id=ac_id, daemon_rank=daemon_rank,
                                     switch=self._switches.get(ac_id))
            for ac_id, daemon_rank in accelerators
        }
        #: FIFO of whole-device allocation requests waiting for capacity.
        self._wait_queue: collections.deque[tuple[Request]] = collections.deque()
        #: Admission policy and WFQ backlog for virtual-accelerator leases.
        self.admission = AdmissionController(slots_per_device)
        self._vqueue = WeightedFairQueue()
        #: Leases ended by preemption or device failure, so a tenant's
        #: eventual ``vrelease`` of a revoked handle succeeds idempotently.
        self._revoked_vacs: set[int] = set()
        self._stopped = False
        #: Leases revoked to admit higher-priority tenants (metrics).
        self.preemptions = 0
        # -- resource discovery (dynamic pool membership) --
        #: Last report time per discovered accelerator.  Statically
        #: rostered devices never enter this map, so the TTL sweeper
        #: cannot evict them and the static path behaves as before.
        self._last_seen: dict[int, float] = {}
        #: Ordered pool-membership log: ``(time, kind, ac_id)`` with kind
        #: in {join, rejoin, leave[:reason], evict, break}.  The
        #: chaos scorer derives recovery latency from it.
        self.pool_events: list[tuple[float, str, int]] = []
        self.joins = 0
        self.leaves = 0
        self.ttl_evictions = 0
        self.discovery_ttl_s: float | None = None
        self._sweep_proc = None
        self._sweep_stop = False
        #: Dispatch table built once, as the daemon's: _serve() looks up
        #: the handler of every request in it.
        self._handler_map = {
            Op.ARM_ALLOC: self._alloc,
            Op.ARM_RELEASE: self._release,
            Op.ARM_STATUS: self._status,
            Op.ARM_BREAK: self._break,
            Op.ARM_VALLOC: self._valloc,
            Op.ARM_VRELEASE: self._vrelease,
            Op.ARM_REPORT: self._report,
            Op.ARM_LEAVE: self._leave,
        }
        self.proc = self.engine.process(self._serve(), name="arm")

    # -- queries (direct, for tests and metrics) -------------------------
    def free_count(self) -> int:
        return sum(1 for r in self.records.values()
                   if r.state == AcceleratorState.FREE)

    def _pool_capacity(self) -> int:
        """Devices that could *ever* satisfy a request (non-BROKEN)."""
        return sum(1 for r in self.records.values()
                   if r.state != AcceleratorState.BROKEN)

    def _lease_hosts(self) -> list[int]:
        """Devices eligible to host virtual leases: the FREE ones (an
        exclusively ASSIGNED device is its owner's whole)."""
        return [r.ac_id for r in self.records.values()
                if r.state == AcceleratorState.FREE]

    def lease_count(self, tenant: str | None = None) -> int:
        """Active virtual leases (optionally one tenant's)."""
        if tenant is None:
            return len(self.admission.leases)
        return self.admission.active_vaccels(tenant)

    def snapshot(self) -> dict[int, dict]:
        """Current registry state, finalized assignment times included."""
        out = {}
        for r in self.records.values():
            assigned = r.assigned_seconds
            if r._assigned_at is not None:
                assigned += self.engine.now - r._assigned_at
            out[r.ac_id] = {
                "state": r.state.value,
                "owner_rank": r.owner_rank,
                "job": r.job,
                "assigned_seconds": assigned,
                "leases": self.admission.used_slots(r.ac_id),
                "switch": r.switch,
            }
        return out

    def hop_distance(self, ac_a: int, ac_b: int) -> int:
        """Trunk hops between two pool devices (0 without a topology)."""
        if self.topology is None:
            return 0
        ra, rb = self.records.get(ac_a), self.records.get(ac_b)
        if ra is None or rb is None or ra.switch is None or rb.switch is None:
            return 0
        return self.topology.hops(ra.switch, rb.switch)

    def utilization(self, elapsed: float | None = None) -> float:
        """Mean held-time fraction over all accelerators.

        A device is held while it is exclusively ASSIGNED or hosts at
        least one virtual lease: a fully leased pool is a busy pool.
        ``elapsed`` restricts accounting to the last ``elapsed`` seconds
        of virtual time: each assignment interval contributes only its
        overlap with ``[now - elapsed, now]``, so service completed before
        the window is not charged against it, and each accelerator's
        contribution (including in-flight assignments) is clamped to the
        window so the fraction never exceeds 1.0.
        """
        now = self.engine.now
        total = elapsed if elapsed is not None else now
        if total <= 0 or not self.records:
            return 0.0
        w0 = now - total
        acc = 0.0
        for r in self.records.values():
            assigned = 0.0
            for start, end in r._history:
                if end > w0:
                    assigned += end - max(start, w0)
            if r._assigned_at is not None:
                assigned += now - max(r._assigned_at, w0)
            acc += min(assigned, total)
        return acc / (total * len(self.records))

    # -- service loop -----------------------------------------------------
    def _serve(self):
        while not self._stopped:
            msg = yield from self.rank.recv(tag=TAG_ARM)
            req: Request = msg.payload
            if req.op == Op.SHUTDOWN:
                self._drain_on_shutdown()
                self._reply(req, Response(req.req_id, Status.OK))
                self._stopped = True
                break
            handler = self._handler_map.get(req.op)
            if handler is None:
                self._reply(req, Response(req.req_id, Status.ERROR,
                                          error=f"unsupported ARM op {req.op}"))
                continue
            handler(req)

    def _reply(self, req: Request, resp: Response) -> None:
        self.rank.isend(req.reply_to, reply_tag(req.req_id), resp)

    def _drain_on_shutdown(self) -> None:
        """Answer every queued waiter before stopping.

        Without this, requests parked in a wait queue when the ARM shuts
        down are stranded forever: their clients wait on a reply tag
        nobody will ever send to.
        """
        while self._wait_queue:
            (req,) = self._wait_queue.popleft()
            self._reply(req, Response(req.req_id, Status.UNAVAILABLE,
                                      error="ARM shutting down"))
        for req in self._vqueue.drain():
            self._reply(req, Response(req.req_id, Status.UNAVAILABLE,
                                      error="ARM shutting down"))

    # -- whole-device allocation ------------------------------------------
    def _alloc(self, req: Request) -> None:
        n = req.params.get("count", 1)
        if n <= 0:
            self._reply(req, Response(req.req_id, Status.ERROR,
                                      error=f"invalid count {n!r}"))
            return
        capacity = self._pool_capacity()
        if n > capacity:
            # Never-satisfiable: more devices than exist outside BROKEN.
            # Queueing it (even with wait=True) would deadlock the client.
            self._reply(req, Response(
                req.req_id, Status.UNAVAILABLE,
                error=f"{n} accelerator(s) requested but the pool "
                      f"holds only {capacity}"))
            return
        if not self._try_assign(req):
            if req.params.get("wait", True):
                self._wait_queue.append((req,))
            else:
                self._reply(req, Response(
                    req.req_id, Status.UNAVAILABLE,
                    error=f"only {self.free_count()} accelerator(s) free, "
                          f"{n} requested"))

    def _try_assign(self, req: Request) -> bool:
        n = req.params.get("count", 1)
        free = [r for r in self.records.values()
                if r.state == AcceleratorState.FREE
                and self.admission.used_slots(r.ac_id) == 0]
        if len(free) < n:
            return False
        chosen = self._place(free, n)
        for r in chosen:
            r.state = AcceleratorState.ASSIGNED
            r.owner_rank = req.reply_to
            r.job = req.params.get("job")
            r._assigned_at = self.engine.now
        self._reply(req, Response(req.req_id, Status.OK,
                                  value=[r.handle() for r in chosen]))
        return True

    def _place(self, free: list[AcceleratorRecord],
               n: int) -> list[AcceleratorRecord]:
        """Pick ``n`` devices from ``free``, topology-aware when possible.

        Without a topology (or for single-device requests) the historical
        lowest-id order applies.  With one, every free device's switch is
        tried as an anchor: the candidate set ranks the pool by
        ``(hops-from-anchor, ac_id)`` and the anchor whose top-``n`` has
        the smallest ``(max hop, total hops, ids)`` wins — same-switch
        groups first, then tight neighbourhoods, ids as the final
        deterministic tie-break (which also reproduces the historical
        choice whenever hops tie, e.g. all devices co-located).
        """
        if self.topology is None or n <= 1:
            return sorted(free, key=lambda r: r.ac_id)[:n]
        hops = self.topology.hops
        best = None
        for anchor in sorted({r.switch for r in free if r.switch}):
            ranked = sorted(
                free, key=lambda r: (hops(anchor, r.switch)
                                     if r.switch else len(self.topology.trunks),
                                     r.ac_id))[:n]
            dists = [hops(anchor, r.switch) for r in ranked if r.switch]
            score = (max(dists, default=0), sum(dists),
                     tuple(r.ac_id for r in ranked))
            if best is None or score < best[0]:
                best = (score, ranked)
        if best is None:  # no free device knows its switch
            return sorted(free, key=lambda r: r.ac_id)[:n]
        return best[1]

    def _release(self, req: Request) -> None:
        ac_ids = req.params.get("ac_ids", [])
        if len(set(ac_ids)) != len(ac_ids):
            # Reject before mutating anything: a duplicated id would
            # otherwise be finalized twice.
            self._reply(req, Response(req.req_id, Status.DENIED,
                                      error=f"duplicate ac_ids in release: "
                                            f"{sorted(ac_ids)}"))
            return
        records = []
        for ac_id in ac_ids:
            r = self.records.get(ac_id)
            if r is None or r.state != AcceleratorState.ASSIGNED:
                self._reply(req, Response(req.req_id, Status.DENIED,
                                          error=f"ac{ac_id} is not assigned"))
                return
            if r.owner_rank != req.reply_to:
                self._reply(req, Response(
                    req.req_id, Status.DENIED,
                    error=f"ac{ac_id} is owned by rank {r.owner_rank}, "
                          f"not {req.reply_to}"))
                return
            records.append(r)
        for r in records:
            self._finish_assignment(r)
            r.state = AcceleratorState.FREE
        self._reply(req, Response(req.req_id, Status.OK))
        self._pool_grew()

    def _finish_assignment(self, r: AcceleratorRecord) -> None:
        if r._assigned_at is not None:
            r.assigned_seconds += self.engine.now - r._assigned_at
            r._history.append((r._assigned_at, self.engine.now))
            r._assigned_at = None
        r.owner_rank = None
        r.job = None

    def _drain_queue(self) -> None:
        while self._wait_queue:
            (req,) = self._wait_queue[0]
            if not self._try_assign(req):
                break
            self._wait_queue.popleft()

    def _status(self, req: Request) -> None:
        self._reply(req, Response(req.req_id, Status.OK, value=self.snapshot()))

    def _break(self, req: Request) -> None:
        ac_id = req.params["ac_id"]
        r = self.records.get(ac_id)
        if r is None:
            self._reply(req, Response(req.req_id, Status.ERROR,
                                      error=f"unknown accelerator {ac_id}"))
            return
        self._mark_broken(r)
        self._reply(req, Response(req.req_id, Status.OK))

    def _mark_broken(self, r: AcceleratorRecord) -> None:
        if r.state == AcceleratorState.BROKEN:
            # Concurrent failure detectors (clients' explicit ARM_BREAKs
            # racing the daemon's own unhealthy discovery report) must
            # converge on one transition: a second mark would revoke
            # leases twice and double-log the pool event.
            return
        if r.state == AcceleratorState.ASSIGNED:
            self._finish_assignment(r)
        r.state = AcceleratorState.BROKEN
        # Leases hosted on the failed device are gone with it.
        for lease in list(self.admission.leases.values()):
            if lease.ac_id == r.ac_id:
                self._revoke_lease(lease.vac_id, notify=False)
        self._log_pool("break", r.ac_id)
        self._fail_unsatisfiable()

    def _fail_unsatisfiable(self) -> None:
        """Answer waiters that a shrunken pool can never satisfy.

        Called whenever a device leaves the pool (break, leave or TTL
        eviction): a queued ``alloc(count=N)`` with N above the surviving
        capacity would otherwise wait forever.
        """
        capacity = self._pool_capacity()
        kept: collections.deque[tuple[Request]] = collections.deque()
        while self._wait_queue:
            (req,) = self._wait_queue.popleft()
            n = req.params.get("count", 1)
            if n > capacity:
                self._reply(req, Response(
                    req.req_id, Status.UNAVAILABLE,
                    error=f"{n} accelerator(s) requested but the pool "
                          f"shrank to {capacity}"))
            else:
                kept.append((req,))
        self._wait_queue = kept
        if capacity == 0:
            for req in self._vqueue.drain():
                self._reply(req, Response(
                    req.req_id, Status.UNAVAILABLE,
                    error="no healthy accelerators remain"))

    # -- resource discovery (dynamic pool membership) ---------------------
    def _log_pool(self, kind: str, ac_id: int) -> None:
        self.pool_events.append((self.engine.now, kind, ac_id))

    def _pool_grew(self) -> None:
        """Wake queued waiters after capacity came back (a join, a rejoin
        or either kind of release) — exactly once each, exclusive FIFO
        first, then the lease WFQ.

        Both drains reply-and-pop atomically inside the calling handler
        (no yields between the capacity change and the drain), so a waiter
        the new capacity satisfies is answered exactly once, and waiters
        that still do not fit stay queued untouched.
        """
        self._drain_queue()
        self._drain_vqueue()

    def _report(self, req: Request) -> None:
        """A daemon's periodic capability/health report (one-way).

        Unknown healthy reporters join the pool as FREE; a BROKEN record
        reporting healthy again rejoins; an unhealthy report is a failure
        detection.  Re-reports of known healthy devices only refresh the
        TTL clock — no queue drains, no state clobbering.
        """
        p = req.params
        ac_id = p["ac_id"]
        r = self.records.get(ac_id)
        healthy = p.get("healthy", True)
        if r is None:
            if not healthy:
                return  # never admit a device reporting itself unhealthy
            self.records[ac_id] = AcceleratorRecord(
                ac_id=ac_id, daemon_rank=p["daemon_rank"],
                switch=p.get("switch", self._switches.get(ac_id)))
            self._last_seen[ac_id] = self.engine.now
            self.joins += 1
            self._log_pool("join", ac_id)
            self._pool_grew()
            return
        self._last_seen[ac_id] = self.engine.now
        if not healthy:
            self._mark_broken(r)
            return
        if r.state == AcceleratorState.BROKEN:
            r.state = AcceleratorState.FREE
            r.daemon_rank = p.get("daemon_rank", r.daemon_rank)
            self.joins += 1
            self._log_pool("rejoin", ac_id)
            self._pool_grew()

    def _leave(self, req: Request) -> None:
        """A daemon's graceful departure notice (one-way)."""
        r = self.records.get(req.params["ac_id"])
        if r is None:
            return  # already evicted or never joined: idempotent
        reason = req.params.get("reason")
        self._remove_record(r, f"leave:{reason}" if reason else "leave",
                            notify=True)

    def _remove_record(self, r: AcceleratorRecord, kind: str,
                       notify: bool) -> None:
        """Take a device out of the pool entirely (leave or TTL eviction).

        Unlike BROKEN (device present but failed), removal forgets the
        record: a later discovery report from the same ``ac_id`` is a
        fresh join.  Hosted leases are revoked (``notify`` as in
        :meth:`_revoke_lease`) and waiters the shrunken pool can never
        satisfy are answered.
        """
        if r.state == AcceleratorState.ASSIGNED:
            self._finish_assignment(r)
        for lease in list(self.admission.leases.values()):
            if lease.ac_id == r.ac_id:
                self._revoke_lease(lease.vac_id, notify=notify)
        del self.records[r.ac_id]
        self._last_seen.pop(r.ac_id, None)
        self.leaves += 1
        self._log_pool(kind, r.ac_id)
        self._fail_unsatisfiable()

    def enable_discovery(self, ttl_s: float,
                         sweep_period_s: float | None = None,
                         rounds: int | None = None):
        """Start the TTL sweeper that ages out silent discovered devices.

        A discovered device whose last report is older than ``ttl_s`` is
        removed from the pool (crash, partition, or a straggler too slow
        to publish on time — gray failures look identical from here).
        Statically rostered devices have no ``_last_seen`` entry and are
        never swept.  ``rounds`` bounds the sweeper's lifetime (``None``
        keeps the event queue non-empty forever; bound the run).
        """
        self.discovery_ttl_s = ttl_s
        if sweep_period_s is None:
            sweep_period_s = ttl_s / 2.0
        if self._sweep_proc is not None and self._sweep_proc.is_alive:
            return self._sweep_proc
        self._sweep_stop = False
        self._sweep_proc = self.engine.process(
            self._sweep(ttl_s, sweep_period_s, rounds), name="arm-sweep")
        return self._sweep_proc

    def stop_discovery(self) -> None:
        """Ask the TTL sweeper to exit after its current round."""
        self._sweep_stop = True

    def _sweep(self, ttl_s: float, period_s: float, rounds: int | None):
        done = 0
        while not (self._stopped or self._sweep_stop):
            if rounds is not None and done >= rounds:
                break
            yield self.engine.sleep(period_s)
            done += 1
            cutoff = self.engine.now - ttl_s
            for ac_id, seen in sorted(self._last_seen.items()):
                if seen >= cutoff:
                    continue
                r = self.records.get(ac_id)
                if r is None:  # pragma: no cover - defensive
                    self._last_seen.pop(ac_id, None)
                    continue
                self.ttl_evictions += 1
                self._remove_record(r, "evict", notify=False)

    # -- multi-tenant leases ----------------------------------------------
    def _valloc(self, req: Request) -> None:
        tenant = req.params.get("tenant")
        spec = self.admission.tenants.get(tenant)
        if spec is None:
            self._reply(req, Response(req.req_id, Status.ERROR,
                                      error=f"unknown tenant {tenant!r}"))
            return
        if self.admission.active_vaccels(tenant) >= spec.max_vaccels:
            # Quota violations never queue: waiting cannot make the
            # tenant's own cap larger, and its other leases releasing
            # would race its own backlog.  Admission control says no.
            self._reply(req, Response(
                req.req_id, Status.DENIED,
                error=f"tenant {tenant!r} is at its max_vaccels quota "
                      f"({spec.max_vaccels})"))
            return
        if self._pool_capacity() == 0:
            self._reply(req, Response(req.req_id, Status.UNAVAILABLE,
                                      error="no healthy accelerators remain"))
            return
        if self._try_vassign(req, spec):
            return
        if req.params.get("wait", True):
            self._vqueue.enqueue(tenant, spec.weight, req)
        else:
            self._reply(req, Response(
                req.req_id, Status.UNAVAILABLE,
                error="no virtual-accelerator slot free"))

    def _try_vassign(self, req: Request, spec: TenantSpec) -> bool:
        """Place a lease, preempting a lower-priority one when full."""
        hosts = self._lease_hosts()
        ac_id = self.admission.place(hosts)
        if ac_id is None:
            victim = self.admission.find_victim(spec.priority)
            if victim is None:
                return False
            self._revoke_lease(victim.vac_id, notify=True)
            self.preemptions += 1
            ac_id = self.admission.place(hosts)
            if ac_id is None:  # pragma: no cover - victim freed its slot
                return False
        lease = self.admission.grant(spec.tenant_id, ac_id, self.engine.now)
        record = self.records[ac_id]
        if record._assigned_at is None:     # its first lease: now held
            record._assigned_at = self.engine.now
        handle = VirtualAcceleratorHandle(
            vac_id=lease.vac_id, ac_id=ac_id,
            daemon_rank=record.daemon_rank, tenant=spec.tenant_id)
        self._reply(req, Response(req.req_id, Status.OK, value={
            "vac": handle,
            # No daemon reads the weight (kernel time on a device is
            # first come first served); the field stays on the wire
            # because it counts in the grant's width, as mem_quota does.
            "share": spec.weight,
            # No tenant carries a quota and no daemon reads one: the
            # slice may use the device's memory.  The field stays on the
            # wire (it counts in the grant's width).
            "mem_quota": None,
        }))
        return True

    def _revoke_lease(self, vac_id: int, notify: bool) -> None:
        """End a lease by force (preemption or device failure).

        ``notify`` sends the one-way ``VAC_REVOKE`` to the hosting daemon
        so the slice stops accepting work and frees its memory; device
        failure skips it (the daemon is gone, and a silently dropped
        message would be fine anyway).
        """
        lease = self.admission.end(vac_id, self.engine.now)
        lease.preempted = True
        self._lease_ended(lease.ac_id)
        self._revoked_vacs.add(vac_id)
        if notify:
            record = self.records[lease.ac_id]
            self.rank.isend(record.daemon_rank, TAG_REQUEST, Request(
                op=Op.VAC_REVOKE, req_id=next(self.rank.comm.ids),
                reply_to=self.rank.index,
                params={"vac_id": vac_id, "oneway": True}))

    def _vrelease(self, req: Request) -> None:
        vac_id = req.params.get("vac_id")
        tenant = req.params.get("tenant")
        lease = self.admission.leases.get(vac_id)
        if lease is None:
            if vac_id in self._revoked_vacs:
                # The lease was already torn down by preemption or device
                # failure — releasing it again is the tenant noticing.
                self._revoked_vacs.discard(vac_id)
                self._reply(req, Response(req.req_id, Status.OK,
                                          value={"revoked": True}))
            else:
                self._reply(req, Response(
                    req.req_id, Status.DENIED,
                    error=f"unknown virtual accelerator {vac_id}"))
            return
        if lease.tenant_id != tenant:
            self._reply(req, Response(
                req.req_id, Status.DENIED,
                error=f"vac{vac_id} belongs to {lease.tenant_id!r}, "
                      f"not {tenant!r}"))
            return
        self.admission.end(vac_id, self.engine.now)
        self._lease_ended(lease.ac_id)
        self._reply(req, Response(req.req_id, Status.OK,
                                  value={"revoked": False}))
        # A device with no leases left is whole-device allocatable again.
        self._pool_grew()

    def _lease_ended(self, ac_id: int) -> None:
        """Close the device's holding interval once its last lease ends."""
        if self.admission.used_slots(ac_id) == 0:
            self._finish_assignment(self.records[ac_id])

    def _drain_vqueue(self) -> None:
        while len(self._vqueue):
            req = self._vqueue.peek()
            tenant = req.params.get("tenant")
            spec = self.admission.tenants.get(tenant)
            if spec is None:  # pragma: no cover - spec removed while queued
                self._vqueue.pop()
                self._reply(req, Response(req.req_id, Status.ERROR,
                                          error=f"unknown tenant {tenant!r}"))
                continue
            if self.admission.active_vaccels(tenant) >= spec.max_vaccels:
                # Quota filled by an earlier grant while this one queued.
                self._vqueue.pop()
                self._reply(req, Response(
                    req.req_id, Status.DENIED,
                    error=f"tenant {tenant!r} is at its max_vaccels quota "
                          f"({spec.max_vaccels})"))
                continue
            if self.admission.place(self._lease_hosts()) is None:
                break
            self._vqueue.pop()
            self._try_vassign(req, spec)


class ArmClient:
    """The resource-management API used by compute-node processes.

    Every request is a :func:`reliable_rpc` under ``retry``, except one
    that queues (``alloc`` / ``valloc`` with ``wait=True``): its wait is
    open-ended, so it goes under :data:`DEFAULT_RETRY`, no deadline.
    """

    def __init__(self, rank: RankHandle, arm_rank: int,
                 retry: RetryPolicy | None = None):
        self.rank = rank
        self.arm_rank = arm_rank
        self.retry = retry or DEFAULT_RETRY
        self.requests = 0
        self.timeouts = 0

    def _rpc(self, op: Op, params: dict):
        policy = DEFAULT_RETRY if params.get("wait") else self.retry
        resp = yield from reliable_rpc(
            self.rank, self.arm_rank, TAG_ARM, op, params, policy,
            stats=self)
        resp.raise_for_status()
        return resp

    def alloc(self, count: int = 1, wait: bool = True, job: str | None = None):
        """Request ``count`` exclusive accelerators (generator).

        With ``wait=True`` the request queues FIFO until satisfiable (the
        batch-script style of Sect. V-B) — deadlines are suspended for the
        open-ended wait; with ``wait=False`` it fails immediately with
        :class:`AllocationError` when capacity is short.  A request for
        more accelerators than the pool could ever provide fails
        immediately in both modes instead of waiting forever.  Returns a
        list of :class:`AcceleratorHandle`.
        """
        resp = yield from self._rpc(Op.ARM_ALLOC,
                                    {"count": count, "wait": wait, "job": job})
        return resp.value

    def release(self, handles: _t.Sequence[AcceleratorHandle]):
        """Return accelerators to the pool (generator)."""
        yield from self._rpc(Op.ARM_RELEASE,
                             {"ac_ids": [h.ac_id for h in handles]})

    def status(self):
        """ARM registry snapshot (generator)."""
        resp = yield from self._rpc(Op.ARM_STATUS, {})
        return resp.value

    def report_break(self, ac_id: int):
        """Report a failed accelerator to the ARM (generator)."""
        yield from self._rpc(Op.ARM_BREAK, {"ac_id": ac_id})

    # -- multi-tenant API -------------------------------------------------
    def valloc(self, tenant: str, wait: bool = True, job: str | None = None):
        """Lease one virtual accelerator for ``tenant`` (generator).

        Returns ``{"vac": VirtualAcceleratorHandle, "share": float,
        "mem_quota": None}`` — ``share`` is the tenant's weight and
        ``mem_quota`` is always None; no daemon reads either.
        With ``wait=True`` the request joins the ARM's weighted fair queue
        under backlog; quota violations (tenant at ``max_vaccels``) fail
        immediately in both modes.
        """
        resp = yield from self._rpc(
            Op.ARM_VALLOC, {"tenant": tenant, "wait": wait, "job": job})
        return resp.value

    def vrelease(self, handle: VirtualAcceleratorHandle):
        """Return a virtual accelerator (generator).

        Succeeds (with ``{"revoked": True}``) when the lease was already
        torn down by preemption or device failure, so reacquire paths can
        release unconditionally.
        """
        resp = yield from self._rpc(Op.ARM_VRELEASE, {
            "vac_id": handle.vac_id, "tenant": handle.tenant})
        return resp.value
