"""Multi-tenant scheduling policy: quotas, weighted fair queueing, admission.

The ARM of the paper hands out *whole* accelerators FIFO.  Serving many
concurrent tenants (the Acceleration-as-a-Service model, arXiv:1508.02558)
needs three more mechanisms, all policy and therefore kept separate from
the ARM's message loop:

* :class:`TenantSpec` — per-tenant weight, priority, and lease cap;
* :class:`WeightedFairQueue` — start-time fair queueing over pending
  allocation requests, so a tenant's share of admission bandwidth tracks
  its weight and no backlogged tenant starves;
* :class:`AdmissionController` — slot capacity per physical accelerator,
  quota enforcement, deterministic placement, and preemption-victim
  selection for priority admission.

Everything here is deterministic: ties break on (tenant id, submission
sequence), never on hash order or wall clock.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import typing as _t

from ..errors import AllocationError

#: Virtual-accelerator leases one device hosts at once, unless the
#: admission controller is built or set with another count.
DEFAULT_SLOTS_PER_DEVICE = 4


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """Identity and resource envelope of one tenant.

    ``weight`` drives weighted fair queueing of lease admission and of
    job dispatch (2.0 drains twice as fast as 1.0 under backlog); kernel
    time on a shared device is first come first served.  ``priority``
    drives admission: a request may preempt an active lease of *strictly
    lower* priority when the pool is full.  ``max_vaccels`` caps
    concurrent virtual accelerators.
    """

    tenant_id: str
    weight: float = 1.0
    priority: int = 0
    max_vaccels: int = 1

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise AllocationError("tenant_id must be non-empty")
        if self.weight <= 0:
            raise AllocationError(f"tenant weight must be positive: {self.weight!r}")
        if self.max_vaccels < 1:
            raise AllocationError(f"max_vaccels must be >= 1: {self.max_vaccels!r}")


@dataclasses.dataclass
class Lease:
    """One granted virtual accelerator."""

    vac_id: int
    tenant_id: str
    ac_id: int
    priority: int
    granted_at: float
    #: Set when the lease was revoked by priority preemption.
    preempted: bool = False


class WeightedFairQueue:
    """Start-time fair queueing over per-tenant request backlogs.

    Each enqueued item carries a virtual finish tag: the tenant's virtual
    clock advanced by ``cost / weight``.  ``pop()`` returns the smallest
    tag (FIFO per tenant, weighted interleave across tenants).  The
    system virtual clock advances to each dispatched tag, so a tenant
    that was idle cannot bank unbounded credit and then lock out the
    others — the no-starvation property the tests assert.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, _t.Any]] = []
        self._seq = itertools.count()
        self._removed: set[int] = set()
        self._vtime = 0.0
        self._tenant_vtime: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._heap) - len(self._removed)

    def enqueue(self, tenant_id: str, weight: float, item: _t.Any,
                cost: float = 1.0) -> int:
        """Add ``item`` to the tenant's backlog; returns a removal token."""
        if weight <= 0:
            raise AllocationError(f"weight must be positive: {weight!r}")
        start = max(self._vtime, self._tenant_vtime.get(tenant_id, 0.0))
        tag = start + cost / weight
        self._tenant_vtime[tenant_id] = tag
        seq = next(self._seq)
        heapq.heappush(self._heap, (tag, seq, tenant_id, item))
        return seq

    def _skim(self) -> None:
        heap = self._heap
        while heap and heap[0][1] in self._removed:
            self._removed.discard(heap[0][1])
            heapq.heappop(heap)

    def peek(self) -> _t.Any | None:
        """The next item in WFQ order, without removing it."""
        self._skim()
        return self._heap[0][3] if self._heap else None

    def pop(self) -> _t.Any | None:
        """Remove and return the next item in WFQ order (None if empty)."""
        self._skim()
        if not self._heap:
            return None
        tag, _, _, item = heapq.heappop(self._heap)
        self._vtime = max(self._vtime, tag)
        return item

    def remove(self, token: int) -> None:
        """Remove a queued item by its enqueue token (lazy deletion)."""
        self._removed.add(token)

    def items(self) -> list[_t.Any]:
        """Live items in WFQ order (for draining / unsatisfiability scans)."""
        return [item for tag, seq, _, item in sorted(self._heap)
                if seq not in self._removed]

    def drain(self) -> list[_t.Any]:
        """Remove and return every live item in WFQ order."""
        out = self.items()
        self._heap.clear()
        self._removed.clear()
        return out


class AdmissionController:
    """Capacity, quota, placement, and preemption policy for virtual leases.

    The controller owns no messaging: the ARM consults it and carries out
    its verdicts.  Capacity is ``slots_per_device`` virtual accelerators
    per healthy physical device; placement picks the device with the most
    free slots (ties to the lowest ``ac_id``) so load spreads evenly and
    deterministically.
    """

    def __init__(self, slots_per_device: int = DEFAULT_SLOTS_PER_DEVICE):
        if slots_per_device < 1:
            raise AllocationError(
                f"slots_per_device must be >= 1: {slots_per_device!r}")
        self.slots_per_device = slots_per_device
        self.tenants: dict[str, TenantSpec] = {}
        self.leases: dict[int, Lease] = {}        # vac_id -> lease
        self._vac_ids = itertools.count(1)
        #: Cumulative weighted service per tenant (seconds of lease time
        #: normalized by weight) — the fairness metric's raw material.
        self.service_s: dict[str, float] = {}

    # -- tenants ----------------------------------------------------------
    def register(self, spec: TenantSpec) -> None:
        """Register (or re-register, updating) a tenant."""
        self.tenants[spec.tenant_id] = spec

    def tenant(self, tenant_id: str) -> TenantSpec:
        spec = self.tenants.get(tenant_id)
        if spec is None:
            raise AllocationError(f"unknown tenant {tenant_id!r}")
        return spec

    def active_vaccels(self, tenant_id: str) -> int:
        return sum(1 for lease in self.leases.values()
                   if lease.tenant_id == tenant_id and not lease.preempted)

    # -- capacity ---------------------------------------------------------
    def used_slots(self, ac_id: int) -> int:
        return sum(1 for lease in self.leases.values()
                   if lease.ac_id == ac_id and not lease.preempted)

    def free_slots(self, healthy_acs: _t.Sequence[int]) -> int:
        return sum(self.slots_per_device - self.used_slots(ac)
                   for ac in healthy_acs)

    def place(self, healthy_acs: _t.Sequence[int]) -> int | None:
        """The device to host one more lease, or None when full."""
        best: int | None = None
        best_free = 0
        for ac in sorted(healthy_acs):
            free = self.slots_per_device - self.used_slots(ac)
            if free > best_free:
                best, best_free = ac, free
        return best

    def find_victim(self, priority: int) -> Lease | None:
        """The active lease to preempt for a request at ``priority``.

        Only leases of *strictly lower* priority qualify; among those the
        lowest priority loses, oldest grant first (its tenant had the
        longest service), vac id as the final deterministic tie-break.
        """
        candidates = [lease for lease in self.leases.values()
                      if not lease.preempted and lease.priority < priority]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda le: (le.priority, le.granted_at, le.vac_id))

    # -- lease lifecycle --------------------------------------------------
    def grant(self, tenant_id: str, ac_id: int, now: float) -> Lease:
        spec = self.tenant(tenant_id)
        lease = Lease(vac_id=next(self._vac_ids), tenant_id=tenant_id,
                      ac_id=ac_id, priority=spec.priority, granted_at=now)
        self.leases[lease.vac_id] = lease
        return lease

    def end(self, vac_id: int, now: float) -> Lease:
        """Finish a lease (release or preemption) and account its service."""
        lease = self.leases.pop(vac_id, None)
        if lease is None:
            raise AllocationError(f"unknown virtual accelerator {vac_id}")
        held = max(now - lease.granted_at, 0.0)
        spec = self.tenants.get(lease.tenant_id)
        weight = spec.weight if spec is not None else 1.0
        self.service_s[lease.tenant_id] = (
            self.service_s.get(lease.tenant_id, 0.0) + held / weight)
        return lease


def jain_fairness(values: _t.Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one-taker.

    Computed over per-tenant weighted service; equal weighted service
    across tenants means the scheduler honoured the weights exactly.
    """
    vals = [v for v in values if v >= 0]
    if not vals:
        return 1.0
    total = sum(vals)
    if total == 0:
        return 1.0
    square_sum = sum(v * v for v in vals)
    return (total * total) / (len(vals) * square_sum)
