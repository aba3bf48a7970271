"""Open-loop multi-tenant workload generator for the virtualized ARM.

Simulates thousands of tenants sharing a handful of physical accelerators
through the ARM's admission control (``valloc`` / virtual-accelerator
leases).  Arrivals are *open loop*: every request's submission time is
drawn up front from a seeded RNG, independent of completions, so the
offered load does not adapt to congestion — queueing delay shows up in
the measured latencies instead of being hidden by back-pressure.

Each request leases a virtual accelerator
(:func:`~repro.core.reliability.tenant_accelerator`), runs a small
alloc / h2d / kernel / d2h session with phantom payloads, and releases
the lease.  Tenants preempted by higher-priority admissions recover
transparently through :class:`~repro.core.reliability.TenantAccelerator`
replay; the report counts both preemptions and survived recoveries.

The run is fully deterministic: the same :class:`TenantWorkloadConfig`
(including ``seed``) produces a bit-identical event trace, captured in
:attr:`TenantWorkloadReport.digest`.  Results land in an
:class:`~repro.obs.metrics.MetricsRegistry` — per-tenant latency
histograms (``tenant.latency_s``), per-tenant weighted service gauges
(``tenant.service_s``), and aggregate counters — from which the report
derives per-tenant p50/p99 and a Jain fairness index.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import typing as _t

from ..cluster import Cluster, paper_testbed
from ..core.reliability import FailoverConfig, tenant_accelerator
from ..core.scheduler import TenantSpec, jain_fairness
from ..errors import AllocationError, MiddlewareError
from ..mpisim import Phantom
from ..obs import MetricsRegistry

#: (name, priority, WFQ weight, fraction of tenants) — drawn per tenant.
DEFAULT_CLASSES: tuple[tuple[str, int, float, float], ...] = (
    ("gold", 2, 4.0, 0.10),
    ("silver", 1, 2.0, 0.30),
    ("bronze", 0, 1.0, 0.60),
)


@dataclasses.dataclass(frozen=True)
class TenantWorkloadConfig:
    """Shape of one open-loop multi-tenant run."""

    n_tenants: int = 1000
    n_accelerators: int = 8
    #: Gateway compute nodes the tenant population is multiplexed over.
    n_gateways: int = 4
    #: Virtual-accelerator slots per physical device (admission capacity).
    slots_per_device: int = 4
    requests_per_tenant: int = 1
    #: Arrivals are uniform over ``[0, window_s)`` of virtual time.  The
    #: default squeezes the population into 10 ms so admission queueing
    #: and preemption actually happen; widen it for an uncontended run.
    window_s: float = 0.01
    payload_bytes: int = 64 * 1024
    seed: int = 0
    classes: tuple[tuple[str, int, float, float], ...] = DEFAULT_CLASSES

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise MiddlewareError("n_tenants must be >= 1")
        if not 1 <= self.n_accelerators <= 8:
            raise MiddlewareError("n_accelerators must be in 1..8")
        if self.n_gateways < 1:
            raise MiddlewareError("n_gateways must be >= 1")
        if self.requests_per_tenant < 1:
            raise MiddlewareError("requests_per_tenant must be >= 1")
        if self.window_s <= 0:
            raise MiddlewareError("window_s must be positive")
        if self.payload_bytes < 8:
            raise MiddlewareError("payload_bytes must be >= 8")


@dataclasses.dataclass
class TenantWorkloadReport:
    """Outcome of :func:`run` (latencies in virtual seconds)."""

    config: TenantWorkloadConfig
    duration_s: float
    submitted: int
    completed: int
    rejected: int
    #: Sessions whose post-preemption reacquire lost the tenant's quota
    #: slot to another of the tenant's own requests.
    aborted: int
    preemptions: int
    recoveries: int
    latency_p50_s: float
    latency_p99_s: float
    #: tenant id -> ``{"count", "p50_s", "p99_s"}`` (completed requests).
    per_tenant: dict[str, dict[str, float]]
    #: Jain fairness index over per-tenant weighted service (1.0 = fair).
    fairness: float
    #: SHA-256 over the ordered completion trace; same seed -> same digest.
    digest: str
    registry: MetricsRegistry = dataclasses.field(repr=False, default=None)

    def worst_tenants(self, n: int = 5) -> list[tuple[str, dict[str, float]]]:
        """The ``n`` tenants with the highest p99 latency."""
        ranked = sorted(self.per_tenant.items(),
                        key=lambda kv: (-kv[1]["p99_s"], kv[0]))
        return ranked[:n]


def draw_spec(rng: random.Random, tenant_id: str,
              classes: tuple[tuple[str, int, float, float], ...] = DEFAULT_CLASSES,
              ) -> TenantSpec:
    """Draw one tenant's scheduling class from a seeded RNG.

    Shared by the tenant workload and the chaos scenario runner so both
    populations are drawn identically for a given seed.
    """
    roll = rng.random()
    acc = 0.0
    name, priority, weight = classes[-1][:3]
    for cname, cprio, cweight, frac in classes:
        acc += frac
        if roll < acc:
            name, priority, weight = cname, cprio, cweight
            break
    # max_vaccels=1: overlapping requests from one tenant exercise the
    # quota path (immediate DENIED, counted as rejected).
    return TenantSpec(tenant_id=tenant_id, weight=weight, priority=priority)


def _one_request(cluster: Cluster, arm, make_remote, tenant_id: str,
                 req_idx: int, arrival_s: float, cfg: TenantWorkloadConfig,
                 reg: MetricsRegistry, tally: dict, trace: list):
    engine = cluster.engine
    yield engine.timeout(arrival_s)
    t0 = engine.now
    try:
        # Preempted tenants queue (WFQ) for a replacement lease instead of
        # surfacing AllocationError mid-session.
        ac = yield from tenant_accelerator(
            arm, make_remote, tenant_id,
            config=FailoverConfig(wait_for_replacement=True))
    except AllocationError:
        tally["rejected"] += 1
        reg.counter("tenant.rejected").inc()
        trace.append((tenant_id, req_idx, arrival_s, engine.now, "rejected"))
        return
    n = cfg.payload_bytes // 8
    try:
        addr = yield from ac.mem_alloc(cfg.payload_bytes)
        yield from ac.memcpy_h2d(addr, Phantom(cfg.payload_bytes))
        yield from ac.kernel_create("dscal")
        yield from ac.kernel_run("dscal", {"x": addr, "n": n, "alpha": 1.0},
                                 real=False)
        yield from ac.memcpy_d2h(addr, cfg.payload_bytes)
        yield from ac.release_lease()
    except AllocationError:
        # Preempted mid-session and the reacquire hit the tenant's own
        # max_vaccels quota (another of its requests took the slot).  The
        # old lease is already torn down; the session just ends early.
        tally["aborted"] += 1
        tally["recoveries"] += ac.failovers
        reg.counter("tenant.aborted").inc()
        trace.append((tenant_id, req_idx, arrival_s, engine.now, "aborted"))
        return
    done = engine.now
    latency = done - t0
    tally["completed"] += 1
    tally["recoveries"] += ac.failovers
    reg.histogram("tenant.latency_s", tenant=tenant_id).observe(latency)
    reg.histogram("workload.latency_s").observe(latency)
    trace.append((tenant_id, req_idx, arrival_s, done, "ok"))


def run(cfg: TenantWorkloadConfig | None = None) -> TenantWorkloadReport:
    """Build a cluster, drive the open-loop tenant population, report."""
    cfg = cfg or TenantWorkloadConfig()
    rng = random.Random(cfg.seed)
    cluster = Cluster(paper_testbed(n_compute=cfg.n_gateways,
                                    n_accelerators=cfg.n_accelerators))
    cluster.arm.admission.slots_per_device = cfg.slots_per_device
    reg = MetricsRegistry()
    tally = {"completed": 0, "rejected": 0, "aborted": 0, "recoveries": 0}
    trace: list[tuple] = []

    # Register the population directly with the admission controller (an
    # in-process policy object) rather than via n_tenants RPC round trips.
    tenants = [f"t{i:04d}" for i in range(cfg.n_tenants)]
    specs = {t: draw_spec(rng, t, cfg.classes) for t in tenants}
    for spec in specs.values():
        cluster.arm.admission.register(spec)

    # One ARM client / remote factory per gateway; tenants multiplex over
    # gateways round-robin.  Reply tags are request-scoped, so concurrent
    # processes share a gateway rank safely.
    arms = [cluster.arm_client(g) for g in range(cfg.n_gateways)]
    makers = [
        (lambda g: (lambda h: cluster.remote(g, h)))(g)
        for g in range(cfg.n_gateways)
    ]

    submitted = 0
    for i, tenant_id in enumerate(tenants):
        g = i % cfg.n_gateways
        for r in range(cfg.requests_per_tenant):
            arrival = rng.uniform(0.0, cfg.window_s)
            cluster.engine.process(
                _one_request(cluster, arms[g], makers[g], tenant_id, r,
                             arrival, cfg, reg, tally, trace),
                name=f"{tenant_id}.r{r}")
            submitted += 1

    cluster.run()  # drain every pre-scheduled arrival to completion

    # Per-tenant weighted service (lease seconds / weight) -> fairness.
    service = dict(cluster.arm.admission.service_s)
    for tenant_id, s in sorted(service.items()):
        reg.gauge("tenant.service_s", tenant=tenant_id).set(s)
    fairness = jain_fairness([service[t] for t in sorted(service)])
    reg.gauge("tenant.fairness_jain").set(fairness)
    reg.counter("tenant.preemptions").inc(cluster.arm.preemptions)

    per_tenant: dict[str, dict[str, float]] = {}
    for hist in reg.histograms("tenant.latency_s"):
        labels = dict(hist.labels)
        per_tenant[labels["tenant"]] = {
            "count": float(hist.count),
            "p50_s": hist.percentile(50.0),
            "p99_s": hist.percentile(99.0),
        }
    agg = reg.histogram("workload.latency_s")

    sha = hashlib.sha256()
    for row in sorted(trace):
        sha.update(repr(row).encode())

    return TenantWorkloadReport(
        config=cfg,
        duration_s=cluster.engine.now,
        submitted=submitted,
        completed=tally["completed"],
        rejected=tally["rejected"],
        aborted=tally["aborted"],
        preemptions=cluster.arm.preemptions,
        recoveries=tally["recoveries"],
        latency_p50_s=agg.percentile(50.0) if agg.count else 0.0,
        latency_p99_s=agg.percentile(99.0) if agg.count else 0.0,
        per_tenant=per_tenant,
        fairness=fairness,
        digest=sha.hexdigest(),
        registry=reg,
    )


def format_report(report: TenantWorkloadReport, top: int = 5) -> str:
    """Human-readable summary (the CLI's output)."""
    cfg = report.config
    lines = [
        f"tenants {cfg.n_tenants}  accelerators {cfg.n_accelerators}  "
        f"slots/dev {cfg.slots_per_device}  gateways {cfg.n_gateways}  "
        f"seed {cfg.seed}",
        f"submitted {report.submitted}  completed {report.completed}  "
        f"rejected {report.rejected}  aborted {report.aborted}  "
        f"preemptions {report.preemptions}  "
        f"recoveries {report.recoveries}",
        f"virtual duration {report.duration_s * 1e3:.3f} ms",
        f"latency p50 {report.latency_p50_s * 1e3:.3f} ms  "
        f"p99 {report.latency_p99_s * 1e3:.3f} ms",
        f"fairness (Jain, weighted service) {report.fairness:.4f}",
        f"trace digest {report.digest[:16]}",
    ]
    worst = report.worst_tenants(top)
    if worst:
        lines.append(f"worst {len(worst)} tenants by p99:")
        for tenant_id, row in worst:
            lines.append(
                f"  {tenant_id}  count {int(row['count'])}  "
                f"p50 {row['p50_s'] * 1e3:.3f} ms  "
                f"p99 {row['p99_s'] * 1e3:.3f} ms")
    return "\n".join(lines)
