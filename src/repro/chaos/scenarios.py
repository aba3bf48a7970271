"""Seeded, replayable chaos scenarios for the dynamic accelerator pool.

Each :class:`Scenario` composes injections from
:class:`~repro.core.faults.FaultInjector` — discovery-driven join/leave
waves, rolling daemon upgrades, network partitions and slow links via the
fabric, stragglers, heartbeat flapping — against a cluster whose ARM pool
membership is built entirely from the discovery feed
(``Cluster(discovery=True)`` + :meth:`ResourceManager.enable_discovery`).

While the injections churn the pool, an open-loop multi-tenant workload
offers load through the lease/failover machinery.  Arrivals are *open
loop*: every session's submission time is drawn up front from the seeded
RNG, independent of completions, so queueing delay shows up in the
measured latencies instead of being hidden by back-pressure.  Each
tenant draws a scheduling class (:data:`DEFAULT_CLASSES`: priority and
WFQ weight), so a higher-priority admission on a full pool makes the ARM
preempt a lower-priority lease; sessions ride out preemptions, evictions
and revocations via :class:`~repro.core.reliability.TenantAccelerator`.
The ``steady`` scenario injects nothing: it is that population alone on
a dense pool, where ARM preemption is the only disturbance.

Every run is scored from the ARM's membership log and the obs metrics
registry:

* **recovery latency** — for each non-policy down event (``break``,
  ``evict``, ``leave:*`` except ``leave:scale-down``), the virtual time
  until pool capacity returns to its pre-event level
  (``chaos.recovery_latency_s`` histogram; unrecovered events counted in
  ``chaos.unrecovered``);
* **SLO violations** — completed sessions over :data:`SLO_S` plus failed,
  aborted, and stuck sessions (``chaos.slo_violations`` counter);
* **per-tenant service** — per-tenant p50/p99 session latency and the
  Jain fairness index over the admission controller's weighted service,
  both computed after the run from the session trace and the ARM.

Runs are fully deterministic: the same scenario + :class:`ChaosConfig`
(including ``seed``) produces a bit-identical trace, membership log, and
payload contents, captured in :attr:`ChaosReport.digest`.  Every
:data:`REAL_PAYLOAD_EVERY`-th session carries a real (seeded) payload through
h2d/d2h and checks it byte-for-byte on return — across failovers, which
replay the buffer from its host shadow — so corruption is caught, not
just liveness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import typing as _t

import numpy as np

from ..cluster import Cluster, paper_testbed
from ..core.discovery import Autoscaler
from ..core.faults import FaultInjector
from ..core.reliability import FailoverConfig, RetryPolicy, tenant_accelerator
from ..core.scheduler import TenantSpec, jain_fairness
from ..errors import AllocationError, ReproError, WorkloadError
from ..mpisim import Phantom
from ..obs import MetricsRegistry

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.arm import ResourceManager


#: (name, priority, WFQ weight, fraction of tenants) — drawn per tenant.
DEFAULT_CLASSES: tuple[tuple[str, int, float, float], ...] = (
    ("gold", 2, 4.0, 0.10),
    ("silver", 1, 2.0, 0.30),
    ("bronze", 0, 1.0, 0.60),
)


def draw_spec(rng: random.Random, tenant_id: str) -> TenantSpec:
    """Draw one tenant's scheduling class from a seeded RNG."""
    roll = rng.random()
    acc = 0.0
    _, priority, weight, _ = DEFAULT_CLASSES[-1]
    for _, cprio, cweight, frac in DEFAULT_CLASSES:
        acc += frac
        if roll < acc:
            priority, weight = cprio, cweight
            break
    # max_vaccels=1: overlapping requests from one tenant exercise the
    # quota path (immediate DENIED, counted as rejected).
    return TenantSpec(tenant_id=tenant_id, weight=weight, priority=priority)


#: Sessions each tenant opens.
REQUESTS_PER_TENANT = 2
#: Compute nodes the tenants submit from.
N_GATEWAYS = 2
#: Accelerator nodes built (the discovered pool's ceiling).
N_ACCELERATORS = 6
PAYLOAD_BYTES = 4096
#: Every k-th session carries a real seeded payload and verifies it
#: byte-for-byte after d2h (the rest use phantoms).
REAL_PAYLOAD_EVERY = 4
#: A session slower than this end-to-end is an SLO violation.
SLO_S = 5e-3
#: The ARM's discovery eviction TTL and its sweep cadence.
TTL_S = 2e-3
SWEEP_PERIOD_S = 5e-4
#: Per-RPC deadline on the data plane (fault detection latency).
RPC_TIMEOUT_S = 1.5e-3
MAX_FAILOVERS = 8
#: Discovery reports must land before load arrives — an empty pool
#: rejects valloc outright instead of queueing.
WARMUP_S = 2e-3
#: Wall on the drain phase; sessions still alive then are "stuck".
DRAIN_TIMEOUT_S = 0.5
#: Daemon-side receive deadline for stalled h2d block streams.
DATA_STALL_S = 2e-3


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos run (times in virtual seconds)."""

    n_tenants: int = 48
    #: Agents publishing from t=0; the rest are headroom (joins/autoscale).
    initial_accelerators: int = 4
    slots_per_device: int = 2
    #: Arrivals are uniform over ``[WARMUP_S, WARMUP_S + window_s)``.
    window_s: float = 20e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_tenants < 1:
            raise WorkloadError("n_tenants must be >= 1")
        if not 1 <= self.initial_accelerators <= N_ACCELERATORS:
            raise WorkloadError(
                f"initial_accelerators must be in 1..{N_ACCELERATORS}")
        if self.slots_per_device < 1:
            raise WorkloadError("slots_per_device must be >= 1")
        if not self.window_s > 0:
            raise WorkloadError("window_s must be positive")


#: How long an ``upgrade`` injection keeps its node unreachable.
UPGRADE_DOWNTIME_S = 1.5e-3

#: Injection kinds understood by :func:`_apply` (all times are relative
#: to the end of the warmup phase).
INJECTION_KINDS = frozenset({
    "join", "leave", "flap", "slow", "partition", "slow-link", "upgrade",
})


@dataclasses.dataclass(frozen=True)
class Injection:
    """One declarative chaos injection inside a scenario.

    ``kind`` selects the :class:`~repro.core.faults.FaultInjector` path:

    * ``join`` — start ``ac_id``'s discovery agent at ``at_s``;
    * ``leave`` — stop it; ``reason=None`` leaves silently (TTL evict),
      otherwise an ``ARM_LEAVE`` announces the departure;
    * ``flap`` — pause/resume reports every ``half_period_s`` until
      ``until_s`` (heartbeat flapping);
    * ``slow`` — multiply the daemon's software costs (and report
      cadence) by ``factor`` until ``until_s`` (straggler);
    * ``partition`` — cut the fabric between ``ac_id`` and every
      gateway plus the ARM until ``until_s``;
    * ``slow-link`` — add ``extra_s`` propagation latency between
      ``ac_id`` and every gateway until ``until_s``;
    * ``upgrade`` — graceful leave, :data:`UPGRADE_DOWNTIME_S` of
      unreachability, restart advertising ``version``, rejoin via
      discovery.
    """

    kind: str
    at_s: float
    ac_id: int
    until_s: float | None = None
    factor: float = 1.0
    extra_s: float = 0.0
    version: str | None = None
    reason: str | None = "departed"
    half_period_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in INJECTION_KINDS:
            raise WorkloadError(f"unknown injection kind {self.kind!r}; "
                                f"try one of {sorted(INJECTION_KINDS)}")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A named, composable chaos scenario."""

    name: str
    description: str
    #: How the system is expected to recover (the catalog table).
    recovery_path: str
    #: ``cfg -> injections`` so timings can scale with the config.
    injections: _t.Callable[[ChaosConfig], list[Injection]]
    #: Close the loop with the Autoscaler during this scenario.
    autoscale: bool = False
    #: Override ``cfg.initial_accelerators`` (autoscale headroom).
    initial: int | None = None
    #: Reshape the run config (e.g. compress the arrival window into a
    #: burst).  Applied to the caller's config, so seed/size knobs pass
    #: through.
    tweak: _t.Callable[[ChaosConfig], ChaosConfig] | None = None


def _apply(injector: FaultInjector, inj: Injection) -> None:
    """Schedule one injection, shifting times past the warmup phase."""
    at = WARMUP_S + inj.at_s
    until = None if inj.until_s is None else WARMUP_S + inj.until_s
    if inj.kind == "join":
        injector.join_at(inj.ac_id, at)
    elif inj.kind == "leave":
        injector.leave_at(inj.ac_id, at, reason=inj.reason)
    elif inj.kind == "flap":
        injector.flap_at(inj.ac_id, at, until, inj.half_period_s)
    elif inj.kind == "slow":
        injector.slow_at(inj.ac_id, at, inj.factor, until_time=until)
    elif inj.kind == "partition":
        me = [f"ac{inj.ac_id}"]
        others = [f"cn{g}" for g in range(N_GATEWAYS)] + ["arm"]
        injector.partition_at(me, others, at, until_time=until)
    elif inj.kind == "slow-link":
        for g in range(N_GATEWAYS):
            injector.slow_link_at(f"ac{inj.ac_id}", f"cn{g}", inj.extra_s,
                                  at, until_time=until)
    elif inj.kind == "upgrade":
        injector.upgrade_at(inj.ac_id, at, inj.version or "v2",
                            downtime_s=UPGRADE_DOWNTIME_S)


# -- the scenario catalog -------------------------------------------------

def _join_leave_waves(cfg: ChaosConfig) -> list[Injection]:
    w = cfg.window_s
    return [
        Injection("join", 0.10 * w, ac_id=4),
        Injection("join", 0.20 * w, ac_id=5),
        Injection("leave", 0.35 * w, ac_id=0, reason="departed"),
        Injection("leave", 0.50 * w, ac_id=1, reason=None),  # TTL evict
        Injection("join", 0.65 * w, ac_id=0),
        Injection("join", 0.75 * w, ac_id=1),
    ]


def _rolling_upgrade(cfg: ChaosConfig) -> list[Injection]:
    w = cfg.window_s
    return [
        Injection("upgrade", (0.10 + 0.20 * i) * w, ac_id=i, version="v2")
        for i in range(min(3, cfg.initial_accelerators))
    ]


def _partition(cfg: ChaosConfig) -> list[Injection]:
    w = cfg.window_s
    return [Injection("partition", 0.20 * w, ac_id=2, until_s=0.50 * w)]


def _straggler(cfg: ChaosConfig) -> list[Injection]:
    w = cfg.window_s
    return [Injection("slow", 0.15 * w, ac_id=1, factor=20.0,
                      until_s=0.60 * w)]


def _slow_link(cfg: ChaosConfig) -> list[Injection]:
    # Extra one-way latency below the RPC deadline: degradation without
    # eviction — pure SLO pressure.
    w = cfg.window_s
    return [Injection("slow-link", 0.15 * w, ac_id=0, extra_s=4e-4,
                      until_s=0.60 * w)]


def _heartbeat_flap(cfg: ChaosConfig) -> list[Injection]:
    # Half-period just over the TTL: each pause evicts, each resume
    # rejoins — maximal membership churn with a healthy daemon.
    w = cfg.window_s
    return [Injection("flap", 0.15 * w, ac_id=1, until_s=0.65 * w,
                      half_period_s=1.25 * TTL_S)]


def _autoscale_burst(cfg: ChaosConfig) -> list[Injection]:
    # The burst itself is the whole offered load; mid-run one pool
    # member silently dies so the scaler must also ride out a failure.
    w = cfg.window_s
    return [Injection("leave", 0.50 * w, ac_id=1, reason=None)]


def _burstify(cfg: ChaosConfig) -> ChaosConfig:
    # The whole population slams a 2-node, 1-slot pool in a fraction of
    # the window: backlog builds, the autoscaler must grow the pool.
    return dataclasses.replace(cfg, slots_per_device=1,
                               window_s=cfg.window_s * 0.15)


def _densify(cfg: ChaosConfig) -> ChaosConfig:
    # No fault: the population alone, squeezed onto a 2-node, 2-slot pool
    # so admission queues and higher-priority arrivals preempt leases.
    return dataclasses.replace(cfg, slots_per_device=2,
                               window_s=cfg.window_s * 0.2)


SCENARIOS: dict[str, Scenario] = {
    s.name: s for s in (
        Scenario(
            "join_leave_waves",
            "nodes join and leave (gracefully and silently) in waves",
            "ARM_LEAVE removes records now; silent leavers age out via "
            "TTL; joins wake queued waiters exactly once",
            _join_leave_waves),
        Scenario(
            "rolling_upgrade",
            "one node at a time: announce, restart upgraded, rejoin",
            "leases revoked at take-down fail over; the upgraded daemon "
            "rejoins through the discovery feed with its new version",
            _rolling_upgrade),
        Scenario(
            "partition",
            "one accelerator cut off from gateways and ARM, then healed",
            "reports stop crossing the cut, TTL evicts the node, "
            "in-flight sessions time out and fail over; heal rejoins",
            _partition),
        Scenario(
            "straggler",
            "one daemon 20x slower (gray failure), later restored",
            "late reports age out via the same TTL as a crash; the "
            "restored daemon's next report is a fresh join",
            _straggler),
        Scenario(
            "slow_link",
            "extra latency on one node's gateway links (no eviction)",
            "RPCs stay under their deadline, so no failover: the node "
            "keeps serving and the damage shows as SLO violations",
            _slow_link),
        Scenario(
            "heartbeat_flap",
            "one healthy daemon's reports flap on/off past the TTL",
            "repeated evict/rejoin churn; leases are revoked ARM-side "
            "while the untouched daemon keeps serving the slice",
            _heartbeat_flap),
        Scenario(
            "autoscale_burst",
            "burst load on a 2-node pool with autoscaling headroom",
            "backlog triggers scale-up through the discovery join path; "
            "idle rounds after the burst retire nodes (leave:scale-down)",
            _autoscale_burst, autoscale=True, initial=2, tweak=_burstify),
        Scenario(
            "steady",
            "no fault: the tenant population on a dense 2-node pool",
            "nothing breaks; higher-priority admissions preempt leases "
            "and the preempted sessions replay onto a fresh lease",
            lambda cfg: [], initial=2, tweak=_densify),
    )
}


@dataclasses.dataclass
class ChaosReport:
    """Outcome of one :func:`run` (virtual seconds throughout)."""

    scenario: str
    config: ChaosConfig
    duration_s: float
    submitted: int
    completed: int
    rejected: int
    aborted: int
    failed: int
    #: Sessions still alive when the drain wall expired.
    stuck: int
    #: Real-payload sessions whose d2h bytes mismatched.
    corrupted: int
    #: Failovers + preemption recoveries survived across all sessions.
    recoveries: int
    #: Leases the ARM revoked to admit a higher-priority tenant.
    preemptions: int
    #: Completed sessions slower than ``slo_s``.
    late: int
    #: late + failed + aborted + stuck.
    slo_violations: int
    latency_p50_s: float
    latency_p99_s: float
    #: tenant id -> ``{"count", "p50_s", "p99_s"}`` (completed sessions).
    per_tenant: dict[str, dict[str, float]]
    #: Jain fairness index over per-tenant weighted service (1.0 = fair).
    fairness: float
    #: Pool-membership churn (ARM counters).
    joins: int
    leaves: int
    ttl_evictions: int
    #: Per-down-event time until pool capacity recovered.
    recovery_latencies_s: list[float]
    #: Down events whose capacity never came back before the run ended.
    unrecovered: int
    scale_ups: int
    scale_downs: int
    #: SHA-256 over trace + membership log + payload digests.
    digest: str
    #: (tenant, request) -> sha256 of the returned payload bytes.
    buffer_digests: dict = dataclasses.field(repr=False, default_factory=dict)
    pool_events: list = dataclasses.field(repr=False, default_factory=list)
    registry: MetricsRegistry = dataclasses.field(repr=False, default=None)

    def recovery_p50_s(self) -> float:
        lat = sorted(self.recovery_latencies_s)
        return lat[len(lat) // 2] if lat else 0.0

    def recovery_max_s(self) -> float:
        return max(self.recovery_latencies_s, default=0.0)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name)
               for f in dataclasses.fields(self)
               if f.name not in ("config", "registry", "buffer_digests",
                                 "pool_events")}
        doc["config"] = dataclasses.asdict(self.config)
        doc["recovery_p50_s"] = self.recovery_p50_s()
        doc["recovery_max_s"] = self.recovery_max_s()
        return doc


def score_pool_events(events: _t.Sequence[tuple[float, str, int]],
                      ) -> tuple[list[float], int]:
    """Recovery latencies from the ARM's membership log.

    Walks ``arm.pool_events`` tracking usable pool capacity.  Every
    capacity-losing event that is not deliberate policy (``break``,
    ``evict``, any ``leave`` except ``leave:scale-down``) opens a
    recovery window; the window closes when capacity next returns to its
    pre-event level (whoever brings it back — the same node rejoining or
    a different one).  Returns the closed windows' latencies and the
    count never closed.
    """
    size = 0
    pending: list[tuple[float, int]] = []  # (down time, size to regain)
    latencies: list[float] = []
    for when, kind, _ac_id in events:
        if kind in ("join", "rejoin"):
            size += 1
            still = []
            for t_down, need in pending:
                if size >= need:
                    latencies.append(when - t_down)
                else:
                    still.append((t_down, need))
            pending = still
        elif kind == "break" or kind == "evict" or kind.startswith("leave"):
            size -= 1
            if kind != "leave:scale-down":
                pending.append((when, size + 1))
    return latencies, len(pending)


def _one_session(cluster: Cluster, arm, make_remote, tenant_id: str,
                 req_idx: int, arrival_s: float, payload,
                 reg: MetricsRegistry, tally: dict, trace: list,
                 buffers: dict):
    """One tenant session: lease, alloc, h2d, kernel, d2h, verify, release.

    ``payload`` is a seeded numpy array for verified sessions or a
    Phantom for timing-only ones.  The failover wrapper replays the
    buffer from its host shadow across lease losses, so the d2h bytes
    must match the h2d bytes no matter how much chaos hit in between.
    """
    engine = cluster.engine
    yield engine.sleep(arrival_s)
    t0 = engine.now
    real = not isinstance(payload, Phantom)
    try:
        ac = yield from tenant_accelerator(
            arm, make_remote, tenant_id,
            config=FailoverConfig(wait_for_replacement=True,
                                  max_failovers=MAX_FAILOVERS))
    except AllocationError:
        tally["rejected"] += 1
        reg.counter("chaos.rejected").inc()
        trace.append((tenant_id, req_idx, arrival_s, engine.now, "rejected"))
        return
    except ReproError as exc:
        # The lease was granted but the guarded first attach exhausted
        # its failover budget (e.g. every placement died under it).
        tally["failed"] += 1
        reg.counter("chaos.failed").inc()
        trace.append((tenant_id, req_idx, arrival_s, engine.now,
                      f"failed:{type(exc).__name__}"))
        return
    outcome = "ok"
    try:
        addr = yield from ac.mem_alloc(PAYLOAD_BYTES)
        yield from ac.memcpy_h2d(addr, payload)
        yield from ac.kernel_create("dscal")
        yield from ac.kernel_run(
            "dscal", {"x": addr, "n": PAYLOAD_BYTES // 8, "alpha": 1.0},
            real=False)
        out = yield from ac.memcpy_d2h(addr, PAYLOAD_BYTES)
        if real:
            got = out.tobytes() if isinstance(out, np.ndarray) else None
            if got != payload.tobytes():
                tally["corrupted"] += 1
                reg.counter("chaos.corrupted").inc()
            buffers[(tenant_id, req_idx)] = hashlib.sha256(
                got if got is not None else b"<phantom>").hexdigest()
        yield from ac.release_lease()
    except AllocationError:
        # Mid-session lease loss whose reacquire lost the quota race.
        outcome = "aborted"
        tally["aborted"] += 1
        reg.counter("chaos.aborted").inc()
    except ReproError as exc:
        outcome = f"failed:{type(exc).__name__}"
        tally["failed"] += 1
        reg.counter("chaos.failed").inc()
    finally:
        tally["recoveries"] += ac.failovers
    done = engine.now
    if outcome == "ok":
        latency = done - t0
        tally["completed"] += 1
        reg.histogram("chaos.latency_s").observe(latency)
        if latency > SLO_S:
            tally["late"] += 1
    trace.append((tenant_id, req_idx, arrival_s, done, outcome))


def run(scenario: Scenario | str, cfg: ChaosConfig | None = None,
        ) -> ChaosReport:
    """Run one chaos scenario against the offered tenant load and score it."""
    if isinstance(scenario, str):
        if scenario not in SCENARIOS:
            raise WorkloadError(f"unknown scenario {scenario!r}; "
                                f"try one of {sorted(SCENARIOS)}")
        scenario = SCENARIOS[scenario]
    cfg = cfg or ChaosConfig()
    if scenario.tweak is not None:
        cfg = scenario.tweak(cfg)
    if scenario.initial is not None:
        cfg = dataclasses.replace(cfg, initial_accelerators=scenario.initial)
    rng = random.Random(cfg.seed)
    reg = MetricsRegistry()

    cluster = Cluster(
        paper_testbed(n_compute=N_GATEWAYS, n_accelerators=N_ACCELERATORS),
        discovery=True, initial_accelerators=cfg.initial_accelerators)
    cluster.arm.admission.slots_per_device = cfg.slots_per_device
    cluster.arm.enable_discovery(ttl_s=TTL_S, sweep_period_s=SWEEP_PERIOD_S)
    for daemon in cluster.daemons:
        daemon.data_stall_s = DATA_STALL_S

    injector = FaultInjector(cluster)
    for inj in scenario.injections(cfg):
        _apply(injector, inj)

    autoscaler = None
    if scenario.autoscale:
        autoscaler = Autoscaler(cluster.arm, list(cluster.agents.values()),
                                max_nodes=N_ACCELERATORS, registry=reg)
        autoscaler.start()

    # Warmup: the first reports must land before load arrives (an empty
    # pool rejects valloc outright rather than queueing the tenant).
    cluster.run(until=WARMUP_S)

    tally = {"completed": 0, "rejected": 0, "aborted": 0, "failed": 0,
             "recoveries": 0, "late": 0, "corrupted": 0}
    trace: list[tuple] = []
    buffers: dict[tuple[str, int], str] = {}

    tenants = [f"t{i:04d}" for i in range(cfg.n_tenants)]
    for tenant_id in tenants:
        cluster.arm.admission.register(draw_spec(rng, tenant_id))

    retry = RetryPolicy(timeout_s=RPC_TIMEOUT_S)
    # ARM clients run without a deadline: the ARM itself is never the
    # injected fault, and queued valloc waits are legitimately unbounded.
    arms = [cluster.arm_client(g) for g in range(N_GATEWAYS)]
    makers = [
        (lambda g: (lambda h: cluster.remote(g, h, retry=retry)))(g)
        for g in range(N_GATEWAYS)
    ]

    procs = []
    submitted = 0
    # Every session's clock starts ``arrival_s`` after this instant.
    start = cluster.engine.now
    for i, tenant_id in enumerate(tenants):
        g = i % N_GATEWAYS
        for r in range(REQUESTS_PER_TENANT):
            arrival = WARMUP_S + rng.uniform(0.0, cfg.window_s)
            real = submitted % REAL_PAYLOAD_EVERY == 0
            # Drawn here (not inside the process) so RNG consumption is
            # independent of completion order.
            payload = (np.frombuffer(rng.randbytes(PAYLOAD_BYTES),
                                     dtype=np.uint8).copy()
                       if real else Phantom(PAYLOAD_BYTES))
            procs.append(cluster.engine.process(
                _one_session(cluster, arms[g], makers[g], tenant_id, r,
                             arrival, payload, reg, tally, trace, buffers),
                name=f"{tenant_id}.r{r}"))
            submitted += 1

    # The discovery agents and TTL sweeper keep the event heap non-empty
    # forever, so the run is bounded: all sessions done, or the wall.
    done = cluster.engine.all_of(procs)
    cluster.run(until=cluster.engine.any_of(
        [done, cluster.engine.timeout(DRAIN_TIMEOUT_S)]))
    stuck = sum(1 for p in procs if not p.triggered)
    cluster.arm.stop_discovery()
    if autoscaler is not None:
        autoscaler.stop()

    pool_events = list(cluster.arm.pool_events)
    latencies, unrecovered = score_pool_events(pool_events)
    hist = reg.histogram("chaos.recovery_latency_s")
    for lat in latencies:
        hist.observe(lat)
    if unrecovered:
        reg.counter("chaos.unrecovered").inc(unrecovered)
    slo_violations = tally["late"] + tally["failed"] + tally["aborted"] + stuck
    reg.counter("chaos.slo_violations").inc(slo_violations)
    reg.counter("chaos.stuck").inc(stuck)
    reg.gauge("chaos.pool_joins").set(cluster.arm.joins)
    reg.gauge("chaos.pool_leaves").set(cluster.arm.leaves)
    reg.gauge("chaos.ttl_evictions").set(cluster.arm.ttl_evictions)

    rows = sorted(trace)
    for tenant_id, _req, arrival_s, end, outcome in rows:
        if outcome == "ok":
            reg.histogram("chaos.tenant_latency_s", tenant=tenant_id).observe(
                end - (start + arrival_s))
    per_tenant = {
        dict(hist.labels)["tenant"]: {"count": float(hist.count),
                                      "p50_s": hist.percentile(50.0),
                                      "p99_s": hist.percentile(99.0)}
        for hist in reg.histograms("chaos.tenant_latency_s")}
    # Weighted service (lease seconds / weight) per tenant -> fairness.
    service = cluster.arm.admission.service_s
    fairness = jain_fairness([service[t] for t in sorted(service)])
    reg.gauge("chaos.fairness_jain").set(fairness)
    reg.gauge("chaos.preemptions").set(cluster.arm.preemptions)

    sha = hashlib.sha256()
    for row in rows:
        sha.update(repr(row).encode())
    for ev in pool_events:
        sha.update(repr(ev).encode())
    for key in sorted(buffers):
        sha.update(repr((key, buffers[key])).encode())
    if autoscaler is not None:
        for ev in autoscaler.events:
            sha.update(repr(ev).encode())

    agg = reg.histogram("chaos.latency_s")
    return ChaosReport(
        scenario=scenario.name,
        config=cfg,
        duration_s=cluster.engine.now,
        submitted=submitted,
        completed=tally["completed"],
        rejected=tally["rejected"],
        aborted=tally["aborted"],
        failed=tally["failed"],
        stuck=stuck,
        corrupted=tally["corrupted"],
        recoveries=tally["recoveries"],
        preemptions=cluster.arm.preemptions,
        late=tally["late"],
        slo_violations=slo_violations,
        latency_p50_s=agg.percentile(50.0) if agg.count else 0.0,
        latency_p99_s=agg.percentile(99.0) if agg.count else 0.0,
        per_tenant=per_tenant,
        fairness=fairness,
        joins=cluster.arm.joins,
        leaves=cluster.arm.leaves,
        ttl_evictions=cluster.arm.ttl_evictions,
        recovery_latencies_s=latencies,
        unrecovered=unrecovered,
        scale_ups=autoscaler.scale_ups if autoscaler else 0,
        scale_downs=autoscaler.scale_downs if autoscaler else 0,
        digest=sha.hexdigest(),
        buffer_digests=buffers,
        pool_events=pool_events,
        registry=reg,
    )


def format_report(report: ChaosReport) -> str:
    """Human-readable summary (the CLI's output)."""
    cfg = report.config
    lines = [
        f"scenario {report.scenario}: "
        f"{SCENARIOS[report.scenario].description}",
        f"tenants {cfg.n_tenants}  accelerators {N_ACCELERATORS} "
        f"(initial {cfg.initial_accelerators})  "
        f"slots/dev {cfg.slots_per_device}  seed {cfg.seed}",
        f"submitted {report.submitted}  completed {report.completed}  "
        f"rejected {report.rejected}  aborted {report.aborted}  "
        f"failed {report.failed}  stuck {report.stuck}  "
        f"corrupted {report.corrupted}",
        f"pool churn: joins {report.joins}  leaves {report.leaves}  "
        f"ttl evictions {report.ttl_evictions}  "
        f"recoveries ridden out {report.recoveries}  "
        f"ARM preemptions {report.preemptions}",
        f"recovery latency: events {len(report.recovery_latencies_s)}  "
        f"p50 {report.recovery_p50_s() * 1e3:.3f} ms  "
        f"max {report.recovery_max_s() * 1e3:.3f} ms  "
        f"unrecovered {report.unrecovered}",
        f"SLO ({SLO_S * 1e3:.1f} ms): violations "
        f"{report.slo_violations} (late {report.late}  "
        f"failed {report.failed}  aborted {report.aborted}  "
        f"stuck {report.stuck})",
        f"session latency p50 {report.latency_p50_s * 1e3:.3f} ms  "
        f"p99 {report.latency_p99_s * 1e3:.3f} ms",
        f"fairness (Jain, weighted service) {report.fairness:.4f} over "
        f"{len(report.per_tenant)} tenants served",
    ]
    if report.scale_ups or report.scale_downs:
        lines.append(f"autoscaler: scale-ups {report.scale_ups}  "
                     f"scale-downs {report.scale_downs}")
    lines.append(f"trace digest {report.digest[:16]}")
    return "\n".join(lines)


def check_expectations(report: ChaosReport, bounds: dict) -> list[str]:
    """Compare a report against checked-in expectation bounds.

    ``bounds`` is one scenario's entry from
    ``benchmarks/chaos_expectations.json``.  Returns human-readable
    violation strings (empty = within bounds).
    """
    problems: list[str] = []

    def gate(label: str, value, limit, ok) -> None:
        if limit is not None and not ok(value, limit):
            problems.append(f"{report.scenario}: {label} {value} "
                            f"violates bound {limit}")

    gate("completed", report.completed, bounds.get("min_completed"),
         lambda v, b: v >= b)
    gate("failed", report.failed, bounds.get("max_failed"),
         lambda v, b: v <= b)
    gate("stuck", report.stuck, bounds.get("max_stuck"), lambda v, b: v <= b)
    gate("corrupted", report.corrupted, bounds.get("max_corrupted"),
         lambda v, b: v <= b)
    gate("slo_violations", report.slo_violations,
         bounds.get("max_slo_violations"), lambda v, b: v <= b)
    gate("unrecovered", report.unrecovered, bounds.get("max_unrecovered"),
         lambda v, b: v <= b)
    gate("recovery events", len(report.recovery_latencies_s),
         bounds.get("min_recovery_events"), lambda v, b: v >= b)
    gate("recovery max (ms)", round(report.recovery_max_s() * 1e3, 3),
         bounds.get("max_recovery_latency_ms"), lambda v, b: v <= b)
    gate("scale_ups", report.scale_ups, bounds.get("min_scale_ups"),
         lambda v, b: v >= b)
    return problems
