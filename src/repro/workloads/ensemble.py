"""Open-loop ensemble workload for the job-service front door.

Generates a Pegasus-style ensemble — many small jobs with priorities,
tenants, and DAG dependencies — and drives it through
:class:`~repro.jobs.JobService` over one simulated cluster.  Arrivals are
open loop (drawn up front from the seeded RNG, independent of
completions), job bodies run real numerics on device buffers (GEMM panel
updates, Cholesky trailing updates, MP2C-style vector pipelines, memcpy
round trips) and every body verifies its result against numpy before
hashing it.

The run is deterministic end to end: the same
:class:`EnsembleConfig` (including ``seed``) produces the same jobs, the
same buffers, and the same :attr:`EnsembleReport.digest` — and because
the digest covers only timing-independent outcomes (job name, tenant,
terminal state, result hash), it is *identical with the warm paths on or
off*.  Throughput (virtual jobs/s) is what changes; that ratio is the
``jobs_throughput`` benchmark's speedup.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import typing as _t

import numpy as np

from ..cluster import Cluster, paper_testbed
from ..core.api import run_parallel
from ..errors import WorkloadError
from ..jobs import JobService, JobSpec, JobState
from ..obs import MetricsRegistry

#: (name, priority, WFQ weight, fraction of jobs) — drawn per job group.
DEFAULT_CLASSES: tuple[tuple[str, int, float, float], ...] = (
    ("gold", 1, 4.0, 0.20),
    ("silver", 0, 2.0, 0.30),
    ("bronze", 0, 1.0, 0.50),
)


@dataclasses.dataclass(frozen=True)
class EnsembleConfig:
    """Shape of one ensemble run."""

    n_jobs: int = 96
    n_accelerators: int = 4
    n_gateways: int = 2
    slots_per_device: int = 4
    #: Arrivals are uniform over ``[0, window_s)`` of virtual time.
    window_s: float = 0.5e-3
    seed: int = 0
    classes: tuple[tuple[str, int, float, float], ...] = DEFAULT_CLASSES
    #: Warm-path switches (the benchmark's independent variable).
    coalescing: bool = True
    caching: bool = True
    coalesce_window_s: float = 0.0
    lease_ttl_s: float = 50e-3

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise WorkloadError("n_jobs must be >= 1")
        if not 1 <= self.n_accelerators <= 8:
            raise WorkloadError("n_accelerators must be in 1..8")
        if self.n_gateways < 1:
            raise WorkloadError("n_gateways must be >= 1")
        if self.slots_per_device < 1:
            raise WorkloadError("slots_per_device must be >= 1")
        if not self.window_s >= 0:
            raise WorkloadError("window_s must be >= 0")


@dataclasses.dataclass
class EnsembleReport:
    """Outcome of :func:`run` (times in virtual seconds)."""

    config: EnsembleConfig
    submitted: int
    done: int
    failed: int
    cancelled: int
    #: Virtual time of the last job's completion (excludes the warm-pool
    #: drain — the service stays warm between ensembles).
    duration_s: float
    jobs_per_s: float
    #: Mean compute-busy fraction across devices over ``duration_s``.
    utilization: float
    latency_p50_s: float
    latency_p99_s: float
    #: tenant -> {"count", "p50_s", "p99_s"} over completed jobs.
    per_tenant: dict[str, dict[str, float]]
    #: Cross-tenant coalescing accounting (zeros when coalescing is off).
    coalesce: dict[str, float]
    #: Kernel-cache and lease-pool accounting (zeros when caching is off).
    kernel_cache_hits: int
    kernel_cache_misses: int
    kernel_cache_hit_rate: float
    leases_reused: int
    leases_cold: int
    leases_evicted: int
    leases_expired: int
    alloc_cache_hits: int
    alloc_cache_misses: int
    alloc_cache_hit_rate: float
    #: SHA-256 over sorted (job, tenant, state, result-hash) rows — the
    #: timing-independent outcome trace.  Identical across warm-path
    #: on/off and across replays of the same seed.
    digest: str
    registry: MetricsRegistry = dataclasses.field(repr=False, default=None)


# -- job bodies ------------------------------------------------------------
#
# Each body is a closure over its RNG-drawn problem; it uploads real
# payloads, launches registered kernels, reads results back, verifies
# against numpy, and returns the SHA-256 of the result bytes.

def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise WorkloadError(f"ensemble numerics check failed: {what}")


def make_gemm_body(rng: random.Random, seed: int):
    """One blocked panel update: C = A @ B (the QR/LU workhorse)."""
    m = rng.choice((16, 24, 32))
    nrng = np.random.default_rng(seed)
    a = nrng.standard_normal((m, m))
    b = nrng.standard_normal((m, m))

    def body(ctx):
        ac = ctx.accelerators[0]
        yield from ac.kernel_create("dgemm")
        da = yield from ac.mem_alloc(a.nbytes)
        db = yield from ac.mem_alloc(b.nbytes)
        dc = yield from ac.mem_alloc(a.nbytes)
        yield from ac.memcpy_h2d(da, a)
        yield from ac.memcpy_h2d(db, b)
        yield from ac.kernel_run("dgemm", {
            "m": m, "n": m, "k": m, "A": da, "B": db, "C": dc,
            "alpha": 1.0, "beta": 0.0})
        out = yield from ac.memcpy_d2h(dc, a.nbytes)
        c = np.frombuffer(out, dtype=np.float64).reshape(m, m)
        _check(np.allclose(c, a @ b), "dgemm panel")
        return _sha(c)

    return body


def make_cholesky_body(rng: random.Random, seed: int):
    """One Cholesky step: panel solve (dtrsm) + trailing update (dsyrk)."""
    nb = rng.choice((8, 16))
    m = 2 * nb
    nrng = np.random.default_rng(seed)
    t = np.tril(nrng.standard_normal((nb, nb))) + nb * np.eye(nb)
    panel = nrng.standard_normal((m, nb))
    trail = nrng.standard_normal((m, m))
    trail = trail + trail.T + 2 * m * np.eye(m)

    def body(ctx):
        ac = ctx.accelerators[0]
        yield from ac.kernel_create("dtrsm")
        yield from ac.kernel_create("dsyrk")
        dt = yield from ac.mem_alloc(t.nbytes)
        dp = yield from ac.mem_alloc(panel.nbytes)
        dc = yield from ac.mem_alloc(trail.nbytes)
        yield from ac.memcpy_h2d(dt, t)
        yield from ac.memcpy_h2d(dp, panel)
        yield from ac.memcpy_h2d(dc, trail)
        yield from ac.kernel_run("dtrsm", {"m": m, "nb": nb,
                                           "T": dt, "B": dp})
        yield from ac.kernel_run("dsyrk", {"n": m, "k": nb,
                                           "A": dp, "C": dc,
                                           "alpha": -1.0, "beta": 1.0})
        out = yield from ac.memcpy_d2h(dc, trail.nbytes)
        got = np.frombuffer(out, dtype=np.float64).reshape(m, m)
        solved = np.linalg.solve(t, panel.T).T
        _check(np.allclose(got, trail - solved @ solved.T), "cholesky step")
        return _sha(got)

    return body


def make_mp2c_body(rng: random.Random, seed: int):
    """An MP2C-style vector pipeline: fill, daxpy, dscal, ddot."""
    n = rng.choice((256, 512, 1024))
    nrng = np.random.default_rng(seed)
    x = nrng.standard_normal(n)
    alpha = float(nrng.uniform(0.5, 2.0))

    def body(ctx):
        ac = ctx.accelerators[0]
        yield from ac.kernel_create("fill")
        yield from ac.kernel_create("daxpy")
        yield from ac.kernel_create("dscal")
        yield from ac.kernel_create("ddot")
        dx = yield from ac.mem_alloc(8 * n)
        dy = yield from ac.mem_alloc(8 * n)
        dout = yield from ac.mem_alloc(8)
        yield from ac.memcpy_h2d(dx, x)
        yield from ac.kernel_run("fill", {"dst": dy, "n": n, "value": 1.0})
        yield from ac.kernel_run("daxpy", {"x": dx, "y": dy, "n": n,
                                           "alpha": alpha})
        yield from ac.kernel_run("dscal", {"x": dy, "n": n, "alpha": 0.5})
        yield from ac.kernel_run("ddot", {"x": dy, "y": dy, "out": dout,
                                          "n": n})
        out = yield from ac.memcpy_d2h(dout, 8)
        got = float(np.frombuffer(out, dtype=np.float64)[0])
        y = 0.5 * (1.0 + alpha * x)
        _check(np.isclose(got, float(y @ y)), "mp2c pipeline")
        return _sha(np.array([got]))

    return body


def make_memcpy_body(rng: random.Random, seed: int):
    """A two-accelerator staging round trip (h2d + d2h, verified)."""
    n = rng.choice((2048, 4096))
    nrng = np.random.default_rng(seed)
    payload = nrng.standard_normal(n)

    def body(ctx):
        halves = np.split(payload, len(ctx.accelerators))

        def one(ac, part):
            addr = yield from ac.mem_alloc(part.nbytes)
            yield from ac.memcpy_h2d(addr, part)
            out = yield from ac.memcpy_d2h(addr, part.nbytes)
            got = np.frombuffer(out, dtype=np.float64)
            _check(np.array_equal(got, part), "memcpy round trip")
            return _sha(got)

        digests = yield from run_parallel(
            ctx.engine, [one(ac, part)
                         for ac, part in zip(ctx.accelerators, halves)])
        return hashlib.sha256("".join(digests).encode()).hexdigest()

    return body


_BODY_MAKERS = (make_gemm_body, make_cholesky_body, make_mp2c_body,
                make_memcpy_body)


def generate_specs(cfg: EnsembleConfig) -> list[JobSpec]:
    """Draw the ensemble: bodies, classes, arrivals, and DAG shapes.

    Jobs come in groups of four sharing a tenant class; each group's
    dependency shape is drawn from the RNG — independent, a chain
    (a -> b -> c -> d), or a diamond (b and c fan out from a, d joins
    them).  Everything is a pure function of ``cfg.seed``, so the warm
    and cold runs of the benchmark execute the identical ensemble.
    """
    rng = random.Random(cfg.seed)
    specs: list[JobSpec] = []
    group = 0
    while len(specs) < cfg.n_jobs:
        roll = rng.random()
        acc = 0.0
        tenant, priority = cfg.classes[-1][:2]
        for cname, cprio, _w, frac in cfg.classes:
            acc += frac
            if roll < acc:
                tenant, priority = cname, cprio
                break
        shape = rng.choice(("independent", "chain", "diamond"))
        arrival = rng.uniform(0.0, cfg.window_s)
        names = [f"g{group:03d}.{i}" for i in range(4)]
        deps_by_shape = {
            "independent": [(), (), (), ()],
            "chain": [(), (names[0],), (names[1],), (names[2],)],
            "diamond": [(), (names[0],), (names[0],),
                        (names[1], names[2])],
        }
        for i, (name, deps) in enumerate(zip(names, deps_by_shape[shape])):
            maker = _BODY_MAKERS[(group + i) % len(_BODY_MAKERS)]
            body_seed = cfg.seed * 1_000_003 + group * 101 + i
            body = maker(rng, body_seed)
            n_acs = 2 if maker is make_memcpy_body else 1
            specs.append(JobSpec(
                name=name, tenant=tenant, body=body,
                n_accelerators=min(n_acs, cfg.n_accelerators),
                priority=priority, deps=deps, arrival_s=arrival))
            if len(specs) == cfg.n_jobs:
                break
        group += 1
    return specs


def run(cfg: EnsembleConfig | None = None) -> EnsembleReport:
    """Build a cluster + job service, drive the ensemble, report."""
    cfg = cfg or EnsembleConfig()
    cluster = Cluster(paper_testbed(n_compute=cfg.n_gateways,
                                    n_accelerators=cfg.n_accelerators))
    cluster.arm.admission.slots_per_device = cfg.slots_per_device
    service = JobService(cluster,
                         coalescing=cfg.coalescing,
                         caching=cfg.caching,
                         window_s=cfg.coalesce_window_s,
                         lease_ttl_s=cfg.lease_ttl_s)
    for cname, _cprio, weight, _frac in cfg.classes:
        service.ensure_tenant(cname, weight=weight)
    specs = generate_specs(cfg)
    records = service.run_all(specs)

    duration = max((r.end_s for r in records if r.end_s is not None),
                   default=0.0)
    busy = sum(node.gpu.busy_time for node in cluster.accelerator_nodes)
    util = (busy / (duration * len(cluster.accelerator_nodes))
            if duration > 0 else 0.0)

    reg = service.metrics
    agg = reg.histogram("jobs.latency_s")
    per_tenant: dict[str, dict[str, float]] = {}
    for hist in reg.histograms("job.latency_s"):
        labels = dict(hist.labels)
        per_tenant[labels["tenant"]] = {
            "count": float(hist.count),
            "p50_s": hist.percentile(50.0),
            "p99_s": hist.percentile(99.0),
        }

    sha = hashlib.sha256()
    for rec in sorted(records, key=lambda r: r.spec.name):
        outcome = (rec.result if rec.state is JobState.DONE
                   else type(rec.error).__name__ if rec.error else "")
        sha.update(repr((rec.spec.name, rec.spec.tenant, rec.state.value,
                         outcome)).encode())

    kc = service.kernel_cache
    lp = service.lease_pool
    return EnsembleReport(
        config=cfg,
        submitted=len(records),
        done=service.jobs_done,
        failed=service.jobs_failed,
        cancelled=service.jobs_cancelled,
        duration_s=duration,
        jobs_per_s=service.jobs_done / duration if duration > 0 else 0.0,
        utilization=util,
        latency_p50_s=agg.percentile(50.0) if agg.count else 0.0,
        latency_p99_s=agg.percentile(99.0) if agg.count else 0.0,
        per_tenant=per_tenant,
        coalesce=service.coalesce_stats(),
        kernel_cache_hits=kc.hits if kc is not None else 0,
        kernel_cache_misses=kc.misses if kc is not None else 0,
        kernel_cache_hit_rate=kc.hit_rate if kc is not None else 0.0,
        leases_reused=lp.reused if lp is not None else 0,
        leases_cold=service.leases_cold,
        leases_evicted=lp.evicted if lp is not None else 0,
        leases_expired=lp.expired if lp is not None else 0,
        alloc_cache_hits=lp.alloc_hits if lp is not None else 0,
        alloc_cache_misses=lp.alloc_misses if lp is not None else 0,
        alloc_cache_hit_rate=lp.alloc_hit_rate if lp is not None else 0.0,
        digest=sha.hexdigest(),
        registry=reg,
    )


def format_report(report: EnsembleReport) -> str:
    """Human-readable summary (the CLI's output)."""
    cfg = report.config
    c = report.coalesce
    lines = [
        f"jobs {report.submitted}  accelerators {cfg.n_accelerators}  "
        f"gateways {cfg.n_gateways}  slots/dev {cfg.slots_per_device}  "
        f"seed {cfg.seed}",
        f"coalescing {'on' if cfg.coalescing else 'off'}  "
        f"caching {'on' if cfg.caching else 'off'}",
        f"done {report.done}  failed {report.failed}  "
        f"cancelled {report.cancelled}",
        f"virtual duration {report.duration_s * 1e3:.3f} ms  "
        f"throughput {report.jobs_per_s:.0f} jobs/s  "
        f"utilization {report.utilization * 100:.1f}%",
        f"latency p50 {report.latency_p50_s * 1e6:.1f} us  "
        f"p99 {report.latency_p99_s * 1e6:.1f} us",
        f"coalesced frames {c['frames_out']:.0f} from {c['subs_in']:.0f} "
        f"sub-frames  merged ratio {c['merged_ratio'] * 100:.0f}%  "
        f"round trips saved {c['roundtrips_saved']:.0f}",
        f"kernel cache hits {report.kernel_cache_hits} / "
        f"{report.kernel_cache_hits + report.kernel_cache_misses} "
        f"({report.kernel_cache_hit_rate * 100:.0f}%)",
        f"alloc cache hits {report.alloc_cache_hits} / "
        f"{report.alloc_cache_hits + report.alloc_cache_misses} "
        f"({report.alloc_cache_hit_rate * 100:.0f}%)",
        f"leases reused {report.leases_reused}  cold {report.leases_cold}  "
        f"evicted {report.leases_evicted}  expired {report.leases_expired}",
        f"outcome digest {report.digest[:16]}",
    ]
    for tenant in sorted(report.per_tenant):
        row = report.per_tenant[tenant]
        lines.append(
            f"  {tenant:8s} count {int(row['count']):3d}  "
            f"p50 {row['p50_s'] * 1e6:8.1f} us  "
            f"p99 {row['p99_s'] * 1e6:8.1f} us")
    return "\n".join(lines)
