"""Extension H: end-to-end batch execution on the live dynamic cluster.

Where Ext-C compares scheduling *policies* on an abstract model, this
study runs a real mixed workload — multi-GPU QR factorizations and
GPU-burn jobs with different accelerator demands — through
:class:`~repro.jobs.JobService` on a fully simulated cluster, in the shape
of Sect. V-B's batch-script flow: one lease slot per device, so a job
holds its accelerators exclusively, and no warm caching, so a finished
job returns every lease.  Jobs start FIFO in list order once their
accelerators are free.  It reports what the operator would see: job
waits, makespan, and the ARM's measured pool utilization, cross-checked
against per-device counters from :mod:`repro.analysis.metrics`.  The
CPU-only point is Ext-C's (:mod:`.ext_utilization`): a job here needs at
least one accelerator.
"""

from __future__ import annotations

from ...cluster import Cluster, paper_testbed
from ...jobs import JobService, JobSpec
from ...mpisim import Phantom
from ...units import MiB
from ...workloads.linalg import qr_factorize
from ..metrics import collect
from ..series import FigureResult

TENANT = "batch"


def _qr_job(n: int, n_gpus: int):
    def body(ctx):
        res = yield from qr_factorize(ctx.engine, ctx.cpu,
                                      ctx.accelerators, n, nb=128)
        return res.gflops

    return JobSpec(f"qr{n}x{n_gpus}g", TENANT, body, n_accelerators=n_gpus)


def _burn_job(name: str, items: int, n_gpus: int, arrival: float = 0.0):
    def body(ctx):
        ptrs = []
        for ac in ctx.accelerators:
            ptrs.append((yield from ac.mem_alloc(8 * MiB)))
        for _ in range(items):
            for ac, p in zip(ctx.accelerators, ptrs):
                yield from ac.memcpy_h2d(p, Phantom(8 * MiB))
                yield from ac.kernel_run(
                    "dgemm", {"A": 0, "B": 0, "C": 0,
                              "m": 1024, "n": 1024, "k": 1024}, real=False)
        for ac, p in zip(ctx.accelerators, ptrs):
            yield from ac.mem_free(p)
        return items

    return JobSpec(name, TENANT, body, n_accelerators=n_gpus,
                   arrival_s=arrival)


def run(quick: bool = False) -> FigureResult:
    cluster = Cluster(paper_testbed(n_compute=2, n_accelerators=3))
    cluster.arm.admission.slots_per_device = 1
    service = JobService(cluster, caching=False)
    qr_n = 1024 if quick else 2048
    jobs = [
        _qr_job(qr_n, 3),
        _burn_job("burn-1g", 4 if quick else 20, 1),
        _qr_job(qr_n // 2, 1),
        _burn_job("burn-2g", 4 if quick else 15, 2, arrival=0.01),
    ]
    records = service.run_all(jobs)
    report = collect(cluster)

    fig = FigureResult(
        fig_id="ext-batch",
        title="Mixed batch workload on the live dynamic cluster",
        xlabel="job", ylabel="seconds",
        notes="2 compute nodes + 3 pooled accelerators, one lease per "
              "device; FIFO job service",
    )
    xs = list(range(len(records)))
    fig.add("start", xs, [r.start_s for r in records])
    fig.add("wait", xs, [r.start_s - r.spec.arrival_s for r in records])
    fig.add("runtime", xs, [r.end_s - r.start_s for r in records])
    fig.add("ok", xs, [1.0 if r.ok else 0.0 for r in records])
    fig.notes += ("; jobs=" + ",".join(r.spec.name for r in records)
                  + f"; pool_utilization={report.pool_utilization:.3f}"
                  + f"; offload_bytes={report.total_offload_bytes}")
    # Carry the aggregates as a tiny series for the check.
    fig.add("aggregates", [0, 1, 2],
            [report.pool_utilization,
             report.mean_gpu_utilization,
             float(report.total_offload_bytes)])
    return fig


def check(fig: FigureResult) -> None:
    assert all(v == 1.0 for v in fig.get("ok").y), "a batch job failed"
    # Jobs are listed in arrival order and start FIFO in that order.
    starts = fig.get("start").y
    assert starts == sorted(starts), starts
    pool_util, gpu_util, offload = fig.get("aggregates").y
    # The pool did real, measurable work, as the ARM's lease books show.
    assert 0.05 < pool_util <= 1.0, pool_util
    assert 0.0 < gpu_util <= 1.0, gpu_util
    assert offload > 100 * MiB
    # Competition for the 3-GPU pool forced someone to queue.
    assert max(fig.get("wait").y) > 0.0
