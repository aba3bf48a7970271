"""Extension C: cluster utilization — static vs dynamic assignment.

The economics behind the paper (Sect. I/III): a mixed workload in which
jobs want 0-3 GPUs per node is run through a FIFO batch scheduler on

* a **static** cluster (one GPU hard-wired per node, so a 3-GPU job must
  occupy 3 nodes and CPU-only jobs park their GPU idle), and
* a **dynamic** cluster (same node count, same number of GPUs, but pooled
  and network-attached per Fig. 3b).

Reported: makespan, mean job wait, and GPU utilization for both policies.
"""

from __future__ import annotations

import random
import typing as _t

from ...cluster.scheduler import JobSpec, run_job_mix
from ..series import FigureResult

N_NODES = 4
N_GPUS = 4


def make_job_mix(n_jobs: int = 40, seed: int = 2012) -> list[JobSpec]:
    """A varied single-node job mix (the paper's motivating workload).

    Mix: ~25% CPU-only, the rest wanting 1-3 GPUs on one node; bursty
    arrivals; minute-scale durations.
    """
    rng = random.Random(seed)
    jobs = []
    t = 0.0
    for i in range(n_jobs):
        t += rng.expovariate(1 / 30.0)
        gpus = rng.choice([0, 0, 1, 1, 2, 2, 3, 3])
        duration = rng.uniform(60.0, 600.0)
        jobs.append(JobSpec(name=f"job{i}", arrival_s=t,
                            duration_s=duration, n_gpus=gpus))
    return jobs


def run(quick: bool = False, n_jobs: int | None = None,
        seed: int = 2012) -> FigureResult:
    jobs = make_job_mix(n_jobs or (15 if quick else 40), seed=seed)
    static = run_job_mix(jobs, N_NODES, N_GPUS, "static", gpus_per_node=1)
    dynamic = run_job_mix(jobs, N_NODES, N_GPUS, "dynamic")
    fig = FigureResult(
        fig_id="ext-utilization",
        title="Job-mix scheduling: static vs dynamic accelerator cluster",
        xlabel="metric", ylabel="value",
        notes=f"{len(jobs)} single-node jobs wanting 0-3 GPUs, FIFO, "
              f"{N_NODES} nodes / {N_GPUS} GPUs",
    )
    metrics = ["makespan_min", "mean_wait_min", "gpu_util_pct", "node_util_pct"]
    xs = list(range(len(metrics)))
    fig.add("metric-names", xs, xs)  # axis legend carried in notes
    fig.notes += f"; metrics={metrics}"
    for res in (static, dynamic):
        fig.add(res.policy, xs, [
            res.makespan / 60.0,
            res.mean_wait / 60.0,
            res.gpu_utilization() * 100.0,
            res.node_utilization() * 100.0,
        ])
    return fig


def check(fig: FigureResult) -> None:
    static = fig.get("static")
    dynamic = fig.get("dynamic")
    makespan_s, wait_s, gpu_s, _ = static.y
    makespan_d, wait_d, gpu_d, _ = dynamic.y
    # The dynamic pool finishes the mix no later and with shorter queues.
    assert makespan_d <= makespan_s * 1.0001, (makespan_d, makespan_s)
    assert wait_d <= wait_s * 1.0001, (wait_d, wait_s)
    # And it keeps its GPUs busier.
    assert gpu_d >= gpu_s, (gpu_d, gpu_s)
