"""Batch-scheduling model: static vs dynamic accelerator clusters.

The paper motivates the dynamic architecture with utilization economics
(Sect. I/III): under a static N-to-1 mapping, a single-node job that wants
g > N GPUs must spread over g nodes (premature MPI hybridization), and a
CPU-only job parks its node's GPU idle.  With a network-attached pool, a
job takes exactly the nodes it needs plus exactly the accelerators it
needs.

This module runs the same job mix through both policies with a FIFO
scheduler on the DES clock and reports makespan, waiting times, and GPU /
node utilization — the extension study the paper's conclusion announces
as future work (dynamic assignment strategy, Fig. 3b).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..errors import ClusterConfigError
from ..sim import Engine, Event


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One single-node batch job: when it arrives and what it needs."""

    name: str
    arrival_s: float
    duration_s: float
    n_gpus: int = 0  # total GPUs wanted by the job

    def __post_init__(self) -> None:
        if self.arrival_s < 0 or self.duration_s <= 0:
            raise ClusterConfigError("bad job timing")
        if self.n_gpus < 0:
            raise ClusterConfigError("bad job resources")


@dataclasses.dataclass
class JobRecord:
    """Scheduling outcome of one job."""

    spec: JobSpec
    start_s: float
    end_s: float
    nodes_used: int
    gpus_used: int

    @property
    def wait_s(self) -> float:
        return self.start_s - self.spec.arrival_s


@dataclasses.dataclass
class ScheduleResult:
    """Aggregate metrics of one policy run."""

    policy: str
    records: list[JobRecord]
    n_nodes: int
    n_gpus: int

    @property
    def makespan(self) -> float:
        return max(r.end_s for r in self.records) if self.records else 0.0

    @property
    def mean_wait(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.wait_s for r in self.records) / len(self.records)

    def gpu_utilization(self) -> float:
        """Busy GPU-seconds over available GPU-seconds until makespan."""
        total = self.makespan * self.n_gpus
        if total <= 0:
            return 0.0
        busy = sum(r.spec.n_gpus * (r.end_s - r.start_s) for r in self.records)
        return busy / total

    def node_utilization(self) -> float:
        total = self.makespan * self.n_nodes
        if total <= 0:
            return 0.0
        busy = sum(r.nodes_used * (r.end_s - r.start_s) for r in self.records)
        return busy / total


def _footprint_static(job: JobSpec, gpus_per_node: int) -> tuple[int, int]:
    """(nodes, gpus) a job occupies on a static cluster.

    GPUs come only with nodes: a job wanting g GPUs must hold
    ceil(g / gpus_per_node) nodes (premature hybridization), and every
    held node's GPUs are unavailable to others.
    """
    if gpus_per_node > 0:
        nodes_for_gpus = -(-job.n_gpus // gpus_per_node)
    else:
        nodes_for_gpus = 0 if job.n_gpus == 0 else 10**9
    nodes = max(1, nodes_for_gpus)
    return nodes, nodes * gpus_per_node


def _footprint_dynamic(job: JobSpec, gpus_per_node: int) -> tuple[int, int]:
    """(nodes, gpus) on a dynamic cluster: exactly what the job asks for."""
    return 1, job.n_gpus


class FifoScheduler:
    """Strict-FIFO admission over counted node and GPU resources."""

    def __init__(self, engine: Engine, n_nodes: int, n_gpus: int,
                 footprint: _t.Callable[[JobSpec, int], tuple[int, int]],
                 gpus_per_node: int, policy: str):
        if n_nodes < 1 or n_gpus < 0:
            raise ClusterConfigError("bad cluster size")
        self.engine = engine
        self.n_nodes = n_nodes
        self.n_gpus = n_gpus
        self.free_nodes = n_nodes
        self.free_gpus = n_gpus
        self.footprint = footprint
        self.gpus_per_node = gpus_per_node
        self.policy = policy
        self.records: list[JobRecord] = []
        self._queue: list[tuple[JobSpec, int, int, Event]] = []

    def submit(self, job: JobSpec) -> Event:
        """Schedule a job's arrival; returns its completion event."""
        done = self.engine.event()

        def arrive():
            if self.engine.now < job.arrival_s:
                yield self.engine.sleep(job.arrival_s - self.engine.now)
            nodes, gpus = self.footprint(job, self.gpus_per_node)
            if nodes > self.n_nodes or gpus > self.n_gpus:
                raise ClusterConfigError(
                    f"job {job.name} needs {nodes} nodes / {gpus} GPUs, "
                    f"cluster has {self.n_nodes}/{self.n_gpus}")
            self._queue.append((job, nodes, gpus, done))
            self._admit()
            if False:
                yield  # pragma: no cover

        self.engine.process(arrive(), name=f"arrive:{job.name}")
        return done

    def _admit(self) -> None:
        # Strict FIFO: the head of the queue blocks everyone behind it.
        while self._queue:
            job, nodes, gpus, done = self._queue[0]
            if nodes > self.free_nodes or gpus > self.free_gpus:
                return
            self._queue.pop(0)
            self.free_nodes -= nodes
            self.free_gpus -= gpus
            self.engine.process(self._run(job, nodes, gpus, done),
                                name=f"run:{job.name}")

    def _run(self, job: JobSpec, nodes: int, gpus: int, done: Event):
        start = self.engine.now
        yield self.engine.sleep(job.duration_s)
        self.records.append(JobRecord(job, start, self.engine.now, nodes, gpus))
        self.free_nodes += nodes
        self.free_gpus += gpus
        done.succeed(None)
        self._admit()


def run_job_mix(jobs: _t.Sequence[JobSpec], n_nodes: int, n_gpus: int,
                policy: str, gpus_per_node: int = 1) -> ScheduleResult:
    """Run a job mix to completion under one policy.

    ``policy`` is ``"static"`` (GPUs hard-wired, ``gpus_per_node`` each) or
    ``"dynamic"`` (network-attached pool of ``n_gpus``).
    """
    if policy == "static":
        footprint = _footprint_static
        total_gpus = n_nodes * gpus_per_node
    elif policy == "dynamic":
        footprint = _footprint_dynamic
        total_gpus = n_gpus
    else:
        raise ClusterConfigError(f"unknown policy {policy!r}")
    engine = Engine()
    sched = FifoScheduler(engine, n_nodes, total_gpus, footprint,
                          gpus_per_node, policy)
    dones = [sched.submit(j) for j in jobs]
    engine.run(until=engine.all_of(dones))
    return ScheduleResult(policy=policy, records=sched.records,
                          n_nodes=n_nodes, n_gpus=total_gpus)
