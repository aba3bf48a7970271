"""Batch execution on the dynamic cluster: jobs, nodes, and the ARM.

Sect. V-B describes the production flow: "a user would specify the number
of accelerators requested per node in his or her batch script.  The job
would start once the requested number of compute and accelerator nodes
becomes available" — the static assignment strategy, with availability
maximized because no job holds more accelerators than it uses.

:class:`BatchRunner` implements exactly that on a live simulated cluster:
each submitted job waits for a free compute node and its requested
accelerator count (FIFO through the ARM), runs its body with ready-made
:class:`~repro.core.api.RemoteAccelerator` front-ends, and releases
everything on completion — including on failure.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..errors import AllocationError
from ..obs.spans import collector_for
from ..sim import Event, Store
from .api import RemoteAccelerator

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..cluster.builder import Cluster


@dataclasses.dataclass
class JobContext:
    """What a running job's body receives."""

    cluster: "Cluster"
    cn_index: int
    accelerators: list[RemoteAccelerator]

    @property
    def engine(self):
        return self.cluster.engine

    @property
    def rank(self):
        return self.cluster.compute_rank(self.cn_index)

    @property
    def cpu(self):
        return self.cluster.compute_nodes[self.cn_index].cpu


#: A job body: a generator function taking the JobContext.
JobBody = _t.Callable[[JobContext], _t.Iterator]


@dataclasses.dataclass(frozen=True)
class BatchJobSpec:
    """One batch submission."""

    name: str
    body: JobBody
    n_accelerators: int = 1
    arrival_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_accelerators < 0:
            raise AllocationError("negative accelerator request")
        if self.arrival_s < 0:
            raise AllocationError("negative arrival time")


@dataclasses.dataclass
class BatchJobRecord:
    """Outcome of one batch job."""

    spec: BatchJobSpec
    cn_index: int
    start_s: float
    end_s: float
    result: _t.Any = None
    error: BaseException | None = None

    @property
    def wait_s(self) -> float:
        return self.start_s - self.spec.arrival_s

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchRunner:
    """FIFO batch execution over a cluster's nodes and accelerator pool."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.engine = cluster.engine
        self._free_nodes = Store(self.engine)
        for i in range(len(cluster.compute_nodes)):
            self._free_nodes.put(i)
        self.records: list[BatchJobRecord] = []

    def submit(self, spec: BatchJobSpec) -> Event:
        """Queue a job; the returned event fires with its BatchJobRecord."""
        if spec.n_accelerators > len(self.cluster.accelerator_nodes):
            raise AllocationError(
                f"job {spec.name!r} wants {spec.n_accelerators} accelerators, "
                f"the pool has {len(self.cluster.accelerator_nodes)}")
        done = self.engine.event()
        self.engine.process(self._run(spec, done), name=f"batch:{spec.name}")
        return done

    def _run(self, spec: BatchJobSpec, done: Event):
        if self.engine.now < spec.arrival_s:
            yield self.engine.timeout(spec.arrival_s - self.engine.now)
        # 1. Wait for a compute node, then for the accelerators (FIFO at
        #    the ARM) — the "job starts once ... available" semantics.
        cn_index = yield self._free_nodes.get()
        arm = self.cluster.arm_client(cn_index)
        handles: list = []
        start = self.engine.now
        result, error = None, None
        try:
            if spec.n_accelerators:
                handles = yield from arm.alloc(count=spec.n_accelerators,
                                               wait=True, job=spec.name)
            ctx = JobContext(
                cluster=self.cluster,
                cn_index=cn_index,
                accelerators=[self.cluster.remote(cn_index, h)
                              for h in handles],
            )
            start = self.engine.now
            result = yield from spec.body(ctx)
        except Exception as exc:
            error = exc
        # 2. Release everything, success or not.  The release itself can
        #    fail (the node broke mid-job, the ARM rejected the handles);
        #    the compute node must go back to the FIFO regardless, so
        #    queued jobs acquire it and fail (or run) deterministically on
        #    their own allocations instead of stranding forever.
        if handles:
            try:
                yield from arm.release(handles)
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            # A body (or release) that died mid-operation leaves client
            # and daemon spans open; close them so trace exports stay
            # well-formed.  Only this job's: it holds its compute node
            # exclusively, so its traces are the ones rooted there, and
            # the jobs running beside it keep their in-flight spans.
            collector_for(self.engine).abort_open(
                f"batch job {spec.name!r} failed: {type(error).__name__}",
                actor=self.cluster.compute_nodes[cn_index].name)
        yield self._free_nodes.put(cn_index)
        record = BatchJobRecord(spec=spec, cn_index=cn_index, start_s=start,
                                end_s=self.engine.now, result=result,
                                error=error)
        self.records.append(record)
        done.succeed(record)

    def run_all(self, specs: _t.Sequence[BatchJobSpec]) -> list[BatchJobRecord]:
        """Submit a set of jobs and run the cluster until all complete."""
        events = [self.submit(s) for s in specs]
        self.engine.run(until=self.engine.all_of(events))
        return [ev.value for ev in events]
