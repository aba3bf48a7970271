"""Cluster-wide metric collection.

Aggregates the counters every component keeps (GPU busy time, DMA traffic,
daemon request/byte/staging statistics, fabric volume, ARM assignment
time) into one :class:`ClusterReport` — the data source for the
utilization arguments in the paper's Sect. III (``ext_batch`` reads the
offloaded volume and mean GPU utilization from it).

:func:`collect` builds the report from a
:class:`~repro.obs.MetricsRegistry` snapshot
(:func:`~repro.obs.instrument_cluster`) rather than scraping component
fields directly, so every number in the report is also available to
external consumers through the registry.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..obs.metrics import instrument_cluster

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..cluster.builder import Cluster


@dataclasses.dataclass
class AcceleratorMetrics:
    """Per-accelerator utilization and traffic."""

    ac_id: int
    name: str
    state: str
    assigned_seconds: float
    gpu_busy_seconds: float
    kernels_launched: int
    dma_bytes: int
    daemon_requests: int
    bytes_h2d: int
    bytes_d2h: int
    staging_peak: int


@dataclasses.dataclass
class ClusterReport:
    """Snapshot of a cluster's cumulative activity."""

    elapsed: float
    accelerators: list[AcceleratorMetrics]
    fabric_bytes: int
    fabric_messages: int
    pool_utilization: float

    @property
    def total_offload_bytes(self) -> int:
        return sum(a.bytes_h2d + a.bytes_d2h for a in self.accelerators)

    @property
    def mean_gpu_utilization(self) -> float:
        if not self.accelerators or self.elapsed <= 0:
            return 0.0
        return sum(a.gpu_busy_seconds for a in self.accelerators) / (
            self.elapsed * len(self.accelerators))


def collect(cluster: "Cluster") -> ClusterReport:
    """Build a :class:`ClusterReport` from a cluster's current state.

    The numbers come out of a fresh :func:`~repro.obs.instrument_cluster`
    snapshot, not from the components directly.
    """
    registry = instrument_cluster(cluster)
    elapsed = cluster.engine.now
    snap = cluster.arm.snapshot()
    accelerators = []
    for node in cluster.accelerator_nodes:
        ac = f"ac{node.ac_id}"
        info = snap.get(node.ac_id, {})
        accelerators.append(AcceleratorMetrics(
            ac_id=node.ac_id,
            name=node.name,
            state=info.get("state", "unknown"),
            assigned_seconds=registry.value("arm.assigned_seconds", ac=ac),
            gpu_busy_seconds=registry.value("gpu.busy_seconds", ac=ac),
            kernels_launched=int(registry.value("gpu.kernels", ac=ac)),
            dma_bytes=int(registry.value("dma.bytes", ac=ac)),
            daemon_requests=int(registry.value("daemon.requests", ac=ac)),
            bytes_h2d=int(registry.value("bytes.h2d", ac=ac)),
            bytes_d2h=int(registry.value("bytes.d2h", ac=ac)),
            staging_peak=int(registry.gauge("staging.bytes", ac=ac).peak),
        ))
    return ClusterReport(
        elapsed=elapsed,
        accelerators=accelerators,
        fabric_bytes=int(registry.value("fabric.bytes")),
        fabric_messages=int(registry.value("fabric.messages")),
        pool_utilization=registry.value("pool.utilization"),
    )
