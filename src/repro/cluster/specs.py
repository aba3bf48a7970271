"""Hardware specifications for nodes and whole clusters.

The presets model the paper's testbed (Sect. V): four nodes with two Intel
Xeon X5670 processors (2.93 GHz, 12 cores total) and 48 GiB RAM each, one
NVIDIA Tesla C1060 per node, QDR InfiniBand, Open MPI 1.4.3.  In the
dynamic-architecture emulation a node's local GPU is ignored and remote
"accelerator nodes" (CPU + RAM + NIC + GPU, the paper's Figure 2) are used
instead.
"""

from __future__ import annotations

import dataclasses

from ..errors import ClusterConfigError
from ..gpusim import GPUSpec, TESLA_C1060
from ..netsim import IB_QDR_MPI, LinkModel, TopologySpec
from ..units import USEC


@dataclasses.dataclass(frozen=True)
class CPUSpec:
    """Host-processor performance envelope.

    ``panel_gflops`` is the multicore rate for skinny LAPACK panel kernels
    (dgeqrf/dpotf2 panels are memory-bound and far below dgemm peak);
    ``request_handling_s`` is the per-request software cost of the
    accelerator daemon (message dispatch + CUDA driver call issue);
    ``memcpy_bw_Bps`` is the host-memory copy bandwidth used when GPUDirect
    is disabled and payloads must be staged into pinned buffers.
    """

    name: str
    cores: int
    ghz: float
    dgemm_gflops: float
    panel_gflops: float
    memcpy_bw_Bps: float
    request_handling_s: float
    malloc_s: float

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.ghz <= 0:
            raise ClusterConfigError("CPU cores and clock must be positive")
        if self.dgemm_gflops <= 0 or self.panel_gflops <= 0:
            raise ClusterConfigError("CPU flop rates must be positive")
        if self.memcpy_bw_Bps <= 0:
            raise ClusterConfigError("CPU memcpy bandwidth must be positive")
        if self.request_handling_s < 0 or self.malloc_s < 0:
            raise ClusterConfigError("CPU overheads cannot be negative")

    def flops_time(self, flops: float, rate_gflops: float | None = None) -> float:
        """Seconds for ``flops`` at the given rate (default: panel rate)."""
        rate = self.panel_gflops if rate_gflops is None else rate_gflops
        return flops / (rate * 1e9)


#: Dual-socket Xeon X5670 as in the paper's compute nodes.
XEON_X5670_DUAL = CPUSpec(
    name="2x Xeon X5670",
    cores=12,
    ghz=2.93,
    dgemm_gflops=110.0,
    panel_gflops=11.0,
    memcpy_bw_Bps=6.0e9,
    request_handling_s=1.3 * USEC,
    malloc_s=10.0 * USEC,
)


@dataclasses.dataclass(frozen=True)
class ComputeNodeSpec:
    """One general-purpose compute node (an X5670 node of the testbed)."""

    local_gpu: GPUSpec | None = None  # set for the static-architecture baseline


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """Topology + hardware of a whole simulated cluster.

    ``switch_oversubscription`` = 1.0 models a non-blocking crossbar (the
    paper's small testbed); larger values cap the switch core at
    ``ports * bandwidth / (2 * factor)`` — the regime where the paper's
    accelerator-to-node-ratio guidance starts to bind.
    """

    n_compute: int
    n_accelerators: int
    network: LinkModel = IB_QDR_MPI
    compute: ComputeNodeSpec = ComputeNodeSpec()
    switch_oversubscription: float = 1.0
    #: None keeps the historical single non-blocking switch; a spec
    #: builds a multi-switch fabric (ring / torus) with nodes spread
    #: round-robin across switches (see ``Cluster``).
    topology: TopologySpec | None = None

    def __post_init__(self) -> None:
        if self.n_compute < 1:
            raise ClusterConfigError("need at least one compute node")
        if self.n_accelerators < 0:
            raise ClusterConfigError("negative accelerator count")
        if self.switch_oversubscription < 1.0:
            raise ClusterConfigError(
                f"oversubscription factor must be >= 1: "
                f"{self.switch_oversubscription!r}")

    def core_capacity_Bps(self) -> float | None:
        """Switch-core capacity, or None for a non-blocking crossbar."""
        if self.switch_oversubscription <= 1.0:
            return None
        ports = self.n_compute + self.n_accelerators + 1  # + ARM
        return ports * self.network.bandwidth_Bps / (
            2.0 * self.switch_oversubscription)


def paper_testbed(n_compute: int = 4, n_accelerators: int = 3,
                  local_gpus: bool = False,
                  network: LinkModel = IB_QDR_MPI) -> ClusterSpec:
    """The paper's 4-node testbed in dynamic-architecture emulation.

    One node acts as compute node with its local GPU ignored; the other
    nodes' GPUs serve as up to three network-attached accelerators.  Set
    ``local_gpus=True`` to give every compute node a node-attached C1060
    (the static-architecture baseline).
    """
    return ClusterSpec(
        n_compute=n_compute,
        n_accelerators=n_accelerators,
        network=network,
        compute=ComputeNodeSpec(local_gpu=TESLA_C1060 if local_gpus else None),
    )
