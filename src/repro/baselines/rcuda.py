"""rCUDA-style TCP/IP remoting baseline.

Related work (Sect. II) runs CUDA remoting over socket transports: rCUDA
v3.2 over TCP/IP, MGP over TCP/IP, vCUDA over XML-RPC.  The paper argues
its MPI protocol "may introduce [less] overhead in comparison" — this
baseline makes that claim measurable.

The model: the same middleware request/response structure, but carried
over a TCP transport (higher latency, per-message protocol overhead, lower
sustained bandwidth — see :data:`repro.netsim.TCP_IPOIB`) and **without**
GPUDirect pinned-buffer sharing, so every block pays an extra host staging
copy on the accelerator node (socket receive buffer -> pinned DMA buffer).
The easiest faithful construction is a cluster whose fabric uses the TCP
link model and whose transfers disable GPUDirect.
"""

from __future__ import annotations

from ..core.blocksize import FixedBlockPolicy, TransferConfig
from ..cluster import Cluster, ClusterSpec, paper_testbed
from ..netsim import TCP_IPOIB, LinkModel
from ..units import KiB


#: Transfer configuration matching a socket remoting stack: blocked
#: streaming (sockets chunk anyway) but no GPUDirect, so each block is
#: staged through host memory by the CPU.
RCUDA_TRANSFER = TransferConfig(
    protocol="pipeline",
    policy=FixedBlockPolicy(256 * KiB),
    gpudirect=False,
)


def rcuda_like_cluster(n_compute: int = 1, n_accelerators: int = 1,
                       network: LinkModel = TCP_IPOIB) -> Cluster:
    """A cluster emulating an rCUDA-style deployment over TCP/IPoIB."""
    return Cluster(paper_testbed(n_compute=n_compute,
                                 n_accelerators=n_accelerators,
                                 network=network))


def mpi_cluster(n_compute: int = 1, n_accelerators: int = 1) -> Cluster:
    """The paper's MPI/InfiniBand deployment, for side-by-side comparison."""
    return Cluster(paper_testbed(n_compute=n_compute,
                                 n_accelerators=n_accelerators))
