"""Node objects: compute nodes and accelerator nodes.

A :class:`ComputeNode` is where application processes run; it may carry a
node-attached GPU for the static-architecture baseline.  An
:class:`AcceleratorNode` is the paper's network-attached accelerator
(Figure 2): an energy-efficient CPU, RAM, a NIC on the cluster fabric, and
a GPU — controlled by the middleware's back-end daemon.
"""

from __future__ import annotations

import typing as _t

from ..gpusim import GPUDevice, TESLA_C1060
from ..netsim import Endpoint
from ..sim import Engine
from .specs import XEON_X5670_DUAL, ComputeNodeSpec

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..mpisim import RankHandle

#: What every accelerator node is: the paper's emulation reuses the
#: testbed's Xeon nodes and their C1060s (Sect. V).
ACCELERATOR_CPU = XEON_X5670_DUAL
ACCELERATOR_GPU = TESLA_C1060


class ComputeNode:
    """A general-purpose node of the cluster."""

    def __init__(self, engine: Engine, name: str, spec: ComputeNodeSpec,
                 endpoint: Endpoint):
        self.engine = engine
        self.name = name
        self.cpu = XEON_X5670_DUAL
        self.endpoint = endpoint
        #: Node-attached GPU (static baseline); None in the dynamic setup.
        self.local_gpu: GPUDevice | None = (
            GPUDevice(engine, spec.local_gpu, name=f"{name}.gpu")
            if spec.local_gpu is not None else None
        )
        #: MPI rank of the application process on this node (set by builder).
        self.rank: "RankHandle | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ComputeNode {self.name}>"


class AcceleratorNode:
    """A network-attached accelerator: CPU + RAM + NIC + GPU."""

    def __init__(self, engine: Engine, ac_id: int, name: str,
                 endpoint: Endpoint):
        self.engine = engine
        self.ac_id = ac_id
        self.name = name
        self.cpu = ACCELERATOR_CPU
        self.endpoint = endpoint
        self.gpu = GPUDevice(engine, ACCELERATOR_GPU, name=f"{name}.gpu")
        #: MPI rank of the daemon on this node (set by builder).
        self.rank: "RankHandle | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AcceleratorNode {self.name} (ac{self.ac_id})>"
