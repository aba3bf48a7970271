"""Cluster assembly: engine + fabric + nodes + MPI world + middleware.

:class:`Cluster` wires a complete simulated installation from a
:class:`~repro.cluster.specs.ClusterSpec`:

* one fabric endpoint per compute node, per accelerator node, and for the
  ARM;
* one global communicator whose ranks are laid out as
  ``[compute 0..C-1, daemons C..C+A-1, ARM C+A]``;
* a running back-end daemon on every accelerator node and the ARM service.

Application code then obtains handles through :meth:`arm_client` and drives
accelerators through :meth:`remote`.
"""

from __future__ import annotations

import typing as _t

from ..core.arm import ArmClient, ResourceManager
from ..core.api import RemoteAccelerator
from ..core.blocksize import TransferConfig
from ..core.daemon import Daemon
from ..core.protocol import AcceleratorHandle
from ..core.reliability import (
    FailoverConfig,
    ResilientAccelerator,
    RetryPolicy,
    tenant_accelerator,
)
from ..core.session import SyncSession
from ..errors import ClusterConfigError
from ..mpisim import World
from ..netsim import Fabric
from ..sim import Engine
from .node import AcceleratorNode, ComputeNode
from .specs import ClusterSpec

#: Discovery report cadence of every agent (``discovery=True``).
REPORT_PERIOD_S = 5e-4


class Cluster:
    """A fully assembled simulated accelerator cluster.

    With ``discovery=True`` the ARM starts with an *empty* pool and
    builds membership from the daemons' discovery feed instead of the
    static roster: every accelerator node gets a
    :class:`~repro.core.discovery.DiscoveryAgent` (in ``self.agents``,
    keyed by ac id), and the agents of ``initial_accelerators`` (default:
    all) start publishing immediately with staggered phases.  Remaining
    agents stay dormant until started — the autoscaler's headroom.
    """

    def __init__(self, spec: ClusterSpec, discovery: bool = False,
                 initial_accelerators: int | None = None):
        self.spec = spec
        self.engine = Engine()
        topo = spec.topology.build() if spec.topology is not None else None
        self.topology = topo
        self.fabric = Fabric(self.engine, spec.network, topology=topo)
        self.fabric.set_core_capacity(spec.core_capacity_Bps())
        self.world = World(self.engine, self.fabric)

        # Endpoints.  On a multi-switch fabric, compute and accelerator
        # nodes spread round-robin across the switches (independently, so
        # every switch gets both kinds) and the ARM sits on the first.
        def _sw(i: int) -> str | None:
            if topo is None:
                return None
            return topo.switches[i % len(topo.switches)]

        cn_eps = [self.fabric.add_endpoint(f"cn{i}", _sw(i))
                  for i in range(spec.n_compute)]
        ac_eps = [self.fabric.add_endpoint(f"ac{j}", _sw(j))
                  for j in range(spec.n_accelerators)]
        arm_ep = self.fabric.add_endpoint("arm", _sw(0))

        # Global communicator: [compute..., daemons..., arm].
        self.comm = self.world.create_comm(cn_eps + ac_eps + [arm_ep],
                                           name="cluster")
        self.arm_rank_index = spec.n_compute + spec.n_accelerators

        # Nodes.
        self.compute_nodes: list[ComputeNode] = []
        for i, ep in enumerate(cn_eps):
            node = ComputeNode(self.engine, f"cn{i}", spec.compute, ep)
            node.rank = self.comm.rank(i)
            self.compute_nodes.append(node)

        self.accelerator_nodes: list[AcceleratorNode] = []
        self.daemons: list[Daemon] = []
        for j, ep in enumerate(ac_eps):
            node = AcceleratorNode(self.engine, j, f"ac{j}", ep)
            node.rank = self.comm.rank(spec.n_compute + j)
            self.accelerator_nodes.append(node)
            self.daemons.append(Daemon(node, node.rank))

        # The ARM service (topology-aware placement when multi-switch).
        roster = ([] if discovery else
                  [(node.ac_id, node.rank.index)
                   for node in self.accelerator_nodes])
        switches = {node.ac_id: node.endpoint.switch
                    for node in self.accelerator_nodes}
        self.arm = ResourceManager(self.comm.rank(self.arm_rank_index), roster,
                                   topology=topo, switches=switches)

        #: Discovery agents by ac id (empty in static-roster mode).
        self.agents: dict[int, "DiscoveryAgent"] = {}
        if discovery:
            from ..core.discovery import DiscoveryAgent
            n = spec.n_accelerators
            initial = n if initial_accelerators is None else initial_accelerators
            if not 0 <= initial <= n:
                raise ClusterConfigError(
                    f"initial_accelerators {initial} out of range 0..{n}")
            for j, daemon in enumerate(self.daemons):
                # Staggered phases: reports spread over one period instead
                # of the whole fleet publishing at the same instant.
                self.agents[j] = DiscoveryAgent(
                    daemon, j, self.arm_rank_index,
                    period_s=REPORT_PERIOD_S,
                    phase_s=(j * REPORT_PERIOD_S) / max(n, 1))
            for j in range(initial):
                self.agents[j].start()

    # -- application-facing helpers --------------------------------------
    def compute_rank(self, cn_index: int):
        """The MPI rank handle of compute node ``cn_index``."""
        return self.compute_nodes[cn_index].rank

    def arm_client(self, cn_index: int,
                   retry: RetryPolicy | None = None) -> ArmClient:
        """A resource-management API client for one compute node."""
        return ArmClient(self.compute_rank(cn_index), self.arm_rank_index,
                         retry=retry)

    def remote(self, cn_index: int, handle: AcceleratorHandle,
               transfer: TransferConfig | None = None,
               retry: RetryPolicy | None = None) -> RemoteAccelerator:
        """A computation-API front-end for one assigned accelerator."""
        if transfer is None:
            return RemoteAccelerator(self.compute_rank(cn_index), handle,
                                     retry=retry)
        return RemoteAccelerator(self.compute_rank(cn_index), handle,
                                 transfer=transfer, retry=retry)

    def resilient(self, cn_index: int, handle: AcceleratorHandle,
                  config: FailoverConfig | None = None,
                  transfer: TransferConfig | None = None,
                  retry: RetryPolicy | None = None) -> ResilientAccelerator:
        """A failover-capable front-end for one assigned accelerator.

        Wraps :meth:`remote` with the robustness layer: per-request
        deadlines/retries from ``retry`` and ARM-mediated failover per
        ``config`` (see :class:`~repro.core.reliability.FailoverConfig`).
        """
        return ResilientAccelerator(
            self.arm_client(cn_index, retry=retry),
            lambda h: self.remote(cn_index, h, transfer=transfer, retry=retry),
            handle, config=config)

    def tenant(self, cn_index: int, tenant_id: str,
               config: FailoverConfig | None = None,
               transfer: TransferConfig | None = None,
               retry: RetryPolicy | None = None, job: str | None = None):
        """Lease a virtual accelerator for ``tenant_id`` (generator).

        Runs the valloc + attach handshake against the ARM and the
        hosting daemon and returns a ready
        :class:`~repro.core.reliability.TenantAccelerator`.  The tenant
        must have been registered with the ARM's admission controller
        first (``cluster.arm.admission.register(TenantSpec(...))``).
        """
        ac = yield from tenant_accelerator(
            self.arm_client(cn_index, retry=retry),
            lambda h: self.remote(cn_index, h, transfer=transfer, retry=retry),
            tenant_id, config=config, job=job)
        return ac

    def accelerator_for_handle(self, handle: AcceleratorHandle) -> AcceleratorNode:
        """The accelerator node behind a handle (for inspection in tests)."""
        node = self.accelerator_nodes[handle.ac_id]
        if node.rank.index != handle.daemon_rank:
            raise ClusterConfigError("stale accelerator handle")
        return node

    def session(self) -> SyncSession:
        """A synchronous driver over this cluster's engine."""
        return SyncSession(self.engine)

    def run(self, until: _t.Any = None):
        """Advance the simulation (see :meth:`repro.sim.Engine.run`)."""
        return self.engine.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Cluster {self.spec.n_compute}CN + "
                f"{self.spec.n_accelerators}AC on {self.spec.network.name}>")
