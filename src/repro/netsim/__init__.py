"""Network substrate: link models, switched multi-topology fabric."""

from .fabric import Endpoint, Fabric, Transmission
from .models import IB_QDR_MPI, PRESETS, TCP_10GE, TCP_IPOIB, LinkModel, preset
from .topology import Topology, TopologySpec

__all__ = [
    "LinkModel",
    "preset",
    "PRESETS",
    "IB_QDR_MPI",
    "TCP_IPOIB",
    "TCP_10GE",
    "Fabric",
    "Endpoint",
    "Transmission",
    "Topology",
    "TopologySpec",
]
