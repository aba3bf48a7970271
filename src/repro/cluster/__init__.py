"""Cluster composition: hardware specs, nodes, and the cluster builder."""

from .builder import Cluster
from .node import AcceleratorNode, ComputeNode
from .specs import (
    CPUSpec,
    ClusterSpec,
    ComputeNodeSpec,
    XEON_X5670_DUAL,
    paper_testbed,
)

__all__ = [
    "Cluster",
    "ComputeNode",
    "AcceleratorNode",
    "ClusterSpec",
    "ComputeNodeSpec",
    "CPUSpec",
    "XEON_X5670_DUAL",
    "paper_testbed",
]
