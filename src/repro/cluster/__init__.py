"""Cluster composition: hardware specs, nodes, and the cluster builder."""

from .builder import Cluster
from .node import AcceleratorNode, ComputeNode
from .specs import (
    AcceleratorNodeSpec,
    CPUSpec,
    ClusterSpec,
    ComputeNodeSpec,
    EFFICIENT_ACCEL_CPU,
    XEON_X5670_DUAL,
    paper_testbed,
)

__all__ = [
    "Cluster",
    "ComputeNode",
    "AcceleratorNode",
    "ClusterSpec",
    "ComputeNodeSpec",
    "AcceleratorNodeSpec",
    "CPUSpec",
    "XEON_X5670_DUAL",
    "EFFICIENT_ACCEL_CPU",
    "paper_testbed",
]
