"""The paper's primary contribution: the dynamic accelerator middleware.

* :class:`RemoteAccelerator` — the front-end ``ac*`` computation API,
* :class:`Daemon` — the back-end daemon on every accelerator node,
* :class:`ResourceManager` / :class:`ArmClient` — the accelerator resource
  manager and its resource-management API,
* transfer protocols (naive / pipeline) and block-size policies,
* fault injection, and a synchronous session driver for scripts.
"""

from .api import RemoteAccelerator, run_parallel
from .arm import AcceleratorRecord, AcceleratorState, ArmClient, ResourceManager
from .batch import BatchJobRecord, BatchJobSpec, BatchRunner, JobContext
from .collectives import ring_allreduce, ring_broadcast
from .blocksize import (
    AdaptiveBlockPolicy,
    BlockPolicy,
    DEFAULT_TRANSFER,
    FixedBlockPolicy,
    NAIVE_TRANSFER,
    TransferConfig,
    pipeline,
)
from .daemon import Daemon, DaemonStats
from .discovery import (
    Autoscaler,
    AutoscalerPolicy,
    CapabilityReport,
    DiscoveryAgent,
)
from .faults import FaultInjector
from .protocol import (
    AcceleratorHandle,
    BATCHABLE_OPS,
    DEDUP_OPS,
    IDEMPOTENT_OPS,
    Op,
    RETRYABLE_OPS,
    Request,
    Response,
    Status,
    TAG_ARM,
    TAG_REQUEST,
    VirtualAcceleratorHandle,
    data_tag,
    reply_tag,
)
from .reliability import (
    DEFAULT_RETRY,
    FailoverConfig,
    ResilientAccelerator,
    RetryPolicy,
    TenantAccelerator,
    reliable_rpc,
    tenant_accelerator,
)
from .scheduler import (
    AdmissionController,
    Lease,
    TenantSpec,
    WeightedFairQueue,
    jain_fairness,
)
from .session import SyncSession
from .stream import DEFAULT_MAX_BATCH, Stream, StreamFuture
from .transfer import assemble_chunks, payload_meta, slice_chunks

__all__ = [
    "RemoteAccelerator",
    "run_parallel",
    "BatchRunner",
    "BatchJobSpec",
    "BatchJobRecord",
    "JobContext",
    "Daemon",
    "DaemonStats",
    "ResourceManager",
    "ArmClient",
    "AcceleratorState",
    "AcceleratorRecord",
    "AcceleratorHandle",
    "VirtualAcceleratorHandle",
    "TenantSpec",
    "WeightedFairQueue",
    "AdmissionController",
    "Lease",
    "jain_fairness",
    "TenantAccelerator",
    "tenant_accelerator",
    "FaultInjector",
    "ring_allreduce",
    "ring_broadcast",
    "DiscoveryAgent",
    "CapabilityReport",
    "Autoscaler",
    "AutoscalerPolicy",
    "RetryPolicy",
    "DEFAULT_RETRY",
    "FailoverConfig",
    "ResilientAccelerator",
    "reliable_rpc",
    "IDEMPOTENT_OPS",
    "RETRYABLE_OPS",
    "DEDUP_OPS",
    "BATCHABLE_OPS",
    "Stream",
    "StreamFuture",
    "DEFAULT_MAX_BATCH",
    "TransferConfig",
    "BlockPolicy",
    "FixedBlockPolicy",
    "AdaptiveBlockPolicy",
    "DEFAULT_TRANSFER",
    "NAIVE_TRANSFER",
    "pipeline",
    "SyncSession",
    "Op",
    "Status",
    "Request",
    "Response",
    "TAG_REQUEST",
    "TAG_ARM",
    "reply_tag",
    "data_tag",
    "payload_meta",
    "slice_chunks",
    "assemble_chunks",
]
