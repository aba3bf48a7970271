"""Exception hierarchy for the :mod:`repro` package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class NetworkError(ReproError):
    """Errors raised by the network substrate."""


class MPIError(ReproError):
    """Errors raised by the simulated MPI layer."""


class GPUError(ReproError):
    """Errors raised by the virtual GPU substrate."""


class DeviceMemoryError(GPUError):
    """Device-memory allocation failures (out of memory, bad pointer)."""


class KernelError(GPUError):
    """Kernel registration / launch failures."""


class MiddlewareError(ReproError):
    """Errors raised by the accelerator middleware (front-end / daemon)."""


class ProtocolError(MiddlewareError):
    """Malformed or unexpected middleware wire messages."""


class UnsupportedOp(MiddlewareError):
    """The operation is not available on this accelerator backend.

    Raised by backends that implement the common ``ac*`` surface
    (:data:`~repro.core.interface.API_METHODS`) but lack an
    optional capability — e.g. ``peer_put`` on a node-attached GPU, which
    has no fabric to copy over.  Carries the op and backend names so
    callers can degrade gracefully (fall back to a D2H+H2D bounce).
    """

    def __init__(self, op: str, backend: str):
        super().__init__(f"op {op!r} is not supported by {backend}")
        self.op = op
        self.backend = backend


class RequestTimeout(MiddlewareError, TimeoutError):
    """A middleware request missed its (virtual-time) deadline.

    Raised by the front-end and the ARM client when a reply does not arrive
    within the configured per-request timeout, after any automatic retries
    have been exhausted.  Subclasses :class:`TimeoutError` so generic
    timeout handling also catches it.
    """


class AllocationError(ReproError):
    """Accelerator-resource-manager allocation failures."""


class AcceleratorFault(ReproError):
    """Raised when an operation targets an accelerator that has failed."""


class ClusterConfigError(ReproError):
    """Invalid cluster topology or hardware specification."""


class WorkloadError(ReproError):
    """Errors raised by the workload implementations."""
