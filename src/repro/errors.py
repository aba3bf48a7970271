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
