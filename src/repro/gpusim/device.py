"""The virtual GPU device.

Combines the device-memory allocator, the PCIe DMA engine, and the kernel
registry behind an execution interface that mirrors the CUDA driver API
surface the paper's middleware wraps: allocate, copy, launch.

Compute is serialized (one kernel at a time — the Tesla C1060 has no
concurrent kernels), but the DMA engine runs independently, which is the
overlap the pipeline copy protocol exploits.
"""

from __future__ import annotations

import dataclasses

from ..errors import GPUError
from ..obs.spans import collector_for
from ..sim import Engine, Event, Resource
from ..sim.events import PENDING
from ..units import GiB, USEC
from .dma import DMAEngine, PCIeModel, PCIE_GEN2_X16
from .memory import DeviceMemory, MemoryPartition, _offload_pool


@dataclasses.dataclass(frozen=True)
class GPUSpec:
    """Performance envelope of one GPU model."""

    name: str
    dp_gflops: float            # double-precision peak, GFlop/s
    gemm_efficiency: float      # fraction of peak achieved by large dgemm
    mem_bw_Bps: float           # device-memory bandwidth
    mem_bytes: int              # device-memory capacity
    launch_overhead_s: float    # per-kernel launch latency
    pcie: PCIeModel

    def __post_init__(self) -> None:
        if self.dp_gflops <= 0 or self.mem_bw_Bps <= 0 or self.mem_bytes <= 0:
            raise GPUError("GPU spec values must be positive")
        if not 0 < self.gemm_efficiency <= 1:
            raise GPUError(f"gemm efficiency must be in (0, 1]: {self.gemm_efficiency!r}")
        if self.launch_overhead_s < 0:
            raise GPUError("launch overhead cannot be negative")

    def flops_time(self, flops: float, efficiency: float | None = None) -> float:
        """Seconds to execute ``flops`` at the given fraction of peak."""
        eff = self.gemm_efficiency if efficiency is None else efficiency
        return flops / (self.dp_gflops * 1e9 * eff)

    def mem_time(self, nbytes: float) -> float:
        """Seconds to stream ``nbytes`` through device memory."""
        return nbytes / self.mem_bw_Bps


#: NVIDIA Tesla C1060 as in the paper's testbed: 78 GFlop/s double
#: precision peak, ~102 GB/s GDDR3, 4 GiB, PCIe gen2 x16.
TESLA_C1060 = GPUSpec(
    name="tesla-c1060",
    dp_gflops=78.0,
    gemm_efficiency=0.80,
    mem_bw_Bps=102e9,
    mem_bytes=4 * GiB,
    launch_overhead_s=7.0 * USEC,
    pcie=PCIE_GEN2_X16,
)

#: Intel Xeon Phi (Knights Corner), the "emerging MIC architecture" the
#: paper's conclusion names as an easy extension target: ~1 TFlop/s double
#: precision, ~170 GB/s GDDR5, 8 GiB.  Offload launches cost more than a
#: CUDA kernel launch.  Used by the extensibility tests to show the
#: middleware is accelerator-agnostic.
XEON_PHI_KNC = GPUSpec(
    name="xeon-phi-knc",
    dp_gflops=1011.0,
    gemm_efficiency=0.75,
    mem_bw_Bps=170e9,
    mem_bytes=8 * GiB,
    launch_overhead_s=20.0 * USEC,
    pcie=PCIE_GEN2_X16,
)


#: A real launch modeled to run at least this long computes its body on a
#: worker thread between its compute grant and its completion, so the
#: simulated GPUs of a cluster compute at the same time on the host's
#: cores.  Shorter bodies bind and compute inline at completion, where a
#: hand-off costs more than it overlaps: ``walkers_gemm``'s dgemm models
#: 9.7 ms, ``ring_allreduce``'s daxpy 15.4 us, every ``jobs_ensemble``
#: body <= 2.1 us (DESIGN.md section 10).
OFFLOAD_MIN_S = 1e-3


def _run_bound(bound: list):
    """Worker side of an offloaded launch: run its ``compute``.

    Popped, not held: the views go with this frame, before the future is
    done, so the loop thread's copy-on-write refcount probe never counts
    a body that has finished.
    """
    return bound.pop()()


class KernelLaunch(Event):
    """One kernel launch: its own completion event.

    Granted the compute engine by call — at creation, or from the
    release of the launch before it — the launch pushes itself as its
    one heap entry, pending (it reads ``triggered`` only once it has
    run).  Processing it computes the body (or joins the one a worker
    computed), releases the engine and resumes its waiters with the
    kernel's return value in place.  A body that raises fails the
    launch through one more entry of its own, as :meth:`Event.fail`
    would.
    """

    __slots__ = ("device", "kernel", "params", "real", "duration", "row",
                 "_body")

    def __init__(self, device: "GPUDevice", kernel, params: dict,
                 real: bool, duration: float, row: int | None):
        # Event.__init__ inlined, as in DMACopy: one per launch.
        self.engine = device.engine
        self.callbacks = None
        self._value = PENDING
        self._ok = None
        self._processed = False
        self._cancelled = False
        self._scheduled = False
        self.device = device
        self.kernel = kernel
        self.params = params
        self.real = real
        self.duration = duration
        #: The launch's ``gpu.kernel`` span row (None: untraced).
        self.row = row
        #: Offloaded, from the grant on: the body's future, or the
        #: exception its bind raised.
        self._body = None
        device._compute.when_granted(self._granted)

    def _granted(self) -> None:
        if self.row is not None:
            self.device._obs.event_row(self.row, "compute_acquired")
        device = self.device
        pool = (_offload_pool()
                if self.real and self.duration >= OFFLOAD_MIN_S else None)
        if pool is not None:
            try:
                compute = self.kernel.fn(device, self.params)
            except Exception as exc:
                self._body = exc
            else:
                self._body = device.memory.inflight = pool.submit(
                    _run_bound, [compute])
        self.engine._enqueue(
            self, device.spec.launch_overhead_s + self.duration)

    def _process(self) -> None:
        if self._value is not PENDING:
            # The failed launch's second entry: its waiters.
            Event._process(self)
            return
        device = self.device
        body, self._body = self._body, None
        # The body completes before the release can grant (and bind)
        # the next launch over the memory it wrote.
        try:
            if body is None:
                result = (self.kernel.fn(device, self.params)()
                          if self.real else None)
            elif isinstance(body, Exception):
                raise body
            else:
                memory = device.memory
                if memory.inflight is body:
                    memory.inflight = None
                result = body.result()
        except Exception as exc:
            device._compute.release()
            if self.row is not None:
                device._obs.finish_row(
                    self.row, {"error": f"{type(exc).__name__}: {exc}"})
            self._ok = False
            self._value = exc
            self.engine._enqueue(self)
            return
        device._compute.release()
        device.busy_time += self.duration
        device.kernels_launched += 1
        if self.row is not None:
            device._obs.finish_row(self.row, {"modeled_s": self.duration})
        self._ok = True
        self._value = result
        self._processed = True
        callbacks = self.callbacks
        if callbacks is not None:
            for cb in callbacks:
                cb(self)
            callbacks.clear()


class GPUDevice:
    """One virtual GPU: memory + DMA + serialized compute."""

    _ids = 0

    def __init__(self, engine: Engine, spec: GPUSpec = TESLA_C1060,
                 name: str | None = None):
        from .stdkernels import default_registry
        self.engine = engine
        self.spec = spec
        self.registry = default_registry().clone()
        GPUDevice._ids += 1
        self.name = name or f"gpu{GPUDevice._ids}"
        self.memory = DeviceMemory(spec.mem_bytes)
        self.dma = DMAEngine(engine, spec.pcie, name=f"{self.name}.dma")
        self._compute = Resource(engine, capacity=1)
        self._obs = collector_for(engine)
        #: Cumulative compute-busy seconds (utilization accounting).
        self.busy_time = 0.0
        self.kernels_launched = 0

    def launch(self, kernel_name: str, params: dict | None = None,
               real: bool = True, ctx=None) -> KernelLaunch:
        """Launch a kernel; the returned launch fires at completion.

        ``real=False`` charges the kernel's modeled time without executing
        its numerics (timing-only mode for paper-scale problem sizes).
        The event's value is the kernel's return (error code or None); a
        kernel that raises fails it with that exception.  ``ctx``
        optionally parents a ``gpu.kernel`` trace span under the
        requesting operation (see :mod:`repro.obs`).  Like a DMA copy, a
        launch is one heap entry (DESIGN.md section 10).

        A real launch of at least :data:`OFFLOAD_MIN_S` binds its body at
        the compute grant and computes it on a worker thread; its
        completion joins it.  Every other launch binds and computes at
        completion.  Either way a failure fails the event at completion.
        """
        kernel = self.registry.get(kernel_name)
        params = params or {}
        duration = kernel.cost(params, self.spec)
        obs = self._obs
        row = (obs.open_row("gpu.kernel", self.name, ctx,
                            {"kernel": kernel.name})
               if ctx is not None and obs.enabled else None)
        return KernelLaunch(self, kernel, params, real, duration, row)

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of wall time the compute engine was busy."""
        total = elapsed if elapsed is not None else self.engine.now
        return self.busy_time / total if total > 0 else 0.0

    # -- virtualization ---------------------------------------------------
    def virtualize(self, name: str) -> "VirtualGPU":
        """Create a virtual accelerator multiplexed onto this device."""
        return VirtualGPU(self, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GPUDevice {self.name} ({self.spec.name})>"


class VirtualGPU:
    """A tenant's slice of one physical GPU: owned memory, the device's
    compute.

    The daemon allocates, frees and launches through the slice:
    ``memory`` is a :class:`~repro.gpusim.memory.MemoryPartition`, and a
    launch is the device's own launch, served first come first served on
    its compute engine (the daemon awaits each launch in its handler, so
    two never wait there at once; DESIGN.md section 11).
    """

    def __init__(self, device: "GPUDevice", name: str):
        self.device = device
        self.name = name
        self.memory = MemoryPartition(device.memory, name=name)
        #: Set when the lease behind this virtual GPU was revoked.
        self.revoked = False

    def launch(self, kernel_name: str, params: dict | None = None,
               real: bool = True, ctx=None) -> KernelLaunch:
        """Launch a kernel on the device, unless the slice was revoked."""
        if self.revoked:
            raise GPUError(f"virtual GPU {self.name} has been revoked")
        return self.device.launch(kernel_name, params, real=real, ctx=ctx)

    def revoke(self) -> int:
        """Preempt this virtual GPU: free its memory, refuse new launches.

        Returns the bytes freed.  In-flight kernels finish (kernel-level
        granularity); the owning tenant discovers the revocation on its
        next operation and re-allocates through the ARM.
        """
        self.revoked = True
        return self.memory.release_all()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VirtualGPU {self.name} on {self.device.name}>"
