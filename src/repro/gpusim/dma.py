"""PCI Express transfer model and DMA engine.

The paper's Figures 7/8 distinguish two local-copy paths on the testbed's
Tesla C1060 (PCIe gen2 x16):

* **pinned memory** — the GPU's DMA engine pulls page-locked host memory at
  ~5700 MiB/s with a small per-transfer descriptor setup cost;
* **pageable memory** — the CPU stages data through programmed I/O (PIO) at
  ~4700 MiB/s with a higher per-transfer cost.

The accelerator daemon's pipeline protocol issues one DMA per block, so the
per-transfer setup cost is what penalizes small pipeline blocks for very
large messages (the Figure 5 crossover).
"""

from __future__ import annotations

import dataclasses

from ..errors import GPUError
from ..obs.spans import collector_for
from ..sim import Engine, Event, Resource
from ..units import MiB, USEC


@dataclasses.dataclass(frozen=True)
class PCIeModel:
    """Timing parameters of one host-GPU PCIe connection."""

    name: str
    pinned_bw_Bps: float
    pageable_bw_Bps: float
    dma_setup_s: float
    pio_setup_s: float

    def __post_init__(self) -> None:
        if self.pinned_bw_Bps <= 0 or self.pageable_bw_Bps <= 0:
            raise GPUError("PCIe bandwidths must be positive")
        if self.dma_setup_s < 0 or self.pio_setup_s < 0:
            raise GPUError("PCIe setup costs cannot be negative")

    def copy_time(self, nbytes: int, pinned: bool = True) -> float:
        """Uncontended duration of one host<->device copy."""
        if nbytes < 0:
            raise GPUError(f"negative copy size: {nbytes!r}")
        if pinned:
            return self.dma_setup_s + nbytes / self.pinned_bw_Bps
        return self.pio_setup_s + nbytes / self.pageable_bw_Bps

    def effective_bandwidth(self, nbytes: int, pinned: bool = True) -> float:
        """Observed bandwidth for a single copy of ``nbytes`` (bytes/s)."""
        if nbytes <= 0:
            raise GPUError(f"non-positive copy size: {nbytes!r}")
        return nbytes / self.copy_time(nbytes, pinned)


#: PCIe gen2 x16 as measured on the paper's Tesla C1060 testbed.
PCIE_GEN2_X16 = PCIeModel(
    name="pcie-gen2-x16",
    pinned_bw_Bps=5700 * MiB,
    pageable_bw_Bps=4700 * MiB,
    dma_setup_s=9.0 * USEC,
    pio_setup_s=16.0 * USEC,
)


class DMAEngine:
    """The GPU's copy engine: one transfer at a time, like the C1060.

    Copies are serialized on the engine but run concurrently with compute
    and with network receives — which is exactly the overlap the pipeline
    protocol exploits.
    """

    def __init__(self, engine: Engine, model: PCIeModel,
                 name: str = "dma"):
        self.engine = engine
        self.model = model
        self.name = name
        self._lock = Resource(engine, capacity=1)
        self._obs = collector_for(engine)
        #: Total busy seconds, for utilization accounting.
        self.busy_time = 0.0
        self.transfers = 0
        self.bytes_copied = 0

    def copy(self, nbytes: int, pinned: bool = True, ctx=None) -> Event:
        """Start one host<->device copy; the event fires on completion.

        ``ctx`` is an optional parent span context (``Span.wire``): when
        tracing is on, the copy records a ``dma.copy`` child span
        covering queueing-for-the-engine plus the transfer itself.
        """
        if nbytes < 0:
            raise GPUError(f"negative copy size: {nbytes!r}")
        engine = self.engine
        # Spans are children of a request's handler span; a copy issued
        # without one (untraced, or direct device use) makes no span call.
        span = (self._obs.start(
            "dma.copy", self.name, parent=ctx, nbytes=nbytes, pinned=pinned)
            if ctx is not None else None)
        done = Event(engine)
        duration = self.model.copy_time(nbytes, pinned)

        def _finish(_ev):
            # Registered at creation so the engine is released and the
            # span closed before any caller callback on ``done`` runs.
            self.busy_time += duration
            self.transfers += 1
            self.bytes_copied += nbytes
            self._lock.release()
            if span is not None:
                span.finish()

        done.callbacks = [_finish]

        def _granted():
            if span is not None:
                span.event("engine_acquired")
            engine.succeed_after(done, duration)

        # Granted by call — now, or from the release in the previous
        # copy's ``_finish`` — so a copy is one heap entry, its ``done``.
        self._lock.when_granted(_granted)
        return done
