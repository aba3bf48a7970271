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
import typing as _t

from ..errors import GPUError
from ..obs.spans import collector_for
from ..sim import Engine, Event, Resource
from ..sim.events import PENDING
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


class DMACopy(Event):
    """One host<->device copy: its own completion event.

    Granted the copy engine by call — at creation, or from the release
    of the copy before it — the copy pushes itself as its one heap
    entry.  Processing it releases the engine, books the transfer,
    closes its span row and calls its ``on_done(copy)`` hook (the
    landing of a block, shared by every copy of a stream) before any
    caller callback runs.
    """

    __slots__ = ("dma", "nbytes", "duration", "row", "on_done")

    def __init__(self, dma: "DMAEngine", nbytes: int, duration: float,
                 row: int | None,
                 on_done: _t.Callable[["DMACopy"], None] | None):
        # Event.__init__ inlined, as in Timeout: one per copy.
        self.engine = dma.engine
        self.callbacks = None
        self._value = PENDING
        self._ok = None
        self._processed = False
        self._cancelled = False
        self._scheduled = False
        self.dma = dma
        self.nbytes = nbytes
        self.duration = duration
        #: The copy's ``dma.copy`` span row (None: untraced).
        self.row = row
        self.on_done = on_done
        dma._lock.when_granted(self._granted)

    def _granted(self) -> None:
        if self.row is not None:
            self.dma._obs.event_row(self.row, "engine_acquired")
        self.engine.succeed_after(self, self.duration)

    def _process(self) -> None:
        self._processed = True
        dma = self.dma
        dma.busy_time += self.duration
        dma.transfers += 1
        dma.bytes_copied += self.nbytes
        dma._lock.release()
        if self.row is not None:
            dma._obs.finish_row(self.row)
        if self.on_done is not None:
            self.on_done(self)
        callbacks = self.callbacks
        if callbacks is not None:
            for cb in callbacks:
                cb(self)
            callbacks.clear()


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

    def copy(self, nbytes: int, pinned: bool = True, ctx=None,
             on_done: _t.Callable[[DMACopy], None] | None = None
             ) -> DMACopy:
        """Start one host<->device copy; it fires on completion.

        ``ctx`` is an optional parent span context (``Span.wire``): when
        tracing is on, the copy records a ``dma.copy`` child span
        covering queueing-for-the-engine plus the transfer itself.
        ``on_done(copy)`` runs at completion before the copy's waiters,
        with no callback list or closure of the copy's own.
        """
        if nbytes < 0:
            raise GPUError(f"negative copy size: {nbytes!r}")
        # Spans are children of a request's handler span; a copy issued
        # without one (untraced, or direct device use) makes no span call.
        obs = self._obs
        row = (obs.open_row("dma.copy", self.name, ctx,
                            {"nbytes": nbytes, "pinned": pinned})
               if ctx is not None and obs.enabled else None)
        return DMACopy(self, nbytes, self.model.copy_time(nbytes, pinned),
                       row, on_done)
