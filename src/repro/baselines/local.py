"""The static-architecture baseline: a node-attached ("CUDA local") GPU.

:class:`LocalAccelerator` exposes the unified interface
(:data:`~repro.core.interface.API_METHODS`) but drives the compute
node's own PCIe-attached GPU directly — no network, no daemon, exactly
the "CUDA local" configuration of Figures 7-11.  Workloads written
against the common interface can therefore be measured on either
architecture unchanged.

``cudaMemcpy`` semantics follow the paper's measurement setup: *pinned*
host memory moves via the GPU's DMA engine, *pageable* memory via CPU
programmed I/O at lower bandwidth (Fig. 7/8 distinguish both).
"""

from __future__ import annotations

import math
import typing as _t

from ..errors import MiddlewareError
from ..gpusim import GPUDevice
from ..mpisim import Phantom, payload_nbytes
from ..obs.spans import collector_for
from ..sim import Engine
from ..cluster.specs import CPUSpec
from ..core.interface import reject_bool_transfer
from ..core.transfer import as_flat_bytes, payload_meta


class LocalAccelerator:
    """Front-end-compatible driver for a node-attached GPU."""

    def __init__(self, engine: Engine, gpu: GPUDevice, cpu: CPUSpec,
                 pinned: bool = True):
        self.engine = engine
        self.gpu = gpu
        self.cpu = cpu
        self.pinned = pinned
        self._kernels: dict[str, dict] = {}
        self._obs = collector_for(engine)
        self._actor = f"local-{gpu.name}"
        self.bytes_h2d = 0
        self.bytes_d2h = 0

    # -- memory management ----------------------------------------------
    def mem_alloc(self, nbytes: int):
        """cudaMalloc: returns the device address (generator)."""
        with self._obs.start("client.mem_alloc", self._actor,
                             nbytes=int(nbytes)):
            yield self.engine.sleep(self.cpu.malloc_s)
            addr = self.gpu.memory.malloc(int(nbytes))
            return addr

    def mem_free(self, addr: int):
        """cudaFree (generator)."""
        with self._obs.start("client.mem_free", self._actor, addr=addr):
            yield self.engine.sleep(self.cpu.malloc_s)
            self.gpu.memory.free(addr)

    # -- data movement ----------------------------------------------------
    def memcpy_h2d(self, dst: int, payload: _t.Any, transfer: _t.Any = None,
                   offset: int = 0):
        """cudaMemcpy host-to-device (generator).

        ``transfer`` is accepted for interface compatibility and ignored —
        a local copy has no network protocol.
        """
        reject_bool_transfer(transfer)
        nbytes = payload_nbytes(payload)
        with self._obs.start("client.memcpy_h2d", self._actor,
                             nbytes=nbytes) as span:
            alloc = self.gpu.memory.allocation(dst)
            if offset + nbytes > alloc.nbytes:
                raise MiddlewareError(
                    f"copy of {nbytes}B at offset {offset} exceeds "
                    f"allocation of {alloc.nbytes}B")
            yield self.gpu.dma.copy(nbytes, pinned=self.pinned, ctx=span.wire)
            flat = as_flat_bytes(payload)
            if flat is not None:
                self.gpu.memory.write(dst, offset, flat)
                meta = payload_meta(payload)
                if meta is not None and offset == 0 and nbytes == alloc.nbytes:
                    self.gpu.memory.set_array_meta(dst, meta[0], meta[1])
            self.bytes_h2d += nbytes

    def memcpy_d2h(self, src: int, nbytes: int, transfer: _t.Any = None,
                   offset: int = 0):
        """cudaMemcpy device-to-host (generator)."""
        reject_bool_transfer(transfer)
        nbytes = int(nbytes)
        with self._obs.start("client.memcpy_d2h", self._actor,
                             nbytes=nbytes) as span:
            alloc = self.gpu.memory.allocation(src)
            if offset + nbytes > alloc.nbytes:
                raise MiddlewareError(
                    f"copy of {nbytes}B at offset {offset} exceeds "
                    f"allocation of {alloc.nbytes}B")
            yield self.gpu.dma.copy(nbytes, pinned=self.pinned, ctx=span.wire)
            self.bytes_d2h += nbytes
            if alloc.data is None:
                return Phantom(nbytes)
            # Downloads return read-only loaned snapshot views
            # (allocation-level COW keeps them stable); callers that need
            # to mutate take a .copy().
            if (offset == 0 and alloc.dtype is not None and alloc.shape is not None
                    and nbytes == alloc.dtype.itemsize * math.prod(alloc.shape)):
                return self.gpu.memory.read_array(src, copy=False)
            return self.gpu.memory.read(src, offset, nbytes, copy=False)

    # -- kernels ----------------------------------------------------------
    def kernel_create(self, name: str):
        """cuModuleGetFunction analogue (generator).

        Installs the kernel from the extension catalog if the device does
        not have it yet (module upload).
        """
        from ..gpusim.kernels import resolve
        if not resolve(self.gpu.registry, name):
            raise MiddlewareError(f"unknown kernel {name!r}")
        self._kernels[name] = {}
        return
        yield  # pragma: no cover - makes this a generator

    def kernel_set_args(self, name: str, params: dict) -> None:
        if name not in self._kernels:
            raise MiddlewareError(f"kernel {name!r} was not created")
        self._kernels[name] = dict(params)

    def kernel_run(self, name: str, params: dict | None = None,
                   real: bool = True):
        """Launch and wait for completion (generator)."""
        if params is None:
            if name not in self._kernels:
                raise MiddlewareError(f"kernel {name!r} was not created")
            params = self._kernels[name]
        with self._obs.start("client.kernel_run", self._actor,
                             kernel=name) as span:
            result = yield self.gpu.launch(name, params, real=real,
                                           ctx=span.wire)
            return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LocalAccelerator on {self.gpu.name}>"
