"""Device-memory management for the virtual GPU.

A first-fit free-list allocator over a flat address space, mirroring
``cudaMalloc``/``cudaFree`` semantics.  Real payloads are kept as uint8
backing arrays per allocation (created lazily on first write), so the
middleware's pipelined block copies write genuine bytes at genuine offsets.
Array-typed writes additionally record dtype/shape so kernels can obtain
typed views without copying.

Invariants (exercised by the property tests):

* live allocations never overlap;
* every allocation lies within the device capacity;
* freeing coalesces adjacent free ranges, so alloc-all/free-all always
  returns to a single free block.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import typing as _t

import numpy as np

from ..buffers import ChunkView, chunk_payload, copy_stats
from ..errors import DeviceMemoryError
from ..units import MiB

#: A fresh backing store of at least this size has its pages faulted in
#: on a worker thread while the loop thread writes into it.  Faulting
#: costs about 0.2 ms per MiB and a worker may wait out the 5 ms GIL
#: switch interval before it starts, so below this the loop would fault
#: the pages itself first (DESIGN.md section 10).
POPULATE_MIN_BYTES = 16 * MiB

_MADV_POPULATE_WRITE = 23   # Linux >= 5.14
_pool = None


def _offload_pool():
    """The worker pool for kernel bodies and prefaults (one worker per
    available core, created on first use), or None with one core."""
    global _pool
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        return None
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(cores, thread_name_prefix="gpusim")
    return _pool


@functools.cache
def _madvise():
    """libc ``madvise``, bound on first use; a call releases the GIL."""
    import ctypes
    fn = ctypes.CDLL(None).madvise
    fn.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn


def _populate(held: list) -> None:
    """Worker side of a prefault: map the whole pages of one backing in
    as if written, without changing a byte.

    The reference is popped, so it lives exactly until ``madvise``
    returns: the range cannot be unmapped under the call, and a refcount
    probe that has joined this future counts no worker.  The populate is
    advisory, so an error return (EINVAL before Linux 5.14) is ignored.
    """
    buf = held.pop()
    addr, page = buf.ctypes.data, os.sysconf("SC_PAGESIZE")
    start = -(-addr // page) * page
    end = (addr + buf.nbytes) // page * page
    if end > start:
        _madvise()(start, end - start, _MADV_POPULATE_WRITE)


class Allocation:
    """One live device allocation."""

    __slots__ = ("addr", "nbytes", "data", "dtype", "shape", "_loaned",
                 "_pending", "_populating")

    def __init__(self, addr: int, nbytes: int):
        self.addr = addr
        self.nbytes = nbytes
        self.data: np.ndarray | None = None  # lazy uint8 backing store
        self.dtype: np.dtype | None = None
        self.shape: tuple[int, ...] | None = None
        #: True while zero-copy read views over ``data`` may be outstanding
        #: (D2H staging, downloads handed to the application).
        self._loaned = False
        #: ``(old backing, lo, hi)`` after a detach: bytes ``[lo, hi)`` of
        #: ``data`` are not yet valid and still live in the old backing.
        #: Never set while ``_loaned`` is — a loan settles before it is
        #: granted — so at most one old backing is ever pending.
        self._pending: tuple[np.ndarray, int, int] | None = None
        #: The future of the worker prefaulting ``data``; read before the
        #: refcount probe and at ``free``.
        self._populating = None

    def _fresh(self, make) -> np.ndarray:
        """A new backing store from ``make`` (``np.zeros`` / ``np.empty``);
        one of at least :data:`POPULATE_MIN_BYTES` is prefaulted on a worker."""
        data = make(self.nbytes, dtype=np.uint8)
        if self.nbytes >= POPULATE_MIN_BYTES and sys.platform == "linux":
            pool = _offload_pool()
            if pool is not None:
                self._populating = pool.submit(_populate, [data])
        return data

    def _join(self) -> None:
        """Wait for the prefault of ``data``, so no worker still holds it."""
        populating, self._populating = self._populating, None
        populating.result()

    def backing(self) -> np.ndarray:
        """The backing store with every byte in place (settles a detach)."""
        if self.data is None:
            self.data = self._fresh(np.zeros)
        elif self._pending is not None:
            self._carry(*self._pending)
            self._pending = None
        return self.data

    def _carry(self, old: np.ndarray, lo: int, hi: int) -> None:
        """Copy bytes ``[lo, hi)`` over from a detached backing."""
        copy_stats.cow_bytes += hi - lo
        self.data[lo:hi] = old[lo:hi]

    def _detach(self) -> None:
        """The allocation-level COW point, run before every mutation.

        While read views are loaned out (zero-copy D2H), the first
        mutation repoints this allocation at a fresh *uninitialised*
        buffer and leaves the old one to the views, which therefore keep
        the snapshot semantics a copying ``read()`` used to provide.  No
        byte is copied here: the old buffer is remembered as pending and
        only what later writes do not replace is ever carried over.
        """
        if self._loaned:
            if self._populating is not None:
                self._join()
            # Refcount probe: every live view into the backing (loans
            # and anything derived from them) holds a reference to it,
            # so if the count is back to baseline — self.data and
            # getrefcount's own argument — the snapshot obligation has
            # lapsed and the buffer can be reused in place.  Buffers
            # cycled through upload/download every pass would otherwise
            # pay a fresh backing per reuse.
            if sys.getrefcount(self.data) > 2:
                copy_stats.cow_copies += 1
                self._pending = (self.data, 0, self.nbytes)
                self.data = self._fresh(np.empty)
            self._loaned = False

    def writable(self) -> np.ndarray:
        """Backing store for mutation anywhere in the buffer."""
        self._detach()
        return self.backing()

    def store(self, offset: int, src: np.ndarray) -> None:
        """Overwrite ``src.nbytes`` bytes at ``offset`` (bounds checked by
        the caller), trimming the pending range by what this replaces."""
        if self.data is None:
            self.backing()
        self._detach()
        end = offset + src.nbytes
        if self._pending is not None:
            old, lo, hi = self._pending
            if offset <= lo:
                lo = max(lo, end)
            elif end >= hi:
                hi = min(hi, offset)
            else:
                # Strictly inside: carry the lower side now, so a single
                # interval always describes what is left.
                self._carry(old, lo, offset)
                lo = end
            self._pending = (old, lo, hi) if lo < hi else None
        self.data[offset:end] = src

    def loan(self, offset: int, nbytes: int) -> np.ndarray:
        """A read-only view of ``nbytes`` at ``offset`` (zero copy).

        The view stays valid as a snapshot of the current contents: any
        later mutation of the allocation goes through :meth:`_detach`
        and leaves this backing to the view.
        """
        view = self.backing()[offset:offset + nbytes]
        view.flags.writeable = False
        self._loaned = True
        return view

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Allocation @{self.addr:#x} {self.nbytes}B>"


class DeviceMemory:
    """First-fit allocator with free-range coalescing."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise DeviceMemoryError(f"capacity must be positive: {capacity!r}")
        self.capacity = int(capacity)
        #: Sorted list of (start, size) free ranges.
        self._free: list[tuple[int, int]] = [(0, self.capacity)]
        self._allocs: dict[int, Allocation] = {}
        #: The future of a kernel body computing on a worker thread over
        #: views of this memory (``GPUDevice.launch``).  The fence: an
        #: allocation lookup or a ``free`` first waits for it.
        self.inflight = None

    def _fence(self) -> None:
        """Wait for the in-flight kernel body; its launch reads the outcome."""
        body, self.inflight = self.inflight, None
        body.exception()

    # -- allocation -------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self.capacity - sum(size for _, size in self._free)

    @property
    def n_allocations(self) -> int:
        return len(self._allocs)

    def largest_free_block(self) -> int:
        return max((size for _, size in self._free), default=0)

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes``; returns the device address.

        Zero-byte allocations are rejected (CUDA returns a unique pointer,
        but none of our workloads rely on that corner).
        """
        if nbytes <= 0:
            raise DeviceMemoryError(f"allocation size must be positive: {nbytes!r}")
        for i, (start, size) in enumerate(self._free):
            if size >= nbytes:
                if size == nbytes:
                    del self._free[i]
                else:
                    self._free[i] = (start + nbytes, size - nbytes)
                alloc = Allocation(start, nbytes)
                self._allocs[start] = alloc
                return start
        raise DeviceMemoryError(
            f"out of device memory: requested {nbytes}, "
            f"largest free block {self.largest_free_block()}"
        )

    def free(self, addr: int) -> None:
        """Release the allocation at base address ``addr``."""
        if self.inflight is not None:
            self._fence()
        alloc = self._allocs.pop(addr, None)
        if alloc is None:
            raise DeviceMemoryError(f"free of unknown device address {addr:#x}")
        if alloc._populating is not None:
            alloc._join()
        self._insert_free(alloc.addr, alloc.nbytes)

    def _insert_free(self, start: int, size: int) -> None:
        # Insert keeping sort order, then coalesce neighbours.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < start:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (start, size))
        # Coalesce with successor first, then predecessor.
        if lo + 1 < len(self._free):
            s, sz = self._free[lo]
            ns, nsz = self._free[lo + 1]
            if s + sz == ns:
                self._free[lo] = (s, sz + nsz)
                del self._free[lo + 1]
        if lo > 0:
            ps, psz = self._free[lo - 1]
            s, sz = self._free[lo]
            if ps + psz == s:
                self._free[lo - 1] = (ps, psz + sz)
                del self._free[lo]

    # -- access -----------------------------------------------------------
    def allocation(self, addr: int) -> Allocation:
        """The allocation whose *base* address is ``addr``."""
        if self.inflight is not None:
            self._fence()
        try:
            return self._allocs[addr]
        except KeyError:
            raise DeviceMemoryError(f"unknown device address {addr:#x}") from None

    def write(self, addr: int, offset: int,
              data: bytes | np.ndarray | ChunkView) -> None:
        """Write raw bytes at ``addr + offset``.

        This is the one physical payload copy the architecture requires
        (network buffer -> device backing store); ``data`` may be a
        :class:`~repro.buffers.ChunkView`, whose bytes are read in place.
        """
        alloc = self.allocation(addr)
        if isinstance(data, (bytes, bytearray)):
            buf = np.frombuffer(data, dtype=np.uint8)
        else:
            buf = chunk_payload(data)
        if offset < 0 or offset + buf.nbytes > alloc.nbytes:
            raise DeviceMemoryError(
                f"write of {buf.nbytes}B at offset {offset} exceeds "
                f"allocation of {alloc.nbytes}B"
            )
        copy_stats.count_device_write(buf.nbytes)
        alloc.store(offset, buf)

    def read(self, addr: int, offset: int = 0, nbytes: int | None = None,
             copy: bool = True) -> np.ndarray:
        """Read raw bytes from ``addr + offset`` (dtype uint8).

        ``copy=True`` (the public-API default) returns a private mutable
        copy.  ``copy=False`` returns a read-only *loaned view* over the
        backing store — zero copy; allocation-level copy-on-write keeps
        it a stable snapshot even if device memory is mutated later.
        The daemon's D2H staging path uses the view variant.
        """
        alloc = self.allocation(addr)
        if nbytes is None:
            nbytes = alloc.nbytes - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > alloc.nbytes:
            raise DeviceMemoryError(
                f"read of {nbytes}B at offset {offset} exceeds "
                f"allocation of {alloc.nbytes}B"
            )
        if not copy:
            return alloc.loan(offset, nbytes)
        copy_stats.count_payload_copy(nbytes)
        return alloc.backing()[offset:offset + nbytes].copy()

    def read_chunk(self, addr: int, offset: int = 0,
                   nbytes: int | None = None) -> ChunkView:
        """Like ``read(copy=False)`` but wrapped as a transport-ready
        :class:`~repro.buffers.ChunkView` (the D2H staging currency)."""
        return ChunkView(self.read(addr, offset, nbytes, copy=False))

    def write_array(self, addr: int, array: np.ndarray) -> None:
        """Write a typed array at offset 0 and record its dtype/shape."""
        alloc = self.allocation(addr)
        arr = np.ascontiguousarray(array)
        if arr.nbytes > alloc.nbytes:
            raise DeviceMemoryError(
                f"array of {arr.nbytes}B does not fit allocation of {alloc.nbytes}B"
            )
        copy_stats.count_device_write(arr.nbytes)
        alloc.store(0, arr.view(np.uint8).reshape(-1))
        alloc.dtype = arr.dtype
        alloc.shape = arr.shape

    def set_array_meta(self, addr: int, dtype: np.dtype | str, shape: tuple[int, ...]) -> None:
        """Declare the typed interpretation of a buffer without writing it."""
        alloc = self.allocation(addr)
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(shape)
        if nbytes > alloc.nbytes:
            raise DeviceMemoryError(
                f"declared view of {nbytes}B exceeds allocation of {alloc.nbytes}B"
            )
        alloc.dtype = dtype
        alloc.shape = tuple(shape)

    def _typed_extent(self, alloc: Allocation, dtype, shape) -> tuple[np.dtype, tuple, int]:
        dt = np.dtype(dtype) if dtype is not None else alloc.dtype
        shp = shape if shape is not None else alloc.shape
        if dt is None or shp is None:
            raise DeviceMemoryError(
                f"buffer {alloc.addr:#x} has no recorded dtype/shape; "
                "write_array() or set_array_meta() first"
            )
        n = dt.itemsize * math.prod(shp)
        if n > alloc.nbytes:
            raise DeviceMemoryError(
                f"view of {n}B exceeds allocation of {alloc.nbytes}B"
            )
        return dt, shp, n

    def view(self, addr: int, dtype: np.dtype | str | None = None,
             shape: tuple[int, ...] | None = None) -> np.ndarray:
        """A mutable typed view of a buffer (zero copy).

        Uses the recorded dtype/shape unless overridden.  Kernels mutate
        device data through these views, so acquiring one is a mutation
        point: outstanding loaned read views are detached first
        (allocation-level copy-on-write).
        """
        alloc = self.allocation(addr)
        dt, shp, n = self._typed_extent(alloc, dtype, shape)
        return alloc.writable()[:n].view(dt).reshape(shp)

    def read_array(self, addr: int, copy: bool = True) -> np.ndarray:
        """A typed read of a buffer using its recorded dtype/shape.

        ``copy=True`` (public-API default) returns a private mutable
        copy; ``copy=False`` returns a read-only loaned snapshot view
        (zero copy, protected by allocation-level copy-on-write).
        """
        alloc = self.allocation(addr)
        dt, shp, n = self._typed_extent(alloc, None, None)
        if not copy:
            return alloc.loan(0, n).view(dt).reshape(shp)
        copy_stats.count_payload_copy(n)
        return alloc.backing()[:n].view(dt).reshape(shp).copy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<DeviceMemory {self.used_bytes}/{self.capacity}B used, "
                f"{len(self._allocs)} allocs>")


class MemoryPartition:
    """One tenant's ownership view of a shared :class:`DeviceMemory`.

    Not a carve-out and not a quota: every partition allocates from the
    shared device allocator (``malloc`` fails only when the device runs
    short), but each tracks which base addresses it owns, so the daemon
    can refuse cross-tenant frees and reads, and a detached or revoked
    slice frees exactly its own allocations.
    """

    def __init__(self, memory: DeviceMemory, name: str = ""):
        self.memory = memory
        self.name = name
        self._owned: dict[int, int] = {}  # base addr -> nbytes

    def owns(self, addr: int) -> bool:
        return addr in self._owned

    def check(self, addr: int) -> int:
        """Validate ownership of base address ``addr`` (returns it)."""
        if addr not in self._owned:
            raise DeviceMemoryError(
                f"address {addr:#x} is not owned by partition {self.name!r}")
        return addr

    def malloc(self, nbytes: int) -> int:
        if nbytes <= 0:
            raise DeviceMemoryError(
                f"allocation size must be positive: {nbytes!r}")
        addr = self.memory.malloc(nbytes)
        self._owned[addr] = nbytes
        return addr

    def free(self, addr: int) -> None:
        self.check(addr)
        self.memory.free(addr)
        del self._owned[addr]

    def release_all(self) -> int:
        """Free every allocation this partition owns; returns bytes freed.

        Used when a virtual accelerator is detached or preempted: the
        tenant's device state is dropped wholesale (its host-side shadow
        is what survives, via the replay machinery).
        """
        freed = 0
        for addr, nbytes in sorted(self._owned.items()):
            self.memory.free(addr)
            freed += nbytes
        self._owned.clear()
        return freed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemoryPartition {self.name!r} {len(self._owned)} allocs>"
