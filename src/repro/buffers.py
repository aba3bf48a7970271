"""Zero-copy payload plumbing: chunk views and copy accounting.

The paper's pipelined transfer path is *copy-lean by construction*
(GPUDirect v1 shares one pinned buffer between the NIC and the DMA
engine), and the simulation should be too: a payload that travels
front-end -> MPI -> daemon -> device backing store must touch host
memory once — the final write into device memory — not three or four
times.  This module provides the pieces every layer shares:

* :class:`ChunkView` — an immutable (offset, length) window over one
  shared uint8 backing buffer.  Chunks of one payload are views over the
  *same* buffer, so reassembly of a contiguous sequence is a slice, not
  a gather.  A ChunkView is a loan: the bytes are owned by whoever
  created the backing buffer, and consumers that need private mutable
  bytes must call :meth:`ChunkView.writable` (which is the single
  copy-on-write point).
* :class:`CopyStats` / :data:`copy_stats` — process-wide accounting of
  physical payload copies, used by the instrumented tests that assert
  the happy path really is zero-copy.

Ownership rules (see DESIGN.md §10):

1. A buffer handed to ``memcpy_h2d`` is loaned to the middleware until
   the operation completes; the caller must not mutate it in between.
2. Arrays returned by zero-copy downloads are read-only snapshot views;
   callers that need to mutate call ``.copy()``.
3. Device backing stores honour snapshot semantics through allocation-
   level copy-on-write: mutating device memory while downloaded views
   are outstanding repoints the allocation at a fresh buffer and leaves
   the old bytes to the views.
"""

from __future__ import annotations

import typing as _t

import numpy as np


class CopyStats:
    """Counters of physical payload-byte copies (host wall-time cost).

    ``payload_copies``/``payload_bytes`` count *avoidable* copies: send
    snapshots, staging gathers, read-out copies.  ``device_writes``/
    ``device_write_bytes`` count the one copy the architecture requires:
    the final write into the device backing store.  ``cow_copies``
    counts allocation-level copy-on-write *detaches* — a mutation found
    loaned views still referenced and left them the old backing — and
    ``cow_bytes`` the bytes actually carried over from an old backing
    because no later write replaced them: 0 for a block stream that
    rewrites the whole buffer, the full allocation for a kernel
    ``view()``.  Correct but worth watching, since a hot loop that
    mutates freshly-downloaded buffers pays one detach per mutation.
    """

    __slots__ = ("payload_copies", "payload_bytes",
                 "device_writes", "device_write_bytes",
                 "cow_copies", "cow_bytes")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.payload_copies = 0
        self.payload_bytes = 0
        self.device_writes = 0
        self.device_write_bytes = 0
        self.cow_copies = 0
        self.cow_bytes = 0

    def count_payload_copy(self, nbytes: int) -> None:
        self.payload_copies += 1
        self.payload_bytes += int(nbytes)

    def count_device_write(self, nbytes: int) -> None:
        self.device_writes += 1
        self.device_write_bytes += int(nbytes)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CopyStats payload={self.payload_copies}x/"
                f"{self.payload_bytes}B device={self.device_writes}x/"
                f"{self.device_write_bytes}B cow={self.cow_copies}x>")


#: Process-wide copy accounting.  Tests reset it around a scenario and
#: assert on the delta; production code only ever increments.
copy_stats = CopyStats()

def _as_uint8(buf: np.ndarray) -> np.ndarray:
    """Flat uint8 alias of a contiguous array (no copy).

    A buffer that already is flat uint8 is returned *as the same object*:
    chunk contiguity is detected by backing-buffer identity, so all views
    over one payload must share one base array.
    """
    arr = np.asarray(buf)
    if arr.dtype == np.uint8 and arr.ndim == 1:
        return arr
    if not arr.flags.c_contiguous:
        raise ValueError("ChunkView backing must be C-contiguous")
    return arr.view(np.uint8).reshape(-1)


class ChunkView:
    """An immutable (offset, length) window over a shared backing buffer.

    The payload currency of the zero-copy data plane: the MPI layer
    passes it through ``copy_for_send`` untouched (an ownership
    transfer, not a physical copy), the daemon writes it straight into
    device backing memory, and ``assemble_chunks`` recognises runs of
    contiguous views over one buffer and reassembles them with a slice.

    Consumers never mutate a ChunkView's bytes in place; they either
    read through :attr:`array` (a read-only numpy view) or take a
    private copy with :meth:`writable` — the single copy-on-write point.
    """

    __slots__ = ("_base", "offset", "nbytes")

    def __init__(self, base: np.ndarray, offset: int = 0,
                 nbytes: int | None = None):
        base = _as_uint8(base)
        if nbytes is None:
            nbytes = base.nbytes - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > base.nbytes:
            raise ValueError(
                f"view of {nbytes}B at offset {offset} exceeds "
                f"backing of {base.nbytes}B")
        self._base = base
        self.offset = int(offset)
        self.nbytes = int(nbytes)

    # -- zero-copy access ------------------------------------------------
    @property
    def base(self) -> np.ndarray:
        """The shared backing buffer (flat uint8)."""
        return self._base

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view of this chunk's bytes (no copy)."""
        view = self._base[self.offset:self.offset + self.nbytes]
        view.flags.writeable = False
        return view

    def subview(self, offset: int, nbytes: int) -> "ChunkView":
        """A narrower window over the same backing buffer (no copy)."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise ValueError(
                f"subview of {nbytes}B at offset {offset} exceeds "
                f"chunk of {self.nbytes}B")
        return ChunkView(self._base, self.offset + offset, nbytes)

    def follows(self, other: "ChunkView") -> bool:
        """True if this chunk starts where ``other`` ends in one buffer."""
        return (self._base is other._base
                and self.offset == other.offset + other.nbytes)

    # -- the copy points -------------------------------------------------
    def writable(self) -> np.ndarray:
        """A private mutable copy of the bytes (copy-on-write point)."""
        copy_stats.count_payload_copy(self.nbytes)
        return self._base[self.offset:self.offset + self.nbytes].copy()

    def tobytes(self) -> bytes:
        """Materialize as ``bytes`` (a physical copy; counted)."""
        copy_stats.count_payload_copy(self.nbytes)
        return self._base[self.offset:self.offset + self.nbytes].tobytes()

    # -- misc ------------------------------------------------------------
    def __len__(self) -> int:
        return self.nbytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChunkView):
            return NotImplemented
        return bool(np.array_equal(self.array, other.array))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ChunkView({self.nbytes}B @+{self.offset} of "
                f"{self._base.nbytes}B buffer)")


def chunk_payload(payload: _t.Any) -> np.ndarray:
    """Flat uint8 array of a chunk payload (ChunkView or array-like).

    Zero-copy for ChunkViews and C-contiguous arrays of any dtype, whose
    raw bytes are reinterpreted, never value-converted; the result must
    only be *read* (it may alias shared memory).
    """
    if isinstance(payload, ChunkView):
        return payload.array
    arr = np.asarray(payload)
    if not arr.flags.c_contiguous:
        copy_stats.count_payload_copy(arr.nbytes)
        arr = np.ascontiguousarray(arr)
    return _as_uint8(arr)
