"""Payload chunking and reassembly shared by front-end and daemon.

Real payloads are viewed as flat uint8 and sliced into the pipeline's
blocks; :class:`~repro.mpisim.datatypes.Phantom` payloads are sliced into
phantom blocks of the same sizes, so timing-only transfers exercise the
identical protocol path.

With the zero-copy plane on (the default, see :mod:`repro.buffers`),
chunks are :class:`~repro.buffers.ChunkView` windows over one shared
backing buffer: slicing allocates nothing, the MPI layer moves them by
reference, and :func:`assemble_chunks` reassembles a contiguous run of
views with a slice instead of a gather.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..buffers import ChunkView, chunk_payload, copy_stats
from ..errors import MiddlewareError
from ..mpisim import Phantom

#: Array metadata carried in transfer headers: (dtype string, shape tuple).
ArrayMeta = _t.Optional[tuple[str, tuple[int, ...]]]


def payload_meta(payload: _t.Any) -> ArrayMeta:
    """dtype/shape metadata of an array payload (None for raw/phantom)."""
    if isinstance(payload, np.ndarray):
        return (payload.dtype.str, payload.shape)
    return None


def as_flat_bytes(payload: _t.Any) -> np.ndarray | None:
    """Flat uint8 view of a real payload; None for phantom/timing-only.

    The result aliases the caller's memory whenever the payload is
    contiguous — including ``bytes``/``bytearray``/``memoryview``
    payloads, which are wrapped with ``np.frombuffer`` on the original
    buffer rather than round-tripped through ``bytes()``.  The view is
    marked read-only where numpy allows it; note that a ``bytearray``
    payload remains mutable through the *original* object, so callers
    loan it to the middleware until the operation completes (DESIGN.md
    §10).  Only a non-contiguous array or memoryview costs a copy.
    """
    if payload is None or isinstance(payload, Phantom):
        return None
    if isinstance(payload, ChunkView):
        return payload.array
    if isinstance(payload, np.ndarray):
        if not payload.flags.c_contiguous:
            copy_stats.count_payload_copy(payload.nbytes)
            return np.ascontiguousarray(payload).view(np.uint8).reshape(-1)
        return payload.view(np.uint8).reshape(-1)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        if isinstance(payload, memoryview) and not payload.c_contiguous:
            copy_stats.count_payload_copy(payload.nbytes)
            payload = payload.tobytes()
        flat = np.frombuffer(payload, dtype=np.uint8)
        if flat.flags.writeable:  # bytearray / writable memoryview
            flat = flat.view()
            flat.flags.writeable = False
        return flat
    raise MiddlewareError(
        f"unsupported bulk payload type {type(payload).__name__}; "
        "use numpy arrays, bytes, or Phantom"
    )


def slice_chunks(payload: _t.Any, blocks: list[tuple[int, int]]) -> list[_t.Any]:
    """Split a payload into per-block chunks matching ``blocks``.

    Real payloads yield :class:`ChunkView` windows over the payload's
    flat view (one shared buffer, no allocation per block).
    """
    flat = as_flat_bytes(payload)
    if flat is None:
        return [Phantom(size) for _, size in blocks]
    total = sum(size for _, size in blocks)
    if flat.nbytes != total:
        raise MiddlewareError(
            f"payload of {flat.nbytes}B does not match planned blocks ({total}B)"
        )
    return [ChunkView(flat, off, size) for off, size in blocks]


def _assemble_views(chunks: list[ChunkView],
                    blocks: list[tuple[int, int]]) -> np.ndarray | None:
    """Slice-reassembly of a contiguous run of views over one buffer.

    Returns the flat uint8 window (read-only, zero copy) or None when the
    chunks are not one contiguous run.
    """
    first = chunks[0]
    for prev, cur in zip(chunks, chunks[1:]):
        if not cur.follows(prev):
            return None
    total = sum(size for _, size in blocks)
    if first.nbytes + sum(c.nbytes for c in chunks[1:]) != total:
        return None
    out = first.base[first.offset:first.offset + total]
    out.flags.writeable = False
    return out


def assemble_chunks(chunks: list[_t.Any], blocks: list[tuple[int, int]],
                    meta: ArrayMeta) -> _t.Any:
    """Reassemble received chunks into an array (or a Phantom).

    Returns a typed array when ``meta`` is available, a flat uint8 array
    otherwise, or a Phantom when the transfer was timing-only.  When all
    chunks are :class:`ChunkView` windows forming one contiguous run
    over a single backing buffer — the zero-copy plane's happy path —
    assembly is a slice of that buffer and copies nothing; the result is
    then a read-only snapshot view (``.copy()`` it to mutate).
    """
    if len(chunks) != len(blocks):
        raise MiddlewareError(
            f"got {len(chunks)} chunks for {len(blocks)} planned blocks"
        )
    total = sum(size for _, size in blocks)
    n_phantom = sum(isinstance(c, Phantom) for c in chunks)
    if n_phantom:
        if n_phantom != len(chunks):
            # Collapsing a mix to a Phantom would silently discard the
            # real chunks' data.
            raise MiddlewareError(
                f"cannot assemble mixed chunks: {n_phantom} phantom, "
                f"{len(chunks) - n_phantom} real")
        return Phantom(total)
    out: np.ndarray | None = None
    if chunks and all(isinstance(c, ChunkView) for c in chunks):
        out = _assemble_views(chunks, blocks)
    if out is None:
        out = np.empty(total, dtype=np.uint8)
        copy_stats.count_payload_copy(total)
        for chunk, (off, size) in zip(chunks, blocks):
            arr = chunk_payload(chunk)
            if arr.nbytes != size:
                raise MiddlewareError(
                    f"chunk of {arr.nbytes}B does not match block size {size}B"
                )
            out[off:off + size] = arr
    if meta is not None:
        dtype, shape = meta
        return out.view(np.dtype(dtype)).reshape(shape)
    return out
