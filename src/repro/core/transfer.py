"""The block pipeline of Sect. IV, shared by front-end and daemon.

A bulk copy is split into blocks so that the network transfer of one
block overlaps the DMA of its neighbour.  This module holds the one
copy of each piece: the transfer-header check every daemon handler runs
(:meth:`DeviceEnd.check`), the block sender (:func:`send_blocks` — fed
from device memory on a daemon, from host memory on a front-end), the
network-to-device block receiver (:func:`recv_blocks`), and the payload
slicing and reassembly around them.

Real payloads are viewed as flat uint8 and cut into
:class:`~repro.buffers.ChunkView` windows over one shared backing
buffer: slicing allocates nothing, the MPI layer moves the windows by
reference, and :func:`assemble_chunks` reassembles a contiguous run of
them with a slice instead of a gather.  :class:`~repro.mpisim.Phantom`
payloads are cut into phantom blocks of the same sizes (one shared
phantom per size: it carries no data), so timing-only transfers
exercise the identical protocol path.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import typing as _t

import numpy as np

from ..buffers import ChunkView, chunk_payload, copy_stats
from ..errors import DeviceMemoryError, MiddlewareError
from ..mpisim import Phantom, RankHandle
from ..obs.spans import NULL_SPAN
from ..sim import Event

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


def phantom_blocks(blocks: list[tuple[int, int]]) -> list[Phantom]:
    """One phantom per block, shared by the blocks of one size."""
    by_size = {size: Phantom(size) for size in {size for _, size in blocks}}
    return [by_size[size] for _, size in blocks]


def slice_chunks(payload: _t.Any, blocks: list[tuple[int, int]]) -> list[_t.Any]:
    """Split a payload into per-block chunks matching ``blocks``.

    Real payloads yield :class:`ChunkView` windows over the payload's
    flat view (one shared buffer, no allocation per block); a timing-only
    one its :func:`phantom_blocks`.
    """
    flat = as_flat_bytes(payload)
    if flat is None:
        return phantom_blocks(blocks)
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


# -- the block pipeline ---------------------------------------------------
@dataclasses.dataclass
class DeviceEnd:
    """The accelerator end of one bulk transfer: its checked header plus
    the device, CPU and staging accounting the pipeline works with."""

    gpu: _t.Any
    cpu: _t.Any
    #: Staging accounting: ``stage(nbytes)`` / ``unstage(nbytes)``.
    stats: _t.Any
    #: Parent of the per-block network / staging / DMA spans.
    span: _t.Any
    alloc: _t.Any
    addr: int
    base: int
    blocks: list[tuple[int, int]]
    nbytes: int
    #: None on a PEER_PUT: its stream runs on the forwarded request's tag.
    dtag: int | None
    gpudirect: bool

    @classmethod
    def check(cls, gpu, cpu, stats, span, params: dict, addr_key: str,
              owner=None) -> "DeviceEnd":
        """Unpack and validate the header of a transfer on ``addr_key``.

        Raises :class:`DeviceMemoryError` for an unknown address, a
        negative offset, a copy past the end of the allocation, or — with
        ``owner``, the memory
        partition of the request's lease — an address that lease does
        not own (cross-tenant isolation).
        """
        addr = params[addr_key]
        base = params.get("offset", 0)
        blocks = params["blocks"]
        nbytes = sum(size for _, size in blocks)
        alloc = gpu.memory.allocation(addr)
        if base < 0:
            raise DeviceMemoryError(f"negative copy offset {base}")
        if base + nbytes > alloc.nbytes:
            raise DeviceMemoryError(
                f"copy of {nbytes}B at offset {base} exceeds "
                f"allocation of {alloc.nbytes}B")
        if owner is not None and not owner.owns(addr):
            raise DeviceMemoryError(
                f"address {addr:#x} is not owned by "
                f"virtual accelerator {params['vac']}")
        return cls(gpu, cpu, stats, span, alloc, addr, base, blocks, nbytes,
                   params.get("data_tag"), params.get("gpudirect", True))

    def covers(self, extent: int) -> bool:
        """The whole-buffer rule for typed metadata: a dtype/shape
        travels with, and is recorded by, only a transfer that starts at
        offset 0 and moves exactly ``extent`` bytes — a partial update
        (e.g. a factored diagonal block) can neither clobber a buffer's
        shape nor declare one its bytes do not fill."""
        return self.base == 0 and self.nbytes == extent

    @property
    def source_meta(self) -> ArrayMeta:
        """The typed interpretation a read of this region carries."""
        alloc = self.alloc
        if (alloc.data is None or alloc.dtype is None or alloc.shape is None
                or not self.covers(alloc.dtype.itemsize
                                   * math.prod(alloc.shape))):
            return None
        return (alloc.dtype.str, alloc.shape)

    def loan(self) -> list[_t.Any]:
        """One chunk per block of the source region: subviews of a single
        loan (later device writes trigger allocation-level copy-on-write,
        so in-flight and client-held chunks stay stable snapshots), or
        phantoms for a timing-only buffer never written with real data."""
        if self.alloc.data is None:
            return phantom_blocks(self.blocks)
        region = self.gpu.memory.read_chunk(self.addr, self.base, self.nbytes)
        return [region.subview(off, size) for off, size in self.blocks]


def send_blocks(rank: RankHandle, dst: int, dtag: int, chunks: list,
                post_s: float | None, dev: DeviceEnd | None = None):
    """Stream ``chunks`` to ``dst`` on ``dtag``, one eager send each (generator).

    Eager because the header announced the blocks, so the receiver's
    pinned ring counts as pre-posted receives; ``post_s`` is the
    per-block posting cost.  The sends are non-blocking: block k is on
    the wire while block k+1 is produced.

    With a device end each block is first produced by a
    device-to-pinned DMA, plus a CPU staging copy without GPUDirect; its
    pinned-ring slot is held from the start of that DMA until the NIC
    has drained it (send injection).  Host chunks need no produce step —
    the front-end's H2D inject loop, which never yields.
    """
    if dev is not None:
        # One parent context per stream, not one per block; untraced
        # (``NULL_SPAN``, no context) a block makes no span call.
        span = dev.span
        ctx = span.wire
        stats = dev.stats
        engine = rank.comm.engine

        def unstage(msg) -> None:
            # The block's slot frees once the NIC has posted it.
            stats.unstage(msg.nbytes)
    for i, chunk in enumerate(chunks):
        if dev is not None:
            size = chunk.nbytes
            stats.stage(size)
            yield dev.gpu.dma.copy(size, ctx=ctx)
            if not dev.gpudirect:
                staging_s = size / dev.cpu.memcpy_bw_Bps
                if ctx is None:
                    yield engine.sleep(staging_s)
                else:
                    with span.child("staging", block=i, nbytes=size):
                        yield engine.sleep(staging_s)
            if ctx is not None:
                span.event("net.send", block=i, nbytes=size)
        msg = rank.isend(dst, dtag, chunk, eager=True, injection_s=post_s)
        if dev is not None:
            msg.add_callback(unstage)


def recv_blocks(rank: RankHandle, src: int, dtag: int,
                blocks: list[tuple[int, int]], dials,
                dev: DeviceEnd | None = None):
    """Receive a block stream from ``src`` into device memory (generator).

    Each block's DMA is issued as soon as the block has landed, while
    the next one is still on the wire.  The received chunk is a view
    over the sender's buffer and the DMA engine models time only, so the
    one physical copy is the write into the device backing store when
    the DMA completes; the pinned-ring slot is held until then.  Every
    copy of the stream lands through one function (copies on one engine
    complete in issue order), and the stream waits on one event that
    the last landing fires.  Every
    block after the first costs one request handling of software
    (posting the next receive and the DMA descriptor; the first block's
    cost was the request handling itself), and without GPUDirect a CPU
    copy from the MPI receive buffer into the pinned DMA buffer.

    ``dials`` is the daemon, for its fault-injection dials: the stall
    deadline ``data_stall_s`` (None: unbounded) and the straggler
    ``slow_factor`` that scales it and the handling cost.  They are read
    per block, so a straggler injected mid-stream slows the blocks still
    to come.  Returns None once every block is in device memory, or the
    index of the block at which the stream stalled (partition, dropped
    blocks).  Blocks already written stay written; the rest of
    the stream is pre-discarded, because blocks still in flight
    (delayed, not dropped) would otherwise sit in the unexpected queue
    and be mis-matched by a later transfer reusing the data tag.

    Without a device end the stream belongs to a request that was
    rejected up front: its blocks are consumed and dropped.
    """
    engine = rank.comm.engine
    span = dev.span if dev is not None else NULL_SPAN
    # Untraced (``NULL_SPAN``, no context) a block makes no span call;
    # traced, each block's ``net.recv`` is a row of the span's collector.
    ctx = span.wire
    if ctx is not None:
        obs, actor = span.collector, span.actor
    if dev is not None:
        memory, stats = dev.gpu.memory, dev.stats
        landing: collections.deque = collections.deque()
        to_land = len(blocks)
        landed = Event(engine)

        def land(_copy) -> None:
            nonlocal to_land
            off, size, chunk = landing.popleft()
            if not isinstance(chunk, Phantom):
                memory.write(dev.addr, dev.base + off, chunk)
            stats.unstage(size)
            to_land -= 1
            if not to_land:
                landed.succeed()
    for i, (off, size) in enumerate(blocks):
        rreq = rank.irecv(source=src, tag=dtag)
        recv_row = (obs.open_row("net.recv", actor, ctx,
                                 {"block": i, "nbytes": size})
                    if ctx is not None and obs.enabled else None)
        stall = dials.data_stall_s
        yield (rreq if stall is None
               else engine.race(rreq, stall * dials.slow_factor))
        if recv_row is not None:
            obs.finish_row(recv_row)
        if stall is not None and not rreq.completed:
            # Cancelled, not leaked; then the rest of the stream.
            rank.cancel_recv(rreq)
            rank.discard_next(src, dtag, count=len(blocks) - i)
            return i
        if dev is None:
            continue
        if i:
            yield engine.sleep(
                dev.cpu.request_handling_s * dials.slow_factor)
        if not dev.gpudirect:
            staging_s = size / dev.cpu.memcpy_bw_Bps
            if ctx is None:
                yield engine.sleep(staging_s)
            else:
                with span.child("staging", block=i, nbytes=size):
                    yield engine.sleep(staging_s)
        stats.stage(size)
        chunk = rreq.message.payload
        landing.append((off, size, chunk))
        dev.gpu.dma.copy(int(chunk.nbytes), ctx=ctx, on_done=land)
    if dev is not None and blocks:
        yield landed
