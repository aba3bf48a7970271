"""Device-memory allocator tests, including hypothesis invariants."""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers import copy_stats
from repro.errors import DeviceMemoryError
from repro.gpusim import DeviceMemory
from repro.gpusim import memory as gmem


class TestMallocFree:
    def test_simple_alloc(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(100)
        assert mem.used_bytes == 100
        assert mem.n_allocations == 1
        mem.free(a)
        assert mem.used_bytes == 0

    def test_sequential_allocs_do_not_overlap(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(100)
        b = mem.malloc(200)
        c = mem.malloc(300)
        spans = sorted([(a, 100), (b, 200), (c, 300)])
        for (s1, n1), (s2, _) in zip(spans, spans[1:]):
            assert s1 + n1 <= s2

    def test_exhaustion_raises(self):
        mem = DeviceMemory(1000)
        mem.malloc(800)
        with pytest.raises(DeviceMemoryError, match="out of device memory"):
            mem.malloc(300)

    def test_free_reuses_space(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(600)
        mem.free(a)
        b = mem.malloc(900)  # only fits if the space came back
        assert b == 0

    def test_coalescing_after_out_of_order_frees(self):
        mem = DeviceMemory(1000)
        ptrs = [mem.malloc(250) for _ in range(4)]
        for p in (ptrs[1], ptrs[3], ptrs[0], ptrs[2]):
            mem.free(p)
        assert mem.largest_free_block() == 1000

    def test_double_free_raises(self):
        mem = DeviceMemory(100)
        a = mem.malloc(50)
        mem.free(a)
        with pytest.raises(DeviceMemoryError):
            mem.free(a)

    def test_free_bogus_address_raises(self):
        mem = DeviceMemory(100)
        with pytest.raises(DeviceMemoryError):
            mem.free(12345)

    def test_zero_size_rejected(self):
        mem = DeviceMemory(100)
        with pytest.raises(DeviceMemoryError):
            mem.malloc(0)

    def test_fragmentation_blocks_large_alloc(self):
        mem = DeviceMemory(1000)
        ptrs = [mem.malloc(100) for _ in range(10)]
        for p in ptrs[::2]:  # free alternating blocks: 5 holes of 100
            mem.free(p)
        assert mem.used_bytes == 500
        with pytest.raises(DeviceMemoryError):
            mem.malloc(200)  # no hole is big enough despite 500 free


class TestDataAccess:
    def test_write_read_roundtrip(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(100)
        mem.write(a, 0, b"\x01\x02\x03")
        out = mem.read(a, 0, 3)
        assert bytes(out) == b"\x01\x02\x03"

    def test_write_at_offset(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(10)
        mem.write(a, 4, b"\xff\xff")
        out = mem.read(a)
        assert bytes(out) == b"\x00" * 4 + b"\xff\xff" + b"\x00" * 4

    def test_write_overflow_rejected(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(10)
        with pytest.raises(DeviceMemoryError):
            mem.write(a, 8, b"\x00\x00\x00")

    def test_read_overflow_rejected(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(10)
        with pytest.raises(DeviceMemoryError):
            mem.read(a, 5, 10)

    def test_array_roundtrip_preserves_dtype_shape(self):
        mem = DeviceMemory(10_000)
        a = mem.malloc(800)
        arr = np.arange(100, dtype=np.float64).reshape(10, 10)
        mem.write_array(a, arr)
        out = mem.read_array(a)
        assert out.dtype == np.float64
        assert out.shape == (10, 10)
        np.testing.assert_array_equal(out, arr)

    def test_view_is_mutable_zero_copy(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(80)
        mem.write_array(a, np.zeros(10))
        v = mem.view(a)
        v[3] = 7.0
        assert mem.read_array(a)[3] == 7.0

    def test_view_without_meta_raises(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(80)
        with pytest.raises(DeviceMemoryError, match="no recorded dtype"):
            mem.view(a)

    def test_set_array_meta_enables_view(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(80)
        mem.set_array_meta(a, "float64", (10,))
        v = mem.view(a)
        assert v.shape == (10,)
        np.testing.assert_array_equal(v, np.zeros(10))

    def test_oversized_array_rejected(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(8)
        with pytest.raises(DeviceMemoryError):
            mem.write_array(a, np.zeros(10))

    def test_oversized_meta_rejected(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(8)
        with pytest.raises(DeviceMemoryError):
            mem.set_array_meta(a, "float64", (10,))

    @pytest.mark.parametrize("arr", [
        np.array([1.5, 2.5, 300.0]),
        np.array([-1, 2 ** 40, 300], dtype=np.int64),
        np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2],  # strided
    ], ids=["float64", "int64", "strided"])
    def test_typed_write_stores_raw_bytes_not_cast_values(self, arr):
        # Raw bytes, not values: a uint8 value-cast would store 1.5 as 1
        # and 300.0 as 44, one byte per element.
        mem = DeviceMemory(1000)
        a = mem.malloc(64)
        mem.write(a, 8, arr)
        out = mem.read(a, 8, arr.nbytes)
        assert out.nbytes == arr.nbytes
        np.testing.assert_array_equal(out.view(arr.dtype).reshape(arr.shape),
                                      arr)
        with pytest.raises(DeviceMemoryError):
            mem.write(a, 64 - arr.nbytes + 1, arr)

    def test_block_writes_assemble_full_payload(self):
        # The pipeline protocol writes sequential blocks at offsets.
        mem = DeviceMemory(10_000)
        a = mem.malloc(1000)
        payload = np.random.default_rng(0).integers(0, 256, 1000).astype(np.uint8)
        for off in range(0, 1000, 128):
            chunk = payload[off:off + 128]
            mem.write(a, off, chunk)
        np.testing.assert_array_equal(mem.read(a), payload)


@st.composite
def alloc_scripts(draw):
    """A sequence of (op, size) operations for the allocator."""
    n = draw(st.integers(1, 40))
    ops = []
    for _ in range(n):
        if draw(st.booleans()):
            ops.append(("malloc", draw(st.integers(1, 300))))
        else:
            ops.append(("free", draw(st.integers(0, 10))))
    return ops


class TestAllocatorProperties:
    @given(alloc_scripts())
    @settings(max_examples=200, deadline=None)
    def test_no_overlap_and_conservation(self, script):
        mem = DeviceMemory(2048)
        live: dict[int, int] = {}
        for op, arg in script:
            if op == "malloc":
                try:
                    addr = mem.malloc(arg)
                except DeviceMemoryError:
                    continue
                assert addr not in live
                live[addr] = arg
            else:
                if not live:
                    continue
                addr = sorted(live)[arg % len(live)]
                mem.free(addr)
                del live[addr]
            # Invariant: allocations within capacity and pairwise disjoint.
            spans = sorted((a, s) for a, s in live.items())
            for (a1, s1), (a2, _) in zip(spans, spans[1:]):
                assert a1 + s1 <= a2
            for a, s in spans:
                assert 0 <= a and a + s <= mem.capacity
            # Invariant: used byte accounting is exact.
            assert mem.used_bytes == sum(live.values())
        # Free everything: memory must coalesce back to one block.
        for addr in list(live):
            mem.free(addr)
        assert mem.largest_free_block() == mem.capacity

    @given(st.lists(st.integers(1, 64), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_data_survives_neighbour_churn(self, sizes):
        mem = DeviceMemory(64 * 64)
        keeper = mem.malloc(64)
        marker = np.arange(64, dtype=np.uint8)
        mem.write(keeper, 0, marker)
        ptrs = []
        for s in sizes:
            try:
                ptrs.append(mem.malloc(s))
            except DeviceMemoryError:
                break
        for p in ptrs:
            mem.free(p)
        np.testing.assert_array_equal(mem.read(keeper), marker)


class TestZeroCopyLoans:
    """``copy=False`` reads: read-only loans with allocation-level COW."""

    def test_read_loan_is_read_only_and_zero_copy(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(100)
        mem.write(a, 0, np.arange(100, dtype=np.uint8))
        copy_stats.reset()
        loan = mem.read(a, copy=False)
        assert copy_stats.payload_copies == 0
        assert not loan.flags.writeable
        with pytest.raises(ValueError):
            loan[0] = 1
        np.testing.assert_array_equal(loan, np.arange(100, dtype=np.uint8))

    def test_read_array_loan_keeps_dtype_shape(self):
        mem = DeviceMemory(10_000)
        a = mem.malloc(800)
        arr = np.arange(100, dtype=np.float64).reshape(10, 10)
        mem.write_array(a, arr)
        loan = mem.read_array(a, copy=False)
        assert loan.dtype == np.float64
        assert loan.shape == (10, 10)
        assert not loan.flags.writeable
        np.testing.assert_array_equal(loan, arr)

    def test_loan_is_cow_isolated_from_later_writes(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(64)
        mem.write(a, 0, np.full(64, 7, dtype=np.uint8))
        loan = mem.read(a, copy=False)
        copy_stats.reset()
        mem.write(a, 0, np.full(64, 9, dtype=np.uint8))
        assert copy_stats.cow_copies >= 1
        assert (loan == 7).all(), "write leaked into an outstanding loan"
        np.testing.assert_array_equal(mem.read(a),
                                      np.full(64, 9, dtype=np.uint8))

    def test_copy_true_read_is_private_and_mutable(self):
        mem = DeviceMemory(1000)
        a = mem.malloc(32)
        mem.write(a, 0, np.arange(32, dtype=np.uint8))
        out = mem.read(a)
        out[:] = 0
        np.testing.assert_array_equal(mem.read(a),
                                      np.arange(32, dtype=np.uint8))


def _contents(alloc) -> bytes:
    """Logical bytes of an allocation *without* settling a pending range:
    ``data`` is valid outside ``[lo, hi)``, the old backing inside it."""
    if alloc.data is None:
        return bytes(alloc.nbytes)
    out = alloc.data.copy()
    if alloc._pending is not None:
        old, lo, hi = alloc._pending
        out[lo:hi] = old[lo:hi]
    return out.tobytes()


# Model-based test: bytes per allocation, and the grain of its offsets
# (coarse, so that writes often reach exactly an end of the buffer).
_COW_SIZE, _COW_GRAIN = 48, 8
# Writes, reads and the first allocation are repeated so that most steps
# land on one allocation while one of its loans is held.
_COW_OPS = ("write", "write", "write", "write", "write_array", "read",
            "read", "read_array", "view", "drop")


class TestRangeAwareCow:
    """A write under a live loan detaches without copying; only bytes no
    later write replaces are carried over, when something asks for them."""

    N, BLOCK = 1024, 128

    def _loaned(self):
        mem = DeviceMemory(4 * self.N)
        a = mem.malloc(self.N)
        old = np.arange(self.N, dtype=np.uint32).astype(np.uint8)
        mem.write(a, 0, old)
        loan = mem.read(a, copy=False)
        copy_stats.reset()
        return mem, a, old, loan

    @pytest.mark.parametrize("offsets", [
        range(0, N, BLOCK), range(N - BLOCK, -1, -BLOCK),
    ], ids=["ascending", "descending"])
    def test_full_block_stream_carries_nothing_over(self, offsets):
        mem, a, old, loan = self._loaned()
        new = np.invert(old)
        for off in offsets:
            mem.write(a, off, new[off:off + self.BLOCK])
        assert mem.allocation(a)._pending is None
        assert (copy_stats.cow_copies, copy_stats.cow_bytes) == (1, 0)
        np.testing.assert_array_equal(mem.read(a), new)
        np.testing.assert_array_equal(loan, old)

    @pytest.mark.parametrize("array_write", [False, True],
                             ids=["write", "write_array"])
    def test_single_full_size_write_carries_nothing_over(self, array_write):
        mem, a, old, loan = self._loaned()
        new = np.invert(old)
        if array_write:
            mem.write_array(a, new)
        else:
            mem.write(a, 0, new)
        assert (copy_stats.cow_copies, copy_stats.cow_bytes) == (1, 0)
        np.testing.assert_array_equal(mem.read(a), new)
        np.testing.assert_array_equal(loan, old)

    @pytest.mark.parametrize("done", [1, 3, 7])
    def test_abandoned_stream_reads_back_old_tail(self, done):
        mem, a, old, loan = self._loaned()
        new = np.invert(old)
        cut = done * self.BLOCK
        for off in range(0, cut, self.BLOCK):
            mem.write(a, off, new[off:off + self.BLOCK])
        assert copy_stats.cow_bytes == 0, "nothing asked for the tail yet"
        out = mem.read(a)
        np.testing.assert_array_equal(out[:cut], new[:cut])
        np.testing.assert_array_equal(out[cut:], old[cut:])
        assert (copy_stats.cow_copies, copy_stats.cow_bytes) == (
            1, self.N - cut)
        np.testing.assert_array_equal(loan, old)

    def test_short_write_array_keeps_old_tail(self):
        mem, a, old, loan = self._loaned()
        head = np.arange(16, dtype=np.float64)
        mem.write_array(a, head)
        out = mem.read(a)
        assert out[:head.nbytes].tobytes() == head.tobytes()
        np.testing.assert_array_equal(out[head.nbytes:], old[head.nbytes:])
        assert copy_stats.cow_bytes == self.N - head.nbytes
        np.testing.assert_array_equal(loan, old)

    def test_middle_first_write_is_exact(self):
        # A write strictly inside the pending range would split it; the
        # lower side is carried at once so one interval still suffices.
        mem, a, old, loan = self._loaned()
        new = np.invert(old)
        lo, hi = 3 * self.BLOCK, 5 * self.BLOCK
        mem.write(a, lo, new[lo:hi])
        assert mem.allocation(a)._pending[1:] == (hi, self.N)
        assert copy_stats.cow_bytes == lo
        expect = old.copy()
        expect[lo:hi] = new[lo:hi]
        np.testing.assert_array_equal(mem.read(a), expect)
        assert copy_stats.cow_bytes == self.N - (hi - lo)
        np.testing.assert_array_equal(loan, old)

    def test_write_outside_pending_range_leaves_it_alone(self):
        mem, a, old, loan = self._loaned()
        new = np.invert(old)
        b, n = self.BLOCK, self.N
        mem.write(a, 0, new[:b])
        mem.write(a, n - b, new[n - b:])
        alloc = mem.allocation(a)
        assert alloc._pending[1:] == (b, n - b)
        # Rewrites of already-replaced bytes, clear of the range's ends.
        mem.write(a, 0, new[:b // 2])
        mem.write(a, n - b // 2, new[n - b // 2:])
        assert alloc._pending[1:] == (b, n - b)
        expect = new.copy()
        expect[b:n - b] = old[b:n - b]
        np.testing.assert_array_equal(mem.read(a), expect)
        assert copy_stats.cow_bytes == n - 2 * b

    def test_kernel_view_carries_whole_buffer(self):
        mem, a, old, loan = self._loaned()
        v = mem.view(a, dtype="uint8", shape=(self.N,))
        assert (copy_stats.cow_copies, copy_stats.cow_bytes) == (1, self.N)
        v[:] = 0
        np.testing.assert_array_equal(loan, old)
        assert not mem.read(a).any()

    def test_loan_while_pending_is_settled_first(self):
        mem, a, old, loan = self._loaned()
        mem.write(a, 0, np.zeros(self.BLOCK, dtype=np.uint8))
        alloc = mem.allocation(a)
        assert alloc._pending is not None and not alloc._loaned
        second = mem.read(a, copy=False)
        assert alloc._pending is None and alloc._loaned
        np.testing.assert_array_equal(second[self.BLOCK:], old[self.BLOCK:])
        assert not second[:self.BLOCK].any()
        mem.write(a, 0, np.full(self.N, 5, dtype=np.uint8))
        np.testing.assert_array_equal(loan, old)
        assert not second[:self.BLOCK].any()

    @pytest.mark.parametrize("mutate", ["write", "write_array", "view"])
    def test_dropped_loan_lets_next_mutation_reuse_backing(self, mutate):
        # Guards the refcount probe's baseline: with no view left alive
        # the count must read as "unreferenced", wherever the probe lives.
        mem, a, old, loan = self._loaned()
        alloc = mem.allocation(a)
        before = id(alloc.data)
        del loan
        if mutate == "write":
            mem.write(a, 0, b"\x01\x02")
        elif mutate == "write_array":
            mem.write_array(a, np.array([1, 2], dtype=np.uint8))
        else:
            mem.view(a, dtype="uint8", shape=(self.N,))[:2] = (1, 2)
        assert id(alloc.data) == before, "backing was replaced, not reused"
        assert alloc._pending is None and not alloc._loaned
        assert (copy_stats.cow_copies, copy_stats.cow_bytes) == (0, 0)
        out = mem.read(a)
        assert out[:2].tolist() == [1, 2]
        np.testing.assert_array_equal(out[2:], old[2:])

    @given(st.lists(st.tuples(st.sampled_from(_COW_OPS),
                              st.sampled_from((0, 0, 0, 1)),
                              st.integers(0, _COW_SIZE // _COW_GRAIN),
                              st.integers(0, _COW_SIZE // _COW_GRAIN),
                              st.integers(0, 255), st.booleans()),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_bytearray_model(self, script):
        mem = DeviceMemory(4 * _COW_SIZE)
        addrs = [mem.malloc(_COW_SIZE), mem.malloc(_COW_SIZE)]
        model = [bytearray(_COW_SIZE), bytearray(_COW_SIZE)]
        loans: list[tuple[np.ndarray, bytes]] = []

        def fill(n, seed):
            return ((np.arange(n) * 7 + seed) % 256).astype(np.uint8)

        for op, which, x, y, seed, flag in script:
            a, ref = addrs[which], model[which]
            off, n = min(x, y) * _COW_GRAIN, abs(x - y) * _COW_GRAIN
            if op == "write":
                src = fill(n, seed)
                mem.write(a, off, src)
                ref[off:off + n] = src.tobytes()
            elif op == "write_array":
                arr = fill(8 * (n // 8), seed).view(np.float64)
                if flag:
                    arr = arr.reshape(-1, 1)
                mem.write_array(a, arr)
                ref[:arr.nbytes] = arr.tobytes()
            elif op == "read":
                out = mem.read(a, off, n, copy=flag)
                assert out.tobytes() == bytes(ref[off:off + n])
                if not flag:
                    loans.append((out, out.tobytes()))
            elif op == "read_array":
                if mem.allocation(a).dtype is None:
                    continue
                out = mem.read_array(a, copy=flag)
                assert out.tobytes() == bytes(ref[:out.nbytes])
                if not flag:
                    loans.append((out, out.tobytes()))
            elif op == "view":
                v = mem.view(a, dtype="uint8", shape=(_COW_SIZE,))
                v[off:off + n] = seed
                ref[off:off + n] = bytes([seed]) * n
                del v
            elif loans:
                del loans[x % len(loans)]
            for addr, want in zip(addrs, model):
                alloc = mem.allocation(addr)
                assert not (alloc._loaned and alloc._pending is not None)
                assert _contents(alloc) == bytes(want)
            for loan, taken in loans:
                assert loan.tobytes() == taken, "a write leaked into a loan"
        for addr, want in zip(addrs, model):
            assert mem.read(addr).tobytes() == bytes(want)


#: How long a held-open prefault keeps its backing at most.
HOLD_S = 0.05


@pytest.fixture
def prefault(monkeypatch):
    """Two available cores and a 64 KiB threshold, so a 1 MiB backing is
    prefaulted on the worker pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(gmem, "POPULATE_MIN_BYTES", 64 << 10)


@pytest.fixture
def held_open(prefault, monkeypatch):
    """Prefault workers that keep their backing referenced until the test
    ends, or for :data:`HOLD_S` at most, as a slow ``madvise`` would."""
    release = threading.Event()

    def populate(held):
        buf = held.pop()  # noqa: F841 (held, like the real worker's)
        release.wait(HOLD_S)

    monkeypatch.setattr(gmem, "_populate", populate)
    yield
    release.set()


_RAMP = (np.arange(1 << 20) % 251).astype(np.uint8)


def _block(k: int, nbytes: int) -> np.ndarray:
    """Block ``k`` of a stream (at most 1 MiB): a ramp shifted by ``k``."""
    return _RAMP[:nbytes] + np.uint8(7 * k % 256)


@pytest.mark.skipif(sys.platform != "linux", reason="madvise prefault is Linux-only")
class TestPrefault:
    """A large fresh backing is prefaulted on a worker while the loop thread
    writes into it; no byte, count or probe result moves."""

    N = 1 << 20

    def test_block_stream_into_detached_backing_while_populating(
            self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        n, b = 64 << 20, 512 << 10
        mem = DeviceMemory(n)
        a = mem.malloc(n)
        alloc = mem.allocation(a)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            loan = None
            for rep in range(4):
                for off in range(0, n, b):
                    mem.write(a, off, _block(rep + off // b, b))
                    if off == 0:
                        assert alloc._populating is not None
                new = mem.read(a, copy=False)
                for off in range(0, n, b):
                    assert np.array_equal(new[off:off + b],
                                          _block(rep + off // b, b)), (rep, off)
                    if loan is not None:
                        assert np.array_equal(loan[off:off + b],
                                              _block(rep - 1 + off // b, b))
                loan = new
        finally:
            sys.setswitchinterval(interval)
        mem.free(a)
        assert alloc._populating is None

    def test_probe_joins_a_populate_held_open(self, held_open):
        # Two loans held across a write detach twice; a loan dropped before
        # the third write lets it reuse the backing in place, although the
        # worker prefaulting that backing still held it when it was written.
        mem = DeviceMemory(4 * self.N)
        a = mem.malloc(self.N)
        mem.write(a, 0, _block(0, self.N))
        copy_stats.reset()
        loans = []
        for k in (1, 2):
            loans.append(mem.read(a, copy=False))
            mem.write(a, 0, _block(k, self.N))
        mem.read(a, copy=False)
        mem.write(a, 0, _block(3, self.N))
        assert (copy_stats.cow_copies, copy_stats.cow_bytes) == (2, 0)
        for k, loan in enumerate(loans):
            assert np.array_equal(loan, _block(k, self.N))
        assert np.array_equal(mem.read(a), _block(3, self.N))

    def test_free_reads_the_populate_in_flight(self, held_open):
        mem = DeviceMemory(self.N)
        a = mem.malloc(self.N)
        mem.write(a, 0, _block(0, 8))
        alloc = mem.allocation(a)
        populating = alloc._populating
        mem.free(a)
        assert populating.done() and alloc._populating is None

    @pytest.mark.parametrize("why", ["one core", "small", "off linux"])
    def test_nothing_submitted(self, prefault, monkeypatch, why):
        if why == "one core":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif why == "off linux":
            monkeypatch.setattr(sys, "platform", "darwin")
        n = gmem.POPULATE_MIN_BYTES - (why == "small")
        mem = DeviceMemory(2 * n)
        a = mem.malloc(n)
        alloc = mem.allocation(a)
        mem.write(a, 0, _block(0, n))
        loan = mem.read(a, copy=False)
        mem.write(a, 0, _block(1, n))
        assert alloc._pending is None and alloc._populating is None
        assert np.array_equal(loan, _block(0, n))

    def test_worker_keeps_no_reference_after_madvise(self, prefault):
        buf, held = np.empty(self.N, dtype=np.uint8), []
        held.append(buf)
        gmem._populate(held)
        assert not held and sys.getrefcount(buf) == 2

    def test_madvise_error_changes_nothing(self, prefault, monkeypatch):
        calls = []

        def failing(addr, length, advice):
            calls.append((addr, length, advice))
            return -1

        monkeypatch.setattr(gmem, "_madvise", lambda: failing)
        mem = DeviceMemory(self.N)
        a = mem.malloc(self.N)
        mem.write(a, 0, _block(0, self.N))
        alloc = mem.allocation(a)
        assert alloc._populating.result(timeout=5) is None
        assert calls and calls[0][2] == gmem._MADV_POPULATE_WRITE
        assert np.array_equal(mem.read(a), _block(0, self.N))
