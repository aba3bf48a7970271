"""Zero-copy data plane: identity, copy accounting, COW isolation.

The zero-copy plane is the only data plane; its reference is the
plain-host byte oracle.  The same seeded memcpy-heavy program must
download exactly the oracle's bytes, and tracing it must change neither
the bytes nor the virtual-time trace.  On top of that, the copy
counters prove the happy path really is zero-copy (no payload copy on a
contiguous H2D except the final device write), and allocation-level
copy-on-write keeps loaned download views stable snapshots.
"""

import numpy as np
import pytest

from repro.buffers import copy_stats
from repro.cluster import Cluster, paper_testbed
from repro.mpisim import Phantom

from .harness import (
    expected_memcpy_results,
    generate_memcpy_program,
    make_local_rig,
    make_remote_rig,
    run_memcpy,
    run_memcpy_traced,
)

MEMCPY_SEEDS = [0, 1, 2, 3, 4, 7, 42, 1234]


def _run_untraced(seed):
    cluster, sess, ac = make_remote_rig()
    return sess.call(run_memcpy(cluster.engine, ac,
                                generate_memcpy_program(seed)))


@pytest.mark.parametrize("seed", MEMCPY_SEEDS)
def test_zero_copy_ab_identity(seed):
    """Same program, traced vs untraced: bytes and trace identical."""
    traced, spans = run_memcpy_traced(seed)
    plain = _run_untraced(seed)
    assert len(traced.results) == len(plain.results)
    for i, (a, b) in enumerate(zip(traced.results, plain.results)):
        assert a == b, f"result[{i}] diverged between traced/untraced"
    assert traced.trace == plain.trace, "virtual-time trace diverged"
    assert spans, "traced run recorded no spans"
    traced.assert_monotonic()


@pytest.mark.parametrize("seed", MEMCPY_SEEDS)
def test_memcpy_results_match_host_oracle(seed):
    """Downloaded bytes match the plain-host byte oracle."""
    expected = expected_memcpy_results(generate_memcpy_program(seed))
    assert any(not isinstance(r, tuple) for r in expected), (
        "seed produced no real downloads to compare")
    assert _run_untraced(seed).results == expected, "oracle mismatch"


def test_memcpy_program_is_pure_in_seed():
    a = generate_memcpy_program(17)
    b = generate_memcpy_program(17)
    assert len(a) == len(b)
    for ia, ib in zip(a, b):
        assert ia.op == ib.op
        for xa, xb in zip(ia.args, ib.args):
            if isinstance(xa, np.ndarray):
                # Byte-level: a random-byte float64 payload may hold NaNs.
                assert xa.tobytes() == xb.tobytes()
            elif isinstance(xa, Phantom):
                assert isinstance(xb, Phantom) and xa.nbytes == xb.nbytes
            else:
                assert xa == xb


def test_contiguous_h2d_pays_only_the_device_write():
    """Happy path: one contiguous array upload → zero payload copies.

    The single allowed copy is the final write into device backing
    memory; every intermediate hop (slice, send, receive, staging) must
    be a view hand-off.
    """
    payload = np.arange(256 * 1024, dtype=np.uint8)
    cluster, sess, ac = make_remote_rig()

    def prog():
        addr = yield from ac.mem_alloc(payload.nbytes)
        copy_stats.reset()
        yield from ac.memcpy_h2d(addr, payload)
        return addr

    sess.call(prog())
    assert copy_stats.payload_copies == 0, (
        f"contiguous H2D paid {copy_stats.payload_copies} avoidable "
        f"payload copies ({copy_stats.payload_bytes}B)")
    assert copy_stats.device_writes >= 1
    assert copy_stats.device_write_bytes == payload.nbytes


def test_d2h_download_is_a_loaned_view():
    """D2H of a full buffer stages and assembles without payload copies."""
    payload = np.arange(128 * 1024, dtype=np.uint8)
    cluster, sess, ac = make_remote_rig()

    def prog():
        addr = yield from ac.mem_alloc(payload.nbytes)
        yield from ac.memcpy_h2d(addr, payload)
        copy_stats.reset()
        out = yield from ac.memcpy_d2h(addr, payload.nbytes)
        return out

    out = sess.call(prog())
    assert copy_stats.payload_copies == 0, (
        f"D2H paid {copy_stats.payload_copies} avoidable payload copies")
    out = np.asarray(out)
    assert not out.flags.writeable, (
        "zero-copy download must hand back a read-only loan")
    assert (out.view(np.uint8).reshape(-1) == payload).all()


def test_downloaded_view_is_cow_isolated_from_later_writes():
    """A loaned download stays a stable snapshot across device mutation."""
    first = np.full(64 * 1024, 7, dtype=np.uint8)
    second = np.full(64 * 1024, 9, dtype=np.uint8)
    cluster, sess, ac = make_remote_rig()

    def prog():
        addr = yield from ac.mem_alloc(first.nbytes)
        yield from ac.memcpy_h2d(addr, first)
        snapshot = yield from ac.memcpy_d2h(addr, first.nbytes)
        yield from ac.memcpy_h2d(addr, second)
        after = yield from ac.memcpy_d2h(addr, second.nbytes)
        return snapshot, after

    copy_stats.reset()
    snapshot, after = sess.call(prog())
    snapshot = np.asarray(snapshot).view(np.uint8).reshape(-1)
    after = np.asarray(after).view(np.uint8).reshape(-1)
    assert (snapshot == 7).all(), (
        "COW failed: later device write leaked into the loaned snapshot")
    assert (after == 9).all()
    assert copy_stats.cow_copies >= 1, (
        "expected an allocation-level COW snapshot when the device "
        "buffer was overwritten under a live loan")


@pytest.fixture(params=["remote", "local"])
def peer_pair(request):
    """``(sess, a, b)``: two front-ends of one kind (the node-attached
    GPU is both); only the remote pair has ``peer_put``."""
    if request.param == "local":
        _, sess, local = make_local_rig()
        return sess, local, local
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=2))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=2))
    return sess, cluster.remote(0, handles[0]), cluster.remote(0, handles[1])


def _flat(out) -> np.ndarray:
    return np.asarray(out).view(np.uint8).reshape(-1)


def test_download_held_across_full_upload_carries_nothing_over(peer_pair):
    """The block stream of a whole-buffer H2D replaces every byte, so the
    detach under the held download copies none of them."""
    sess, ac, _ = peer_pair
    first = np.random.default_rng(5).integers(0, 256, 1 << 20, dtype=np.uint8)
    second = np.invert(first)

    def prog():
        addr = yield from ac.mem_alloc(first.nbytes)
        yield from ac.memcpy_h2d(addr, first)
        held = yield from ac.memcpy_d2h(addr, first.nbytes)
        copy_stats.reset()
        yield from ac.memcpy_h2d(addr, second)
        after = yield from ac.memcpy_d2h(addr, first.nbytes)
        return held, after

    held, after = sess.call(prog())
    assert (copy_stats.cow_copies, copy_stats.cow_bytes) == (1, 0)
    assert copy_stats.device_write_bytes == first.nbytes
    np.testing.assert_array_equal(_flat(held), first)
    np.testing.assert_array_equal(_flat(after), second)


@pytest.mark.parametrize("peer_pair", ["remote"], indirect=True)
def test_peer_put_while_range_pending_ships_settled_bytes(peer_pair):
    """A partial upload under a held download leaves its tail pending;
    the peer copy's loan settles it, carrying exactly the tail."""
    sess, a, b = peer_pair
    first = np.random.default_rng(6).integers(0, 256, 1 << 18, dtype=np.uint8)
    second = np.invert(first)
    n, half = first.nbytes, first.nbytes // 2

    def prog():
        src = yield from a.mem_alloc(n)
        dst = yield from b.mem_alloc(n)
        yield from a.memcpy_h2d(src, first)
        held = yield from a.memcpy_d2h(src, n)
        copy_stats.reset()
        yield from a.memcpy_h2d(src, second[:half])
        before_put = copy_stats.snapshot()
        yield from a.peer_put(src, n, b, dst)
        out = yield from b.memcpy_d2h(dst, n)
        return held, before_put, out

    held, before_put, out = sess.call(prog())
    assert (before_put["cow_copies"], before_put["cow_bytes"]) == (1, 0)
    assert (copy_stats.cow_copies, copy_stats.cow_bytes) == (1, n - half)
    np.testing.assert_array_equal(_flat(out)[:half], second[:half])
    np.testing.assert_array_equal(_flat(out)[half:], first[half:])
    np.testing.assert_array_equal(_flat(held), first)


def test_chunkview_writable_is_a_private_copy():
    """ChunkView.writable() detaches from the shared backing buffer."""
    from repro.buffers import ChunkView

    backing = np.arange(1024, dtype=np.uint8)
    view = ChunkView(backing, offset=128, nbytes=256)
    private = view.writable()
    private[:] = 0
    assert backing[128] == 128, "writable() mutated the shared backing"
    assert (view.array == backing[128:384]).all()
    with pytest.raises(ValueError):
        view.array[0] = 1  # the read-only view rejects mutation
