"""Behavioural tests for the back-end daemon: serialization, accounting."""

import numpy as np
import pytest

from repro.cluster import Cluster, paper_testbed
from repro.core import (
    NAIVE_TRANSFER,
    Op,
    Request,
    TAG_REQUEST,
    pipeline,
    reply_tag,
)
from repro.core.daemon import DEDUP_CACHE_SIZE
from repro.mpisim import Phantom
from repro.units import KiB, MiB
from repro.core.api import run_parallel


@pytest.fixture
def rig():
    cluster = Cluster(paper_testbed(n_compute=2, n_accelerators=2))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=2))
    acs = [cluster.remote(0, h) for h in handles]
    return cluster, sess, acs


class TestDaemonSerialization:
    def test_concurrent_ops_to_one_daemon_serialize(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        params = {"A": 0, "B": 0, "C": 0, "m": 1024, "n": 1024, "k": 1024}
        t0 = sess.now
        sess.call(ac.kernel_run("dgemm", params, real=False))
        one = sess.now - t0
        t0 = sess.now
        sess.call(run_parallel(sess.engine, [ac.kernel_run("dgemm", params, real=False)
                       for _ in range(3)]))
        three = sess.now - t0
        assert three == pytest.approx(3 * one, rel=0.05)

    def test_concurrent_ops_to_two_daemons_overlap(self, rig):
        cluster, sess, acs = rig
        params = {"A": 0, "B": 0, "C": 0, "m": 1024, "n": 1024, "k": 1024}
        t0 = sess.now
        sess.call(acs[0].kernel_run("dgemm", params, real=False))
        one = sess.now - t0
        t0 = sess.now
        sess.call(run_parallel(sess.engine, [ac.kernel_run("dgemm", params, real=False)
                       for ac in acs]))
        both = sess.now - t0
        assert both < 1.5 * one

    def test_replies_matched_by_request_id(self, rig):
        # Two concurrent ops with different durations: each caller gets
        # its own answer even though replies share the (src, dst) pair.
        cluster, sess, acs = rig
        ac = acs[0]
        p_small = sess.call(ac.mem_alloc(64))
        p_big = sess.call(ac.mem_alloc(MiB))
        small = np.full(8, 3.0)
        results = sess.call(run_parallel(sess.engine, [
            ac.memcpy_h2d(p_big, Phantom(MiB)),
            ac.memcpy_h2d(p_small, small),
        ]))
        out = sess.call(ac.memcpy_d2h(p_small, 64))
        np.testing.assert_array_equal(out, small)

    def test_request_counter(self, rig):
        cluster, sess, acs = rig
        daemon = cluster.daemons[acs[0].handle.ac_id]
        before = daemon.stats.requests
        sess.call(acs[0].kernel_create("fill"))
        sess.call(acs[0].kernel_create("fill"))
        assert daemon.stats.requests == before + 2

    def test_two_frontends_one_accelerator_after_reassignment(self, rig):
        # Release from CN0, allocate from CN1: the daemon serves its new
        # exclusive owner with state intact (device memory was freed).
        cluster, sess, acs = rig
        client0 = cluster.arm_client(0)
        handles = [ac.handle for ac in acs]
        sess.call(client0.release(handles))
        client1 = cluster.arm_client(1)
        new = sess.call(client1.alloc(count=1))
        ac = cluster.remote(1, new[0])
        sess.call(ac.kernel_create("fill"))


class TestD2HStaging:
    def test_naive_d2h_stages_and_unstages_symmetrically(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        daemon = cluster.daemons[ac.handle.ac_id]
        ptr = sess.call(ac.mem_alloc(8 * MiB))
        daemon.stats.staging_peak = 0
        sess.call(ac.memcpy_d2h(ptr, 8 * MiB, transfer=NAIVE_TRANSFER))
        # The whole message was staged once and fully released.
        assert daemon.stats.staging_peak == 8 * MiB
        assert daemon.stats.staging_now == 0

    def test_pipelined_d2h_staging_bounded(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        daemon = cluster.daemons[ac.handle.ac_id]
        ptr = sess.call(ac.mem_alloc(8 * MiB))
        daemon.stats.staging_peak = 0
        sess.call(ac.memcpy_d2h(ptr, 8 * MiB, transfer=pipeline(128 * KiB)))
        # Blocks are released as their sends complete: the window stays a
        # small multiple of the block size, not the message size.
        assert 0 < daemon.stats.staging_peak < 8 * MiB
        assert daemon.stats.staging_now == 0


class TestArmConcurrency:
    def test_interleaved_clients_never_double_assign(self):
        cluster = Cluster(paper_testbed(n_compute=4, n_accelerators=3))
        eng = cluster.engine
        assignments = []

        def client_job(cn, hold, cycles):
            client = cluster.arm_client(cn)
            for _ in range(cycles):
                handles = yield from client.alloc(count=1, wait=True)
                assignments.append((eng.now, cn, handles[0].ac_id, "get"))
                yield eng.timeout(hold)
                assignments.append((eng.now, cn, handles[0].ac_id, "put"))
                yield from client.release(handles)

        procs = [eng.process(client_job(cn, 0.01 * (cn + 1), 5))
                 for cn in range(4)]
        eng.run(until=eng.all_of(procs))
        # Replay the log: an accelerator may never be granted twice
        # without an intervening release.
        held: dict[int, int] = {}
        for t, cn, ac_id, what in sorted(assignments, key=lambda r: r[0]):
            if what == "get":
                assert ac_id not in held, f"double assignment of ac{ac_id}"
                held[ac_id] = cn
            else:
                assert held.pop(ac_id) == cn
        assert not held

    def test_waiters_eventually_served(self):
        cluster = Cluster(paper_testbed(n_compute=4, n_accelerators=1))
        eng = cluster.engine
        served = []

        def client_job(cn):
            client = cluster.arm_client(cn)
            handles = yield from client.alloc(count=1, wait=True)
            yield eng.timeout(0.005)
            yield from client.release(handles)
            served.append(cn)

        procs = [eng.process(client_job(cn)) for cn in range(4)]
        eng.run(until=eng.all_of(procs))
        assert sorted(served) == [0, 1, 2, 3]


class TestDedupCacheEviction:
    """The at-most-once cache is bounded FIFO; eviction trades safety for
    memory, so both sides of the boundary need pinning down."""

    def _exchange(self, cluster, ac, req_id, attempt, nbytes=64):
        rank = cluster.compute_rank(0)

        def body():
            req = Request(op=Op.MEM_ALLOC, req_id=req_id, reply_to=0,
                          params={"nbytes": nbytes}, attempt=attempt)
            rreq = rank.irecv(source=ac.handle.daemon_rank,
                              tag=reply_tag(req_id))
            rank.isend(ac.handle.daemon_rank, TAG_REQUEST, req)
            yield rreq.done
            return rreq.message.payload

        return body()

    def test_recent_duplicate_replays_old_duplicate_reexecutes(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        daemon = cluster.daemons[ac.handle.ac_id]

        first_id = next(cluster.comm.ids)
        first = sess.call(self._exchange(cluster, ac, first_id, attempt=0))
        assert first.ok

        # Fill the cache with enough newer entries to push first_id out.
        last_id = None
        for _ in range(DEDUP_CACHE_SIZE):
            last_id = next(cluster.comm.ids)
            sess.call(self._exchange(cluster, ac, last_id, attempt=0))
        assert len(daemon._dedup) == DEDUP_CACHE_SIZE
        assert first_id not in daemon._dedup
        assert last_id in daemon._dedup

        # A duplicate of a *recent* request is replayed, not re-run.
        used = daemon.gpu.memory.used_bytes
        hits = daemon.stats.dedup_hits
        replay = sess.call(self._exchange(cluster, ac, last_id, attempt=1))
        assert replay.ok
        assert daemon.stats.dedup_hits == hits + 1
        assert daemon.gpu.memory.used_bytes == used

        # A duplicate of the *evicted* request falls off the at-most-once
        # guarantee: the daemon re-executes and hands out a fresh address.
        rerun = sess.call(self._exchange(cluster, ac, first_id, attempt=1))
        assert rerun.ok
        assert rerun.value != first.value
        assert daemon.stats.dedup_hits == hits + 1
        assert daemon.gpu.memory.used_bytes == used + 64

    def test_cache_never_exceeds_bound(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        daemon = cluster.daemons[ac.handle.ac_id]
        for _ in range(DEDUP_CACHE_SIZE + 7):
            sess.call(self._exchange(cluster, ac, next(cluster.comm.ids), attempt=0))
        assert len(daemon._dedup) == DEDUP_CACHE_SIZE
