"""Unit tests for the asynchronous command-stream API and the batch frame.

``TestBatchFrame`` is the one suite for the one batch executor: every
behaviour of a sub-frame of control ops is checked for each way it can
reach the daemon (``TRAVEL``).  The coalescer's own merging, isolation
between riders and dedup weighting stay in ``test_coalesce.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import Cluster, paper_testbed
from repro.core import (
    BATCHABLE_OPS,
    Op,
    Request,
    RetryPolicy,
    TAG_REQUEST,
    reply_tag,
)
from repro.core.coalesce import FrameCoalescer
from repro.errors import AcceleratorFault, MiddlewareError

from ..harness import register_tenants


@pytest.fixture
def rig(cluster):
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=2))
    acs = [cluster.remote(0, h) for h in handles]
    return cluster, sess, acs


#: How a ``batch_rpc`` sub-frame reaches the daemon: as the only rider of
#: its own frame, through a coalescer with nothing else pending, or merged
#: with a second front-end's sub-frame.  A loop over this table inside
#: each test (not ``pytest.mark.parametrize``) keeps the test ids stable.
TRAVEL = ("alone", "idle coalescer", "second rider")


def travel_rig(travel):
    """A fresh one-accelerator rig whose sub-frames travel ``travel``'s way.

    Returns ``(cluster, sess, ac, daemon, send)``; ``send(calls)`` runs
    ``ac.batch_rpc(calls)`` to completion and returns its responses.
    """
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
    sess = cluster.session()
    (handle,) = sess.call(cluster.arm_client(0).alloc(count=1))
    ac = cluster.remote(0, handle)
    daemon = cluster.daemons[handle.ac_id]

    riders = []
    if travel != "alone":
        ac.coalescer = FrameCoalescer(
            cluster.compute_rank(0), handle.daemon_rank,
            window_s=2e-6 if travel == "second rider" else 0.0)
    if travel == "second rider":
        riders.append(cluster.remote(0, handle))
        riders[0].coalescer = ac.coalescer

    def send(calls):
        frames = daemon.stats.mbatches
        subs, *pongs = sess.parallel(
            [ac.batch_rpc(calls)]
            + [other.batch_rpc([(Op.PING, {})]) for other in riders])
        # Everything shared one wire frame, and whatever happened inside
        # our sub-frame never touched the rider's.
        assert daemon.stats.mbatches == frames + 1
        assert all(p[0].ok and p[0].value == "pong" for p in pongs)
        return subs

    return cluster, sess, ac, daemon, send


class TestBatchFrame:
    def test_batch_rpc_one_round_trip(self):
        for travel in TRAVEL:
            _, _, ac, daemon, send = travel_rig(travel)
            riders = 2 if travel == "second rider" else 1
            served = daemon.stats.requests
            wire = ac.requests
            subs = send([
                (Op.MEM_ALLOC, {"nbytes": 4096}),
                (Op.MEM_ALLOC, {"nbytes": 8192}),
                (Op.KERNEL_CREATE, {"name": "dscal"}),
                (Op.PING, {}),
            ])
            # One frame on the wire, whoever sent it.
            assert daemon.stats.requests == served + 1, travel
            co = ac.coalescer
            if co is None:
                assert ac.requests == wire + 1
            else:
                assert co.subs_in == riders and co.frames_out == 1, travel
                assert co.subs_in - co.frames_out == riders - 1, travel
            assert daemon.stats.mbatches == 1, travel
            assert daemon.stats.mbatched_subs == riders, travel
            assert daemon.stats.mbatched_ops == 4 + (riders - 1), travel
            assert [s.ok for s in subs] == [True] * 4, travel
            assert subs[3].value == "pong"
            addr_a, addr_b = subs[0].value, subs[1].value
            assert addr_a != addr_b
            assert daemon.gpu.memory.used_bytes == 4096 + 8192

    def test_ops_execute_in_list_order(self):
        for travel in TRAVEL:
            _, _, _, daemon, send = travel_rig(travel)
            subs = send([(Op.MEM_ALLOC, {"nbytes": 128}),
                         (Op.PING, {}),
                         (Op.MEM_ALLOC, {"nbytes": 256})])
            assert [s.ok for s in subs] == [True] * 3, travel
            # Response i answers op i, and the allocator saw them in order.
            first, second = subs[0].value, subs[2].value
            assert daemon.gpu.memory.allocation(first).nbytes == 128
            assert daemon.gpu.memory.allocation(second).nbytes == 256
            assert first < second, travel
            # A later sub-frame sees the earlier one's effects.
            freed = send([(Op.MEM_FREE, {"addr": first})])
            assert freed[0].ok, travel
            assert daemon.gpu.memory.used_bytes == 256

    def test_batch_rejects_unbatchable_op(self):
        for travel in TRAVEL:
            _, sess, ac, daemon, _ = travel_rig(travel)
            wire = ac.requests
            for bad in (Op.MEMCPY_H2D, Op.MEMCPY_D2H, Op.PEER_PUT):
                with pytest.raises(MiddlewareError, match="cannot ride"):
                    sess.call(ac.batch_rpc([(Op.PING, {}),
                                            (bad, {"addr": 0, "nbytes": 8})]))
            # Rejected before anything reached the wire or the coalescer.
            assert ac.requests == wire and daemon.stats.mbatches == 0, travel
            assert ac.coalescer is None or ac.coalescer.subs_in == 0, travel

    def test_transfers_are_not_batchable(self):
        assert Op.MEMCPY_H2D not in BATCHABLE_OPS
        assert Op.MEMCPY_D2H not in BATCHABLE_OPS
        assert Op.PEER_PUT not in BATCHABLE_OPS
        # A retried frame must be at-most-once.
        from repro.core import DEDUP_OPS, RETRYABLE_OPS
        assert Op.MBATCH in RETRYABLE_OPS and Op.MBATCH in DEDUP_OPS

    def test_failed_sub_op_aborts_rest_of_frame(self):
        for travel in TRAVEL:
            _, _, _, daemon, send = travel_rig(travel)
            used = daemon.gpu.memory.used_bytes
            # (In the merged variant send() also asserts the rider's op
            # still ran: the skip is confined to the failing sub-frame.)
            subs = send([
                (Op.KERNEL_CREATE, {"name": "no_such_kernel"}),
                (Op.MEM_ALLOC, {"nbytes": 4096}),
            ])
            assert not subs[0].ok, travel
            assert not subs[1].ok and "skipped" in subs[1].error, travel
            assert daemon.gpu.memory.used_bytes == used  # alloc never ran

    def test_live_and_kernel_bookkeeping_follow_the_frame(self):
        for travel in TRAVEL:
            _, _, ac, _, send = travel_rig(travel)
            subs = send([(Op.MEM_ALLOC, {"nbytes": 64}),
                         (Op.MEM_ALLOC, {"nbytes": 96}),
                         (Op.KERNEL_CREATE, {"name": "dscal"})])
            a, b = subs[0].value, subs[1].value
            # Context-manager release covers allocations made in a frame,
            # and a created kernel accepts staged arguments.
            assert ac._live == {a: 64, b: 96}, travel
            ac.kernel_set_args("dscal", {"n": 0})
            subs = send([(Op.MEM_FREE, {"addr": a}),
                         (Op.MEM_FREE, {"addr": 0xdead}),
                         (Op.MEM_FREE, {"addr": b})])
            assert [s.ok for s in subs] == [True, False, False], travel
            assert ac._live == {b: 96}, travel     # only what really ran

    def test_duplicate_batch_frame_replayed_not_reexecuted(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        daemon = cluster.daemons[ac.handle.ac_id]
        rank = cluster.compute_rank(0)
        ops = [(Op.MEM_ALLOC.value, {"nbytes": 4096}),
               (Op.MEM_ALLOC.value, {"nbytes": 4096})]

        def exchange(req):
            rreq = rank.irecv(source=ac.handle.daemon_rank,
                              tag=reply_tag(req.req_id))
            rank.isend(ac.handle.daemon_rank, TAG_REQUEST, req)
            yield rreq.done
            return rreq.message.payload

        for n, riders in enumerate((1, 2), start=1):
            # The frame as batch_rpc (one rider) or a coalescer (two) builds it.
            req = Request(op=Op.MBATCH, req_id=next(cluster.comm.ids), reply_to=0,
                          params={"reqs": [(next(cluster.comm.ids), ops)
                                           for _ in range(riders)]})
            first = sess.call(exchange(req))
            used = daemon.gpu.memory.used_bytes
            second = sess.call(exchange(dataclasses.replace(req, attempt=1)))
            # The whole frame is deduplicated: same addresses, no new memory.
            assert [[s.value for s in sub] for sub in second.value] \
                == [[s.value for s in sub] for sub in first.value]
            assert len(first.value) == riders
            assert daemon.gpu.memory.used_bytes == used
            assert daemon.stats.dedup_hits == n
            assert daemon.stats.mbatches == n

    def test_one_rider_frame_is_the_same_alone_and_through_a_coalescer(self):
        calls = [(Op.MEM_ALLOC, {"nbytes": 4096}),
                 (Op.KERNEL_CREATE, {"name": "dgemm"}),
                 (Op.KERNEL_RUN, {"name": "dgemm", "real": False, "params": {
                     "A": 0, "B": 0, "C": 0, "m": 64, "n": 64, "k": 64}}),
                 (Op.MEM_FREE, {"addr": 0xdead}),
                 (Op.PING, {})]
        seen = []
        for travel in ("alone", "idle coalescer"):
            cluster, _, ac, daemon, send = travel_rig(travel)
            before = dataclasses.asdict(daemon.stats)
            subs = send(calls)
            after = dataclasses.asdict(daemon.stats)
            seen.append((
                [(s.status, s.value, s.error) for s in subs],
                {k: after[k] - before[k] for k in after},
                cluster.engine.now, dict(ac._live)))
        # Same responses, same daemon work, same completion virtual time.
        assert seen[0] == seen[1]
        assert [status.name for status, _, _ in seen[0][0]] \
            == ["OK", "OK", "OK", "ERROR", "ERROR"]


class TestStream:
    def test_ops_coalesce_and_preserve_order(self, rig):
        cluster, sess, acs = rig
        ac = acs[0]
        daemon = cluster.daemons[ac.handle.ac_id]

        def body():
            s = ac.stream()
            s.kernel_create("dscal")
            a = s.mem_alloc(8 * 32)
            s.memcpy_h2d(a, np.arange(32, dtype=np.float64))
            s.kernel_run("dscal", {"x": a, "n": 32, "alpha": 3.0})
            d = s.memcpy_d2h(a, 8 * 32)
            s.mem_free(a)
            yield from s.synchronize()
            return s, d

        s, d = sess.call(body())
        assert np.allclose(d.result(), np.arange(32) * 3.0)
        # create+alloc coalesced; h2d / run / d2h / free went solo.
        assert s.ops_issued == 6
        assert s.frames_issued == 5    # one round trip saved
        assert daemon.stats.mbatches == 1 and daemon.stats.mbatched_ops == 2
        assert daemon.stats.mbatched_subs == 1    # a one-rider frame

    def test_future_params_resolve_across_frames(self, rig):
        _, sess, acs = rig
        ac = acs[0]

        def body():
            s = ac.stream()
            s.kernel_create("daxpy")
            x = s.mem_alloc(8 * 16)       # futures used as kernel params
            y = s.mem_alloc(8 * 16)
            s.memcpy_h2d(x, np.ones(16))
            s.memcpy_h2d(y, np.full(16, 2.0))
            s.kernel_run("daxpy", {"x": x, "y": y, "n": 16, "alpha": 10.0})
            d = s.memcpy_d2h(y, 8 * 16)
            yield from s.synchronize()
            return d

        d = sess.call(body())
        assert np.allclose(d.result(), 12.0)

    def test_max_batch_splits_long_runs(self, rig):
        _, sess, acs = rig
        ac = acs[0]

        def body():
            s = ac.stream(max_batch=4)
            for _ in range(10):
                s.ping()
            yield from s.synchronize()
            return s

        s = sess.call(body())
        assert s.ops_issued == 10
        # 10 pings at max_batch=4 -> frames of 4+4+2.
        assert s.frames_issued == 3
        assert s.ops_batched == 10

    def test_result_before_completion_raises(self, rig):
        _, sess, acs = rig

        def body():
            s = acs[0].stream()
            f = s.mem_alloc(64)
            with pytest.raises(MiddlewareError):
                f.result()
            yield from s.synchronize()
            return f

        f = sess.call(body())
        assert f.ok and isinstance(f.result(), int)

    def test_error_is_sticky_and_fails_queued_ops(self, rig):
        _, sess, acs = rig

        def body():
            s = acs[0].stream()
            good = s.mem_alloc(64)
            bad = s.kernel_create("no_such_kernel")
            tail = s.mem_alloc(64)
            with pytest.raises(MiddlewareError):
                yield from s.synchronize()
            return s, good, bad, tail

        s, good, bad, tail = sess.call(body())
        assert good.ok
        assert bad.done and not bad.ok
        assert tail.done and not tail.ok
        with pytest.raises(MiddlewareError):
            tail.result()
        with pytest.raises(MiddlewareError):  # stream refuses new work
            s.mem_alloc(64)

    def test_dependency_on_failed_future_aborts(self, rig):
        _, sess, acs = rig
        ac0, ac1 = acs

        def body():
            s0, s1 = ac0.stream(), ac1.stream()
            bad = s0.kernel_create("nope")
            # s1's op depends on a future that will fail on s0.
            dep = s1.mem_free(bad)
            with pytest.raises(MiddlewareError):
                yield from s0.synchronize()
            with pytest.raises(MiddlewareError):
                yield from s1.synchronize()
            return dep

        dep = sess.call(body())
        assert dep.done and not dep.ok

    def test_independent_streams_overlap(self, rig):
        cluster, sess, acs = rig
        params = {"A": 0, "B": 0, "C": 0, "m": 512, "n": 512, "k": 512}

        def timed(n_streams):
            def body():
                streams = [acs[i].stream() for i in range(n_streams)]
                for s in streams:
                    s.kernel_create("dgemm")
                    s.kernel_run("dgemm", params, real=False)
                t0 = cluster.engine.now
                for s in streams:
                    yield from s.synchronize()
                return cluster.engine.now - t0
            return sess.call(body())

        one = timed(1)
        two = timed(2)
        # Two accelerators' kernels overlap: far cheaper than serialized.
        assert two < 1.5 * one

    def test_stream_retry_is_at_most_once(self, rig):
        """A batch frame whose reply is delayed past the deadline is
        resent; the daemon replays it instead of re-allocating."""
        cluster, sess, acs = rig
        ac = cluster.remote(0, acs[0].handle,
                            retry=RetryPolicy(timeout_s=150e-6))
        daemon = cluster.daemons[ac.handle.ac_id]

        def body():
            s = ac.stream()
            a = s.mem_alloc(4096)
            b = s.mem_alloc(4096)
            yield from s.synchronize()
            return s, a, b

        s, a, b = sess.call(body())
        assert a.result() != b.result()
        assert daemon.gpu.memory.used_bytes == 2 * 4096
        # Whether or not the deadline fired, memory was allocated once.
        assert daemon.stats.mbatches >= 1

    def test_create_and_run_by_name_share_a_frame(self, rig):
        """Regression: the run's staged args were resolved when the frame
        was built, before the create riding ahead of it had executed —
        failing the whole frame client-side, create included."""
        cluster, sess, acs = rig
        cluster.daemons[acs[0].handle.ac_id].gpu.registry.register(
            "forty_two", lambda dev, params: lambda: 42,
            lambda params, spec: 1e-6)

        def sync(ac, name):
            yield from ac.kernel_create(name)
            result = yield from ac.kernel_run(name)
            return result

        def streamed(ac, name):
            s = ac.stream()
            created, ran = s.kernel_create(name), s.kernel_run(name)
            try:
                yield from s.synchronize()
            finally:
                assert created.ok                     # never taken down
                assert s.frames_issued == 1
            return ran.result()

        def bodies(name):
            yield sync(cluster.remote(0, acs[0].handle), name)
            yield streamed(cluster.remote(0, acs[0].handle), name)

        # No parameters: the staged {} is enough.
        assert [sess.call(body) for body in bodies("forty_two")] == [42] * 2
        # Only the run fails, with the kernel's own text.
        for body in bodies("dscal"):
            with pytest.raises(MiddlewareError,
                               match="missing kernel parameter 'n'"):
                sess.call(body)

    def test_revoked_lease_fails_the_next_frame_and_sticks(self, cluster):
        sess = cluster.session()
        client = cluster.arm_client(0)
        register_tenants(cluster, "t")
        grant = sess.call(client.valloc("t"))
        ac = cluster.remote(0, grant["vac"])
        sess.call(ac.vac_attach(share=grant["share"],
                                mem_quota=grant["mem_quota"]))
        daemon = cluster.daemons[ac.handle.ac_id]
        s = ac.stream()

        def frame():
            futures = [s.mem_alloc(64), s.ping()]
            yield from s.synchronize()
            return futures

        assert all(f.ok for f in sess.call(frame()))
        assert daemon.stats.mbatches == 1
        daemon._vacs[grant["vac"].vac_id].revoke()   # preempted in between
        with pytest.raises(AcceleratorFault, match="revoked"):
            sess.call(frame())
        assert daemon.stats.preempted_requests == 1
        assert len(ac._live) == 1                    # nothing new tracked
        with pytest.raises(MiddlewareError, match="sticky"):
            s.ping()


class TestBackendParity:
    def test_stream_validates_max_batch(self, rig):
        with pytest.raises(MiddlewareError):
            rig[2][0].stream(max_batch=0)
