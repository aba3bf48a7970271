"""Unit tests for the batch frame and the control runs sent through it.

``TestBatchFrame`` is the one suite for the one batch executor: every
behaviour of a sub-frame of control ops is checked for each way it can
reach the daemon (``TRAVEL``).  The coalescer's own merging, isolation
between riders and dedup weighting stay in ``test_coalesce.py``.
"""

import dataclasses

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
from repro.core.api import MAX_RUN_OPS, run_parallel

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
        subs, *pongs = sess.call(run_parallel(sess.engine, 
            [ac.batch_rpc(calls)]
            + [other.batch_rpc([(Op.KERNEL_CREATE, {"name": "fill"})])
               for other in riders]))
        # Everything shared one wire frame, and whatever happened inside
        # our sub-frame never touched the rider's.
        assert daemon.stats.mbatches == frames + 1
        assert all(p[0].ok for p in pongs)
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
                (Op.KERNEL_CREATE, {"name": "fill"}),
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
            addr_a, addr_b = subs[0].value, subs[1].value
            assert addr_a != addr_b
            assert daemon.gpu.memory.used_bytes == 4096 + 8192

    def test_ops_execute_in_list_order(self):
        for travel in TRAVEL:
            _, _, _, daemon, send = travel_rig(travel)
            subs = send([(Op.MEM_ALLOC, {"nbytes": 128}),
                         (Op.KERNEL_CREATE, {"name": "fill"}),
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
                    sess.call(ac.batch_rpc([(Op.KERNEL_CREATE, {"name": "fill"}),
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
                 (Op.KERNEL_CREATE, {"name": "fill"})]
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


class TestControlRun:
    """``RemoteAccelerator.control_run``: control ops in order, as runs of
    at most :data:`MAX_RUN_OPS`, one round trip each."""

    def test_runs_split_at_the_cap_and_a_lone_op_travels_alone(self):
        _, sess, ac, daemon, _ = travel_rig("alone")
        served = daemon.stats.requests
        calls = [(Op.MEM_ALLOC, {"nbytes": 64 * (i + 1)})
                 for i in range(MAX_RUN_OPS + 1)]
        addrs = sess.call(ac.control_run(calls))
        sizes = [params["nbytes"] for _, params in calls]
        assert [daemon.gpu.memory.allocation(a).nbytes for a in addrs] == sizes
        assert ac._live == dict(zip(addrs, sizes))
        # A frame of 16, then the 17th op as its own request.
        assert daemon.stats.requests == served + 2
        assert daemon.stats.mbatches == 1
        assert daemon.stats.mbatched_ops == MAX_RUN_OPS

    def test_failed_op_raises_and_nothing_after_it_runs(self):
        _, sess, ac, daemon, _ = travel_rig("alone")
        served = daemon.stats.requests
        used = daemon.gpu.memory.used_bytes
        calls = ([(Op.MEM_ALLOC, {"nbytes": 64}),
                  (Op.KERNEL_CREATE, {"name": "no_such_kernel"}),
                  (Op.MEM_ALLOC, {"nbytes": 128})]
                 + [(Op.KERNEL_CREATE, {"name": "fill"})] * MAX_RUN_OPS)
        with pytest.raises(MiddlewareError, match="no_such_kernel"):
            sess.call(ac.control_run(calls))
        # The ops behind the failure in its frame were skipped...
        assert daemon.gpu.memory.used_bytes == used + 64
        assert "fill" not in ac._kernels
        # ...and the second run was never sent.
        assert daemon.stats.requests == served + 1
        assert daemon.stats.mbatched_ops == MAX_RUN_OPS

    def test_a_lone_failed_op_raises(self):
        _, sess, ac, daemon, _ = travel_rig("alone")
        with pytest.raises(MiddlewareError):
            sess.call(ac.control_run([(Op.MEM_FREE, {"addr": 0xdead})]))
        assert daemon.stats.mbatches == 0

    def test_create_and_run_by_name_share_a_frame(self, rig):
        """A run launched by name with its staged arguments, in the frame
        of the create riding ahead of it: the create has not executed when
        the frame is built, and must not be taken down with the run."""
        cluster, sess, acs = rig
        cluster.daemons[acs[0].handle.ac_id].gpu.registry.register(
            "forty_two", lambda dev, params: lambda: 42,
            lambda params, spec: 1e-6)

        def calls(name):
            return [(Op.KERNEL_CREATE, {"name": name}),
                    (Op.KERNEL_RUN, {"name": name, "params": None,
                                     "real": True})]

        ac = cluster.remote(0, acs[0].handle)
        assert sess.call(ac.control_run(calls("forty_two"))) == [None, 42]
        # Only the run fails, with the kernel's own text.
        with pytest.raises(MiddlewareError,
                           match="missing kernel parameter 'n'"):
            sess.call(ac.control_run(calls("dscal")))
        assert "dscal" in ac._kernels

    def test_retry_is_at_most_once(self, rig):
        """A frame whose reply is delayed past the deadline is resent;
        the daemon replays it instead of allocating again."""
        cluster, sess, acs = rig
        ac = cluster.remote(0, acs[0].handle,
                            retry=RetryPolicy(timeout_s=150e-6))
        daemon = cluster.daemons[ac.handle.ac_id]
        a, b = sess.call(ac.control_run(
            [(Op.MEM_ALLOC, {"nbytes": 4096})] * 2))
        assert a != b
        assert daemon.gpu.memory.used_bytes == 2 * 4096
        assert daemon.stats.mbatches >= 1

    def test_revoked_lease_fails_the_next_frame(self, cluster):
        sess = cluster.session()
        client = cluster.arm_client(0)
        register_tenants(cluster, "t")
        grant = sess.call(client.valloc("t"))
        ac = cluster.remote(0, grant["vac"])
        sess.call(ac.vac_attach())
        daemon = cluster.daemons[ac.handle.ac_id]
        calls = [(Op.MEM_ALLOC, {"nbytes": 64}),
                 (Op.KERNEL_CREATE, {"name": "fill"})]
        sess.call(ac.control_run(calls))
        assert daemon.stats.mbatches == 1
        daemon._vacs[grant["vac"].vac_id].revoke()   # preempted in between
        with pytest.raises(AcceleratorFault, match="revoked"):
            sess.call(ac.control_run(calls))
        assert daemon.stats.preempted_requests == 1
        assert len(ac._live) == 1                    # nothing new tracked
