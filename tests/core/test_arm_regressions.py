"""Regression tests for ARM allocation deadlocks, leaks, and accounting.

Each class pins one of the historical ARM bugs:

* oversized ``alloc(wait=True)`` queueing forever instead of failing,
* queued waiters stranded by pool shrinkage or ARM shutdown,
* ``utilization(elapsed=...)`` charging pre-window service to the window,
* a virtual lease granted on an exclusively ASSIGNED device.
"""

import pytest

from repro.core import (
    FaultInjector,
    Op,
    Request,
    Status,
    TAG_ARM,
    reply_tag,
)
from repro.errors import AllocationError

from ..harness import register_tenants
from .test_discovery import _reply_counter


def _shutdown_arm(cluster, sess):
    rank = cluster.compute_rank(0)
    req_id = next(rank.comm.ids)
    rank.isend(cluster.arm_rank_index, TAG_ARM,
               Request(op=Op.SHUTDOWN, req_id=req_id, reply_to=rank.index))
    msg = sess.call(rank.recv(source=cluster.arm_rank_index,
                              tag=reply_tag(req_id)))
    assert msg.payload.status == Status.OK


class TestOversizedAlloc:
    def test_wait_alloc_beyond_pool_fails_fast(self, cluster, sess):
        # 4 devices from a 3-device pool can never be satisfied; with the
        # old FIFO this queued forever and deadlocked the simulation.
        client = cluster.arm_client(0)
        with pytest.raises(AllocationError, match="pool"):
            sess.call(client.alloc(count=4, wait=True))
        # The ARM is still alive and serving.
        handles = sess.call(client.alloc(count=1))
        assert len(handles) == 1

    def test_broken_devices_do_not_count_toward_capacity(self, cluster, sess):
        client = cluster.arm_client(0)
        sess.call(client.report_break(0))
        with pytest.raises(AllocationError, match="pool"):
            sess.call(client.alloc(count=3, wait=True))

    def test_queued_waiter_fails_when_pool_shrinks(self, cluster):
        eng = cluster.engine
        client = cluster.arm_client(0)
        outcome = {}

        def holder():
            yield from client.alloc(count=3, job="holder")

        def waiter():
            yield eng.timeout(0.001)
            try:
                # Satisfiable when queued (3-device pool)...
                yield from client.alloc(count=3, wait=True)
                outcome["waiter"] = "granted"
            except AllocationError as exc:
                outcome["waiter"] = str(exc)

        injector = FaultInjector(cluster)
        eng.process(holder())
        p = eng.process(waiter())
        # ...but the pool shrinks to 2 before anything is released.
        injector.break_at(0, at_time=0.002)
        eng.run(until=p)
        assert "shrank" in outcome["waiter"]

    def test_queued_waiter_survives_if_still_satisfiable(self, cluster):
        eng = cluster.engine
        client = cluster.arm_client(0)
        outcome = {}

        def holder():
            handles = yield from client.alloc(count=2, job="holder")
            yield eng.timeout(0.01)
            yield from client.release(handles)

        def waiter():
            yield eng.timeout(0.001)
            handles = yield from client.alloc(count=2, wait=True)
            outcome["granted"] = len(handles)

        injector = FaultInjector(cluster)
        eng.process(holder())
        p = eng.process(waiter())
        # The free third device breaks: pool 3 -> 2; count=2 still fits,
        # so the waiter stays queued and is granted on release.
        injector.break_at(2, at_time=0.002)
        eng.run(until=p)
        assert outcome["granted"] == 2


class TestShutdownDrain:
    def test_queued_alloc_waiter_answered_on_shutdown(self, cluster, sess):
        eng = cluster.engine
        client = cluster.arm_client(0)
        sess.call(client.alloc(count=3, job="hog"))
        outcome = {}

        def waiter():
            try:
                yield from client.alloc(count=1, wait=True)
                outcome["waiter"] = "granted"
            except AllocationError as exc:
                outcome["waiter"] = str(exc)

        p = eng.process(waiter())
        eng.run(until=eng.timeout(0.001))  # let the request queue up
        _shutdown_arm(cluster, sess)
        eng.run(until=p)
        assert "shutting down" in outcome["waiter"]

    def test_queued_valloc_waiter_answered_on_shutdown(self, cluster, sess):
        eng = cluster.engine
        cluster.arm.admission.slots_per_device = 1
        client = cluster.arm_client(0)
        register_tenants(cluster, "hog", max_vaccels=3)
        register_tenants(cluster, "late")
        for _ in range(3):
            sess.call(client.valloc("hog"))
        outcome = {}

        def waiter():
            try:
                yield from client.valloc("late", wait=True)
                outcome["late"] = "granted"
            except AllocationError as exc:
                outcome["late"] = str(exc)

        p = eng.process(waiter())
        eng.run(until=eng.timeout(0.001))
        _shutdown_arm(cluster, sess)
        eng.run(until=p)
        assert "shutting down" in outcome["late"]


class TestUtilizationWindow:
    def test_pre_window_service_not_charged(self, cluster):
        eng = cluster.engine
        arm = cluster.arm
        r = arm.records[0]
        r._history.append((0.0, 10.0))
        r.assigned_seconds += 10.0
        eng.run(until=100.0)
        # Whole run: 10 busy seconds over 3 devices x 100 s.
        assert arm.utilization() == pytest.approx(10.0 / 300.0)
        # Window [50, 100]: the old interval must contribute nothing.
        assert arm.utilization(elapsed=50.0) == 0.0

    def test_partial_overlap_counts_only_overlap(self, cluster):
        eng = cluster.engine
        arm = cluster.arm
        arm.records[0]._history.append((40.0, 60.0))
        eng.run(until=100.0)
        # Window [50, 100] overlaps [40, 60] by 10 s.
        assert arm.utilization(elapsed=50.0) == pytest.approx(10.0 / 150.0)

    def test_inflight_assignment_clamped_to_window(self, cluster):
        eng = cluster.engine
        arm = cluster.arm
        eng.run(until=100.0)
        arm.records[1]._assigned_at = 0.0  # assigned the whole run
        # Window [90, 100]: contributes exactly the window, never more.
        assert arm.utilization(elapsed=10.0) == pytest.approx(10.0 / 30.0)

    def test_end_to_end_alloc_release_history(self, cluster, sess):
        eng = cluster.engine
        client = cluster.arm_client(0)
        handles = sess.call(client.alloc(count=1))
        eng.run(until=eng.timeout(5.0))
        sess.call(client.release(handles))
        r = cluster.arm.records[handles[0].ac_id]
        assert len(r._history) == 1
        start, end = r._history[0]
        assert end - start == pytest.approx(5.0, rel=0.01)
        # Long after release, a short trailing window sees an idle pool.
        eng.run(until=eng.timeout(50.0))
        assert cluster.arm.utilization(elapsed=1.0) == 0.0


class TestMixedFamilies:
    """An exclusively ASSIGNED device is its owner's whole: lease placement
    skips it, and both release paths wake waiters in one order (exclusive
    FIFO, then the lease WFQ)."""

    def test_nowait_valloc_refused_on_assigned_devices(self, cluster, sess):
        client = cluster.arm_client(0)
        sess.call(client.alloc(count=3))
        register_tenants(cluster, "t")
        with pytest.raises(AllocationError, match="slot"):
            sess.call(client.valloc("t", wait=False))
        assert all(doc["leases"] == 0 and doc["state"] == "assigned"
                   for doc in cluster.arm.snapshot().values())

    def test_queued_valloc_woken_once_by_exclusive_release(self, cluster,
                                                           sess):
        eng = cluster.engine
        counts = _reply_counter(cluster.arm)
        client = cluster.arm_client(0)
        handles = sess.call(client.alloc(count=3))
        register_tenants(cluster, "t")
        grants = []

        def lease():
            grants.append((yield from client.valloc("t", wait=True)))

        p = eng.process(lease())
        eng.run(until=eng.timeout(0.001))
        assert not grants and len(cluster.arm._vqueue) == 1
        sess.call(client.release(handles[1:2]))
        eng.run(until=p)
        assert grants[0]["vac"].ac_id == handles[1].ac_id
        assert cluster.arm.snapshot()[handles[1].ac_id]["state"] == "free"
        assert max(counts.values()) == 1

    def test_vrelease_wakes_exclusive_fifo_before_wfq(self, cluster2cn):
        cluster, eng = cluster2cn, cluster2cn.engine
        sess = cluster.session()
        cluster.arm.admission.slots_per_device = 1
        counts = _reply_counter(cluster.arm)
        client = cluster.arm_client(0)
        held = sess.call(client.alloc(count=1))            # ac0: exclusive
        register_tenants(cluster, "a", "b")
        lease_a = sess.call(client.valloc("a"))            # ac1: one lease
        assert lease_a["vac"].ac_id != held[0].ac_id
        got = {}

        def exclusive():
            got["exclusive"] = yield from client.alloc(count=1, wait=True)

        def lease_b():
            got["b"] = yield from client.valloc("b", wait=True)

        eng.process(lease_b())
        eng.process(exclusive())
        eng.run(until=eng.timeout(0.001))
        assert not got
        # The emptied device goes to the exclusive waiter; "b" stays queued
        # until the exclusive release frees ac0.
        sess.call(client.vrelease(lease_a["vac"]))
        eng.run(until=eng.timeout(0.002))
        assert list(got) == ["exclusive"]
        assert got["exclusive"][0].ac_id == lease_a["vac"].ac_id
        sess.call(client.release(held))
        eng.run(until=eng.timeout(0.003))
        assert got["b"]["vac"].ac_id == held[0].ac_id
        assert max(counts.values()) == 1
