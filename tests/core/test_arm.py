"""Tests for the accelerator resource manager and its client API."""

import pytest

from repro.core import AcceleratorHandle, AcceleratorState
from repro.errors import AllocationError


class TestStaticAllocation:
    def test_alloc_returns_exclusive_handles(self, cluster, sess):
        client = cluster.arm_client(0)
        handles = sess.call(client.alloc(count=2, job="job-a"))
        assert len(handles) == 2
        assert len({h.ac_id for h in handles}) == 2
        assert all(isinstance(h, AcceleratorHandle) for h in handles)
        assert cluster.arm.free_count() == 1

    def test_release_returns_to_pool(self, cluster, sess):
        client = cluster.arm_client(0)
        handles = sess.call(client.alloc(count=3))
        assert cluster.arm.free_count() == 0
        sess.call(client.release(handles))
        assert cluster.arm.free_count() == 3

    def test_alloc_nowait_fails_when_short(self, cluster, sess):
        client = cluster.arm_client(0)
        sess.call(client.alloc(count=2))
        with pytest.raises(AllocationError, match="free"):
            sess.call(client.alloc(count=2, wait=False))

    def test_alloc_zero_rejected(self, cluster, sess):
        client = cluster.arm_client(0)
        with pytest.raises(Exception):
            sess.call(client.alloc(count=0))

    def test_status_snapshot(self, cluster, sess):
        client = cluster.arm_client(0)
        handles = sess.call(client.alloc(count=1, job="named-job"))
        status = sess.call(client.status())
        assert status[handles[0].ac_id]["state"] == "assigned"
        assert status[handles[0].ac_id]["job"] == "named-job"
        free_states = [v["state"] for k, v in status.items()
                       if k != handles[0].ac_id]
        assert free_states == ["free", "free"]


class TestDynamicAllocation:
    def test_waiting_request_served_on_release(self, cluster2cn):
        eng = cluster2cn.engine
        c0 = cluster2cn.arm_client(0)
        c1 = cluster2cn.arm_client(1)
        order = []

        def job0():
            handles = yield from c0.alloc(count=2, job="first")
            order.append(("j0-got", eng.now))
            yield eng.timeout(5.0)
            yield from c0.release(handles)
            order.append(("j0-released", eng.now))

        def job1():
            yield eng.timeout(1.0)  # arrives while pool is empty
            handles = yield from c1.alloc(count=1, wait=True, job="second")
            order.append(("j1-got", eng.now))
            yield from c1.release(handles)

        p0 = eng.process(job0())
        p1 = eng.process(job1())
        eng.run(until=eng.all_of([p0, p1]))
        got1 = dict(order)["j1-got"]
        assert got1 >= 5.0  # waited for job0's release

    def test_fifo_queue_order(self, cluster):
        eng = cluster.engine
        client = cluster.arm_client(0)
        grants = []

        def holder():
            handles = yield from client.alloc(count=3)
            yield eng.timeout(10.0)
            yield from client.release(handles)

        def waiter(name, delay):
            yield eng.timeout(delay)
            h = yield from client.alloc(count=1, wait=True)
            grants.append((name, eng.now))
            yield from client.release(h)

        eng.process(holder())
        eng.process(waiter("early", 1.0))
        eng.process(waiter("late", 2.0))
        eng.run()
        assert grants[0][0] == "early"

    def test_ownership_enforced_on_release(self, cluster2cn):
        eng = cluster2cn.engine
        c0 = cluster2cn.arm_client(0)
        c1 = cluster2cn.arm_client(1)

        def thief():
            handles = yield from c0.alloc(count=1)
            # Rank 1 tries to release rank 0's accelerator.
            yield from c1.release(handles)

        p = eng.process(thief())
        with pytest.raises(AllocationError, match="owned by"):
            eng.run(until=p)

    def test_release_unassigned_denied(self, cluster, sess):
        client = cluster.arm_client(0)
        with pytest.raises(AllocationError, match="not assigned"):
            sess.call(client.release([AcceleratorHandle(0, 1)]))

    def test_duplicate_release_denied(self, cluster, sess):
        client = cluster.arm_client(0)
        handles = sess.call(client.alloc(count=2))
        with pytest.raises(AllocationError, match="duplicate"):
            sess.call(client.release([handles[0], handles[0]]))
        # The denied request must not have mutated the registry: both
        # accelerators are still assigned and a clean release works.
        assert cluster.arm.free_count() == 1
        sess.call(client.release(handles))
        assert cluster.arm.free_count() == 3

    def test_utilization_accounting(self, cluster):
        eng = cluster.engine
        client = cluster.arm_client(0)

        def job():
            handles = yield from client.alloc(count=3)
            yield eng.timeout(8.0)
            yield from client.release(handles)
            yield eng.timeout(2.0)

        eng.run(until=eng.process(job()))
        # 3 ACs busy for 8 of ~10 seconds -> ~80% mean utilization.
        assert cluster.arm.utilization() == pytest.approx(0.8, abs=0.05)

    def test_utilization_clamped_to_window(self, cluster):
        eng = cluster.engine
        client = cluster.arm_client(0)

        def job():
            yield from client.alloc(count=3)
            yield eng.timeout(10.0)

        eng.run(until=eng.process(job()))
        # In-flight assignments longer than the accounting window must be
        # clamped to it, never reported as >100% busy.
        assert cluster.arm.utilization(elapsed=5.0) == pytest.approx(1.0)
        assert cluster.arm.utilization() <= 1.0

    def test_utilization_partial_pool_in_flight(self, cluster):
        eng = cluster.engine
        client = cluster.arm_client(0)

        def job():
            yield from client.alloc(count=1)
            yield eng.timeout(6.0)

        eng.run(until=eng.process(job()))
        # One of three accelerators busy the whole window.
        assert cluster.arm.utilization(elapsed=3.0) == pytest.approx(1 / 3)


class TestBreakRepair:
    def test_broken_excluded_from_pool(self, cluster, sess):
        client = cluster.arm_client(0)
        sess.call(client.report_break(0))
        assert cluster.arm.free_count() == 2
        handles = sess.call(client.alloc(count=2))
        assert all(h.ac_id != 0 for h in handles)

    def test_registry_state_enum(self, cluster, sess):
        client = cluster.arm_client(0)
        sess.call(client.report_break(0))
        assert cluster.arm.records[0].state == AcceleratorState.BROKEN
