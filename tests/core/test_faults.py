"""Fault-injection tests: broken accelerators, recovery, containment."""

import numpy as np
import pytest

from repro.cluster import Cluster, paper_testbed
from repro.core import FaultInjector
from repro.errors import AcceleratorFault
from repro.mpisim import Phantom
from repro.units import MiB


@pytest.fixture
def rig():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=3))
    return cluster, cluster.session(), FaultInjector(cluster)


class TestBreak:
    def test_requests_fail_after_break(self, rig):
        cluster, sess, injector = rig
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0])
        injector.break_at(handles[0].ac_id, at_time=0.0)
        sess.engine.run(until=sess.now + 0.001)
        with pytest.raises(AcceleratorFault):
            sess.call(ac.mem_alloc(100))

    def test_arm_registry_updated(self, rig):
        cluster, sess, injector = rig
        injector.break_at(1, at_time=0.0)
        sess.engine.run(until=sess.now + 0.001)
        snap = cluster.arm.snapshot()
        assert snap[1]["state"] == "broken"
        assert cluster.arm.free_count() == 2

    def test_break_during_h2d_stream_drains(self, rig):
        # The daemon fails WHILE a pipelined transfer's blocks are in
        # flight: it must drain the data and reply BROKEN, not deadlock.
        cluster, sess, injector = rig
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0])
        ptr = sess.call(ac.mem_alloc(32 * MiB))
        # Break just before the next request is handled.
        injector.break_at(handles[0].ac_id, at_time=cluster.engine.now)
        with pytest.raises(AcceleratorFault):
            sess.call(ac.memcpy_h2d(ptr, Phantom(32 * MiB)))
        # The daemon is still responsive (to error out politely).
        with pytest.raises(AcceleratorFault):
            sess.call(ac.kernel_create("fill"))

    def test_other_accelerators_unaffected(self, rig):
        cluster, sess, injector = rig
        handles = sess.call(cluster.arm_client(0).alloc(count=2))
        ac0 = cluster.remote(0, handles[0])
        ac1 = cluster.remote(0, handles[1])
        injector.break_at(handles[0].ac_id, at_time=0.0)
        sess.engine.run(until=sess.now + 0.001)
        data = np.arange(100, dtype=np.float64)
        ptr = sess.call(ac1.mem_alloc(data.nbytes))
        sess.call(ac1.memcpy_h2d(ptr, data))
        out = sess.call(ac1.memcpy_d2h(ptr, data.nbytes))
        np.testing.assert_array_equal(out, data)

    def test_compute_node_survives_and_reallocates(self, rig):
        cluster, sess, injector = rig
        client = cluster.arm_client(0)
        handles = sess.call(client.alloc(count=1))
        ac = cluster.remote(0, handles[0])
        injector.break_at(handles[0].ac_id, at_time=0.0)
        sess.engine.run(until=sess.now + 0.001)
        with pytest.raises(AcceleratorFault):
            sess.call(ac.mem_alloc(10))
        # Report + replace, like a production client library would.
        sess.call(client.report_break(handles[0].ac_id))
        new = sess.call(client.alloc(count=1))
        assert new[0].ac_id != handles[0].ac_id
        ac2 = cluster.remote(0, new[0])
        sess.call(ac2.kernel_create("fill"))

    def test_delayed_break_fires_at_time(self, rig):
        cluster, sess, injector = rig
        injector.break_at(0, at_time=0.5)
        sess.engine.run(until=sess.now + 0.1)
        assert not cluster.daemons[0].broken
        sess.engine.run(until=sess.now + 0.5)
        assert cluster.daemons[0].broken
