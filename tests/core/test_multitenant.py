"""Integration tests for virtual-accelerator leases end to end.

ARM admission -> daemon slice attach -> tenant-scoped operations ->
preemption -> replay recovery, over the full simulated message plane.
"""

import numpy as np
import pytest

from repro.core import (
    FailoverConfig,
    VirtualAcceleratorHandle,
)
from repro.errors import AcceleratorFault, AllocationError, MiddlewareError

from ..harness import register_tenants


class TestLeaseLifecycle:
    def test_register_valloc_release(self, cluster, sess):
        client = cluster.arm_client(0)
        register_tenants(cluster, "alice", weight=2.0, priority=1)
        grant = sess.call(client.valloc("alice"))
        vac = grant["vac"]
        assert isinstance(vac, VirtualAcceleratorHandle)
        assert vac.tenant == "alice"
        assert grant["share"] == 2.0
        assert grant["mem_quota"] is None
        assert cluster.arm.lease_count() == 1
        snap = sess.call(client.status())
        assert snap[vac.ac_id]["leases"] == 1
        out = sess.call(client.vrelease(vac))
        assert out == {"revoked": False}
        assert cluster.arm.lease_count() == 0

    def test_valloc_unknown_tenant_rejected(self, cluster, sess):
        client = cluster.arm_client(0)
        with pytest.raises(MiddlewareError, match="unknown tenant"):
            sess.call(client.valloc("nobody"))

    def test_quota_denied_immediately_even_with_wait(self, cluster, sess):
        client = cluster.arm_client(0)
        register_tenants(cluster, "alice")  # max_vaccels=1
        sess.call(client.valloc("alice"))
        with pytest.raises(AllocationError, match="max_vaccels"):
            sess.call(client.valloc("alice", wait=True))

    def test_vrelease_wrong_tenant_denied(self, cluster, sess):
        client = cluster.arm_client(0)
        register_tenants(cluster, "alice", "bob")
        grant = sess.call(client.valloc("alice"))
        stolen = VirtualAcceleratorHandle(
            vac_id=grant["vac"].vac_id, ac_id=grant["vac"].ac_id,
            daemon_rank=grant["vac"].daemon_rank, tenant="bob")
        with pytest.raises(AllocationError, match="belongs to"):
            sess.call(client.vrelease(stolen))

    def test_leased_device_not_whole_device_allocatable(self, cluster, sess):
        client = cluster.arm_client(0)
        register_tenants(cluster, "alice")
        grant = sess.call(client.valloc("alice"))
        with pytest.raises(AllocationError):
            sess.call(client.alloc(count=3, wait=False))
        sess.call(client.vrelease(grant["vac"]))
        handles = sess.call(client.alloc(count=3, wait=False))
        assert len(handles) == 3


class TestTenantAccelerator:
    def test_scoped_roundtrip_bit_identical(self, cluster, sess):
        register_tenants(cluster, "alice")
        ac = sess.call(cluster.tenant(0, "alice"))
        data = np.arange(512, dtype=np.float64)
        addr = sess.call(ac.mem_alloc(data.nbytes))
        sess.call(ac.memcpy_h2d(addr, data))
        sess.call(ac.kernel_create("dscal"))
        sess.call(ac.kernel_run("dscal",
                                {"x": addr, "n": 512, "alpha": 2.0}))
        back = sess.call(ac.memcpy_d2h(addr, data.nbytes))
        np.testing.assert_array_equal(back, data * 2.0)
        sess.call(ac.release_lease())
        assert cluster.arm.lease_count() == 0

    def test_cross_tenant_free_denied(self, cluster, sess):
        # Both leases land on the same device (slots spread most-free
        # first, so pin them by exhausting a single-slot config).
        register_tenants(cluster, "alice", "bob")
        ac_a = sess.call(cluster.tenant(0, "alice"))
        ac_b = sess.call(cluster.tenant(0, "bob"))
        addr = sess.call(ac_a.current.mem_alloc(1024))
        with pytest.raises(MiddlewareError):
            # Address belongs to alice's partition (or to no partition on
            # bob's device) — either way bob must not be able to free it.
            sess.call(ac_b.current.mem_free(addr))
        sess.call(ac_a.release_lease())
        sess.call(ac_b.release_lease())


class TestPreemption:
    def _setup(self, cluster, sess):
        cluster.arm.admission.slots_per_device = 1  # 3 slots total
        client = cluster.arm_client(0)
        for name, prio in (("a", 0), ("b", 0), ("c", 0), ("vip", 5)):
            register_tenants(cluster, name, priority=prio)
        return client

    def test_vip_preempts_oldest_lowest_priority(self, cluster, sess):
        client = self._setup(cluster, sess)
        grants = {t: sess.call(client.valloc(t)) for t in ("a", "b", "c")}
        vip = sess.call(client.valloc("vip"))
        assert cluster.arm.preemptions == 1
        # Victim is the oldest priority-0 lease: tenant a's.
        assert cluster.arm.admission.active_vaccels("a") == 0
        assert cluster.arm.admission.active_vaccels("b") == 1
        assert vip["vac"].ac_id == grants["a"]["vac"].ac_id

    def test_vrelease_idempotent_after_revocation(self, cluster, sess):
        client = self._setup(cluster, sess)
        grant_a = sess.call(client.valloc("a"))
        sess.call(client.valloc("b"))
        sess.call(client.valloc("c"))
        sess.call(client.valloc("vip"))
        out = sess.call(client.vrelease(grant_a["vac"]))
        assert out == {"revoked": True}
        with pytest.raises(AllocationError, match="unknown"):
            sess.call(client.vrelease(grant_a["vac"]))  # one-shot

    def test_revoked_slice_faults_without_failover(self, cluster, sess):
        client = self._setup(cluster, sess)
        ac_a = sess.call(cluster.tenant(0, "a",
                                        config=FailoverConfig(max_failovers=0)))
        sess.call(cluster.tenant(0, "b"))
        sess.call(cluster.tenant(0, "c"))
        sess.call(client.valloc("vip"))  # revokes a's slice
        with pytest.raises(AcceleratorFault):
            sess.call(ac_a.mem_alloc(1024))

    def test_preempted_tenant_replays_bit_identically(self, cluster):
        eng = cluster.engine
        sess = cluster.session()
        client = self._setup(cluster, sess)
        data = np.linspace(0.0, 1.0, 256)
        outcome = {}

        def victim():
            ac = yield from cluster.tenant(
                0, "a", config=FailoverConfig(wait_for_replacement=True))
            outcome["first_vac"] = ac.handle.vac_id
            addr = yield from ac.mem_alloc(data.nbytes)
            yield from ac.memcpy_h2d(addr, data)
            # Preemption lands here; the next op reacquires and replays.
            yield eng.timeout(0.01)
            back = yield from ac.memcpy_d2h(addr, data.nbytes)
            outcome["data"] = back
            outcome["recoveries"] = ac.failovers
            outcome["second_vac"] = ac.handle.vac_id
            yield from ac.release_lease()

        def other_tenants():
            ac_b = yield from cluster.tenant(0, "b")
            yield from cluster.tenant(0, "c")
            yield eng.timeout(0.002)
            yield from sess_free_vip()
            # b releasing unblocks the victim's queued reacquire.
            yield eng.timeout(0.002)
            yield from ac_b.release_lease()

        def sess_free_vip():
            yield from client.valloc("vip")

        pv = eng.process(victim())
        eng.process(other_tenants())
        eng.run(until=pv)
        assert cluster.arm.preemptions == 1
        assert outcome["recoveries"] == 1
        assert outcome["second_vac"] != outcome["first_vac"]
        np.testing.assert_array_equal(outcome["data"], data)
