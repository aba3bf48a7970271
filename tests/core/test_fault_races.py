"""Fault-mode races: concurrent failure detectors and revoke-vs-attach.

Two families of races that the single-fault tests never exercised:

* **double detection** — an explicit ``ARM_BREAK`` racing the discovery
  TTL sweep's eviction over the *same* crashed device while a
  ``valloc`` is parked in flight: the detectors must converge on one
  BROKEN transition, revoke each hosted lease once, and answer the
  parked waiter exactly once;
* **failover racing ``VAC_REVOKE``** — the ARM's one-way revoke can
  overtake the tenant's very first ``VAC_ATTACH`` (or a failover's
  re-attach).  The daemon must answer PREEMPTED from the tombstone
  instead of resurrecting a revoked slice, and the guarded attach must
  carry the tenant through recovery onto the *new* grant.
"""

import collections

import pytest

from repro.cluster import Cluster, paper_testbed
from repro.cluster.builder import REPORT_PERIOD_S
from repro.core import (
    FailoverConfig,
    FaultInjector,
    Op,
    Request,
    TenantSpec,
)
from repro.core.arm import AcceleratorState
from repro.core.daemon import _Tombstone
from repro.core.protocol import TAG_REQUEST
from repro.errors import AcceleratorFault, AllocationError
from repro.mpisim import Phantom

from ..harness import register_tenants

REPORT_PERIOD = REPORT_PERIOD_S
TTL = 5 * REPORT_PERIOD


def _reply_counter(arm) -> collections.Counter:
    counts: collections.Counter = collections.Counter()
    original = arm._reply

    def spy(req, resp):
        counts[req.req_id] += 1
        original(req, resp)

    arm._reply = spy
    return counts


class TestConcurrentFailureDetectors:
    def test_break_racing_ttl_eviction_during_valloc(self):
        """ARM_BREAK + TTL sweep on one crashed device.

        Device 0 hosts the only lease slot; a second valloc is parked.
        Then every failure detector fires on device 0 at once: its
        daemon crashes (reports stop), an out-of-band ARM_BREAK lands,
        and the discovery TTL expires.  One BROKEN/evict
        transition must win, the parked waiter must get exactly one
        reply, and the ARM must keep serving.
        """
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=2),
                          discovery=True, initial_accelerators=2)
        cluster.arm.admission.slots_per_device = 1
        cluster.arm.enable_discovery(ttl_s=TTL)
        counts = _reply_counter(cluster.arm)
        cluster.run(until=3 * REPORT_PERIOD)
        for t in ("t0", "t1", "t2"):
            cluster.arm.admission.register(TenantSpec(tenant_id=t))
        client = cluster.arm_client(0)
        sess = cluster.session()
        g0 = sess.call(client.valloc("t0"))
        g1 = sess.call(client.valloc("t1"))
        assert {g0["vac"].ac_id, g1["vac"].ac_id} == {0, 1}
        grants = {}

        def lease(tenant):
            grants[tenant] = yield from client.valloc(tenant, wait=True)

        cluster.engine.process(lease("t2"))
        cluster.run(until=cluster.engine.now + REPORT_PERIOD)
        assert len(cluster.arm._vqueue) == 1

        # Both detectors converge on device 0 around the same time.
        injector = FaultInjector(cluster)
        now = cluster.engine.now
        injector.crash_at(0, now + REPORT_PERIOD)          # reports stop
        injector.break_at(0, now + 2 * REPORT_PERIOD)      # explicit break
        cluster.run(until=now + 20 * TTL)                  # + TTL sweep

        # The detector storm must not have answered (or corrupted) the
        # parked waiter: device 1's slot is still leased, so it waits.
        assert "t2" not in grants
        # Detectors converged: at most one break/evict pair for ac0, and
        # the device-0 lease was revoked exactly once.
        kinds = [k for _, k, ac in cluster.arm.pool_events if ac == 0]
        assert kinds.count("break") <= 1
        assert kinds.count("evict") <= 1
        broken_ac = 0
        victim = g0 if g0["vac"].ac_id == broken_ac else g1
        survivor = g1 if victim is g0 else g0
        assert victim["vac"].vac_id in cluster.arm._revoked_vacs
        # Releasing the surviving lease wakes the waiter exactly once.
        sess.call(client.vrelease(survivor["vac"]))
        cluster.run(until=cluster.engine.now + 1e-3)
        assert "t2" in grants
        assert grants["t2"]["vac"].ac_id == 1
        assert max(counts.values()) == 1, (
            f"a request was answered more than once: {counts}")
        # The ARM is alive: it still answers (pool is full, so DENIED /
        # UNAVAILABLE — a reply at all is the liveness proof).
        with pytest.raises(AllocationError):
            sess.call(client.valloc("t0", wait=False))

    def test_double_break_revokes_each_lease_once(self, cluster, sess):
        client = cluster.arm_client(0)
        register_tenants(cluster, "t0")
        grant = sess.call(client.valloc("t0"))
        revoked = []
        original = cluster.arm._revoke_lease

        def spy(vac_id, notify):
            revoked.append(vac_id)
            original(vac_id, notify)

        cluster.arm._revoke_lease = spy
        sess.call(client.report_break(grant["vac"].ac_id))
        sess.call(client.report_break(grant["vac"].ac_id))
        assert revoked.count(grant["vac"].vac_id) == 1


class TestRevokeRacingAttach:
    def test_revoke_before_first_attach_hits_tombstone(self, cluster, sess):
        """A VAC_REVOKE overtaking the initial VAC_ATTACH must not
        resurrect the slice: the daemon parks a tombstone and answers
        the late attach with PREEMPTED."""
        client = cluster.arm_client(0)
        register_tenants(cluster, "t0")
        grant = sess.call(client.valloc("t0"))
        vac = grant["vac"]
        daemon = cluster.daemons[vac.ac_id]
        # The revoke wins the race: it reaches the daemon first.
        cluster.arm.rank.isend(
            cluster.arm.records[vac.ac_id].daemon_rank, TAG_REQUEST,
            Request(op=Op.VAC_REVOKE, req_id=next(cluster.comm.ids),
                    reply_to=cluster.arm.rank.index,
                    params={"vac_id": vac.vac_id, "oneway": True}))
        cluster.run(until=cluster.engine.now + 1e-3)
        assert isinstance(daemon._vacs[vac.vac_id], _Tombstone)
        remote = cluster.remote(0, vac)
        with pytest.raises(AcceleratorFault, match="revoked"):
            sess.call(remote.vac_attach())
        # Still a tombstone: the attach must not have resurrected it.
        assert isinstance(daemon._vacs[vac.vac_id], _Tombstone)
        assert daemon.stats.preempted_requests >= 1

    def test_guarded_first_attach_recovers_onto_new_grant(self, cluster):
        """End to end: the tenant helper's guarded initial attach rides
        out a revoke that lands before the attach, reacquires, and the
        session completes on the replacement lease."""
        eng = cluster.engine
        sess = cluster.session()
        register_tenants(cluster, "t0")
        done = {}

        def session():
            ac = yield from cluster.tenant(
                0, "t0", config=FailoverConfig(wait_for_replacement=True))
            addr = yield from ac.mem_alloc(4096)
            yield from ac.memcpy_h2d(addr, Phantom(4096))
            out = yield from ac.memcpy_d2h(addr, 4096)
            yield from ac.release_lease()
            done["ac"] = ac
            done["out"] = out

        def revoker():
            # Fire the instant the grant exists — the one-way revoke
            # then races the client's first VAC_ATTACH to the daemon.
            while not cluster.arm.admission.leases:
                yield eng.timeout(1e-7)
            vac_id = next(iter(cluster.arm.admission.leases))
            cluster.arm._revoke_lease(vac_id, notify=True)

        eng.process(session())
        eng.process(revoker())
        cluster.run(until=0.5)
        assert "ac" in done, "session never completed after the revoke race"
        assert done["ac"].failovers == 1
        # The replacement grant is the one that served the session.
        assert done["out"].nbytes == 4096

    def test_revoke_racing_failover_reattach(self, cluster):
        """A second revoke racing the failover's own re-attach: the
        tenant must survive both and land on a live third lease."""
        eng = cluster.engine
        sess = cluster.session()
        register_tenants(cluster, "t0")
        done = {}

        def session():
            ac = yield from cluster.tenant(
                0, "t0", config=FailoverConfig(wait_for_replacement=True))
            addr = yield from ac.mem_alloc(4096)
            for _ in range(4):
                yield from ac.memcpy_h2d(addr, Phantom(4096))
            yield from ac.release_lease()
            done["ac"] = ac

        def revoker():
            # Revoke the first two leases the moment each appears.
            for _ in range(2):
                while not cluster.arm.admission.leases:
                    yield eng.timeout(1e-7)
                vac_id = next(iter(cluster.arm.admission.leases))
                cluster.arm._revoke_lease(vac_id, notify=True)

        eng.process(session())
        eng.process(revoker())
        cluster.run(until=0.5)
        assert "ac" in done, "session never completed after revoke races"
        assert done["ac"].failovers == 2
