"""Resource discovery, TTL eviction, autoscaling, and waiter-wake tests.

The pool-membership contract under test: the ARM builds its pool from
the daemons' discovery feed (joins, rejoins, graceful leaves, TTL
evictions of silent devices), the static-roster path is untouched, and —
the historical regression — every pool mutation wakes queued waiters
*exactly once*: a join must not double-reply a parked valloc, and a
leave must answer newly unsatisfiable waiters exactly once.
"""

import collections

import pytest

from repro.cluster import Cluster, paper_testbed
from repro.cluster.builder import REPORT_PERIOD_S
from repro.core import Autoscaler, TenantSpec
from repro.core.discovery import MIN_NODES
from repro.core.arm import AcceleratorState
from repro.errors import AllocationError, ClusterConfigError

REPORT_PERIOD = REPORT_PERIOD_S
TTL = 5 * REPORT_PERIOD


def _discovery_cluster(n_ac: int = 3, initial: int | None = None,
                       slots: int = 1) -> Cluster:
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=n_ac),
                      discovery=True, initial_accelerators=initial)
    cluster.arm.admission.slots_per_device = slots
    return cluster


def _reply_counter(arm) -> collections.Counter:
    """Spy on ``arm._reply``: how many replies each req_id received."""
    counts: collections.Counter = collections.Counter()
    original = arm._reply

    def spy(req, resp):
        counts[req.req_id] += 1
        original(req, resp)

    arm._reply = spy
    return counts


class TestDiscoveryFeed:
    def test_agents_populate_the_pool(self):
        cluster = _discovery_cluster(n_ac=3, initial=2)
        assert cluster.arm.records == {}  # empty until reports land
        cluster.run(until=5 * REPORT_PERIOD)
        assert sorted(cluster.arm.records) == [0, 1]
        assert not cluster.agents[2].active
        kinds = [kind for _, kind, _ in cluster.arm.pool_events]
        assert kinds[:2] == ["join", "join"]
        assert cluster.arm.joins == 2

    def test_known_healthy_reports_only_refresh_ttl(self):
        cluster = _discovery_cluster(n_ac=2, initial=2)
        cluster.run(until=20 * REPORT_PERIOD)
        # Dozens of re-reports, exactly two membership events.
        assert cluster.arm.joins == 2
        assert len(cluster.arm.pool_events) == 2

    def test_static_roster_is_never_swept(self):
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=2))
        cluster.arm.enable_discovery(ttl_s=TTL, rounds=10)
        cluster.run()
        # Rostered devices have no _last_seen entry: nothing ages out.
        assert sorted(cluster.arm.records) == [0, 1]
        assert cluster.arm.ttl_evictions == 0

    def test_graceful_leave_removes_the_record_now(self):
        cluster = _discovery_cluster(n_ac=2, initial=2)
        cluster.run(until=3 * REPORT_PERIOD)
        cluster.agents[1].stop(reason="departed")
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert sorted(cluster.arm.records) == [0]
        assert [k for _, k, _ in cluster.arm.pool_events].count(
            "leave:departed") == 1
        assert cluster.arm.leaves == 1

    def test_silent_leaver_ages_out_then_rejoins_fresh(self):
        cluster = _discovery_cluster(n_ac=2, initial=2)
        cluster.arm.enable_discovery(ttl_s=TTL, sweep_period_s=TTL / 2)
        cluster.run(until=3 * REPORT_PERIOD)
        cluster.agents[1].stop()  # no reason: no ARM_LEAVE
        cluster.run(until=cluster.engine.now + 3 * TTL)
        assert sorted(cluster.arm.records) == [0]
        assert cluster.arm.ttl_evictions == 1
        cluster.agents[1].start()
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert sorted(cluster.arm.records) == [0, 1]
        # The record was forgotten, so the comeback is a fresh join.
        assert [k for _, k, _ in cluster.arm.pool_events][-1] == "join"

    def test_crashed_daemon_ages_out_and_rejoins_on_recovery(self):
        cluster = _discovery_cluster(n_ac=2, initial=2)
        cluster.arm.enable_discovery(ttl_s=TTL)
        cluster.run(until=3 * REPORT_PERIOD)
        cluster.daemons[1].crashed = True  # reports stop mid-flight
        cluster.run(until=cluster.engine.now + 3 * TTL)
        assert sorted(cluster.arm.records) == [0]
        cluster.daemons[1].crashed = False  # agent is still looping
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert sorted(cluster.arm.records) == [0, 1]

    def test_unhealthy_report_breaks_then_healthy_rejoins(self):
        cluster = _discovery_cluster(n_ac=1, initial=1)
        cluster.run(until=3 * REPORT_PERIOD)
        cluster.daemons[0].broken = True
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert cluster.arm.records[0].state == AcceleratorState.BROKEN
        assert "break" in [k for _, k, _ in cluster.arm.pool_events]
        cluster.daemons[0].broken = False
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert cluster.arm.records[0].state == AcceleratorState.FREE
        assert [k for _, k, _ in cluster.arm.pool_events][-1] == "rejoin"

    def test_straggler_reports_late_and_ages_out(self):
        cluster = _discovery_cluster(n_ac=2, initial=2)
        cluster.arm.enable_discovery(ttl_s=TTL)
        cluster.run(until=3 * REPORT_PERIOD)
        # 50x slower: the next report lands far beyond the TTL.
        cluster.daemons[1].slow_factor = 50.0
        cluster.run(until=cluster.engine.now + 4 * TTL)
        assert sorted(cluster.arm.records) == [0]
        assert cluster.arm.ttl_evictions == 1
        cluster.daemons[1].slow_factor = 1.0
        cluster.run(until=cluster.engine.now + 60 * REPORT_PERIOD)
        assert sorted(cluster.arm.records) == [0, 1]

    def test_never_admits_a_device_reporting_unhealthy(self):
        cluster = _discovery_cluster(n_ac=1, initial=0)
        cluster.daemons[0].broken = True
        cluster.agents[0].start()
        cluster.run(until=5 * REPORT_PERIOD)
        assert cluster.arm.records == {}

    def test_initial_accelerators_out_of_range_rejected(self):
        with pytest.raises(ClusterConfigError, match="out of range"):
            Cluster(paper_testbed(n_compute=1, n_accelerators=2),
                    discovery=True, initial_accelerators=3)


class TestDiscoveryAgent:
    def test_report_contents_track_the_daemon(self):
        cluster = _discovery_cluster(n_ac=1, initial=1)
        cluster.run(until=3 * REPORT_PERIOD)
        agent = cluster.agents[0]
        first = agent.report()
        second = agent.report()
        assert first.healthy and first.version == "v1"
        assert second.seq == first.seq + 1
        cluster.daemons[0].broken = True
        assert not agent.report().healthy

    def test_paused_agent_skips_publishing(self):
        cluster = _discovery_cluster(n_ac=1, initial=1)
        cluster.run(until=3 * REPORT_PERIOD)
        agent = cluster.agents[0]
        agent.pause()
        sent = agent.reports_sent
        cluster.run(until=cluster.engine.now + 5 * REPORT_PERIOD)
        assert agent.reports_sent == sent
        agent.resume()
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert agent.reports_sent > sent

    def test_crashed_daemon_sends_no_leave(self):
        cluster = _discovery_cluster(n_ac=1, initial=1)
        cluster.run(until=3 * REPORT_PERIOD)
        cluster.daemons[0].crashed = True
        cluster.agents[0].stop(reason="departed")  # cannot announce: dead
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert sorted(cluster.arm.records) == [0]  # only TTL could remove it
        assert cluster.arm.leaves == 0


class TestExactlyOnceWaiterWake:
    """Pool mutations during join/leave wake queued waiters exactly once.

    Regression (see also tests/core/test_arm_regressions.py): the join
    path used to be able to answer a parked request twice — once from
    the drain triggered by the join and once from a racing release —
    which corrupted the client's reply stream.  The drains pop-then-
    reply atomically now; these tests pin that with a reply-counting spy
    on the ARM.
    """

    def test_join_wakes_queued_valloc_exactly_once(self):
        cluster = _discovery_cluster(n_ac=2, initial=1, slots=1)
        counts = _reply_counter(cluster.arm)
        sess = cluster.session()
        cluster.run(until=3 * REPORT_PERIOD)
        for t in ("t0", "t1"):
            cluster.arm.admission.register(TenantSpec(tenant_id=t))
        client = cluster.arm_client(0)
        grants = {}

        def lease(tenant):
            grants[tenant] = yield from client.valloc(tenant, wait=True)

        cluster.engine.process(lease("t0"))
        cluster.engine.process(lease("t1"))
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert len(grants) == 1  # one slot total: the other is parked
        assert len(cluster.arm._vqueue) == 1
        cluster.agents[1].start()  # the join must wake the waiter
        cluster.run(until=cluster.engine.now + 5 * REPORT_PERIOD)
        assert len(grants) == 2
        placed = {g["vac"].ac_id for g in grants.values()}
        assert placed == {0, 1}
        assert counts and max(counts.values()) == 1, (
            f"a request was answered more than once: {counts}")
        # The ARM is still coherent and serving.
        sess.call(client.vrelease(grants["t0"]["vac"]))

    def test_join_wakes_queued_whole_device_alloc_exactly_once(self):
        cluster = _discovery_cluster(n_ac=2, initial=1)
        counts = _reply_counter(cluster.arm)
        cluster.run(until=3 * REPORT_PERIOD)
        client = cluster.arm_client(0)
        got = []

        def claim():
            handles = yield from client.alloc(count=1, wait=True)
            got.append(handles[0])

        cluster.engine.process(claim())
        cluster.engine.process(claim())
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert len(got) == 1 and len(cluster.arm._wait_queue) == 1
        cluster.agents[1].start()
        cluster.run(until=cluster.engine.now + 5 * REPORT_PERIOD)
        assert {h.ac_id for h in got} == {0, 1}
        assert max(counts.values()) == 1

    def test_rejoin_of_broken_device_wakes_queued_alloc_exactly_once(self):
        # The one way back into the pool: a BROKEN device reporting
        # healthy again rejoins and wakes the waiter it can now serve.
        cluster = _discovery_cluster(n_ac=2, initial=2)
        counts = _reply_counter(cluster.arm)
        cluster.run(until=3 * REPORT_PERIOD)
        client = cluster.arm_client(0)
        got = []

        def claim():
            handles = yield from client.alloc(count=1, wait=True)
            got.append(handles[0])

        cluster.daemons[1].broken = True
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert cluster.arm.records[1].state == AcceleratorState.BROKEN
        cluster.engine.process(claim())
        cluster.engine.process(claim())
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert len(got) == 1 and len(cluster.arm._wait_queue) == 1
        cluster.daemons[1].broken = False
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert {h.ac_id for h in got} == {0, 1}
        assert [k for _, k, _ in cluster.arm.pool_events][-1] == "rejoin"
        assert max(counts.values()) == 1

    def test_leave_fails_unsatisfiable_waiter_exactly_once(self):
        cluster = _discovery_cluster(n_ac=2, initial=2)
        counts = _reply_counter(cluster.arm)
        cluster.run(until=3 * REPORT_PERIOD)
        client = cluster.arm_client(0)
        sess = cluster.session()
        sess.call(client.alloc(count=1))  # one device busy
        failures = []

        def hopeless():
            try:
                yield from client.alloc(count=2, wait=True)
            except AllocationError as exc:
                failures.append(exc)

        cluster.engine.process(hopeless())
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert len(cluster.arm._wait_queue) == 1
        # The free device departs: count=2 can never be satisfied now.
        cluster.agents[1].stop(reason="departed")
        cluster.run(until=cluster.engine.now + 3 * REPORT_PERIOD)
        assert len(failures) == 1
        assert max(counts.values()) == 1

    def test_eviction_of_last_device_answers_parked_valloc_once(self):
        cluster = _discovery_cluster(n_ac=1, initial=1, slots=1)
        cluster.arm.enable_discovery(ttl_s=TTL)
        counts = _reply_counter(cluster.arm)
        cluster.run(until=3 * REPORT_PERIOD)
        for t in ("t0", "t1"):
            cluster.arm.admission.register(TenantSpec(tenant_id=t))
        client = cluster.arm_client(0)
        sess = cluster.session()
        sess.call(client.valloc("t0"))  # the only slot
        outcomes = []

        def lease():
            try:
                outcomes.append((yield from client.valloc("t1", wait=True)))
            except AllocationError as exc:
                outcomes.append(exc)

        cluster.engine.process(lease())
        cluster.run(until=cluster.engine.now + 2 * REPORT_PERIOD)
        assert not outcomes and len(cluster.arm._vqueue) == 1
        # The only device goes silent and ages out: the parked waiter
        # must get exactly one UNAVAILABLE, not hang (and not get two).
        cluster.agents[0].pause()
        cluster.run(until=cluster.engine.now + 4 * TTL)
        assert cluster.arm.records == {}
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], AllocationError)
        assert max(counts.values()) == 1


class TestAutoscaler:
    def _rig(self, n_ac=3, initial=1):
        cluster = _discovery_cluster(n_ac=n_ac, initial=initial, slots=1)
        scaler = Autoscaler(cluster.arm, list(cluster.agents.values()),
                            max_nodes=n_ac)
        scaler.start()
        return cluster, scaler

    def test_backlog_triggers_scale_up(self):
        cluster, scaler = self._rig()
        cluster.run(until=3 * REPORT_PERIOD)
        for t in ("t0", "t1"):
            cluster.arm.admission.register(TenantSpec(tenant_id=t))
        client = cluster.arm_client(0)
        grants = {}

        def lease(tenant):
            grants[tenant] = yield from client.valloc(tenant, wait=True)

        cluster.engine.process(lease("t0"))
        cluster.engine.process(lease("t1"))
        cluster.run(until=cluster.engine.now + 20 * REPORT_PERIOD)
        assert scaler.scale_ups >= 1
        assert len(grants) == 2  # the backlog drained through the join

    def test_idle_pool_scales_down_to_min(self):
        cluster, scaler = self._rig(n_ac=3, initial=3)
        cluster.run(until=40 * REPORT_PERIOD)
        assert scaler.scale_downs >= 1
        assert len(cluster.arm.records) >= MIN_NODES
        kinds = [k for _, k, _ in cluster.arm.pool_events]
        assert "leave:scale-down" in kinds

    def test_scale_down_spares_leased_devices(self):
        cluster, scaler = self._rig(n_ac=2, initial=2)
        cluster.run(until=3 * REPORT_PERIOD)
        cluster.arm.admission.register(TenantSpec(tenant_id="t0"))
        sess = cluster.session()
        client = cluster.arm_client(0)
        grant = sess.call(client.valloc("t0"))
        leased_ac = grant["vac"].ac_id
        cluster.run(until=cluster.engine.now + 40 * REPORT_PERIOD)
        # The idle device was retired; the leased one never is.
        assert leased_ac in cluster.arm.records
        assert len(cluster.arm.records) == 1
