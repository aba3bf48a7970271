"""Timer slot-pool regressions: recycling must stay engine/shard-local.

The bug class under test: :meth:`Engine.race` deadlines and
:meth:`Engine.pooled_timer` timers are recycled through per-engine slot
pools once cancelled *and popped from the heap*.  If an instance whose
(cancelled) heap entry is still scheduled anywhere were ever re-armed —
e.g. recycled from one shard's pool while its twin entry sits in a
neighbour shard's heap — re-arming would clear ``_cancelled`` and the
stale entry would fire the timer spuriously at its old time.  The
:meth:`Timeout._rearm` guard turns any such path into a loud error, and
the sharded engine keeps one pool per shard so the sanctioned path can
never hit it.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Event, ShardedEngine
from repro.sim.events import Deadline


class TestRearmGuard:
    def test_rearm_while_scheduled_raises(self):
        """The regression guard itself: a timer whose heap entry is still
        scheduled must refuse to re-arm instead of firing spuriously."""
        eng = Engine()
        t = eng.pooled_timer(1.0)
        # Simulate the bug: the still-scheduled timer leaks into the pool
        # (e.g. via non-shard-local recycling).  The next pooled_timer()
        # recycles it and must hit the guard.
        eng._timeout_pool.append(t)
        with pytest.raises(SimulationError, match="still scheduled"):
            eng.pooled_timer(2.0)

    def test_recycled_deadline_cannot_fire_at_stale_time(self):
        """The sanctioned recycle path: cancelled, popped, re-armed — the
        reused object fires exactly once, at the new time only."""
        eng = Engine()
        reply = Event(eng)
        cond, dl = eng.race(reply, 0.5)
        eng.timeout(0.1).add_callback(lambda _e: reply.succeed("ok"))
        eng.run(until=cond)
        assert reply.triggered and not dl.processed
        dl.cancel()
        eng.run(until=1.0)  # drain past the stale entry so dl is retired
        assert eng._deadline_pool and eng._deadline_pool[-1] is dl

        fired = []
        reply2 = Event(eng)
        cond2, dl2 = eng.race(reply2, 3.0)
        assert dl2 is dl, "pool did not recycle the retired deadline"
        dl2.add_callback(lambda e: fired.append(eng.now))
        eng.run(until=5.0)
        # One fire, at now+3.0 — never at the stale 0.5 s deadline.
        assert fired == [4.0]

    def test_cancel_charges_the_owning_shard(self):
        """A cancel issued from another shard's context must charge the
        heap that actually holds the entry (``_scheduled`` stores the
        owning shard), keeping lazy-deletion accounting exact."""
        eng = ShardedEngine(2)
        with eng.shard_scope(1):
            t = eng.timeout(1.0)
        assert t._scheduled == 2  # shard 1, stored as shard + 1
        assert eng._active_shard == 0
        t.cancel()  # from shard 0's context
        assert eng.shards[1].n_dead == 1
        assert eng.shards[0].n_dead == 0 and eng._n_dead == 0
        assert eng.queued == 0

    def test_succeed_after_tags_the_owning_shard(self):
        """A pre-created event fired through ``succeed_after`` (fabric
        flows, DMA completions) is stamped like any other enqueue, so a
        later cancel charges the shard whose heap holds the entry."""
        eng = ShardedEngine(2)
        ev = Event(eng)
        with eng.shard_scope(1):
            eng.succeed_after(ev, 1.0)
        assert ev._scheduled == 2
        ev.cancel()
        assert eng.shards[1].n_dead == 1 and eng.shards[0].n_dead == 0
        with pytest.raises(SimulationError):
            eng.succeed_after(Event(eng), -1.0)


class TestShardLocalPools:
    def test_pools_do_not_leak_across_shards(self):
        """A cancelled deadline whose entry still sits in shard 1's heap
        must not be recyclable from shard 0: each shard keeps its own
        pool, so shard 0 allocates fresh instead of re-arming the twin."""
        eng = ShardedEngine(2)
        with eng.shard_scope(1):
            reply = Event(eng)
            cond1, dl1 = eng.race(reply, 0.5)
            dl1.cancel()  # still scheduled in shard 1's heap
        assert dl1._scheduled == 2
        assert not eng._deadline_pool, "cancelled twin leaked into a pool"

        reply0 = Event(eng)
        cond0, dl0 = eng.race(reply0, 0.25)
        assert dl0 is not dl1, "recycled a deadline scheduled on shard 1"

        fired = []
        dl0.add_callback(lambda e: fired.append((0, eng.now)))
        eng.run(until=1.0)
        assert fired == [(0, 0.25)], "spurious or missing deadline fire"

    def test_retired_deadline_recycles_within_its_shard(self):
        eng = ShardedEngine(2)
        with eng.shard_scope(1):
            reply = Event(eng)
            _, dl = eng.race(reply, 0.5)
            dl.cancel()
        eng.run(until=1.0)  # drains shard 1's heap, retiring the deadline
        assert eng.shards[1].deadline_pool[-1] is dl
        assert not eng.shards[0].deadline_pool
        with eng.shard_scope(1):
            _, dl2 = eng.race(Event(eng), 0.5)
        assert dl2 is dl


class TestPoolOverflow:
    def test_pool_max_caps_both_pools(self):
        """POOL_MAX-overflow stress: cancel far more poolable timers than
        the pool holds; the pool stays capped and the engine keeps exact
        accounting and ordering."""
        eng = Engine()
        n = eng.POOL_MAX * 3
        # Create everything first (an empty pool means every instance is
        # fresh), then cancel; retirement may only fill pools to the cap.
        timers = [eng.pooled_timer(1.0) for _ in range(n)]
        deadlines = [eng.race(Event(eng), 1.0)[1] for _ in range(n)]
        for ev in timers + deadlines:
            ev.cancel()
        eng.run(until=2.0)
        assert len(eng._timeout_pool) == eng.POOL_MAX
        assert len(eng._deadline_pool) == eng.POOL_MAX
        assert eng.queued == 0

        # The engine is still healthy: fresh timers fire in order.
        seen = []
        for d in (0.3, 0.1, 0.2):
            eng.timeout(d, value=d).add_callback(
                lambda e: seen.append(e.value))
        eng.run()
        assert seen == [0.1, 0.2, 0.3]

    def test_overflow_under_shards_stays_shard_local(self):
        eng = ShardedEngine(3)
        n = eng.POOL_MAX + 50
        for shard in (1, 2):
            with eng.shard_scope(shard):
                timers = [eng.pooled_timer(1.0) for _ in range(n)]
            for t in timers:
                t.cancel()
        eng.run(until=2.0)
        for shard in (1, 2):
            assert len(eng.shards[shard].timeout_pool) == eng.POOL_MAX
        assert not eng.shards[0].timeout_pool
        assert eng.queued == 0
        assert all(isinstance(t, object) and not isinstance(t, Deadline)
                   for t in eng.shards[1].timeout_pool)
