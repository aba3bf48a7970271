"""Timer slot-pool regressions: recycling must stay engine-local.

The bug class under test: :meth:`Engine.pooled_timer` timers, which
include every :meth:`Engine.race` deadline, are recycled through a
per-engine slot pool once cancelled *and popped from the heap*.  If an instance whose
(cancelled) heap entry is still scheduled were ever re-armed, re-arming
would clear ``_cancelled`` and the stale entry would fire the timer
spuriously at its old time.  The :meth:`Timeout._rearm` guard turns any
such path into a loud error.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Event


class TestRearmGuard:
    def test_rearm_while_scheduled_raises(self):
        """The regression guard itself: a timer whose heap entry is still
        scheduled must refuse to re-arm instead of firing spuriously."""
        eng = Engine()
        t = eng.pooled_timer(1.0)
        # Simulate the bug: the still-scheduled timer leaks into the pool
        # before its entry is popped.  The next pooled_timer() recycles
        # it and must hit the guard.
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
        assert eng._timeout_pool and eng._timeout_pool[-1] is dl

        fired = []
        reply2 = Event(eng)
        cond2, dl2 = eng.race(reply2, 3.0)
        assert dl2 is dl, "pool did not recycle the retired deadline"
        dl2.add_callback(lambda e: fired.append(eng.now))
        eng.run(until=5.0)
        # One fire, at now+3.0 — never at the stale 0.5 s deadline.
        assert fired == [4.0]

    def test_succeed_after_then_cancel_counts_one_dead(self):
        """A pre-created event fired through ``succeed_after`` (fabric
        flows, DMA completions) is scheduled like any other enqueue, so a
        later cancel is charged to the heap's lazy-deletion count."""
        eng = Engine()
        ev = Event(eng)
        eng.succeed_after(ev, 1.0)
        assert ev._scheduled is True
        assert eng.queued == 1
        ev.cancel()
        assert eng._n_dead == 1
        assert eng.queued == 0
        with pytest.raises(SimulationError):
            eng.succeed_after(Event(eng), -1.0)

    def test_scheduled_flag_is_a_plain_bool(self):
        """``_scheduled`` is True while the heap holds the entry and False
        once popped — a flag, not an owner id."""
        eng = Engine()
        t = eng.timeout(1.0)
        ev = Event(eng)
        assert ev._scheduled is False
        ev.succeed()
        assert t._scheduled is True and ev._scheduled is True
        eng.run()
        assert t._scheduled is False and ev._scheduled is False


class TestPoolOverflow:
    def test_pool_max_caps_both_pools(self):
        """POOL_MAX-overflow stress: cancel far more poolable timers and
        race deadlines than their one shared pool holds; the pool stays
        capped and the engine keeps exact accounting and ordering."""
        eng = Engine()
        n = eng.POOL_MAX * 3
        # Create everything first (an empty pool means every instance is
        # fresh), then cancel; retirement may only fill the pool to the cap.
        timers = [eng.pooled_timer(1.0) for _ in range(n)]
        deadlines = [eng.race(Event(eng), 1.0)[1] for _ in range(n)]
        for ev in timers + deadlines:
            ev.cancel()
        eng.run(until=2.0)
        assert len(eng._timeout_pool) == eng.POOL_MAX
        assert eng.queued == 0

        # The engine is still healthy: fresh timers fire in order.
        seen = []
        for d in (0.3, 0.1, 0.2):
            eng.timeout(d, value=d).add_callback(
                lambda e: seen.append(e.value))
        eng.run()
        assert seen == [0.1, 0.2, 0.3]


class TestSleep:
    """``engine.sleep`` timers go back to their engine once they have run
    and are re-armed by a later sleep: a process that sleeps in a loop
    allocates its timers once."""

    def test_a_sleeping_loop_recycles_its_timers(self):
        eng = Engine()
        seen, at = set(), []

        def sleeper():
            for delay in (1.0, 0.5, 0.25, 2.0):
                timer = eng.sleep(delay)
                seen.add(id(timer))
                yield timer
                at.append(eng.now)

        eng.process(sleeper())
        eng.run()
        assert at == [1.0, 1.5, 1.75, 3.75]
        # Each sleep is taken while the one before is still running its
        # waiters, so two timers alternate.
        assert len(seen) == 2 and len(eng._sleep_pool) == 2
        # The kick-off, one per sleep, the process's own completion.
        assert next(eng._seq) == 6

    def test_a_recycled_sleep_is_a_fresh_pending_timer(self):
        eng = Engine()

        def proc():
            yield eng.sleep(1.0)
            yield eng.sleep(1.0)

        eng.run(until=eng.process(proc()))
        t = eng.sleep(2.0)
        assert not (t.processed or t.cancelled) and t.triggered
        assert t.callbacks == []        # the emptied list, kept
        fired = []
        t.add_callback(lambda ev: fired.append((eng.now, ev.value)))
        eng.run()
        assert fired == [(4.0, None)]

    def test_negative_sleep_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.sleep(-1.0)

        def proc():
            yield eng.sleep(1.0)

        eng.run(until=eng.process(proc()))
        with pytest.raises(SimulationError):
            eng.sleep(-1.0)             # the recycled path checks too
