"""Timer pool regressions: a timer is recycled only once its entry is gone.

The bug class under test: :meth:`Engine.sleep` timers, which include
every :meth:`Engine.race` deadline, go back to a per-engine pool once
they have fired or once their cancelled heap entry has been popped or
compacted away.  A timer re-armed while a cancelled entry of it still
sat in the heap would fire spuriously at its old time; a race that
touched its deadline after the deadline fired could cancel another
process's sleep.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Event

from .conftest import newest_sleep


class TestRearmGuard:
    def test_cancelled_sleep_is_pooled_only_once_its_entry_is_gone(self):
        """A cancelled sleep whose dead entry still waits in the heap is
        not handed out again; once the entry pops it is, pending and
        uncancelled, with no callback."""
        eng = Engine()
        t = eng.sleep(1.0)
        t.add_callback(lambda _e: None)
        t.cancel()
        assert eng.sleep(2.0) is not t
        eng.run(until=1.5)              # the dead entry pops at 1.0
        t2 = eng.sleep(2.0)
        assert t2 is t
        assert not (t2.cancelled or t2.processed or t2.callbacks)

    def test_recycled_deadline_cannot_fire_at_stale_time(self):
        """Won, cancelled by its race, popped, re-armed: the reused
        object fires exactly once, at the new time only."""
        eng = Engine()
        reply = Event(eng)
        race = eng.race(reply, 0.5)
        dl = newest_sleep(eng)
        eng.timeout(0.1).add_callback(lambda _e: reply.succeed("ok"))
        eng.run(until=race)
        assert reply.triggered and dl.cancelled and not dl.processed
        assert dl not in eng._sleep_pool    # its dead entry still waits
        eng.run(until=1.0)  # drain past the stale entry so dl is retired
        assert eng._sleep_pool and eng._sleep_pool[-1] is dl

        fired = []
        race2 = eng.race(Event(eng), 3.0)
        assert newest_sleep(eng) is dl, "pool did not recycle the deadline"
        race2.add_callback(lambda e: fired.append(eng.now))
        eng.run(until=5.0)
        # One fire, at now+3.0 — never at the stale 0.5 s deadline.
        assert fired == [4.0]

    def test_same_instant_tie_leaves_the_recycled_deadline_alone(self):
        """At one instant: the deadline fires first, another process
        re-arms that very timer from the pool, then the reply lands.  The
        racer sees its reply; the other process's sleep is untouched and
        fires at its own time."""
        eng = Engine()
        reply = Event(eng)
        log = []

        def racer():
            race = eng.race(reply, 1.0)
            log.append(("deadline", newest_sleep(eng)))
            yield race
            log.append(("racer", eng.now, reply.triggered))

        def sleeper():
            yield eng.timeout(1.0)       # due after the deadline at 1.0
            t = eng.sleep(2.0)
            log.append(("sleep", t))
            yield t
            log.append(("sleeper", eng.now))

        eng.process(racer())
        eng.process(sleeper())
        eng.run(until=0.5)
        eng.timeout(0.5).add_callback(lambda _e: reply.succeed("late"))
        eng.run()
        (_, dl), (_, t) = log[0], log[1]
        assert t is dl, "the sleeper did not take the fired deadline"
        assert log[2:] == [("racer", 1.0, True), ("sleeper", 3.0)]

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
        """POOL_MAX-overflow stress: cancel far more sleeps, and settle far
        more races, than the one pool of their timers holds; the pool
        stays capped and the engine keeps exact accounting and ordering."""
        eng = Engine()
        n = eng.POOL_MAX * 3
        # Create everything first (an empty pool means every instance is
        # fresh), then cancel; retirement may only fill the pool to the cap.
        sleeps = [eng.sleep(1.0) for _ in range(n)]
        replies = [Event(eng) for _ in range(n)]
        races = [eng.race(reply, 1.0) for reply in replies]
        for t in sleeps:
            t.cancel()
        for reply in replies:
            reply.succeed()
        eng.run(until=2.0)
        assert all(race.processed for race in races)
        assert len(eng._sleep_pool) == eng.POOL_MAX
        assert eng.queued == 0

        # The engine is still healthy: fresh timers fire in order.
        seen = []
        for d in (0.3, 0.1, 0.2):
            eng.timeout(d, value=d).add_callback(
                lambda e: seen.append(e.value))
        eng.run()
        assert seen == [0.1, 0.2, 0.3]


class TestNanRejected:
    """A NaN delay or horizon compares false with everything: each entry
    point rejects it instead of scheduling at time NaN or at once."""

    def test_enqueue(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng._enqueue(Event(eng), math.nan)

    def test_succeed_after(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.succeed_after(Event(eng), math.nan)

    def test_timeout(self):
        with pytest.raises(SimulationError):
            Engine().timeout(math.nan)

    def test_sleep(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.sleep(math.nan)         # a fresh timer
        eng.sleep(1.0)
        eng.run()                       # fired: back in the pool
        assert eng._sleep_pool
        with pytest.raises(SimulationError):
            eng.sleep(math.nan)         # a recycled one

    def test_run_until(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.run(until=math.nan)

    def test_call_at(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.call_at(math.nan, lambda: None)
        assert eng.queued == 0


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
