"""Engine hot-path machinery: lazy deletion, compaction, the timer pool.

Cancelled heap entries are deleted lazily, with periodic in-place
compaction, and the high-churn timers (``sleep()``, hence every
``race()`` deadline) are recycled through one pool.  These tests pin the
observable contracts: live-event accounting stays exact, compaction
never loses a live event or breaks the running loop's heap binding,
pooled timers are only reused after retirement, and the deadlock
diagnostic still fires.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine

from .conftest import newest_sleep


def test_cancelled_events_are_lazily_deleted():
    eng = Engine()
    timers = [eng.timeout(0.1 * (i + 1)) for i in range(10)]
    for t in timers[:4]:
        t.cancel()
    # Dead entries stay in the heap (lazy deletion) but queued is exact.
    assert len(eng._heap) == 10
    assert eng.queued == 6
    eng.run()
    assert eng.now == pytest.approx(1.0)
    assert eng.queued == 0


def test_compaction_rebuilds_in_place_and_keeps_live_events():
    eng = Engine()
    n = max(Engine.COMPACT_MIN, 100)
    timers = [eng.timeout(0.001 * (i + 1)) for i in range(n)]
    heap_id = id(eng._heap)
    dead = (n * 6) // 10  # kill >50% to cross the threshold mid-loop
    for t in timers[:dead]:
        t.cancel()
    assert len(eng._heap) < n, "compaction never ran"
    assert id(eng._heap) == heap_id, "compaction must rewrite in place"
    assert eng.queued == n - dead
    fired = []
    for t in timers[dead:]:
        t.add_callback(lambda ev: fired.append(eng.now))
    eng.run()
    assert len(fired) == n - dead
    assert fired == sorted(fired)


def test_run_skips_dead_prefix():
    eng = Engine()
    t1 = eng.timeout(0.1)
    t2 = eng.timeout(0.2)
    t1.cancel()
    fired = []
    t1.add_callback(lambda ev: fired.append("t1"))
    eng.run(until=0.15)
    assert [entry[2] for entry in eng._heap] == [t2]   # the dead entry went
    assert eng.run(until=t2) is None
    assert fired == [] and eng.now == pytest.approx(0.2)


def test_race_deadline_slot_is_reused_after_retirement():
    eng = Engine()
    reply = eng.timeout(0.1)
    race = eng.race(reply, 5.0)
    dl = newest_sleep(eng)
    eng.run(until=race)
    assert reply.triggered and dl.cancelled   # the race cancelled it
    eng.run()  # drains the heap; the dead deadline entry is retired
    race2 = eng.race(eng.timeout(0.1), 3.0)
    assert newest_sleep(eng) is dl, "retired deadline should be slot-reused"
    eng.run(until=race2)


def test_pooled_timer_is_reused_and_fires_at_new_delay():
    eng = Engine()
    t = eng.sleep(1.0)
    t.cancel()
    eng.run()  # retire the cancelled entry
    t2 = eng.sleep(2.0)
    assert t2 is t, "a retired sleep should be slot-reused"
    eng.run()
    assert t2.processed
    assert eng.now == pytest.approx(2.0)


def test_plain_timeouts_are_never_pooled():
    eng = Engine()
    fired, cancelled = eng.timeout(1.0), eng.timeout(2.0)
    cancelled.cancel()
    eng.run()
    assert not eng._sleep_pool
    assert eng.sleep(1.0) not in (fired, cancelled)


def test_pool_respects_size_bound():
    eng = Engine()
    timers = [eng.sleep(1.0) for _ in range(Engine.POOL_MAX + 10)]
    for t in timers:
        t.cancel()
    eng.run()
    assert len(eng._sleep_pool) <= Engine.POOL_MAX


def test_deadlock_detection_still_raises():
    eng = Engine()
    never = eng.event()
    with pytest.raises(SimulationError, match="deadlock"):
        eng.run(until=never)


def test_run_until_horizon_pushes_back_the_far_event():
    eng = Engine()
    t = eng.timeout(5.0)
    eng.run(until=1.0)
    assert eng.now == pytest.approx(1.0)
    assert eng.queued == 1, "the not-yet-due event must survive the horizon"
    eng.run()
    assert t.processed
    assert eng.now == pytest.approx(5.0)


def test_cancel_then_compact_during_run_keeps_loop_alive():
    """Compaction triggered from inside a running process is safe.

    The run loop binds the heap list locally; in-place compaction while
    events are being processed must not detach that binding or drop any
    live timer.
    """
    eng = Engine()
    seen = []

    def churn():
        for _ in range(6):
            victims = [eng.sleep(10.0)
                       for _ in range(Engine.COMPACT_MIN)]
            tick = eng.timeout(0.001)
            for v in victims:
                v.cancel()
            yield tick
            seen.append(eng.now)

    eng.process(churn())
    eng.run()
    assert len(seen) == 6
    assert seen == sorted(seen)
    assert eng.queued == 0
