"""Unit tests for Resource and BandwidthShare."""

import pytest

from repro.errors import SimulationError
from repro.sim import BandwidthShare, Engine, Resource


@pytest.fixture
def eng():
    return Engine()


def granted(res):
    """An event that succeeds once ``res`` grants it a unit: what a
    process yields to wait for a resource."""
    ev = res.engine.event()
    res.when_granted(ev.succeed)
    return ev


class TestResource:
    def test_mutex_serializes(self, eng):
        lock = Resource(eng, capacity=1)
        timeline = []

        def worker(name, hold):
            yield granted(lock)
            timeline.append((name, "in", eng.now))
            yield eng.timeout(hold)
            timeline.append((name, "out", eng.now))
            lock.release()

        eng.process(worker("a", 2.0))
        eng.process(worker("b", 3.0))
        eng.run()
        assert timeline == [
            ("a", "in", 0.0),
            ("a", "out", 2.0),
            ("b", "in", 2.0),
            ("b", "out", 5.0),
        ]

    def test_capacity_two_allows_parallel(self, eng):
        res = Resource(eng, capacity=2)
        done_at = {}

        def worker(name):
            yield granted(res)
            yield eng.timeout(1.0)
            res.release()
            done_at[name] = eng.now

        for n in "abc":
            eng.process(worker(n))
        eng.run()
        assert done_at["a"] == 1.0
        assert done_at["b"] == 1.0
        assert done_at["c"] == 2.0

    def test_release_without_acquire_raises(self, eng):
        res = Resource(eng)
        with pytest.raises(SimulationError):
            res.release()

    def test_grant_by_call_runs_now_when_a_unit_is_free(self, eng):
        res = Resource(eng, capacity=2)
        got = []
        res.when_granted(lambda: got.append("a"))
        res.when_granted(lambda: got.append("b"))
        res.when_granted(lambda: got.append("c"))
        # Two units, two grants made inside the call itself, no heap entry.
        assert got == ["a", "b"] and res.in_use == 2
        assert next(eng._seq) == 0
        res.release()                  # hands the unit straight to "c"
        assert got == ["a", "b", "c"] and res.in_use == 2

    def test_both_waiter_forms_share_one_fifo(self, eng):
        lock = Resource(eng, capacity=1)
        lock.when_granted(lambda: None)            # hold the unit
        served = []
        for i in range(6):
            if i % 2:
                granted(lock).add_callback(
                    lambda _ev, i=i: served.append((i, "event")))
            else:
                lock.when_granted(lambda i=i: served.append((i, "call")))
        assert served == []
        for _ in range(6):
            lock.release()             # one hand-over per release, in order
            eng.run()                  # fire an event waiter's succeed
        assert served == [(0, "call"), (1, "event"), (2, "call"),
                          (3, "event"), (4, "call"), (5, "event")]
        assert lock.in_use == 1

    def test_release_with_no_waiter_frees_the_unit(self, eng):
        lock = Resource(eng, capacity=1)
        lock.when_granted(lambda: None)
        lock.release()
        assert lock.in_use == 0 and lock.available == 1
        with pytest.raises(SimulationError):
            lock.release()             # a double release still raises

    def test_available_accounting(self, eng):
        res = Resource(eng, capacity=3)

        def worker():
            yield granted(res)

        p = eng.process(worker())
        eng.run(until=p)
        assert res.in_use == 1
        assert res.available == 2

    def test_bad_capacity_rejected(self, eng):
        with pytest.raises(SimulationError):
            Resource(eng, capacity=0)


def drain_times(capacity, flows):
    """``flows`` — (name, start, nbytes) — on a fresh share:
    ``{name: completion time}`` as seen by ``on_done``."""
    eng = Engine()
    link = BandwidthShare(eng, capacity)
    done = {}
    for name, start, nbytes in flows:
        eng.call_at(start, lambda name=name, nbytes=nbytes:
                    link.drain(nbytes, lambda: done.__setitem__(name, eng.now)))
    eng.run()
    return done


class TestBandwidthShare:
    """Every time below is exact: each is a short sum of binary fractions,
    so the fair-share arithmetic must reproduce it bit for bit."""

    def test_single_flow_exact_time(self):
        assert drain_times(100.0, [("a", 0.0, 250.0)]) == {"a": 2.5}

    def test_zero_bytes_completes_immediately(self):
        assert drain_times(100.0, [("a", 0.0, 0)]) == {"a": 0.0}

    def test_two_equal_flows_share_fairly(self):
        # Both share 100 B/s -> each runs at 50 B/s -> both done at t=2.
        assert drain_times(100.0, [("a", 0.0, 100.0),
                                   ("b", 0.0, 100.0)]) == {"a": 2.0, "b": 2.0}

    def test_short_flow_finishes_then_long_speeds_up(self):
        # Shared at 50 B/s until short finishes at t=1 (long has 100 left),
        # then long runs at full 100 B/s -> finishes at t=2.
        assert drain_times(100.0, [("short", 0.0, 50.0),
                                   ("long", 0.0, 150.0)]) == {"short": 1.0,
                                                              "long": 2.0}

    def test_late_joiner_slows_existing_flow(self):
        # first: 50 B alone (0.5s), then shares: needs 50 more at 50 B/s = 1s
        # unless second finishes earlier: second needs 25 B at 50 B/s = 0.5s,
        # done at t=1.0. Then first has 25 B left at 100 B/s -> t=1.25.
        assert drain_times(100.0, [("first", 0.0, 100.0),
                                   ("second", 0.5, 25.0)]) == {"second": 1.0,
                                                               "first": 1.25}

    def test_negative_size_rejected(self, eng):
        link = BandwidthShare(eng, 10.0)
        with pytest.raises(SimulationError):
            link.drain(-1, lambda: None)

    def test_idle_share_rearms_its_own_timer(self, eng):
        """A flow into an idle share re-arms the timer its last flow
        fired instead of taking a fresh one."""
        link = BandwidthShare(eng, 100.0)
        done_at = []
        link.drain(100.0, lambda: done_at.append(eng.now))
        first = link._timer
        eng.run()
        link.drain(50.0, lambda: done_at.append(eng.now))
        assert link._timer is first
        eng.run()
        assert done_at == [1.0, 1.5]
        assert next(eng._seq) == 2

    def test_a_lone_flow_is_two_fields_and_a_second_makes_records(self, eng):
        """A lone flow builds no record and its timer no callback list;
        a second flow turns it into a record for the fair-share step, and
        the share returns to the lone form once idle again."""
        link = BandwidthShare(eng, 100.0)
        done_at = {}
        link.drain(100.0, lambda: done_at.setdefault("a", eng.now))
        assert link._flows == [] and link._lone_done is not None
        assert link._timer.callbacks is None
        eng.run(until=0.5)
        link.drain(25.0, lambda: done_at.setdefault("b", eng.now))
        assert len(link._flows) == 2 and link._lone_done is None
        eng.run()
        assert done_at == {"b": 1.0, "a": 1.25}
        link.drain(50.0, lambda: done_at.setdefault("c", eng.now))
        assert link._flows == [] and link._lone_done is not None
        eng.run()
        assert done_at["c"] == 1.75

    def test_drain_costs_only_the_share_timer(self, eng):
        link = BandwidthShare(eng, 100.0)
        done_at = []
        link.drain(250.0, lambda: done_at.append(eng.now))
        link.drain(0, lambda: done_at.append("empty"))    # nothing to wait for
        assert done_at == ["empty"]
        eng.run()
        assert done_at == ["empty", pytest.approx(2.5)]
        assert next(eng._seq) == 1     # no event of its own

    def test_completion_may_start_the_next_flow_on_the_share(self, eng):
        """``on_done`` runs with the flow list settled and the next timer
        armed, so a chain can feed the share from its own completion —
        also while another flow is still draining."""
        link = BandwidthShare(eng, 100.0)
        done = {}

        def chain(n):
            done[f"chain{n}"] = eng.now
            if n < 2:
                link.drain(50.0, lambda: chain(n + 1))

        link.drain(50.0, lambda: chain(0))
        link.drain(300.0, lambda: done.__setitem__("long", eng.now))
        eng.run()
        # Always two flows until the chain ends: 50 B/s each, so a link of
        # the chain ends every second; the long flow then runs alone.
        assert done == {"chain0": pytest.approx(1.0),
                        "chain1": pytest.approx(2.0),
                        "chain2": pytest.approx(3.0),
                        "long": pytest.approx(4.5)}
        assert link._flows == []

    def test_bad_capacity_rejected(self, eng):
        with pytest.raises(SimulationError):
            BandwidthShare(eng, 0.0)

    @staticmethod
    def _contended(monkeypatch, spares_max):
        """40 flows of 0.1 s each, one starting every 0.07 s: every join
        and every completion while another flow runs is a reschedule
        that cancels the live timer.  Returns (completion times, engine
        sequence numbers drawn, share timers constructed)."""
        from repro.sim import resources
        made = []
        init = resources._ShareTimer.__init__

        def counting_init(self, share, delay):
            made.append(self)
            init(self, share, delay)

        monkeypatch.setattr(resources._ShareTimer, "__init__", counting_init)
        monkeypatch.setattr(BandwidthShare, "_SPARES_MAX", spares_max)
        eng = Engine()
        link = BandwidthShare(eng, 100.0)
        done = {}
        for i in range(40):
            eng.call_at(0.07 * i, lambda i=i: link.drain(
                10.0, lambda: done.__setitem__(i, eng.now)))
        eng.run()
        return done, next(eng._seq), len(made)

    def test_cancelled_timers_are_rearmed_once_their_entry_is_gone(
            self, monkeypatch):
        """A contended share keeps the timers its reschedules cancelled
        and re-arms the oldest whose dead heap entry has been popped: a
        handful of timers instead of one per reschedule, at the same
        times and the same sequence draws as a fresh timer each time."""
        spares = self._contended(monkeypatch, BandwidthShare._SPARES_MAX)
        fresh = self._contended(monkeypatch, 0)
        assert spares[:2] == fresh[:2]
        assert len(spares[0]) == 40
        assert fresh[2] == 40
        assert spares[2] == 3

    def test_many_sequential_flows_total_time(self, eng):
        link = BandwidthShare(eng, 1000.0)
        done = []

        def next_flow():
            done.append(eng.now)
            if len(done) <= 10:
                link.drain(500.0, next_flow)

        next_flow()
        eng.run()
        assert done[-1] == pytest.approx(5.0)
