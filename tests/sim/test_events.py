"""Unit tests for the event primitives."""

import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Engine, Event, Timeout

from .conftest import newest_sleep


@pytest.fixture
def eng():
    return Engine()


class TestEvent:
    def test_starts_pending(self, eng):
        ev = eng.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, eng):
        ev = eng.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_carries_value(self, eng):
        ev = eng.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_trigger_raises(self, eng):
        ev = eng.event().succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, eng):
        ev = eng.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_fail_carries_exception(self, eng):
        ev = eng.event()
        exc = RuntimeError("boom")
        ev.fail(exc)
        assert ev.triggered
        assert not ev.ok
        assert ev.value is exc

    def test_callbacks_run_on_processing(self, eng):
        ev = eng.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed("hello")
        assert seen == []  # not yet processed
        eng.run()
        assert seen == ["hello"]

    def test_late_callback_runs_immediately(self, eng):
        ev = eng.event().succeed(7)
        eng.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_cancel_prevents_processing(self, eng):
        ev = eng.timeout(1.0)
        seen = []
        ev.add_callback(lambda e: seen.append(1))
        ev.cancel()
        eng.run()
        assert seen == []
        assert eng.now == 0.0  # cancelled timer does not advance the clock

    def test_cancel_processed_event_raises(self, eng):
        ev = eng.event().succeed(None)
        eng.run()
        with pytest.raises(SimulationError):
            ev.cancel()

    def test_trigger_cancelled_event_raises(self, eng):
        ev = eng.event()
        ev.cancel()
        with pytest.raises(SimulationError):
            ev.succeed(None)
        with pytest.raises(SimulationError):
            ev.fire(None)

    def test_fire_runs_callbacks_in_place(self, eng):
        ev = eng.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.fire("now")
        assert seen == ["now"] and ev.processed
        assert next(eng._seq) == 0  # no heap entry
        with pytest.raises(SimulationError):
            ev.fire("again")


class TestTimeout:
    def test_fires_at_delay(self, eng):
        times = []
        ev = eng.timeout(2.5)
        ev.add_callback(lambda e: times.append(eng.now))
        eng.run()
        assert times == [2.5]

    def test_carries_value(self, eng):
        ev = eng.timeout(1.0, value="tick")
        eng.run()
        assert ev.value == "tick"

    def test_negative_delay_raises(self, eng):
        with pytest.raises(SimulationError):
            eng.timeout(-1.0)

    def test_zero_delay_fires_now(self, eng):
        ev = eng.timeout(0.0)
        eng.run()
        assert ev.processed
        assert eng.now == 0.0

    def test_manual_trigger_forbidden(self, eng):
        ev = eng.timeout(1.0)
        with pytest.raises(SimulationError):
            ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError())

    def test_ordering_among_timeouts(self, eng):
        order = []
        for delay, label in [(3.0, "c"), (1.0, "a"), (2.0, "b")]:
            eng.timeout(delay, label).add_callback(lambda e: order.append(e.value))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_fifo_at_equal_time(self, eng):
        order = []
        for label in "abc":
            eng.timeout(1.0, label).add_callback(lambda e: order.append(e.value))
        eng.run()
        assert order == ["a", "b", "c"]


class TestRace:
    """``race`` returns one event and owns its deadline (read here from
    the heap only to check it): the caller never holds the timer."""

    def test_event_wins_race(self, eng):
        ev = eng.timeout(1.0, value="work")
        race = eng.race(ev, 5.0)
        dl = newest_sleep(eng)
        eng.run(until=race)
        assert ev.processed and race.value == "work"
        assert eng.now == 1.0
        # Cancelled by the race the instant the event fired.
        assert dl.cancelled and not dl.processed
        eng.run()                       # the queue drains clean
        assert eng.now == 1.0 and not dl.processed

    def test_deadline_wins_race(self, eng):
        ev = eng.timeout(10.0)
        race = eng.race(ev, 2.0)
        dl = newest_sleep(eng)
        eng.run(until=race)
        assert dl.processed and not ev.processed
        assert eng.now == 2.0

    def test_cancelled_deadline_releases_the_race(self, eng):
        """A won race's deadline waits in the heap for its time, but the
        cancel dropped its callbacks, so the race and the winner's value
        are freed now, not when the entry pops."""
        class Reply:
            pass

        reply = Reply()
        alive = weakref.ref(reply)
        ev = eng.timeout(1.0, value=reply)
        del reply
        race = eng.race(ev, 5.0)
        eng.run(until=race)
        del race, ev
        assert alive() is None

    def test_deadline_is_a_pooled_timer(self, eng):
        """A race deadline is a sleep: it comes from, and goes back to,
        the one pool of recycled timers."""
        eng.race(eng.timeout(1.0), 2.0)
        dl = newest_sleep(eng)
        eng.run()
        assert eng.sleep(1.0) is dl

    def test_race_on_a_fired_event(self, eng):
        """The event has already fired: the race settles at once and
        its cancelled deadline carries no callback into the pool."""
        ev = eng.timeout(0.5, value="early")
        eng.run()
        race = eng.race(ev, 1.0)
        dl = newest_sleep(eng)
        assert dl.cancelled and not dl.callbacks
        eng.run()
        assert race.value == "early" and eng.now == 0.5
        t = eng.sleep(2.0)
        assert t is dl and not (t.cancelled or t.processed or t.callbacks)
        eng.run()
        assert t.processed and eng.now == 2.5

    def test_race_whose_event_fails(self, eng):
        ev = eng.event()
        race = eng.race(ev, 1.0)
        dl = newest_sleep(eng)
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            eng.run(until=race)
        assert dl.cancelled and not dl.callbacks
        eng.run()
        assert eng.now == 0.0           # the dead deadline never fired
        assert eng.sleep(1.0) is dl and not dl.callbacks


class TestConditions:
    def test_all_of_waits_for_all(self, eng):
        evs = [eng.timeout(1.0, "x"), eng.timeout(3.0, "y")]
        cond = eng.all_of(evs)
        fired_at = []
        cond.add_callback(lambda e: fired_at.append(eng.now))
        eng.run()
        assert fired_at == [3.0]
        assert cond.value == {evs[0]: "x", evs[1]: "y"}

    def test_all_of_over_a_one_shot_iterable_still_waits(self, eng):
        """A generator is a valid ``events`` argument: it must build the
        same barrier as a list, not one that needs zero children."""
        fired = {}
        for form in (list, iter):
            e = Engine()
            evs = [e.timeout(1.0, "x"), e.timeout(2.0, "y")]
            cond = e.all_of(form(evs))
            cond.add_callback(lambda c, e=e, form=form: fired.__setitem__(
                form, (e.now, list(c.value.values()))))
            e.run()
        assert fired[list] == fired[iter] == (2.0, ["x", "y"])

    def test_all_of_empty_succeeds_immediately(self, eng):
        cond = eng.all_of([])
        eng.run()
        assert cond.processed
        assert cond.value == {}

    def test_any_of_fires_on_first(self, eng):
        evs = [eng.timeout(5.0, "slow"), eng.timeout(1.0, "fast")]
        cond = eng.any_of(evs)
        fired_at = []
        cond.add_callback(lambda e: fired_at.append(eng.now))
        eng.run()
        assert fired_at == [1.0]
        assert evs[1] in cond.value

    def test_any_of_empty_raises(self, eng):
        with pytest.raises(SimulationError):
            eng.any_of([])

    def test_all_of_propagates_failure(self, eng):
        good = eng.timeout(1.0)
        bad = eng.event()
        cond = eng.all_of([good, bad])
        bad.fail(ValueError("child failed"))
        eng.run()
        assert cond.triggered
        assert not cond.ok
        assert isinstance(cond.value, ValueError)

    def test_mixed_engines_rejected(self, eng):
        other = Engine()
        with pytest.raises(SimulationError):
            eng.all_of([eng.event(), other.event()])


class TestWorkUnitEvents:
    """The work units are events of their own (a transmission, a message,
    which is also its eager send, a receive request, a DMA copy); each skips ``Event.__init__`` and so must set
    every Event slot itself: the state reads work from construction on."""

    def test_state_reads_through_the_lifecycle(self, eng):
        from repro.gpusim import DMAEngine, PCIE_GEN2_X16
        from repro.mpisim import World
        from repro.netsim import IB_QDR_MPI, Fabric

        fabric = Fabric(eng, IB_QDR_MPI)
        for name in ("a", "b"):
            fabric.add_endpoint(name)
        comm = World(eng, fabric).create_comm(["a", "b"])
        rank0, rank1 = comm.rank(0), comm.rank(1)
        # Queued behind the first on the NIC: not yet granted.
        fabric.transfer("a", "b", 10)
        tx = fabric.transfer("a", "b", 10)
        recv = rank1.irecv(source=0, tag=1)
        send = rank0.isend(1, tag=1, payload=b"x")
        msg = send.done
        assert send is msg          # an eager send is its message
        dma = DMAEngine(eng, PCIE_GEN2_X16)
        dma.copy(10)
        copy = dma.copy(10)
        units = (tx, msg, recv, send, copy)
        for ev in units:
            assert isinstance(ev, Event)
            assert not (ev.triggered or ev.processed or ev.cancelled)
            assert ev.callbacks is None and not ev._scheduled
        eng.run()
        for ev in (tx, msg, recv, copy):
            assert ev.triggered and ev.processed and not ev.cancelled
        assert send.completed and recv.value is msg
        assert send is msg and recv.done is recv
        other = rank1.irecv(source=0, tag=2)
        rank1.cancel_recv(other)
        assert other.cancelled and not other.triggered
