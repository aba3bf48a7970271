"""Unit tests for generator-based processes."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


class TestProcessBasics:
    def test_process_runs_and_returns(self, eng):
        def proc():
            yield eng.timeout(1.0)
            yield eng.timeout(2.0)
            return "done"

        p = eng.process(proc())
        result = eng.run(until=p)
        assert result == "done"
        assert eng.now == 3.0

    def test_process_does_not_run_before_engine(self, eng):
        ran = []

        def proc():
            ran.append(True)
            yield eng.timeout(0.0)

        eng.process(proc())
        assert ran == []  # nothing until run()
        eng.run()
        assert ran == [True]

    def test_timeout_value_delivered(self, eng):
        def proc():
            v = yield eng.timeout(1.0, value="tick")
            return v

        p = eng.process(proc())
        assert eng.run(until=p) == "tick"

    def test_process_waits_on_process(self, eng):
        def child():
            yield eng.timeout(5.0)
            return 99

        def parent():
            v = yield eng.process(child())
            return v + 1

        p = eng.process(parent())
        assert eng.run(until=p) == 100
        assert eng.now == 5.0

    def test_yield_already_processed_event(self, eng):
        ev = eng.event().succeed("early")

        def proc():
            yield eng.timeout(1.0)
            v = yield ev  # processed long ago — must resume synchronously
            return v

        p = eng.process(proc())
        assert eng.run(until=p) == "early"
        assert eng.now == 1.0

    def test_yield_non_event_raises(self, eng):
        def proc():
            yield 42

        eng.process(proc())
        with pytest.raises(SimulationError, match="expected an Event"):
            eng.run()

    def test_non_generator_rejected(self, eng):
        with pytest.raises(SimulationError):
            eng.process(lambda: None)

    def test_failed_event_throws_into_process(self, eng):
        ev = eng.event()

        def failer():
            yield eng.timeout(1.0)
            ev.fail(ValueError("bad"))

        def proc():
            try:
                yield ev
            except ValueError as exc:
                return f"caught {exc}"

        eng.process(failer())
        p = eng.process(proc())
        assert eng.run(until=p) == "caught bad"

    def test_uncaught_exception_propagates_to_waiter(self, eng):
        def child():
            yield eng.timeout(1.0)
            raise RuntimeError("child crashed")

        def parent():
            yield eng.process(child())

        p = eng.process(parent())
        with pytest.raises(RuntimeError, match="child crashed"):
            eng.run(until=p)

    def test_unwaited_crash_surfaces(self, eng):
        def proc():
            yield eng.timeout(1.0)
            raise RuntimeError("nobody is listening")

        eng.process(proc())
        with pytest.raises(RuntimeError, match="nobody is listening"):
            eng.run()


class _Value:
    """A return value a weak reference can watch."""


class TestFreedByRefcount:
    """A finished process holds no reference cycle: once the caller drops
    it, the process and its return value go at once, with the cyclic
    collector off.  (A process that cached a bound method of itself —
    ``self._resume`` in a slot — would keep both until a collection; for
    a D2H read-back the value is a view of a device backing.)"""

    @pytest.mark.parametrize("wait", ["sleep", "timeout", "process"])
    def test_finished_process_and_value_die_without_the_collector(
            self, eng, wait):
        def child():
            yield eng.sleep(1.0)
            return "child"

        def proc():
            if wait == "sleep":
                yield eng.sleep(1.0)
            elif wait == "timeout":
                yield eng.timeout(1.0)
            else:
                yield eng.process(child())
            return _Value()

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            p = eng.process(proc())
            eng.run()
            value = weakref.ref(p.value)
            del p
            assert value() is None
        finally:
            if was_enabled:
                gc.enable()


class TestEngineRun:
    def test_run_until_time(self, eng):
        hits = []

        def ticker():
            while True:
                yield eng.timeout(1.0)
                hits.append(eng.now)

        eng.process(ticker())
        eng.run(until=4.5)
        assert hits == [1.0, 2.0, 3.0, 4.0]
        assert eng.now == 4.5

    def test_run_until_past_raises(self, eng):
        eng.process(iter_timeout(eng, 5.0))
        eng.run(until=3.0)
        with pytest.raises(SimulationError):
            eng.run(until=1.0)

    def test_deadlock_detected(self, eng):
        ev = eng.event()  # never triggered

        def proc():
            yield ev

        p = eng.process(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            eng.run(until=p)

    def test_engine_not_reentrant(self, eng):
        def proc():
            eng.run()
            yield eng.timeout(1.0)

        eng.process(proc())
        with pytest.raises(SimulationError, match="not reentrant"):
            eng.run()

    def test_clock_never_goes_backwards(self, eng):
        stamps = []

        def proc(delay):
            yield eng.timeout(delay)
            stamps.append(eng.now)

        for d in [5.0, 1.0, 3.0, 1.0, 0.0]:
            eng.process(proc(d))
        eng.run()
        assert stamps == sorted(stamps)


def iter_timeout(eng, delay):
    yield eng.timeout(delay)
