"""Tests for the synchronous session driver."""

import pytest

from repro.core import SyncSession
from repro.core.api import run_parallel
from repro.errors import SimulationError
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def sess(eng):
    return SyncSession(eng)


class TestSyncSession:
    def test_call_returns_value(self, eng, sess):
        def op():
            yield eng.timeout(1.5)
            return "done"

        assert sess.call(op()) == "done"
        assert sess.now == 1.5

    def test_calls_accumulate_time(self, eng, sess):
        def op(d):
            yield eng.timeout(d)

        sess.call(op(1.0))
        sess.call(op(2.0))
        assert sess.now == 3.0

    def test_parallel_overlaps(self, eng, sess):
        def op(d, v):
            yield eng.timeout(d)
            return v

        results = sess.call(run_parallel(sess.engine, [op(3.0, "a"), op(1.0, "b")]))
        assert results == ["a", "b"]
        assert sess.now == 3.0

    def test_parallel_empty(self, sess):
        assert sess.call(run_parallel(sess.engine, [])) == []

    def test_exception_propagates(self, eng, sess):
        def bad():
            yield eng.timeout(0.1)
            raise ValueError("op failed")

        with pytest.raises(ValueError, match="op failed"):
            sess.call(bad())

    def test_deadlocked_call_raises(self, eng, sess):
        ev = eng.event()

        def stuck():
            yield ev

        with pytest.raises(SimulationError, match="deadlock"):
            sess.call(stuck())


class TestParallelExceptionContext:
    def _branch(self, eng, delay, exc=None, value=None):
        def body():
            yield eng.timeout(delay)
            if exc is not None:
                raise exc
            return value
        return body()

    def test_parallel_names_failed_branch(self, eng, sess):
        with pytest.raises(ValueError) as ei:
            sess.call(run_parallel(sess.engine, [
                self._branch(eng, 1.0, value="a"),
                self._branch(eng, 0.5, exc=ValueError("branch blew up")),
            ]))
        notes = "".join(getattr(ei.value, "__notes__", [])) or str(ei.value)
        assert "run_parallel" in notes
        assert "branch 1" in notes

    def test_parallel_reports_multiple_failures(self, eng, sess):
        """The second failure used to vanish; now both are in the note."""
        with pytest.raises(ValueError) as ei:
            sess.call(run_parallel(sess.engine, [
                self._branch(eng, 0.5, exc=ValueError("first")),
                self._branch(eng, 0.5, exc=KeyError("second")),
            ]))
        notes = "".join(getattr(ei.value, "__notes__", [])) or str(ei.value)
        assert "first" in notes
        # Branches fail at the same instant; by the time the failure
        # surfaces, both are recorded instead of silently dropping one.
        assert "branch 0" in notes

    def test_run_parallel_generator_annotates_too(self, eng, sess):
        def driver():
            results = yield from run_parallel(eng, [
                self._branch(eng, 0.2, value=1),
                self._branch(eng, 0.1, exc=RuntimeError("dead gpu")),
            ])
            return results

        with pytest.raises(RuntimeError) as ei:
            sess.call(driver())
        notes = "".join(getattr(ei.value, "__notes__", [])) or str(ei.value)
        assert "branch 1" in notes and "dead gpu" in notes

    def test_parallel_success_unchanged(self, eng, sess):
        results = sess.call(run_parallel(sess.engine, [
            self._branch(eng, 0.2, value="x"),
            self._branch(eng, 0.1, value="y"),
        ]))
        assert results == ["x", "y"]

    def test_pre_yield_failure_is_annotated(self, eng, sess):
        def bad():
            raise LookupError("failed before first yield")
            yield  # pragma: no cover

        with pytest.raises(LookupError) as ei:
            sess.call(run_parallel(sess.engine, [self._branch(eng, 0.1, value=1), bad()]))
        notes = "".join(getattr(ei.value, "__notes__", [])) or str(ei.value)
        assert "branch 1" in notes
