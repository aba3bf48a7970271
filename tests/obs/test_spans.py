"""Span tracing: collection, request decomposition, and leak protection."""

import gc

import numpy as np
import pytest

from repro.core.api import run_parallel
from repro.errors import MiddlewareError, RequestTimeout
from repro.gpusim.device import GPUDevice
from repro.gpusim.dma import PCIE_GEN2_X16, DMAEngine
from repro.netsim import IB_QDR_MPI, Fabric
from repro.obs import (NULL_SPAN, Span, collector_for, enable_tracing,
                       trace_session)
from repro.obs.spans import BranchScope, SpanEvent
from repro.sim import Engine
from repro.units import KiB, MiB


class TestCollectorBasics:
    def test_disabled_collector_returns_null_span(self):
        engine = Engine()
        col = collector_for(engine)
        assert not col.enabled
        span = col.start("client.ping", "cn0")
        assert span is NULL_SPAN
        assert not col.spans

    def test_a_collector_switched_off_records_no_data_plane_span(self):
        """``enabled`` may flip at any time: a work unit given the context
        of a span opened while tracing was on records nothing once it is
        off, as a process-level child would not."""
        eng = Engine()
        fabric = Fabric(eng, IB_QDR_MPI)
        fabric.add_endpoint("a")
        fabric.add_endpoint("b")
        dma, gpu = DMAEngine(eng, PCIE_GEN2_X16), GPUDevice(eng)
        col = enable_tracing(eng)
        root = col.start("client.op", "a")
        col.enabled = False
        assert root.child("daemon.op") is NULL_SPAN
        fabric.transfer("a", "b", 4096)
        dma.copy(4096, ctx=root.wire)
        gpu.launch("fill", {"dst": 0, "n": 8, "value": 0.0}, real=False,
                   ctx=root.wire)
        eng.run()
        assert [s.name for s in col.spans] == ["client.op"]
        assert col.event_log == []

    def test_collector_is_per_engine_singleton(self):
        e1, e2 = Engine(), Engine()
        assert collector_for(e1) is collector_for(e1)
        assert collector_for(e1) is not collector_for(e2)

    def test_null_span_is_inert(self):
        NULL_SPAN.event("x", a=1)
        NULL_SPAN.set(b=2)
        assert NULL_SPAN.child("y") is NULL_SPAN
        assert NULL_SPAN.wire is None
        assert not NULL_SPAN
        with NULL_SPAN:
            pass
        assert NULL_SPAN.attrs == {}

    def test_null_span_state_is_immutable(self):
        """One instance stands in for every disabled span: the writes
        ``__exit__`` / ``BranchScope.abort`` do on real spans must not leak from
        one disabled span into every later one."""
        with pytest.raises(TypeError):
            NULL_SPAN.attrs["error"] = "boom"
        with pytest.raises(AttributeError):
            NULL_SPAN.attrs.setdefault("aborted", "teardown")
        with pytest.raises(AttributeError):
            NULL_SPAN.events.append("x")
        assert NULL_SPAN.attrs == {} and NULL_SPAN.events == ()

    def test_span_timestamps_are_virtual(self):
        engine = Engine()
        col = enable_tracing(engine)

        def prog():
            with col.start("client.op", "cn0") as span:
                yield engine.timeout(1.5)
            return span

        proc = engine.process(prog())
        engine.run(until=proc)
        span = proc.value
        assert span.start == pytest.approx(0.0)
        assert span.end == pytest.approx(1.5)
        assert span.duration == pytest.approx(1.5)

    def test_child_shares_trace_id(self):
        engine = Engine()
        col = enable_tracing(engine)
        parent = col.start("client.op", "cn0")
        child = parent.child("dma.copy", "gpu0")
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        # A query returns views: equal to the handle, not the same object.
        assert col.children_of(parent) == [child]
        assert col.children_of(parent)[0] is not child
        assert child == Span(col, child.span_id - 1) != parent

    def test_context_manager_records_error(self):
        engine = Engine()
        col = enable_tracing(engine)
        with pytest.raises(ValueError):
            with col.start("client.op", "cn0") as span:
                raise ValueError("boom")
        assert not span.open
        assert "ValueError" in span.attrs["error"]

    def test_session_exit_closes_the_spans_of_abandoned_processes(self):
        """A run that stops at a horizon abandons its process inside
        ``with span:``; the span closes when the cyclic GC finalizes the
        generator.  The session collects on exit, so what an export
        reads does not depend on when the collector last ran, and the
        span ends at the horizon, not at the last clock read."""
        gc.disable()
        try:
            with trace_session():
                engine = Engine()
                col = collector_for(engine)

                def prog():
                    with col.start("client.op", "cn0"):
                        yield engine.timeout(5.0)

                engine.process(prog())
                engine.run(until=1.0)
                del engine, prog          # the engine and its heap: a cycle
            (span,) = col.spans
            assert not span.open
            assert span.attrs["error"].startswith("GeneratorExit")
            assert span.end == 1.0        # when the run stopped
        finally:
            gc.enable()


class TestSpanBudget:
    """What a recorded span costs, pinned like the event budget: a span
    is a row of the collector's columns, so recording leaves no object
    for the cyclic GC per span; events are rows too, and there is no
    open set."""

    def _traffic(self, eng, fabric, dma, gpu, obs, n):
        """n messages, n DMA copies and n kernel launches: 3n + 1 spans
        (3n of them data-plane), 3n events."""
        with obs.start("client.op", "a") as root:
            for _ in range(n):
                fabric.transfer("a", "b", 4096)
                dma.copy(4096, ctx=root.wire)
                gpu.launch("fill", {"dst": 0, "n": 512, "value": 0.0},
                           real=False, ctx=root.wire)
            eng.run()

    def test_tracked_objects_do_not_grow_with_data_plane_spans(self):
        eng = Engine()
        fabric = Fabric(eng, IB_QDR_MPI)
        fabric.add_endpoint("a")
        fabric.add_endpoint("b")
        dma = DMAEngine(eng, PCIE_GEN2_X16)
        gpu = GPUDevice(eng)
        obs = enable_tracing(eng)
        self._traffic(eng, fabric, dma, gpu, obs, 50)   # fills the pools
        grown = {}
        for n in (100, 800):
            n_spans = len(obs.spans)
            gc.collect()
            before = len(gc.get_objects())
            self._traffic(eng, fabric, dma, gpu, obs, n)
            gc.collect()
            grown[n] = len(gc.get_objects()) - before
            assert len(obs.spans) - n_spans == 3 * n + 1
        assert len(obs.event_log) == 3 * (50 + 100 + 800)
        assert not obs.open_spans
        # Eight times the spans, the same tracked objects (give or take a
        # pooled one): none per span.  A Span object per span read 299 /
        # 2,401 here, one per data-plane span.
        assert abs(grown[800] - grown[100]) <= 2, grown
        assert grown[800] <= 4, grown
        # The attrs dicts hold atoms only, so the GC leaves them untracked.
        assert not any(gc.is_tracked(s.attrs) for s in obs.spans)

    def test_events_view_keeps_emission_order_across_interleaved_spans(self):
        eng = Engine()
        obs = enable_tracing(eng)
        a = obs.start("client.op", "cn0")
        b = a.child("daemon.op", "ac0")
        a.event("retry", attempt=1)
        b.event("queued")
        eng.run(until=eng.timeout(1e-3))
        b.event("dequeued", depth=2)
        a.event("timeout")
        c = obs.start("client.ping", "cn0")
        assert a.events == [SpanEvent(0.0, "retry", {"attempt": 1}),
                            SpanEvent(1e-3, "timeout", {})]
        assert b.events == [SpanEvent(0.0, "queued", {}),
                            SpanEvent(1e-3, "dequeued", {"depth": 2})]
        assert c.events == []
        assert all(isinstance(e, SpanEvent) for e in a.events + b.events)
        assert [row[0] for row in obs.event_log] == [
            a.span_id, b.span_id, b.span_id, a.span_id]

    def test_open_spans_is_a_scan_only_while_something_is_open(self):
        class NoScan(list):
            def __iter__(self):
                raise AssertionError("scanned a fully-closed collector")

        eng = Engine()
        obs = enable_tracing(eng)
        spans = [obs.start("client.op", f"cn{i}") for i in range(5)]
        for i in (3, 0):
            obs.finish_row(spans[i].row)
        # Fresh views over the same rows: equal, not the same objects.
        assert obs.open_spans == [spans[1], spans[2], spans[4]]
        assert obs.open_spans[0] is not spans[1]
        assert obs._abort(obs.open_spans, "teardown") == 3
        assert all(not s.open for s in spans)
        assert [s.span_id for s in spans if "aborted" in s.attrs] == [2, 3, 5]
        obs.finish_row(spans[1].row)            # idempotent: no double count
        obs._ends = NoScan(obs._ends)           # the column a scan reads
        assert obs.open_spans == []
        assert obs._abort(obs.open_spans, "again") == 0

    def test_branch_scope_aborts_only_the_traces_its_steps_opened(self):
        eng = Engine()
        obs = enable_tracing(eng)
        outer = BranchScope(obs)
        opened = {}

        def branch():
            opened["mine"] = obs.start("client.op", "cn0")
            yield eng.timeout(1.0)
            # Opened in a watched step, on someone else's trace: still ours.
            opened["borrowed"] = theirs.child("client.sub", "cn0")
            inner = opened["inner"] = BranchScope(obs)   # nested scope
            yield eng.process(inner.watch(nested()))

        def nested():
            opened["nested"] = obs.start("client.op", "cn0")
            yield eng.timeout(1.0)

        theirs = obs.start("client.op", "cn0")     # same actor, not watched
        eng.process(outer.watch(branch()))
        eng.run(until=1.5)
        # Opened outside any watched step, as a daemon's are: claimed
        # through the trace its parent roots.
        mine_remote = opened["mine"].child("daemon.op", "ac0")
        theirs_remote = theirs.child("daemon.op", "ac0")
        assert opened["inner"].outer is outer
        assert opened["inner"].abort("nested failed") == 1
        assert not opened["nested"].open
        assert outer.abort("job failed") == 3
        assert not opened["mine"].open and not mine_remote.open
        assert not opened["borrowed"].open
        assert "aborted" not in theirs.attrs
        # View equality: the scan's handles equal the ones held here.
        assert obs.open_spans == [theirs, theirs_remote]
        assert obs.open_spans[0] is not theirs


class TestRequestDecomposition:
    def test_remote_memcpy_decomposes_on_one_trace(self, cluster, sess,
                                                   collector, ac):
        addr = sess.call(ac.mem_alloc(1 * MiB))
        sess.call(ac.memcpy_h2d(addr, np.ones(1 * MiB // 8)))
        roots = collector.by_name("client.memcpy_h2d")
        assert len(roots) == 1
        root = roots[0]
        family = collector.by_trace(root.trace_id)
        names = {s.name for s in family}
        # The one remote op decomposes into daemon handling, per-block
        # network receives, and DMA copies — all on one trace id.
        assert {"client.memcpy_h2d", "daemon.memcpy_h2d",
                "net.recv", "dma.copy"} <= names
        daemon_span = next(s for s in family if s.name == "daemon.memcpy_h2d")
        assert daemon_span.parent_id == root.span_id
        for s in family:
            assert not s.open
            assert root.start <= s.start
            assert s.end <= root.end + 1e-12

    def test_kernel_run_has_gpu_child_span(self, cluster, sess, collector, ac):
        n = 64
        p = sess.call(ac.mem_alloc(8 * n))
        sess.call(ac.memcpy_h2d(p, np.ones(n)))
        sess.call(ac.kernel_run("dscal", {"x": p, "n": n, "alpha": 2.0}))
        root = collector.by_name("client.kernel_run")[0]
        names = {s.name for s in collector.by_trace(root.trace_id)}
        assert "gpu.kernel" in names

    def test_retry_recorded_as_span_events(self, cluster, sess, collector):
        from repro.core import FaultInjector, RetryPolicy
        from repro.core.reliability import MAX_ATTEMPTS
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0],
                            retry=RetryPolicy(timeout_s=5e-3))
        # Crash the daemon so every attempt times out.
        FaultInjector(cluster).crash_at(handles[0].ac_id, at_time=sess.now)
        with pytest.raises(RequestTimeout):
            sess.call(ac.kernel_create("fill"))
        span = collector.by_name("client.kernel_create")[0]
        events = [e.name for e in span.events]
        assert events.count("timeout") == MAX_ATTEMPTS
        assert events.count("retry") == MAX_ATTEMPTS - 1

    def test_trace_rides_request_without_wire_cost(self, cluster, sess, ac,
                                                   collector):
        from repro.core.protocol import Op, Request
        from repro.mpisim import payload_nbytes
        bare = Request(op=Op.KERNEL_CREATE, req_id=1, reply_to=0)
        traced = Request(op=Op.KERNEL_CREATE, req_id=1, reply_to=0,
                         trace=(7, 9))
        assert payload_nbytes(bare) == payload_nbytes(traced)


class TestSpanLeakProtection:
    def _failing_branch(self, ac):
        yield from ac.mem_alloc(100 * 1024**3)  # OOM -> MiddlewareError

    def _slow_branch(self, ac, nbytes):
        addr = yield from ac.mem_alloc(nbytes)
        yield from ac.memcpy_h2d(addr, np.ones(nbytes // 8))

    def test_run_parallel_failure_leaves_no_open_spans(self, cluster, sess,
                                                       collector, ac):
        """Regression: a dead branch must not leak half-open spans."""
        def driver():
            yield from run_parallel(cluster.engine, [
                self._slow_branch(ac, 4 * MiB),
                self._failing_branch(ac),
            ])

        with pytest.raises(MiddlewareError):
            sess.call(driver())
        assert collector.open_spans == []
        aborted = [s for s in collector.spans if "aborted" in s.attrs]
        assert aborted, "interrupted branch spans should be marked aborted"

    def test_sync_parallel_failure_leaves_no_open_spans(self, cluster, sess,
                                                        collector, ac):
        with pytest.raises(MiddlewareError):
            sess.call(run_parallel(sess.engine, [
                self._slow_branch(ac, 4 * MiB),
                self._failing_branch(ac),
            ]))
        assert collector.open_spans == []

    def test_sync_call_timeout_leaves_no_open_spans(self, cluster, sess,
                                                    collector):
        from repro.core import FaultInjector, RetryPolicy
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        bounded = cluster.remote(0, handles[0],
                                 retry=RetryPolicy(timeout_s=1e-3))
        addr = sess.call(bounded.mem_alloc(8 * MiB))
        # The daemon goes silent: the transfer deadline ends the call.
        FaultInjector(cluster).crash_at(handles[0].ac_id, at_time=sess.now)
        sess.engine.run(until=sess.now + 1e-4)
        with pytest.raises(RequestTimeout):
            sess.call(bounded.memcpy_h2d(addr, np.ones(8 * MiB // 8)))
        assert collector.open_spans == []

    def test_run_parallel_success_unaffected(self, cluster, sess, collector,
                                             ac):
        def driver():
            results = yield from run_parallel(cluster.engine, [
                ac.mem_alloc(1 * KiB),
                ac.kernel_create("daxpy"),
            ])
            return results

        sess.call(driver())
        assert collector.open_spans == []
        assert not [s for s in collector.spans if "aborted" in s.attrs]


class TestFailoverSpans:
    def test_failover_recovery_span_and_events(self, cluster, sess, collector):
        from repro.core import FailoverConfig, FaultInjector
        handles = sess.call(cluster.arm_client(0).alloc(count=1, job="t"))
        rac = cluster.resilient(0, handles[0], config=FailoverConfig(job="t"))
        sess.call(rac.mem_alloc(1 * KiB))
        # Break the current accelerator; the next op triggers failover.
        FaultInjector(cluster).break_at(handles[0].ac_id, at_time=sess.now)
        sess.engine.run(until=sess.now + 1e-4)
        sess.call(rac.kernel_create("fill"))
        assert rac.failovers == 1
        spans = collector.by_name("failover.recover")
        assert len(spans) == 1
        span = spans[0]
        assert not span.open
        events = [e.name for e in span.events]
        assert "break_reported" in events
        assert "replacement_assigned" in events
        assert span.attrs["replayed_buffers"] == 1
