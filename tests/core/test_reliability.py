"""Timeouts, retry/backoff, daemon dedup, and ARM-mediated failover."""

import collections
import sys

import numpy as np
import pytest

from repro.cluster import Cluster, paper_testbed
from repro.core import (
    DEDUP_OPS,
    FailoverConfig,
    FaultInjector,
    Op,
    Request,
    RetryPolicy,
    RETRYABLE_OPS,
    TAG_REQUEST,
    reply_tag,
)
from repro.errors import AcceleratorFault, MiddlewareError, RequestTimeout
from repro.sim import Timeout
from repro.units import MiB


TIMEOUT_S = 1e-3


@pytest.fixture
def rig():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=3))
    return cluster, cluster.session(), FaultInjector(cluster)


def _victim(cluster, sess, retry=None, config=None):
    """Allocate one accelerator; return (handle, resilient wrapper)."""
    handles = sess.call(cluster.arm_client(0).alloc(count=1, job="t"))
    ra = cluster.resilient(0, handles[0], config=config, retry=retry)
    return handles[0], ra


class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic(self):
        p = RetryPolicy(timeout_s=1e-3)
        assert [p.backoff_s(k) for k in range(4)] == [
            100e-6, 200e-6, 400e-6, 800e-6]

    def test_transfer_deadline_scales_with_size(self):
        p = RetryPolicy(timeout_s=1e-3)
        assert p.transfer_timeout_s(0) == 1e-3
        assert p.transfer_timeout_s(100_000_000) == pytest.approx(1.001)
        assert RetryPolicy().transfer_timeout_s(1 * MiB) is None

    def test_validation(self):
        with pytest.raises(MiddlewareError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(MiddlewareError):
            RetryPolicy(timeout_s=-1e-3)

    def test_nan_timeout_rejected(self):
        with pytest.raises(MiddlewareError):
            RetryPolicy(timeout_s=float("nan"))

    def test_op_classification(self):
        # Retried ops with side effects must be covered by the dedup cache.
        assert Op.KERNEL_CREATE in RETRYABLE_OPS
        assert Op.KERNEL_CREATE not in DEDUP_OPS
        assert Op.MEM_ALLOC in RETRYABLE_OPS and Op.MEM_ALLOC in DEDUP_OPS
        assert Op.KERNEL_RUN not in RETRYABLE_OPS  # at most once


class TestTimeouts:
    def test_crashed_daemon_times_out_with_retries(self, rig):
        cluster, sess, injector = rig
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0],
                            retry=RetryPolicy(timeout_s=TIMEOUT_S))
        injector.crash_at(handles[0].ac_id, at_time=0.0)
        sess.engine.run(until=sess.now + 1e-4)
        with pytest.raises(RequestTimeout):
            sess.call(ac.kernel_create("fill"))
        # KERNEL_CREATE is retryable: every attempt was sent and every
        # deadline fired.
        assert ac.requests == 4
        assert ac.timeouts == 4

    def test_retry_schedule_timing(self, rig):
        # Total wall time = 4 deadlines + the three backoff gaps, exactly
        # (no jitter -> deterministic simulations).
        cluster, sess, injector = rig
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        retry = RetryPolicy(timeout_s=TIMEOUT_S)
        ac = cluster.remote(0, handles[0], retry=retry)
        injector.crash_at(handles[0].ac_id, at_time=0.0)
        sess.engine.run(until=sess.now + 1e-4)
        t0 = sess.now
        with pytest.raises(RequestTimeout):
            sess.call(ac.kernel_create("fill"))
        expected = 4 * TIMEOUT_S + sum(retry.backoff_s(k) for k in range(3))
        assert sess.now - t0 == pytest.approx(expected, rel=1e-9)

    def test_non_retryable_op_single_attempt(self, rig):
        cluster, sess, injector = rig
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0],
                            retry=RetryPolicy(timeout_s=TIMEOUT_S))
        ptr = sess.call(ac.mem_alloc(64))
        ac.requests = ac.timeouts = 0
        injector.crash_at(handles[0].ac_id, at_time=sess.now)
        sess.engine.run(until=sess.now + 1e-4)
        with pytest.raises(RequestTimeout):
            sess.call(ac.kernel_run("dscal", {"x": ptr, "n": 8, "alpha": 1.0},
                                    real=False))
        assert ac.requests == 1  # KERNEL_RUN is at-most-once: no resend

    def test_deadline_fires_mid_transfer(self, rig):
        # The bulk-data pipeline stalls when the daemon goes silent; the
        # transfer deadline, not a hang, is what the caller sees.
        cluster, sess, injector = rig
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0],
                            retry=RetryPolicy(timeout_s=TIMEOUT_S))
        ptr = sess.call(ac.mem_alloc(8 * MiB))
        injector.crash_at(handles[0].ac_id, at_time=sess.now)
        sess.engine.run(until=sess.now + 1e-4)
        with pytest.raises(RequestTimeout):
            sess.call(ac.memcpy_d2h(ptr, 8 * MiB))

    def test_no_timeout_by_default(self, rig):
        # Default policy keeps the legacy wait-forever semantics.
        cluster, sess, _ = rig
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0])
        assert ac.retry.timeout_s is None
        sess.call(ac.kernel_create("fill"))


class TestObjectBudget:
    """Constructors per guarded RPC on a warmed engine: ``__init__`` calls
    in a loop of ``kernel_create`` under a deadline, taken as the
    difference between a 40- and a 20-request run (the method of
    ``tests/mpisim/test_p2p.py::TestCallBudget``).  Seven: the race's
    event, the request and reply messages, the two receives and the
    ``Request`` / ``Response`` frames; no timer, since every deadline is
    a recycled sleep.  A race that was an ``AnyOf`` over a deadline the
    caller cancelled made nine (its condition's three constructors), also
    with no timer."""

    @staticmethod
    def _inits(n: int) -> collections.Counter:
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
        sess = cluster.session()
        (handle,) = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handle, retry=RetryPolicy(timeout_s=1.0))

        def rpcs(k):
            for _ in range(k):
                yield from ac.kernel_create("fill")

        sess.call(rpcs(200))                # warm: the pool fills
        calls = collections.Counter()
        timer_init = Timeout.__init__.__code__

        def hook(frame, event, _arg):
            if event == "call" and frame.f_code.co_name == "__init__":
                calls["__init__"] += 1
                calls["timer"] += frame.f_code is timer_init

        sys.setprofile(hook)
        try:
            sess.call(rpcs(n))
        finally:
            sys.setprofile(None)
        return calls

    def test_a_guarded_rpc_builds_no_timer(self):
        short, long = self._inits(20), self._inits(40)
        assert {k: (long[k] - short[k]) / 20 for k in ("__init__", "timer")
                } == {"__init__": 7, "timer": 0}


class TestDaemonDedup:
    def _exchange(self, cluster, sess, dst, req):
        rank = cluster.compute_rank(0)

        def roundtrip():
            rreq = rank.irecv(source=dst, tag=reply_tag(req.req_id))
            rank.isend(dst, TAG_REQUEST, req)
            yield rreq.done
            return rreq.message.payload

        return sess.call(roundtrip())

    def test_duplicate_mem_alloc_replayed_not_reexecuted(self, rig):
        cluster, sess, _ = rig
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        daemon = cluster.daemons[handles[0].ac_id]
        req_id = next(cluster.comm.ids)
        req = Request(op=Op.MEM_ALLOC, req_id=req_id, reply_to=0,
                      params={"nbytes": 4096})
        first = self._exchange(cluster, sess, handles[0].daemon_rank, req)
        used = daemon.gpu.memory.used_bytes
        dup = Request(op=Op.MEM_ALLOC, req_id=req_id, reply_to=0,
                      params={"nbytes": 4096}, attempt=1)
        second = self._exchange(cluster, sess, handles[0].daemon_rank, dup)
        # Same address, no second allocation, and the hit is counted.
        assert second.value == first.value
        assert daemon.gpu.memory.used_bytes == used
        assert daemon.stats.dedup_hits == 1

    def test_distinct_req_ids_still_allocate(self, rig):
        cluster, sess, _ = rig
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        daemon = cluster.daemons[handles[0].ac_id]
        for _ in range(2):
            req = Request(op=Op.MEM_ALLOC, req_id=next(cluster.comm.ids),
                          reply_to=0, params={"nbytes": 4096})
            self._exchange(cluster, sess, handles[0].daemon_rank, req)
        assert daemon.gpu.memory.used_bytes == 2 * 4096
        assert daemon.stats.dedup_hits == 0


class TestFailover:
    def test_fail_fast_surfaces_fault(self, rig):
        cluster, sess, injector = rig
        _, ra = _victim(cluster, sess,
                        config=FailoverConfig(max_failovers=0))
        injector.break_at(ra.handle.ac_id, at_time=0.0)
        sess.engine.run(until=sess.now + 1e-4)
        with pytest.raises(AcceleratorFault):
            sess.call(ra.kernel_create("fill"))
        assert ra.failovers == 0

    def test_reallocate_replays_real_data(self, rig):
        cluster, sess, injector = rig
        handle, ra = _victim(cluster, sess, config=FailoverConfig(job="t"))
        data = np.arange(2048, dtype=np.float64)
        ptr = sess.call(ra.mem_alloc(data.nbytes))
        sess.call(ra.memcpy_h2d(ptr, data))
        injector.break_at(handle.ac_id, at_time=sess.now)
        sess.engine.run(until=sess.now + 1e-4)
        # The very next operation triggers failover; the virtual address
        # survives and the replayed buffer round-trips bit-exactly.
        out = sess.call(ra.memcpy_d2h(ptr, data.nbytes))
        assert ra.failovers == 1
        assert ra.handle.ac_id != handle.ac_id
        assert np.array_equal(out, data)
        assert cluster.arm.snapshot()[handle.ac_id]["state"] == "broken"

    def test_reallocate_replays_kernels_and_translates_args(self, rig):
        cluster, sess, injector = rig
        handle, ra = _victim(cluster, sess, config=FailoverConfig(job="t"))
        data = np.ones(1024, dtype=np.float64)
        ptr = sess.call(ra.mem_alloc(data.nbytes))
        sess.call(ra.memcpy_h2d(ptr, data))
        sess.call(ra.kernel_create("dscal"))
        injector.break_at(handle.ac_id, at_time=sess.now)
        sess.engine.run(until=sess.now + 1e-4)
        sess.call(ra.kernel_run("dscal",
                                {"x": ptr, "n": len(data), "alpha": 3.0}))
        out = sess.call(ra.memcpy_d2h(ptr, data.nbytes))
        assert ra.failovers == 1
        assert np.allclose(out, 3.0 * data)

    def test_crash_failover_via_timeout(self, rig):
        # The silent failure mode: detection happens through the request
        # deadline, then the same reallocate path recovers.
        cluster, sess, injector = rig
        handle, ra = _victim(cluster, sess,
                             retry=RetryPolicy(timeout_s=TIMEOUT_S),
                             config=FailoverConfig(job="t"))
        data = np.arange(512, dtype=np.float64)
        ptr = sess.call(ra.mem_alloc(data.nbytes))
        sess.call(ra.memcpy_h2d(ptr, data))
        injector.crash_at(handle.ac_id, at_time=sess.now)
        sess.engine.run(until=sess.now + 1e-4)
        out = sess.call(ra.memcpy_d2h(ptr, data.nbytes))
        assert ra.failovers == 1
        assert ra.timeouts >= 1
        assert np.array_equal(out, data)

    def test_max_failovers_exhausted(self, rig):
        cluster, sess, injector = rig
        _, ra = _victim(cluster, sess,
                        config=FailoverConfig(max_failovers=0, job="t"))
        injector.break_at(ra.handle.ac_id, at_time=0.0)
        sess.engine.run(until=sess.now + 1e-4)
        with pytest.raises(AcceleratorFault):
            sess.call(ra.kernel_create("fill"))

    def test_run_guarded_reruns_whole_transaction(self, rig):
        cluster, sess, injector = rig
        handle, ra = _victim(cluster, sess, config=FailoverConfig(job="t"))
        data = np.full(256, 2.0)
        ptr = sess.call(ra.mem_alloc(data.nbytes))
        sess.call(ra.memcpy_h2d(ptr, data))
        sess.call(ra.kernel_create("dscal"))
        injector.break_at(handle.ac_id, at_time=sess.now)
        sess.engine.run(until=sess.now + 1e-4)

        def transaction():
            # kernel result is checkpointed back; if a fault lands anywhere
            # in here the whole unit re-runs on the replayed upload.
            yield from ra.kernel_run("dscal",
                                     {"x": ptr, "n": len(data), "alpha": 5.0})
            out = yield from ra.memcpy_d2h(ptr, data.nbytes)
            yield from ra.memcpy_h2d(ptr, out)
            return out

        out = sess.call(ra.run_guarded(transaction))
        assert ra.failovers == 1
        assert np.allclose(out, 10.0)  # scaled exactly once, not twice
