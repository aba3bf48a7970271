"""Tests for the batch runner (Sect. V-B production flow)."""

import numpy as np
import pytest

from repro.cluster import Cluster, paper_testbed
from repro.core import BatchJobSpec, BatchRunner
from repro.errors import AllocationError, RequestTimeout
from repro.mpisim import Phantom
from repro.obs import trace_session
from repro.units import MiB


@pytest.fixture
def cluster():
    return Cluster(paper_testbed(n_compute=2, n_accelerators=3))


def gpu_burn(duration_items: int):
    """A job body running `duration_items` gemm launches per accelerator."""

    def body(ctx):
        ptrs = []
        for ac in ctx.accelerators:
            ptrs.append((yield from ac.mem_alloc(MiB)))
        for _ in range(duration_items):
            for ac, p in zip(ctx.accelerators, ptrs):
                yield from ac.memcpy_h2d(p, Phantom(MiB))
                yield from ac.kernel_run(
                    "dgemm", {"A": 0, "B": 0, "C": 0,
                              "m": 512, "n": 512, "k": 512}, real=False)
        for ac, p in zip(ctx.accelerators, ptrs):
            yield from ac.mem_free(p)
        return len(ctx.accelerators)

    return body


class TestBatchRunner:
    def test_single_job_runs_and_releases(self, cluster):
        runner = BatchRunner(cluster)
        rec = runner.run_all([BatchJobSpec("j0", gpu_burn(3),
                                           n_accelerators=2)])[0]
        assert rec.ok
        assert rec.result == 2
        assert cluster.arm.free_count() == 3
        assert len(runner._free_nodes) == 2

    def test_cpu_only_job(self, cluster):
        def body(ctx):
            yield ctx.engine.timeout(1.0)
            return "cpu-done"

        runner = BatchRunner(cluster)
        rec = runner.run_all([BatchJobSpec("cpu", body,
                                           n_accelerators=0)])[0]
        assert rec.result == "cpu-done"

    def test_two_jobs_share_the_pool(self, cluster):
        runner = BatchRunner(cluster)
        recs = runner.run_all([
            BatchJobSpec("a", gpu_burn(5), n_accelerators=2),
            BatchJobSpec("b", gpu_burn(5), n_accelerators=1),
        ])
        assert all(r.ok for r in recs)
        # Two nodes, three accelerators: both start essentially at once
        # (the only wait is the ARM's microsecond-scale control traffic).
        assert all(r.wait_s < 1e-3 for r in recs)

    def test_pool_shortage_queues_fifo(self, cluster):
        runner = BatchRunner(cluster)
        recs = runner.run_all([
            BatchJobSpec("big", gpu_burn(10), n_accelerators=3),
            BatchJobSpec("late", gpu_burn(1), n_accelerators=1,
                         arrival_s=0.0001),
        ])
        by_name = {r.spec.name: r for r in recs}
        # "late" had a free node but had to wait at the ARM for the pool.
        assert by_name["late"].start_s >= by_name["big"].end_s * 0.99

    def test_node_shortage_queues(self):
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=3))
        runner = BatchRunner(cluster)
        recs = runner.run_all([
            BatchJobSpec("first", gpu_burn(5), n_accelerators=1),
            BatchJobSpec("second", gpu_burn(1), n_accelerators=1),
        ])
        by_name = {r.spec.name: r for r in recs}
        assert by_name["second"].start_s >= by_name["first"].end_s * 0.99

    def test_failing_job_still_releases(self, cluster):
        def bad(ctx):
            yield ctx.engine.timeout(0.001)
            raise RuntimeError("app crash")

        runner = BatchRunner(cluster)
        rec = runner.run_all([BatchJobSpec("bad", bad, n_accelerators=2)])[0]
        assert not rec.ok
        assert isinstance(rec.error, RuntimeError)
        assert cluster.arm.free_count() == 3
        assert len(runner._free_nodes) == 2

    def test_failing_job_aborts_only_its_own_spans(self):
        """Regression: one job's failure closed *every* open span on the
        engine, truncating a healthy concurrent job's in-flight kernel
        and stamping it ``aborted``."""
        gemm = {"A": 0, "B": 0, "C": 0, "m": 2048, "n": 2048, "k": 2048}

        def good(ctx):
            yield from ctx.accelerators[0].kernel_run("dgemm", gemm,
                                                      real=False)

        def bad(ctx):
            # The deadline passes mid-kernel: the front-end gives up while
            # the daemon's handler and the GPU's kernel span are open.
            yield from ctx.accelerators[0].kernel_run(
                "dgemm", gemm, real=False, timeout_s=1e-3)

        with trace_session() as session:
            cluster = Cluster(paper_testbed(n_compute=2, n_accelerators=3))
            runner = BatchRunner(cluster)
            recs = {r.spec.name: r for r in runner.run_all([
                BatchJobSpec("good", good), BatchJobSpec("bad", bad)])}
        assert recs["good"].ok
        assert isinstance(recs["bad"].error, RequestTimeout)
        assert recs["bad"].end_s < recs["good"].end_s
        (col,) = session.collectors
        assert col.open_spans == []
        by_job = {}
        for root in col.by_name("client.kernel_run"):
            by_job[root.actor] = col.by_trace(root.trace_id)
        mine = by_job[f"cn{recs['bad'].cn_index}"]
        theirs = by_job[f"cn{recs['good'].cn_index}"]
        # The failed job's dangling daemon-side spans were closed ...
        assert {s.name for s in mine if "aborted" in s.attrs} == {
            "daemon.kernel_run", "gpu.kernel"}
        # ... the healthy job's ran to their own finish times.
        assert {s.name for s in theirs} == {
            "client.kernel_run", "daemon.kernel_run", "gpu.kernel"}
        for span in theirs:
            assert "aborted" not in span.attrs, span
        kernel = next(s for s in theirs if s.name == "gpu.kernel")
        assert kernel.end > recs["bad"].end_s
        assert kernel.end == pytest.approx(recs["good"].end_s, rel=0.05)

    def test_oversized_request_rejected_at_submit(self, cluster):
        runner = BatchRunner(cluster)
        with pytest.raises(AllocationError, match="wants 9"):
            runner.submit(BatchJobSpec("huge", gpu_burn(1), n_accelerators=9))

    def test_arrival_times_respected(self, cluster):
        runner = BatchRunner(cluster)
        recs = runner.run_all([
            BatchJobSpec("later", gpu_burn(1), n_accelerators=1,
                         arrival_s=5.0),
        ])
        assert recs[0].start_s >= 5.0

    def test_utilization_visible_to_arm(self, cluster):
        runner = BatchRunner(cluster)
        runner.run_all([BatchJobSpec("j", gpu_burn(20), n_accelerators=3)])
        assert cluster.arm.utilization() > 0.5

    def test_real_numerics_inside_job(self, cluster):
        data = np.arange(64, dtype=np.float64)

        def body(ctx):
            ac = ctx.accelerators[0]
            p = yield from ac.mem_alloc(data.nbytes)
            yield from ac.memcpy_h2d(p, data)
            yield from ac.kernel_run("dscal", {"x": p, "n": 64, "alpha": 3.0})
            out = yield from ac.memcpy_d2h(p, data.nbytes)
            return out

        runner = BatchRunner(cluster)
        rec = runner.run_all([BatchJobSpec("math", body)])[0]
        np.testing.assert_allclose(rec.result, 3.0 * data)

    def test_spec_validation(self):
        with pytest.raises(AllocationError):
            BatchJobSpec("x", gpu_burn(1), n_accelerators=-1)
        with pytest.raises(AllocationError):
            BatchJobSpec("x", gpu_burn(1), arrival_s=-1.0)
