"""Job-service behaviour: DAG semantics, scheduling, and warm paths."""

import numpy as np
import pytest

from repro.cluster import Cluster, paper_testbed
from repro.core.api import run_parallel
from repro.errors import MiddlewareError, WorkloadError
from repro.jobs import JobService, JobSpec, JobState
from repro.mpisim import Phantom
from repro.obs import trace_session
from repro.units import MiB


@pytest.fixture
def cluster():
    return Cluster(paper_testbed(n_compute=2, n_accelerators=2))


def create_body(log=None):
    """A minimal job: one control round trip (a cold kernel create)."""
    def body(ctx):
        if log is not None:
            log.append(ctx.spec.name)
        yield from ctx.accelerators[0].kernel_create("fill")
        return ctx.spec.name

    return body


def failing_body(ctx):
    yield from ctx.accelerators[0].kernel_create("fill")
    raise RuntimeError("body exploded")


def roundtrip_body(seed):
    payload = np.random.default_rng(seed).standard_normal(64)

    def body(ctx):
        ac = ctx.accelerators[0]
        addr = yield from ac.mem_alloc(payload.nbytes)
        yield from ac.memcpy_h2d(addr, payload)
        out = yield from ac.memcpy_d2h(addr, payload.nbytes)
        yield from ac.mem_free(addr)
        got = np.frombuffer(out, dtype=np.float64)
        assert np.array_equal(got, payload)
        return float(got.sum())

    return body


class TestSpecValidation:
    def test_self_dependency_rejected_at_construction(self):
        with pytest.raises(WorkloadError, match="cycle"):
            JobSpec(name="a", tenant="t", body=create_body(), deps=("a",))

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"tenant": ""},
        {"n_accelerators": 0},
        {"arrival_s": -1.0},
        {"arrival_s": float("nan")},
    ])
    def test_field_validation(self, kwargs):
        base = dict(name="a", tenant="t", body=create_body())
        base.update(kwargs)
        with pytest.raises(WorkloadError):
            JobSpec(**base)

    def test_nan_coalescing_window_rejected(self, cluster):
        with pytest.raises(WorkloadError, match="window_s"):
            JobService(cluster, window_s=float("nan"))

    def test_nan_lease_ttl_rejected(self, cluster):
        with pytest.raises(WorkloadError, match="TTL"):
            JobService(cluster, lease_ttl_s=float("nan"))


class TestDagEdgeCases:
    def test_cycle_rejected_at_submit(self, cluster):
        svc = JobService(cluster)
        specs = [
            JobSpec(name="a", tenant="t", body=create_body(), deps=("c",)),
            JobSpec(name="b", tenant="t", body=create_body(), deps=("a",)),
            JobSpec(name="c", tenant="t", body=create_body(), deps=("b",)),
        ]
        with pytest.raises(WorkloadError, match="dependency cycle"):
            svc.submit_many(specs)
        # Nothing was submitted: the rejection happened before any state.
        assert svc.records == []

    def test_unknown_dependency_rejected(self, cluster):
        svc = JobService(cluster)
        with pytest.raises(WorkloadError, match="unknown job"):
            svc.submit_many([JobSpec(name="a", tenant="t",
                                     body=create_body(), deps=("ghost",))])
        with pytest.raises(WorkloadError, match="unknown job"):
            svc.submit(JobSpec(name="b", tenant="t",
                               body=create_body(), deps=("ghost",)))

    def test_duplicate_name_rejected(self, cluster):
        svc = JobService(cluster)
        spec = JobSpec(name="a", tenant="t", body=create_body())
        with pytest.raises(WorkloadError, match="duplicate"):
            svc.submit_many([spec, JobSpec(name="a", tenant="t",
                                           body=create_body())])

    def test_diamond_runs_each_job_exactly_once(self, cluster):
        svc = JobService(cluster)
        log = []
        specs = [
            JobSpec(name="a", tenant="t", body=create_body(log)),
            JobSpec(name="b", tenant="t", body=create_body(log), deps=("a",)),
            JobSpec(name="c", tenant="t", body=create_body(log), deps=("a",)),
            JobSpec(name="d", tenant="t", body=create_body(log),
                    deps=("b", "c")),
        ]
        records = svc.run_all(specs)
        assert [r.state for r in records] == [JobState.DONE] * 4
        assert sorted(log) == ["a", "b", "c", "d"]
        assert log[0] == "a" and log[-1] == "d"
        # The join job saw both parents finish before it started.
        d = svc.record("d")
        assert d.start_s >= svc.record("b").end_s
        assert d.start_s >= svc.record("c").end_s

    def test_failed_parent_cancels_descendants_distinctly(self, cluster):
        svc = JobService(cluster)
        log = []
        specs = [
            JobSpec(name="root", tenant="t", body=failing_body),
            JobSpec(name="child", tenant="t", body=create_body(log),
                    deps=("root",)),
            JobSpec(name="grandchild", tenant="t", body=create_body(log),
                    deps=("child",)),
            JobSpec(name="bystander", tenant="t", body=create_body(log)),
        ]
        svc.run_all(specs)
        assert svc.record("root").state is JobState.FAILED
        assert isinstance(svc.record("root").error, RuntimeError)
        # Descendants are CANCELLED — a distinct terminal state — and
        # their bodies never ran.
        assert svc.record("child").state is JobState.CANCELLED
        assert svc.record("grandchild").state is JobState.CANCELLED
        assert "root" in str(svc.record("child").error)
        assert "child" in str(svc.record("grandchild").error)
        assert svc.record("bystander").state is JobState.DONE
        assert log == ["bystander"]
        assert (svc.jobs_done, svc.jobs_failed, svc.jobs_cancelled) \
            == (1, 1, 2)


class TestScheduling:
    def test_priority_orders_dispatch_under_contention(self):
        cluster = Cluster(paper_testbed(n_compute=2, n_accelerators=1))
        cluster.arm.admission.slots_per_device = 1      # capacity 1
        svc = JobService(cluster)
        log = []
        specs = [
            JobSpec(name=f"low{i}", tenant="t", body=create_body(log),
                    priority=0)
            for i in range(3)
        ] + [JobSpec(name="high", tenant="t", body=create_body(log),
                     priority=5)]
        records = svc.run_all(specs)
        assert all(r.state is JobState.DONE for r in records)
        # One slot: whichever job grabbed it first, the high-priority
        # job must run before the remaining low-priority backlog.
        assert log.index("high") <= 1

    def test_slots_released_after_run(self, cluster):
        free0 = cluster.arm.free_count()
        svc = JobService(cluster)
        svc.run_all([JobSpec(name="a", tenant="t", body=create_body())])
        assert cluster.arm.free_count() == free0
        assert svc._free == svc.max_in_flight
        assert svc._arm_held == 0

    def test_multi_accelerator_job(self, cluster):
        svc = JobService(cluster)

        def body(ctx):
            assert len(ctx.accelerators) == 2
            for ac in ctx.accelerators:
                yield from ac.kernel_create("fill")
            return len(ctx.accelerators)

        rec = svc.run_all([JobSpec(name="wide", tenant="t", body=body,
                                   n_accelerators=2)])[0]
        assert rec.state is JobState.DONE and rec.result == 2


class TestWarmPaths:
    def test_lease_reused_across_sequential_jobs(self, cluster):
        svc = JobService(cluster)
        specs = [JobSpec(name=f"j{i}", tenant="t", body=create_body(),
                         deps=(f"j{i-1}",) if i else ())
                 for i in range(4)]
        svc.run_all(specs)
        assert svc.leases_cold == 1
        assert svc.lease_pool.reused == 3

    def test_unclaimed_lease_expires_after_ttl(self, cluster):
        svc = JobService(cluster, lease_ttl_s=1e-3)
        rec = svc.submit(JobSpec(name="a", tenant="t", body=create_body()))
        cluster.engine.run(until=rec.done)
        assert len(svc.lease_pool) == 1
        assert svc._arm_held == 1  # the parked lease pins an ARM slot
        cluster.engine.run(until=cluster.engine.now + 2e-3)
        assert svc.lease_pool.expired == 1
        assert len(svc.lease_pool) == 0
        assert svc._arm_held == 0

    def test_cold_allocation_evicts_parked_lease_when_full(self, cluster):
        cluster.arm.admission.slots_per_device = 1
        svc = JobService(cluster)  # capacity = 2 devices x 1 slot
        a = [JobSpec(name=f"a{i}", tenant="alice", body=create_body())
             for i in range(2)]  # independent: both slots get parked
        recs = svc.submit_many(a)  # no run_all: it would drain the pool
        cluster.engine.run(until=cluster.engine.all_of(
            [r.done for r in recs]))
        assert len(svc.lease_pool) == 2
        assert svc._arm_held == svc.max_in_flight
        # A different tenant needs a cold lease with the ARM full of
        # parked ones: the pool must make room, not block until TTL.
        rec = svc.submit(JobSpec(name="b", tenant="bob", body=create_body()))
        cluster.engine.run(until=rec.done)
        assert rec.state is JobState.DONE
        assert svc.lease_pool.evicted >= 1

    def test_kernel_cache_skips_repeat_creates(self, cluster):
        svc = JobService(cluster)

        def body(ctx):
            ac = ctx.accelerators[0]
            yield from ac.kernel_create("dscal")
            addr = yield from ac.mem_alloc(64)
            yield from ac.kernel_run("dscal", {"x": addr, "n": 8,
                                               "alpha": 2.0})
            yield from ac.mem_free(addr)
            return None

        specs = [JobSpec(name=f"j{i}", tenant="t", body=body,
                         deps=(f"j{i-1}",) if i else ())
                 for i in range(3)]
        svc.run_all(specs)
        assert svc.kernel_cache.misses == 1
        assert svc.kernel_cache.hits == 2
        assert svc.kernel_cache.hit_rate == pytest.approx(2 / 3)

    @pytest.mark.parametrize("coalescing", [True, False])
    def test_kernel_cache_hit_still_stages_args(self, coalescing):
        # One device, so every lease of the tenant lands on it: j1/j2 run
        # together, one on j0's parked lease and one on a cold lease whose
        # front-end never sent a create — the cache hit alone must let
        # kernel_set_args / kernel_run(name) work there.
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
        svc = JobService(cluster, coalescing=coalescing)

        def body(ctx):
            ac = ctx.accelerators[0]
            yield from ac.kernel_create("dscal")
            addr = yield from ac.mem_alloc(64)
            yield from ac.memcpy_h2d(addr, np.ones(8))
            ac.kernel_set_args("dscal", {"x": addr, "n": 8, "alpha": 3.0})
            yield from ac.kernel_run("dscal")     # the staged arguments
            out = yield from ac.memcpy_d2h(addr, 64)
            yield from ac.mem_free(addr)
            return float(np.frombuffer(out, dtype=np.float64).sum())

        records = svc.run_all([
            JobSpec(name=f"j{i}", tenant="t", body=body,
                    deps=("j0",) if i else ()) for i in range(3)])
        assert [r.result for r in records] == [24.0] * 3
        assert svc.leases_cold == 2
        assert svc.kernel_cache.misses == 1 and svc.kernel_cache.hits == 2
        assert (svc.coalesce_stats()["subs_in"] > 0) == coalescing

    def test_allocation_cache_reuses_same_size_buffers(self, cluster):
        svc = JobService(cluster)
        specs = [JobSpec(name=f"j{i}", tenant="t", body=roundtrip_body(i),
                         deps=(f"j{i-1}",) if i else ())
                 for i in range(3)]
        records = svc.run_all(specs)
        assert all(r.state is JobState.DONE for r in records)
        # Job 0 allocates cold; jobs 1..2 reuse the parked buffer.
        assert svc.lease_pool.alloc_misses == 1
        assert svc.lease_pool.alloc_hits == 2

    def test_caching_off_runs_everything_cold(self, cluster):
        svc = JobService(cluster, coalescing=False, caching=False)
        specs = [JobSpec(name=f"j{i}", tenant="t", body=roundtrip_body(i),
                         deps=(f"j{i-1}",) if i else ())
                 for i in range(3)]
        records = svc.run_all(specs)
        assert all(r.state is JobState.DONE for r in records)
        assert svc.kernel_cache is None and svc.lease_pool is None
        assert svc.leases_cold == 3

    def test_warm_paths_do_not_change_outcomes(self, cluster):
        results = {}
        for mode, (coal, cache) in {"on": (True, True),
                                    "off": (False, False)}.items():
            c = Cluster(paper_testbed(n_compute=2, n_accelerators=2))
            svc = JobService(c, coalescing=coal, caching=cache)
            specs = [JobSpec(name=f"j{i}", tenant="t",
                             body=roundtrip_body(i),
                             deps=(f"j{i-1}",) if i else ())
                     for i in range(4)]
            records = svc.run_all(specs)
            results[mode] = [(r.spec.name, r.state.value, r.result)
                             for r in records]
        assert results["on"] == results["off"]

    def test_dirty_lease_not_parked(self, cluster):
        svc = JobService(cluster)
        rec = svc.run_all([JobSpec(name="boom", tenant="t",
                                   body=failing_body)])[0]
        assert rec.state is JobState.FAILED
        assert svc.lease_pool.parked == 0
        assert svc._arm_held == 0


def gpu_burn(items: int):
    """A job body running ``items`` gemm launches per accelerator."""

    def body(ctx):
        ptrs = []
        for ac in ctx.accelerators:
            ptrs.append((yield from ac.mem_alloc(MiB)))
        for _ in range(items):
            for ac, p in zip(ctx.accelerators, ptrs):
                yield from ac.memcpy_h2d(p, Phantom(MiB))
                yield from ac.kernel_run(
                    "dgemm", {"A": 0, "B": 0, "C": 0,
                              "m": 512, "n": 512, "k": 512}, real=False)
        for ac, p in zip(ctx.accelerators, ptrs):
            yield from ac.mem_free(p)
        return len(ctx.accelerators)

    return body


class TestBatchFlow:
    """Sect. V-B's batch flow on the service: one lease per device, no
    warm caching (``ext_batch``'s configuration)."""

    @pytest.fixture
    def batch(self):
        cluster = Cluster(paper_testbed(n_compute=2, n_accelerators=3))
        cluster.arm.admission.slots_per_device = 1
        return cluster, JobService(cluster, caching=False)

    def test_single_job_runs_and_releases(self, batch):
        cluster, svc = batch
        rec = svc.run_all([JobSpec("j0", "t", gpu_burn(3),
                                   n_accelerators=2)])[0]
        assert rec.ok and rec.result == 2
        assert cluster.arm.lease_count() == 0
        assert svc._free == svc.max_in_flight == 3

    def test_two_jobs_share_the_pool(self, batch):
        _, svc = batch
        recs = svc.run_all([JobSpec("a", "t", gpu_burn(5), n_accelerators=2),
                            JobSpec("b", "t", gpu_burn(5))])
        assert all(r.ok for r in recs)
        assert all(r.start_s == 0.0 for r in recs)

    def test_independent_jobs_dispatch_fifo_in_list_order(self, batch):
        _, svc = batch
        names = ["zeta", "alpha", "mid"]          # not alphabetical
        recs = svc.run_all([JobSpec(n, "t", gpu_burn(2), n_accelerators=3)
                            for n in names])
        assert all(r.ok for r in recs)
        assert [r.spec.name for r in sorted(recs, key=lambda r: r.start_s)] \
            == names
        assert recs[1].start_s >= recs[0].end_s

    def test_pool_shortage_queues_fifo(self, batch):
        _, svc = batch
        big, late = svc.run_all([
            JobSpec("big", "t", gpu_burn(10), n_accelerators=3),
            JobSpec("late", "t", gpu_burn(1), arrival_s=1e-4)])
        assert late.start_s >= big.end_s

    def test_oversized_job_rejected_at_submit(self):
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=2))
        cluster.arm.admission.slots_per_device = 1
        svc = JobService(cluster)
        with pytest.raises(WorkloadError, match="wants 3"):
            svc.submit(JobSpec("huge", "t", create_body(), n_accelerators=3))
        with pytest.raises(WorkloadError, match="wants 3"):
            svc.submit_many([JobSpec("ok", "t", create_body()),
                             JobSpec("huge", "t", create_body(),
                                     n_accelerators=3)])
        assert svc.records == []
        # Nothing queued behind a job that can never be granted.
        recs = svc.run_all([JobSpec("ok", "t", create_body(), n_accelerators=2)])
        assert recs[0].ok

    def test_failing_job_still_releases(self, batch):
        cluster, svc = batch

        def bad(ctx):
            yield ctx.engine.timeout(0.001)
            raise RuntimeError("app crash")

        rec = svc.run_all([JobSpec("bad", "t", bad, n_accelerators=2)])[0]
        assert rec.state is JobState.FAILED
        assert isinstance(rec.error, RuntimeError)
        assert cluster.arm.lease_count() == 0 and svc._arm_held == 0

    def test_arrival_times_respected(self, batch):
        _, svc = batch
        rec = svc.run_all([JobSpec("later", "t", gpu_burn(1),
                                   arrival_s=5.0)])[0]
        assert rec.ok and rec.start_s >= 5.0

    def test_real_numerics_inside_job(self, batch):
        _, svc = batch
        data = np.arange(64, dtype=np.float64)

        def body(ctx):
            ac = ctx.accelerators[0]
            p = yield from ac.mem_alloc(data.nbytes)
            yield from ac.memcpy_h2d(p, data)
            yield from ac.kernel_run("dscal", {"x": p, "n": 64, "alpha": 3.0})
            out = yield from ac.memcpy_d2h(p, data.nbytes)
            return out

        rec = svc.run_all([JobSpec("math", "t", body)])[0]
        np.testing.assert_allclose(rec.result, 3.0 * data)

    def test_job_context_cpu_is_its_gateway_node(self, batch):
        cluster, svc = batch
        seen = []

        def body(ctx):
            seen.append(ctx.cpu)
            yield from ctx.accelerators[0].kernel_create("fill")

        rec = svc.run_all([JobSpec("a", "t", body)])[0]
        assert seen == [cluster.compute_nodes[rec.gateway].cpu]

    def test_utilization_visible_to_arm_under_leases(self, batch):
        cluster, svc = batch
        svc.run_all([JobSpec("j", "t", gpu_burn(20), n_accelerators=3)])
        # Every device carried a lease for the whole run.
        assert cluster.arm.utilization() > 0.9

    def test_failing_branch_aborts_only_its_own_spans(self):
        """Regression: one job's failed ``run_parallel`` closed every open
        span on the engine, truncating a concurrent job's in-flight copy
        and stamping it ``aborted``."""

        def slow_branch(ac):
            addr = yield from ac.mem_alloc(4 * MiB)
            yield from ac.memcpy_h2d(addr, np.ones(4 * MiB // 8))

        def failing_branch(ac):
            yield from ac.mem_alloc(100 * 1024**3)    # OOM -> MiddlewareError

        def a(ctx):
            yield from run_parallel(ctx.engine, [
                slow_branch(ctx.accelerators[0]),
                failing_branch(ctx.accelerators[1])])

        def b(ctx):
            ac = ctx.accelerators[0]
            addr = yield from ac.mem_alloc(8 * MiB)
            yield from ac.memcpy_h2d(addr, np.ones(8 * MiB // 8))

        with trace_session() as session:
            cluster = Cluster(paper_testbed(n_compute=2, n_accelerators=3))
            cluster.arm.admission.slots_per_device = 1
            svc = JobService(cluster, caching=False)
            rec_a, rec_b = svc.run_all([
                JobSpec("a", "alice", a, n_accelerators=2),
                JobSpec("b", "bob", b)])
        assert rec_a.state is JobState.FAILED
        assert isinstance(rec_a.error, MiddlewareError)
        assert rec_b.ok and rec_b.end_s > rec_a.end_s
        assert rec_a.gateway != rec_b.gateway
        (col,) = session.collectors
        assert col.open_spans == []
        roots = {r.trace_id: r.actor for r in col.spans if r.parent_id is None}
        by_job = {"a": [], "b": []}
        for span in col.spans:
            actor = roots.get(span.trace_id)
            for name, rec in (("a", rec_a), ("b", rec_b)):
                if actor == f"cn{rec.gateway}":
                    by_job[name].append(span)
        # The failed job's in-flight copy was closed as aborted ...
        assert {s.name for s in by_job["a"] if "aborted" in s.attrs} >= {
            "client.memcpy_h2d"}
        # ... the healthy job's copy ran to its own finish.
        copy = [s for s in by_job["b"] if s.name == "client.memcpy_h2d"]
        assert len(copy) == 1 and copy[0].end > rec_a.end_s
        assert [s for s in by_job["b"] if "aborted" in s.attrs] == []
