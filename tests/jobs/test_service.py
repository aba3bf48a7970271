"""Job-service behaviour: DAG semantics, scheduling, and warm paths."""

import numpy as np
import pytest

from repro.cluster import Cluster, paper_testbed
from repro.errors import WorkloadError
from repro.jobs import JobService, JobSpec, JobState


@pytest.fixture
def cluster():
    return Cluster(paper_testbed(n_compute=2, n_accelerators=2))


def ping_body(log=None):
    def body(ctx):
        if log is not None:
            log.append(ctx.spec.name)
        value = yield from ctx.accelerators[0].ping()
        return value

    return body


def failing_body(ctx):
    yield from ctx.accelerators[0].ping()
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
            JobSpec(name="a", tenant="t", body=ping_body(), deps=("a",))

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"tenant": ""},
        {"n_accelerators": 0},
        {"arrival_s": -1.0},
    ])
    def test_field_validation(self, kwargs):
        base = dict(name="a", tenant="t", body=ping_body())
        base.update(kwargs)
        with pytest.raises(WorkloadError):
            JobSpec(**base)


class TestDagEdgeCases:
    def test_cycle_rejected_at_submit(self, cluster):
        svc = JobService(cluster)
        specs = [
            JobSpec(name="a", tenant="t", body=ping_body(), deps=("c",)),
            JobSpec(name="b", tenant="t", body=ping_body(), deps=("a",)),
            JobSpec(name="c", tenant="t", body=ping_body(), deps=("b",)),
        ]
        with pytest.raises(WorkloadError, match="dependency cycle"):
            svc.submit_many(specs)
        # Nothing was submitted: the rejection happened before any state.
        assert svc.records == []

    def test_unknown_dependency_rejected(self, cluster):
        svc = JobService(cluster)
        with pytest.raises(WorkloadError, match="unknown job"):
            svc.submit_many([JobSpec(name="a", tenant="t",
                                     body=ping_body(), deps=("ghost",))])
        with pytest.raises(WorkloadError, match="unknown job"):
            svc.submit(JobSpec(name="b", tenant="t",
                               body=ping_body(), deps=("ghost",)))

    def test_duplicate_name_rejected(self, cluster):
        svc = JobService(cluster)
        spec = JobSpec(name="a", tenant="t", body=ping_body())
        with pytest.raises(WorkloadError, match="duplicate"):
            svc.submit_many([spec, JobSpec(name="a", tenant="t",
                                           body=ping_body())])

    def test_diamond_runs_each_job_exactly_once(self, cluster):
        svc = JobService(cluster)
        log = []
        specs = [
            JobSpec(name="a", tenant="t", body=ping_body(log)),
            JobSpec(name="b", tenant="t", body=ping_body(log), deps=("a",)),
            JobSpec(name="c", tenant="t", body=ping_body(log), deps=("a",)),
            JobSpec(name="d", tenant="t", body=ping_body(log),
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
            JobSpec(name="child", tenant="t", body=ping_body(log),
                    deps=("root",)),
            JobSpec(name="grandchild", tenant="t", body=ping_body(log),
                    deps=("child",)),
            JobSpec(name="bystander", tenant="t", body=ping_body(log)),
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
    def test_priority_orders_dispatch_under_contention(self, cluster):
        cluster.arm.admission.slots_per_device = 1
        svc = JobService(cluster, max_in_flight=1)
        log = []
        specs = [
            JobSpec(name=f"low{i}", tenant="t", body=ping_body(log),
                    priority=0)
            for i in range(3)
        ] + [JobSpec(name="high", tenant="t", body=ping_body(log),
                     priority=5)]
        records = svc.run_all(specs)
        assert all(r.state is JobState.DONE for r in records)
        # One slot: whichever job grabbed it first, the high-priority
        # job must run before the remaining low-priority backlog.
        assert log.index("high") <= 1

    def test_slots_released_after_run(self, cluster):
        free0 = cluster.arm.free_count()
        svc = JobService(cluster)
        svc.run_all([JobSpec(name="a", tenant="t", body=ping_body())])
        assert cluster.arm.free_count() == free0
        assert svc._free == svc.max_in_flight
        assert svc._arm_held == 0

    def test_multi_accelerator_job(self, cluster):
        svc = JobService(cluster)

        def body(ctx):
            assert len(ctx.accelerators) == 2
            a = yield from ctx.accelerators[0].ping()
            b = yield from ctx.accelerators[1].ping()
            return (a, b)

        rec = svc.run_all([JobSpec(name="wide", tenant="t", body=body,
                                   n_accelerators=2)])[0]
        assert rec.state is JobState.DONE and rec.result == ("pong", "pong")


class TestWarmPaths:
    def test_lease_reused_across_sequential_jobs(self, cluster):
        svc = JobService(cluster)
        specs = [JobSpec(name=f"j{i}", tenant="t", body=ping_body(),
                         deps=(f"j{i-1}",) if i else ())
                 for i in range(4)]
        svc.run_all(specs)
        assert svc.leases_cold == 1
        assert svc.lease_pool.reused == 3

    def test_unclaimed_lease_expires_after_ttl(self, cluster):
        svc = JobService(cluster, lease_ttl_s=1e-3)
        rec = svc.submit(JobSpec(name="a", tenant="t", body=ping_body()))
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
        a = [JobSpec(name=f"a{i}", tenant="alice", body=ping_body())
             for i in range(2)]  # independent: both slots get parked
        recs = svc.submit_many(a)  # no run_all: it would drain the pool
        cluster.engine.run(until=cluster.engine.all_of(
            [r.done for r in recs]))
        assert len(svc.lease_pool) == 2
        assert svc._arm_held == svc.max_in_flight
        # A different tenant needs a cold lease with the ARM full of
        # parked ones: the pool must make room, not block until TTL.
        rec = svc.submit(JobSpec(name="b", tenant="bob", body=ping_body()))
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
