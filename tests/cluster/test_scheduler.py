"""Tests for the static/dynamic batch-scheduling model."""

import pytest

from repro.cluster.scheduler import (
    JobSpec,
    run_job_mix,
    _footprint_dynamic,
    _footprint_static,
)
from repro.errors import ClusterConfigError


def job(name, arrival, duration, gpus=0):
    return JobSpec(name=name, arrival_s=arrival, duration_s=duration,
                   n_gpus=gpus)


class TestFootprints:
    def test_static_cpu_job_parks_a_gpu(self):
        nodes, gpus = _footprint_static(job("a", 0, 10, gpus=0), 1)
        assert (nodes, gpus) == (1, 1)  # the node's GPU is captured idle

    def test_static_multi_gpu_job_spreads(self):
        nodes, gpus = _footprint_static(job("a", 0, 10, gpus=3), 1)
        assert (nodes, gpus) == (3, 3)  # premature hybridization

    def test_static_two_gpus_per_node(self):
        nodes, gpus = _footprint_static(job("a", 0, 10, gpus=3), 2)
        assert (nodes, gpus) == (2, 4)

    def test_dynamic_exact_footprint(self):
        nodes, gpus = _footprint_dynamic(job("a", 0, 10, gpus=3), 1)
        assert (nodes, gpus) == (1, 3)


class TestFifoScheduling:
    def test_sequential_when_full(self):
        jobs = [job("a", 0, 10, gpus=1), job("b", 0, 10, gpus=1)]
        res = run_job_mix(jobs, n_nodes=1, n_gpus=1, policy="dynamic")
        recs = {r.spec.name: r for r in res.records}
        # One node: b must wait for a.
        assert recs["b"].start_s == pytest.approx(10.0)
        assert res.makespan == pytest.approx(20.0)

    def test_parallel_when_capacity(self):
        jobs = [job("a", 0, 10, gpus=1), job("b", 0, 10, gpus=1)]
        res = run_job_mix(jobs, n_nodes=2, n_gpus=2, policy="dynamic")
        assert res.makespan == pytest.approx(10.0)
        assert res.mean_wait == pytest.approx(0.0)

    def test_fifo_is_strict(self):
        # Big job at the head blocks a small one even if it would fit.
        jobs = [job("big", 0, 10, gpus=2),
                job("bigger", 1, 10, gpus=2),
                job("small", 2, 1, gpus=0)]
        res = run_job_mix(jobs, n_nodes=3, n_gpus=2, policy="dynamic")
        recs = {r.spec.name: r for r in res.records}
        assert recs["bigger"].start_s == pytest.approx(10.0)
        assert recs["small"].start_s >= recs["bigger"].start_s

    def test_static_hybridization_penalty(self):
        # A 1-node 3-GPU job: static needs 3 nodes, so two such jobs
        # serialize on a 4-node cluster; dynamic runs them in parallel if
        # the pool has 6 GPUs.
        jobs = [job("a", 0, 100, gpus=3), job("b", 0, 100, gpus=3)]
        static = run_job_mix(jobs, n_nodes=4, n_gpus=6, policy="static",
                             gpus_per_node=1)
        dynamic = run_job_mix(jobs, n_nodes=4, n_gpus=6, policy="dynamic")
        assert static.makespan == pytest.approx(200.0)
        assert dynamic.makespan == pytest.approx(100.0)

    def test_impossible_job_raises(self):
        with pytest.raises(ClusterConfigError, match="needs"):
            run_job_mix([job("a", 0, 10, gpus=9)], n_nodes=2, n_gpus=2,
                        policy="dynamic")

    def test_cpu_only_mix_equivalent(self):
        jobs = [job(f"j{i}", i * 1.0, 10) for i in range(4)]
        static = run_job_mix(jobs, n_nodes=2, n_gpus=2, policy="static")
        dynamic = run_job_mix(jobs, n_nodes=2, n_gpus=2, policy="dynamic")
        assert static.makespan == pytest.approx(dynamic.makespan)

    def test_unknown_policy(self):
        with pytest.raises(ClusterConfigError, match="unknown policy"):
            run_job_mix([job("a", 0, 1)], 1, 1, policy="magic")

    def test_utilization_metrics(self):
        jobs = [job("a", 0, 10, gpus=2)]
        res = run_job_mix(jobs, n_nodes=1, n_gpus=2, policy="dynamic")
        assert res.gpu_utilization() == pytest.approx(1.0)
        assert res.node_utilization() == pytest.approx(1.0)

    def test_job_validation(self):
        with pytest.raises(ClusterConfigError):
            JobSpec("x", -1.0, 1.0)
        with pytest.raises(ClusterConfigError):
            JobSpec("x", 0.0, 0.0)
        with pytest.raises(ClusterConfigError):
            JobSpec("x", 0.0, 1.0, n_gpus=-1)
