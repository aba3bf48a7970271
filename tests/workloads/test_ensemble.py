"""Tests for the ensemble job-service workload (determinism + identity)."""

import dataclasses

import pytest

from repro.errors import WorkloadError
from repro.workloads import ensemble


def _small(seed=3, **overrides):
    kwargs = dict(n_jobs=24, n_accelerators=2, n_gateways=2,
                  slots_per_device=2, seed=seed)
    kwargs.update(overrides)
    return ensemble.EnsembleConfig(**kwargs)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_jobs": 0},
        {"n_accelerators": 0},
        {"n_accelerators": 9},
        {"n_gateways": 0},
        {"slots_per_device": 0},
        {"window_s": -1.0},
        {"window_s": float("nan")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            _small(**kwargs)


class TestGenerate:
    def test_pure_in_seed(self):
        a = ensemble.generate_specs(_small(seed=7))
        b = ensemble.generate_specs(_small(seed=7))
        assert [(s.name, s.tenant, s.priority, s.deps, s.arrival_s)
                for s in a] \
            == [(s.name, s.tenant, s.priority, s.deps, s.arrival_s)
                for s in b]

    def test_shape(self):
        specs = ensemble.generate_specs(_small())
        assert len(specs) == 24
        names = {s.name for s in specs}
        tenants = {c[0] for c in ensemble.DEFAULT_CLASSES}
        for s in specs:
            assert s.tenant in tenants
            assert all(d in names for d in s.deps)
            assert 1 <= s.n_accelerators <= 2


class TestRun:
    def test_all_jobs_complete(self):
        report = ensemble.run(_small())
        assert report.submitted == 24
        assert report.done == 24
        assert report.failed == 0 and report.cancelled == 0
        assert report.jobs_per_s > 0
        assert 0.0 < report.latency_p50_s <= report.latency_p99_s
        assert report.per_tenant

    def test_same_seed_bit_identical_digest(self):
        a = ensemble.run(_small(seed=5))
        b = ensemble.run(_small(seed=5))
        assert a.digest == b.digest
        assert a.duration_s == b.duration_s
        assert a.jobs_per_s == b.jobs_per_s

    def test_different_seed_different_digest(self):
        assert ensemble.run(_small(seed=5)).digest \
            != ensemble.run(_small(seed=6)).digest

    def test_warm_paths_preserve_outcomes_and_speed_up(self):
        warm = ensemble.run(_small())
        cold = ensemble.run(dataclasses.replace(
            _small(), coalescing=False, caching=False))
        # The identity property: coalescing + caching never change any
        # job's outcome, only the virtual clock.
        assert warm.digest == cold.digest
        assert warm.done == cold.done == 24
        # Virtual time is deterministic, so this ratio is exact, not a
        # flaky wall-clock measurement.  The headline >= 1.5x gate (on
        # the --quick CLI ensemble) runs over the identity ledger's
        # `jobs` document (tests/identity/test_ledger.py).
        assert warm.jobs_per_s > cold.jobs_per_s
        assert warm.kernel_cache_hits > 0
        assert warm.alloc_cache_hits > 0
        assert warm.leases_reused > 0
        assert cold.kernel_cache_hits == 0
        assert cold.leases_reused == 0

    def test_format_report(self):
        report = ensemble.run(_small())
        text = ensemble.format_report(report)
        assert report.digest[:16] in text
        assert "jobs 24" in text
        for tenant in report.per_tenant:
            assert tenant in text
