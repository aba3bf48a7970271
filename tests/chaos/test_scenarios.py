"""Per-scenario signal assertions and scoring/gating unit tests.

Each catalog scenario must leave its characteristic fingerprint in the
pool-event timeline and the report counters — a scenario whose injection
silently stopped firing would otherwise still pass the determinism
check (a no-op replayed twice is identical to itself).
"""

import dataclasses

import pytest

from repro.chaos import SCENARIOS, check_expectations, format_report
from repro.chaos.scenarios import (
    N_ACCELERATORS,
    ChaosConfig,
    Injection,
    run,
    score_pool_events,
)
from repro.errors import WorkloadError

from ..harness import run_chaos_scenario

#: The CLI's ``--quick`` size.
QUICK = ChaosConfig(n_tenants=24, window_s=10e-3)


class TestScenarioSignals:
    def test_join_leave_waves_churns_membership(self):
        r = run_chaos_scenario(SCENARIOS["join_leave_waves"])
        assert r.joins >= 2
        kinds = [k for _, k, _ in r.pool_events]
        assert any(k.startswith("leave") for k in kinds)
        assert r.ttl_evictions >= 1          # the silent leaver ages out
        assert r.recoveries + r.completed > 0

    def test_rolling_upgrade_cycles_every_target(self):
        r = run_chaos_scenario(SCENARIOS["rolling_upgrade"])
        kinds = [k for _, k, _ in r.pool_events]
        assert kinds.count("leave:upgrade") == 3
        assert len(r.recovery_latencies_s) >= 3
        assert r.unrecovered == 0

    def test_partition_evicts_and_heals(self):
        r = run_chaos_scenario(SCENARIOS["partition"])
        assert r.ttl_evictions >= 1
        assert len(r.recovery_latencies_s) >= 1
        assert r.unrecovered == 0

    def test_straggler_ages_out_of_the_feed(self):
        # The slow period ends late in the window; a wider run gives the
        # straggler's first healthy report time to land and close the
        # recovery window before the last session drains.
        r = run_chaos_scenario(SCENARIOS["straggler"],
                               n_tenants=24, window_s=10e-3)
        assert r.ttl_evictions >= 1
        assert len(r.recovery_latencies_s) >= 1
        assert r.unrecovered == 0

    def test_slow_link_degrades_without_membership_churn(self):
        r = run_chaos_scenario(SCENARIOS["slow_link"])
        assert r.ttl_evictions == 0
        assert r.recovery_latencies_s == []
        assert r.unrecovered == 0
        assert r.completed > 0

    def test_heartbeat_flap_is_absorbed(self):
        r = run_chaos_scenario(SCENARIOS["heartbeat_flap"])
        assert r.ttl_evictions >= 1
        kinds = [k for _, k, _ in r.pool_events]
        assert "join" in kinds or "rejoin" in kinds
        assert r.unrecovered == 0

    def test_autoscale_burst_grows_the_pool(self):
        r = run_chaos_scenario(SCENARIOS["autoscale_burst"])
        assert r.scale_ups >= 1
        assert r.completed > 0
        assert r.unrecovered == 0

    def test_steady_is_fault_free(self):
        r = run("steady", QUICK)
        assert r.ttl_evictions == r.leaves == 0
        assert r.recovery_latencies_s == []
        assert r.unrecovered == r.failed == r.stuck == r.corrupted == 0

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_reports_obs_metrics(self, name):
        r = run_chaos_scenario(SCENARIOS[name])
        snapshot = r.registry.collect()
        assert "chaos.slo_violations" in snapshot
        assert "chaos.recovery_latency_s" in snapshot
        assert r.slo_violations == (r.late + r.failed + r.aborted + r.stuck)


class TestSteady:
    """The tenant population alone: admission, preemption and fairness."""

    def test_every_request_accounted(self):
        r = run("steady", QUICK)
        assert r.submitted == 48
        assert (r.completed + r.rejected + r.aborted + r.failed + r.stuck
                == r.submitted)
        assert r.completed > 0

    def test_contended_run_preempts_and_recovers(self):
        r = run("steady", QUICK)
        # 48 arrivals in 2 ms over 4 slots: priorities must collide.
        assert r.preemptions > 0
        assert r.recoveries > 0

    def test_same_seed_bit_identical_digest(self):
        a = run("steady", dataclasses.replace(QUICK, seed=11))
        b = run("steady", dataclasses.replace(QUICK, seed=11))
        assert a.digest == b.digest
        assert a.duration_s == b.duration_s
        assert a.per_tenant == b.per_tenant

    def test_different_seed_different_digest(self):
        a = run("steady", dataclasses.replace(QUICK, seed=11))
        b = run("steady", dataclasses.replace(QUICK, seed=12))
        assert a.digest != b.digest

    def test_latency_percentiles_present(self):
        r = run("steady", QUICK)
        assert 0.0 < r.latency_p50_s <= r.latency_p99_s
        assert r.per_tenant
        for row in r.per_tenant.values():
            assert row["count"] >= 1
            assert 0.0 < row["p50_s"] <= row["p99_s"]

    def test_per_tenant_latencies_are_the_session_latencies(self):
        # Rebuilt from the trace rows after the run: the same samples the
        # aggregate histogram saw while the sessions completed.
        r = run("steady", QUICK)
        agg = r.registry.histogram("chaos.latency_s")
        per = r.registry.histograms("chaos.tenant_latency_s")
        assert sum(h.count for h in per) == agg.count == r.completed
        assert min(h.min for h in per) == agg.min
        assert max(h.max for h in per) == agg.max
        assert max(row["p99_s"] for row in r.per_tenant.values()) == agg.max

    def test_fairness_from_registry(self):
        r = run("steady", QUICK)
        assert 0.0 < r.fairness <= 1.0
        assert r.registry.value("chaos.fairness_jain") == r.fairness
        assert r.registry.value("chaos.preemptions") == r.preemptions

    def test_report_renders(self):
        text = format_report(run("steady", QUICK))
        assert "fairness" in text
        assert "preemptions" in text
        assert "p99" in text
        assert "digest" in text


class TestScoring:
    def test_down_then_up_yields_one_latency(self):
        events = [(1.0, "join", 0), (2.0, "join", 1),
                  (3.0, "break", 0), (4.5, "join", 2)]
        latencies, unrecovered = score_pool_events(events)
        assert latencies == [1.5]
        assert unrecovered == 0

    def test_unclosed_window_counts_as_unrecovered(self):
        events = [(1.0, "join", 0), (2.0, "join", 1), (3.0, "evict", 1)]
        latencies, unrecovered = score_pool_events(events)
        assert latencies == []
        assert unrecovered == 1

    def test_scale_down_is_not_a_failure(self):
        events = [(1.0, "join", 0), (2.0, "join", 1),
                  (3.0, "leave:scale-down", 1)]
        latencies, unrecovered = score_pool_events(events)
        assert latencies == []
        assert unrecovered == 0

    def test_nested_windows_close_lifo_by_capacity(self):
        events = [(0.0, "join", 0), (0.0, "join", 1), (0.0, "join", 2),
                  (1.0, "break", 0), (2.0, "evict", 1),
                  (3.0, "rejoin", 1), (5.0, "rejoin", 0)]
        latencies, unrecovered = score_pool_events(events)
        assert sorted(latencies) == [1.0, 4.0]
        assert unrecovered == 0


class TestGating:
    def test_check_expectations_flags_violations(self):
        r = run_chaos_scenario(SCENARIOS["slow_link"])
        problems = check_expectations(r, {
            "min_completed": r.completed + 1,
            "max_slo_violations": -1,
        })
        assert len(problems) == 2
        assert any("completed" in p and "violates bound" in p
                   for p in problems)
        assert any("slo_violations" in p for p in problems)

    def test_check_expectations_passes_on_met_bounds(self):
        r = run_chaos_scenario(SCENARIOS["slow_link"])
        assert check_expectations(r, {"min_completed": 1,
                                      "max_stuck": 0,
                                      "max_corrupted": 0}) == []


class TestValidation:
    def test_unknown_injection_kind_rejected(self):
        with pytest.raises(WorkloadError):
            Injection(kind="meteor", at_s=0.0, ac_id=0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(WorkloadError):
            run("no-such-scenario", ChaosConfig())

    @pytest.mark.parametrize("kwargs", [
        {"n_tenants": 0},
        {"initial_accelerators": 0},
        {"initial_accelerators": N_ACCELERATORS + 1},
        {"slots_per_device": 0},
        {"slots_per_device": -1},
        {"window_s": 0.0},
        {"window_s": -1e-3},
        {"window_s": float("nan")},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            ChaosConfig(**kwargs)

    def test_bad_config_rejected(self):
        with pytest.raises(WorkloadError):
            ChaosConfig(n_tenants=0)
        with pytest.raises(WorkloadError):
            ChaosConfig(initial_accelerators=9)

    def test_zero_slots_rejected_before_any_session_sticks(self):
        """``slots_per_device = 0`` admits no lease, so every session of
        a run used to end ``stuck``; it is refused up front instead."""
        with pytest.raises(WorkloadError, match="slots_per_device"):
            run("partition", ChaosConfig(n_tenants=6, window_s=2e-3,
                                         slots_per_device=0))
