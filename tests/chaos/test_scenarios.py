"""Per-scenario signal assertions and scoring/gating unit tests.

Each catalog scenario must leave its characteristic fingerprint in the
pool-event timeline and the report counters — a scenario whose injection
silently stopped firing would otherwise still pass the determinism
check (a no-op replayed twice is identical to itself).
"""

import pytest

from repro.chaos import SCENARIOS, check_expectations
from repro.chaos.scenarios import ChaosConfig, Injection, run, score_pool_events
from repro.errors import WorkloadError

from ..harness import run_chaos_scenario


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

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_reports_obs_metrics(self, name):
        r = run_chaos_scenario(SCENARIOS[name])
        snapshot = r.registry.collect()
        assert "chaos.slo_violations" in snapshot
        assert "chaos.recovery_latency_s" in snapshot
        assert r.slo_violations == (r.late + r.failed + r.aborted + r.stuck)


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

    def test_bad_config_rejected(self):
        with pytest.raises(WorkloadError):
            ChaosConfig(n_tenants=0)
        with pytest.raises(WorkloadError):
            ChaosConfig(initial_accelerators=9, n_accelerators=4)
