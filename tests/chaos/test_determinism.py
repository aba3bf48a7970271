"""Seed-replay determinism for every chaos scenario.

The contract: running any scenario twice with the same
:class:`~repro.chaos.ChaosConfig` must produce bit-identical trace
digests, identical pool-event timelines, and byte-identical tenant
buffers.  Different seeds must (overwhelmingly) diverge — a digest that
ignores the seed would make the replay check vacuous.
"""

import pytest

from repro.chaos import SCENARIOS
from repro.chaos.scenarios import REQUESTS_PER_TENANT

from ..harness import (
    CHAOS_QUICK,
    assert_chaos_replay_identical,
    chaos_scenario_from_program,
    generate_chaos_program,
    run_chaos_scenario,
)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_catalog_scenario_replays_identically(name):
    report = assert_chaos_replay_identical(SCENARIOS[name])
    assert report.submitted == CHAOS_QUICK["n_tenants"] * REQUESTS_PER_TENANT
    assert report.stuck == 0
    assert report.corrupted == 0


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_generated_program_replays_identically(seed):
    scenario = chaos_scenario_from_program(seed)
    report = assert_chaos_replay_identical(scenario, seed=seed)
    assert report.stuck == 0
    assert report.corrupted == 0


def test_different_seeds_diverge():
    a = run_chaos_scenario(SCENARIOS["join_leave_waves"], seed=0)
    b = run_chaos_scenario(SCENARIOS["join_leave_waves"], seed=1)
    assert a.digest != b.digest


def test_generated_programs_vary_with_seed():
    programs = {tuple(generate_chaos_program(s)) for s in range(4)}
    assert len(programs) == 4


def test_registry_metrics_match_report():
    report = run_chaos_scenario(SCENARIOS["partition"])
    reg = report.registry
    assert reg.value("chaos.slo_violations") == report.slo_violations
    assert reg.value("chaos.unrecovered") == report.unrecovered
    assert reg.value("chaos.pool_joins") == report.joins
    assert reg.value("chaos.ttl_evictions") == report.ttl_evictions
    (hist,) = reg.histograms("chaos.recovery_latency_s")
    assert hist.count == len(report.recovery_latencies_s)
