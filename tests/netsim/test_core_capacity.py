"""Tests for the oversubscribed switch-core model."""

import pytest

from repro.cluster import ClusterSpec
from repro.errors import ClusterConfigError
from repro.netsim import Fabric, LinkModel
from repro.sim import Engine

from .conftest import send

MODEL = LinkModel("core", latency_s=0.0, bandwidth_Bps=1000.0,
                  injection_overhead_s=0.0, rendezvous_threshold=0)


def build(core=None, n=4):
    eng = Engine()
    f = Fabric(eng, MODEL)
    for i in range(n):
        f.add_endpoint(f"n{i}")
    f.set_core_capacity(core)
    return eng, f


class TestCoreCapacity:
    def test_crossbar_disjoint_flows_full_rate(self):
        eng, f = build(core=None)
        _, d1 = send(f, "n0", "n1", 1000)
        _, d2 = send(f, "n2", "n3", 1000)
        eng.run()
        assert eng.now == pytest.approx(1.0, rel=0.01)
        assert d1.processed and d2.processed

    def test_core_limits_disjoint_flows(self):
        eng, f = build(core=1000.0)  # both flows share one core unit
        t1 = f.transfer("n0", "n1", 1000)
        t2 = f.transfer("n2", "n3", 1000)
        eng.run()
        assert eng.now == pytest.approx(2.0, rel=0.01)

    def test_large_core_behaves_like_crossbar(self):
        eng, f = build(core=1e9)
        f.transfer("n0", "n1", 1000)
        f.transfer("n2", "n3", 1000)
        eng.run()
        assert eng.now == pytest.approx(1.0, rel=0.01)

    def test_single_flow_unaffected_by_core(self):
        eng, f = build(core=1000.0)
        _, delivered = send(f, "n0", "n1", 500)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(0.5, rel=0.01)

    def test_core_stage_costs_one_more_timer(self):
        eng, f = build(core=1000.0)
        _, delivered = send(f, "n0", "n1", 500)
        eng.run()
        assert delivered.processed
        # injected, receiver-share timer, core-share timer, delivered.
        assert next(eng._seq) == 4

    def test_loopback_bypasses_core(self):
        eng, f = build(core=1.0)  # pathological core
        _, delivered = send(f, "n0", "n0", 1000)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(1.0, rel=0.01)

    def test_core_can_be_reset(self):
        eng, f = build(core=1000.0)
        f.set_core_capacity(None)
        f.transfer("n0", "n1", 1000)
        f.transfer("n2", "n3", 1000)
        eng.run()
        assert eng.now == pytest.approx(1.0, rel=0.01)


class TestClusterSpecCore:
    def test_default_crossbar(self):
        spec = ClusterSpec(n_compute=2, n_accelerators=2)
        assert spec.core_capacity_Bps() is None

    def test_oversubscribed_capacity(self):
        spec = ClusterSpec(n_compute=3, n_accelerators=2,
                           switch_oversubscription=2.0)
        ports = 3 + 2 + 1
        expected = ports * spec.network.bandwidth_Bps / 4.0
        assert spec.core_capacity_Bps() == pytest.approx(expected)

    def test_factor_below_one_rejected(self):
        with pytest.raises(ClusterConfigError, match="oversubscription"):
            ClusterSpec(n_compute=1, n_accelerators=0,
                        switch_oversubscription=0.5)
