"""Multi-switch topologies: routing, per-hop contention, routed chaos."""

import pytest

from repro.errors import NetworkError
from repro.netsim import Fabric, LinkModel, Topology, TopologySpec
from repro.sim import Engine

from .conftest import send

# Round numbers so expected times are computable by hand (see
# tests/netsim/test_fabric.py): 1000 B takes 1 s of wire time.
SIMPLE = LinkModel(
    name="simple",
    latency_s=0.001,
    bandwidth_Bps=1000.0,
    injection_overhead_s=0.0005,
    rendezvous_threshold=0,
)


@pytest.fixture
def eng():
    return Engine()


def two_switch(eng):
    """a, b on sw0; c, d on sw1; one trunk between them."""
    topo = Topology.ring(2)
    fabric = Fabric(eng, SIMPLE, topology=topo)
    for name, sw in (("a", "sw0"), ("b", "sw0"), ("c", "sw1"), ("d", "sw1")):
        fabric.add_endpoint(name, switch=sw)
    return fabric


class TestTopologyRouting:
    def test_ring_routes_take_the_short_way_around(self):
        topo = Topology.ring(6)
        assert topo.route("sw0", "sw2") == ("sw0", "sw1", "sw2")
        # 0 -> 5 wraps backwards: one hop, not five.
        assert topo.route("sw0", "sw5") == ("sw0", "sw5")
        assert topo.hops("sw0", "sw3") == 3

    def test_torus_wraparound_shortcut(self):
        topo = Topology.torus(4, 4)
        # Corner to corner is two wraparound hops, not six mesh hops.
        assert topo.route("sw0-0", "sw3-3") == ("sw0-0", "sw0-3", "sw3-3")
        assert topo.hops("sw0-0", "sw3-3") == 2

    def test_torus3d_shape(self):
        topo = Topology.torus(2, 2, 2)
        assert len(topo.switches) == 8
        assert len(topo.trunks) == 12
        assert max(topo.hops("sw0-0-0", s) for s in topo.switches) == 3

    def test_equal_length_tie_breaks_deterministically(self):
        topo = Topology.torus(2, 2)
        # Two 2-hop paths exist (via sw0-1 or sw1-0); sorted-adjacency
        # BFS always discovers sw1-1 through the lexicographically
        # earlier intermediate.
        assert topo.route("sw0-0", "sw1-1") == ("sw0-0", "sw0-1", "sw1-1")

    def test_routing_identical_across_rebuilds(self):
        a, b = Topology.torus(3, 3), Topology.torus(3, 3)
        for src in a.switches:
            for dst in a.switches:
                assert a.route(src, dst) == b.route(src, dst)

    def test_same_switch_route_is_trivial(self):
        topo = Topology.ring(3)
        assert topo.route("sw1", "sw1") == ("sw1",)
        assert topo.trunk_hops("sw1", "sw1") == ()

    def test_disconnected_switches_rejected(self):
        topo = Topology("split", ["sw0", "sw1"], [])
        with pytest.raises(NetworkError):
            topo.route("sw0", "sw1")

    def test_spec_validation(self):
        with pytest.raises(NetworkError):
            TopologySpec(kind="hypercube")
        with pytest.raises(NetworkError):
            TopologySpec(kind="ring", dims=(2, 2))
        with pytest.raises(NetworkError):
            TopologySpec(kind="torus2d", dims=(2,))
        with pytest.raises(NetworkError):
            TopologySpec(kind="ring", dims=(1,)).build()
        assert TopologySpec(kind="torus2d", dims=(2, 2)).build().name == \
            "torus2x2"

    def test_endpoint_switch_validation(self, eng):
        fabric = two_switch(eng)
        with pytest.raises(NetworkError):
            fabric.add_endpoint("x", switch="sw99")
        single = Fabric(eng, SIMPLE)
        with pytest.raises(NetworkError):
            single.add_endpoint("x", switch="sw0")

    def test_hop_count_between_endpoints(self, eng):
        fabric = two_switch(eng)
        assert fabric.hop_count("a", "b") == 0
        assert fabric.hop_count("a", "c") == 1
        assert fabric.switch_of("a") == "sw0"
        assert fabric.switch_of("c") == "sw1"


class TestTrunkTiming:
    def test_cross_switch_adds_per_hop_latency(self, eng):
        fabric = two_switch(eng)
        _, delivered = send(fabric, "a", "c", 1000)
        eng.run(until=delivered)
        # injection 0.0005 + wire 1.0 + endpoint latency 0.001
        # + 1 trunk hop x 0.001.
        assert eng.now == pytest.approx(1.0025)

    def test_same_switch_pays_no_trunk_latency(self, eng):
        fabric = two_switch(eng)
        _, delivered = send(fabric, "a", "b", 1000)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(1.0015)

    def test_two_flows_share_one_trunk(self, eng):
        """Flows to different destinations contend on the shared trunk:
        each gets half the trunk, so the wire phase takes twice as long —
        aggregate trunk throughput never exceeds trunk capacity."""
        fabric = two_switch(eng)
        _, d1 = send(fabric, "a", "c", 1000)
        _, d2 = send(fabric, "b", "d", 1000)
        eng.run(until=eng.all_of([d1, d2]))
        # Both flows finish together: 0.0005 + 2000/1000 + 0.001 + 0.001.
        assert eng.now == pytest.approx(2.0025)
        # Conservation: 2000 B crossed a 1000 B/s trunk in ~2 s of wire
        # time — the shared segment never ran above capacity.
        wire_s = eng.now - 0.0025
        assert 2000 / wire_s <= 1000 * 1.001

    def test_routed_flow_costs_one_timer_per_stage(self, eng):
        """A flow on a 2x2 torus drains through the receiver's share and
        one trunk share per hop; each stage is its share's timer and
        nothing else — no per-stage event, no ``AllOf`` to join them."""
        fabric = Fabric(eng, SIMPLE, topology=Topology.torus(2, 2))
        for name, sw in (("a", "sw0-0"), ("b", "sw0-1"), ("c", "sw1-1")):
            fabric.add_endpoint(name, switch=sw)
        one_hop = fabric.transfer("a", "b", 1000)
        eng.run()
        assert one_hop.hops == (("sw0-0", "sw0-1"),)
        assert eng.now == pytest.approx(0.0005 + 1.0 + 0.001 + 0.001)
        assert next(eng._seq) == 4     # injected, rx + trunk, delivered
        two_hops, delivered = send(fabric, "a", "c", 1000)
        eng.run()
        assert len(two_hops.hops) == 2 and delivered.processed
        assert next(eng._seq) == 4 + 1 + 5

    def test_opposite_directions_do_not_contend(self, eng):
        """The trunk is full duplex: sw0->sw1 and sw1->sw0 are separate
        shares, so counter-flowing transfers run at full speed."""
        fabric = two_switch(eng)
        _, d1 = send(fabric, "a", "c", 1000)
        _, d2 = send(fabric, "c", "a", 1000)
        eng.run(until=eng.all_of([d1, d2]))
        assert eng.now == pytest.approx(1.0025)

    def test_trunk_bytes_accounting(self, eng):
        fabric = two_switch(eng)
        t1 = fabric.transfer("a", "c", 700)
        t2 = fabric.transfer("a", "b", 300)  # same switch: no trunk bytes
        eng.run()
        assert fabric.trunk_bytes == {("sw0", "sw1"): 700}
        # End-to-end totals count each message once, not per hop.
        assert fabric.bytes_moved == 1000
        assert fabric.endpoints["a"].tx_bytes == 1000
        assert fabric.endpoints["c"].rx_bytes == 700
        assert not t1.dropped and not t2.dropped


class TestRoutedChaos:
    def test_cut_severs_the_shared_trunk(self, eng):
        """Cutting a cross-switch pair cuts the trunk segments on its
        route, so *other* pairs routed over the same trunk drop too —
        a partition, not a port filter."""
        fabric = two_switch(eng)
        fabric.cut("a", "c")
        assert fabric.is_cut("a", "c")
        assert fabric.is_cut("b", "d")  # same trunk, also severed
        assert not fabric.is_cut("a", "b")  # same-switch traffic survives
        tx = fabric.transfer("b", "d", 10)
        assert tx.dropped
        fabric.heal("a", "c")
        assert not fabric.is_cut("b", "d")
        tx2, delivered = send(fabric, "b", "d", 10)
        eng.run(until=delivered)
        assert not tx2.dropped

    def test_same_switch_cut_stays_port_level(self, eng):
        fabric = two_switch(eng)
        fabric.cut("a", "b")
        assert fabric.is_cut("a", "b")
        assert not fabric.is_cut("a", "c")  # trunk untouched
        fabric.heal(None)
        assert not fabric.is_cut("a", "b")

    def test_overlapping_cuts_heal_by_refcount(self, eng):
        fabric = two_switch(eng)
        fabric.cut("a", "c")
        fabric.cut("b", "d")  # same trunk, second reference
        fabric.heal("a", "c")
        # The trunk stays down until the last cut over it is healed.
        assert fabric.is_cut("b", "d")
        fabric.heal("b", "d")
        assert not fabric.is_cut("b", "d")

    def test_slow_link_slows_the_trunk(self, eng):
        """set_link_delay on a cross-switch pair degrades the trunk on
        its route: other pairs crossing that trunk slow down with it."""
        fabric = two_switch(eng)
        fabric.set_link_delay("a", "c", 0.5)
        _, delivered = send(fabric, "b", "d", 1000)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(1.0025 + 0.5)
        fabric.set_link_delay("a", "c", 0.0)
        t0 = eng.now
        _, delivered = send(fabric, "b", "d", 1000)
        eng.run(until=delivered)
        assert eng.now - t0 == pytest.approx(1.0025)
