"""Unit tests for the switched fabric."""

import pytest

from repro.errors import NetworkError
from repro.netsim import Fabric, IB_QDR_MPI, LinkModel
from repro.sim import Engine
from repro.units import MiB

from .conftest import send

# A round-number model so expected times are easy to compute by hand.
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


@pytest.fixture
def fabric(eng):
    f = Fabric(eng, SIMPLE)
    f.add_endpoint("a")
    f.add_endpoint("b")
    f.add_endpoint("c")
    return f


class TestFabricBasics:
    def test_uncontended_transfer_time(self, eng, fabric):
        _, delivered = send(fabric, "a", "b", 1000)
        eng.run(until=delivered)
        # injection 0.0005 + wire 1.0 + latency 0.001
        assert eng.now == pytest.approx(1.0015)

    def test_injected_fires_before_delivered(self, eng, fabric):
        tx, delivered = send(fabric, "a", "b", 1000)
        eng.run(until=tx)
        t_inj = eng.now
        assert not delivered.triggered
        eng.run(until=delivered)
        assert t_inj == pytest.approx(0.0005)
        assert eng.now > t_inj

    def test_zero_byte_message_costs_overheads_only(self, eng, fabric):
        _, delivered = send(fabric, "a", "b", 0)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(0.0015)

    def test_loopback_has_no_latency(self, eng, fabric):
        _, delivered = send(fabric, "a", "a", 1000)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(0.0005 + 1.0)

    def test_duplicate_endpoint_rejected(self, eng, fabric):
        with pytest.raises(NetworkError):
            fabric.add_endpoint("a")

    def test_unknown_endpoint_rejected(self, fabric):
        with pytest.raises(NetworkError):
            fabric.transfer("a", "zzz", 10)

    def test_negative_size_rejected(self, fabric):
        with pytest.raises(NetworkError):
            fabric.transfer("a", "b", -1)

    def test_foreign_endpoint_rejected(self, eng, fabric):
        other = Fabric(eng, SIMPLE)
        ep = other.add_endpoint("x")
        with pytest.raises(NetworkError):
            fabric.transfer(fabric.endpoint("a"), ep, 10)

    def test_accounting(self, eng, fabric):
        _, d1 = send(fabric, "a", "b", 500)
        _, d2 = send(fabric, "b", "c", 300)
        eng.run()
        assert fabric.bytes_moved == 800
        assert fabric.messages_sent == 2
        assert d1.processed and d2.processed


class TestFabricContention:
    def test_two_senders_one_receiver_share_rx(self, eng, fabric):
        # Both flows of 1000 B converge on c's RX share (1000 B/s):
        # each runs at ~500 B/s -> ~2s wire time.
        _, done1 = send(fabric, "a", "c", 1000)
        _, done2 = send(fabric, "b", "c", 1000)
        eng.run()
        assert done1.processed and done2.processed
        assert eng.now == pytest.approx(2.0 + 0.0005 + 0.001, rel=0.01)

    def test_one_sender_two_receivers_serialize_at_nic(self, eng, fabric):
        _, d1 = send(fabric, "a", "b", 1000)
        _, d2 = send(fabric, "a", "c", 1000)
        eng.run(until=d1)
        # First message drains at full rate.
        assert eng.now == pytest.approx(1.0015, rel=0.01)
        eng.run()
        assert d2.processed
        # Second queued behind the first at a's NIC.
        assert eng.now == pytest.approx(2.0 + 2 * 0.0005 + 0.001, rel=0.01)

    def test_disjoint_pairs_do_not_interfere(self, eng):
        f = Fabric(eng, SIMPLE)
        for n in "abcd":
            f.add_endpoint(n)
        _, d1 = send(f, "a", "b", 1000)
        _, d2 = send(f, "c", "d", 1000)
        eng.run()
        assert d1.processed and d2.processed
        # Full crossbar: both complete in single-flow time.
        assert eng.now == pytest.approx(1.0015, rel=0.01)

    def test_duplex_directions_independent(self, eng, fabric):
        _, d1 = send(fabric, "a", "b", 1000)
        _, d2 = send(fabric, "b", "a", 1000)
        eng.run()
        assert d1.processed and d2.processed
        assert eng.now == pytest.approx(1.0015, rel=0.01)

    def test_incast_scales_with_sender_count(self, eng):
        # k senders converging on one receiver drain in ~k x single time:
        # the receiver's RX share is the bottleneck, not the senders.
        f = Fabric(eng, SIMPLE)
        for n in "abcdz":
            f.add_endpoint(n)
        arrivals = [send(f, src, "z", 1000)[1] for src in "abcd"]
        eng.run()
        assert all(d.processed for d in arrivals)
        assert eng.now == pytest.approx(4.0 + 0.0005 + 0.001, rel=0.01)

    def test_nic_injection_serialized(self, eng, fabric):
        # 100 zero-byte messages from the same NIC: injections serialize.
        arrivals = [send(fabric, "a", "b", 0)[1] for _ in range(100)]
        eng.run()
        assert all(d.processed for d in arrivals)
        assert eng.now == pytest.approx(100 * 0.0005 + 0.001, rel=0.01)


class TestEventBudget:
    """Heap entries are counted as ``engine._seq`` draws: a flow schedules
    its physical boundaries and nothing in between (no event for the NIC
    grant, none for the drain of the receiver's share)."""

    def test_one_transfer_is_three_heap_entries(self, eng, fabric):
        tx, delivered = send(fabric, "a", "b", 1000)
        eng.run()
        assert tx.processed and delivered.processed
        assert next(eng._seq) == 3     # injected, share timer, delivered

    def test_message_queued_on_the_nic_costs_the_same(self, eng, fabric):
        t1 = fabric.transfer("a", "b", 1000)
        t2 = fabric.transfer("a", "c", 1000)
        assert t1.triggered and not t2.triggered
        eng.run()
        assert next(eng._seq) == 6
        # Granted from t1's release: back to back, one latency at the end.
        assert eng.now == pytest.approx(2 * (0.0005 + 1.0) + 0.001)

    def test_zero_byte_and_dropped_flows_cost_less(self, eng, fabric):
        fabric.transfer("a", "b", 0)   # injected, delivered: no share
        eng.run()
        assert next(eng._seq) == 2
        fabric.cut("a", "b")
        tx, delivered = send(fabric, "a", "b", 1000)
        _, queued = send(fabric, "a", "c", 0)
        eng.run()
        # The drop pays its injection (+1), frees the NIC at the cut and
        # so grants the queued message (+2).
        assert tx.processed and not delivered.triggered
        assert queued.processed
        assert next(eng._seq) == 3 + 1 + 2


class TestFabricRealistic:
    def test_ib_qdr_64mib_matches_model(self, eng):
        f = Fabric(eng, IB_QDR_MPI)
        f.add_endpoint("cn0")
        f.add_endpoint("ac0")
        _, delivered = send(f, "cn0", "ac0", 64 * MiB)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(IB_QDR_MPI.message_time(64 * MiB), rel=1e-6)
