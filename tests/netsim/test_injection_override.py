"""Tests for per-message injection-cost overrides on the fabric."""

import pytest

from repro.errors import NetworkError
from repro.netsim import Fabric, LinkModel
from repro.sim import Engine

from .conftest import send

MODEL = LinkModel("ovr", latency_s=0.0, bandwidth_Bps=1000.0,
                  injection_overhead_s=0.01, rendezvous_threshold=0)


@pytest.fixture
def rig():
    eng = Engine()
    f = Fabric(eng, MODEL)
    f.add_endpoint("a")
    f.add_endpoint("b")
    return eng, f


class TestInjectionOverride:
    def test_default_uses_model(self, rig):
        eng, f = rig
        _, delivered = send(f, "a", "b", 0)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(0.01)

    def test_override_larger(self, rig):
        eng, f = rig
        _, delivered = send(f, "a", "b", 0, injection_s=0.5)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(0.5)

    def test_override_zero(self, rig):
        eng, f = rig
        _, delivered = send(f, "a", "b", 1000, injection_s=0.0)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(1.0)

    def test_negative_override_rejected(self, rig):
        _, f = rig
        with pytest.raises(NetworkError, match="injection override"):
            f.transfer("a", "b", 10, injection_s=-1.0)

    def test_override_serializes_at_nic(self, rig):
        # The override is charged inside the NIC hold, so back-to-back
        # messages space out accordingly.
        eng, f = rig
        f.transfer("a", "b", 0, injection_s=0.2)
        _, delivered = send(f, "a", "b", 0, injection_s=0.2)
        eng.run(until=delivered)
        assert eng.now == pytest.approx(0.4)

    def test_isend_passes_override_through(self):
        from repro.mpisim import World
        eng = Engine()
        f = Fabric(eng, MODEL)
        eps = [f.add_endpoint("x"), f.add_endpoint("y")]
        comm = World(eng, f).create_comm(eps)
        r0, r1 = comm.rank(0), comm.rank(1)

        def receiver():
            msg = yield from r1.recv()
            return eng.now

        r0.isend(1, tag=0, payload=None, injection_s=0.3)
        p = eng.process(receiver())
        assert eng.run(until=p) == pytest.approx(0.3 + 64 / 1000.0)
