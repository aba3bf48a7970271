"""Tests for GPU virtualization: partitions, WFQ time-slicing, revocation."""

import numpy as np
import pytest

from repro.errors import DeviceMemoryError, GPUError
from repro.gpusim import GPUDevice, MemoryPartition, TESLA_C1060
from repro.sim import Engine
from repro.units import MiB


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def dev(eng):
    return GPUDevice(eng, TESLA_C1060)


class TestMemoryPartition:
    def test_ownership(self, dev):
        p1 = MemoryPartition(dev.memory, name="a")
        p2 = MemoryPartition(dev.memory, name="b")
        addr = p1.malloc(1024)
        assert p1.owns(addr)
        assert not p2.owns(addr)
        with pytest.raises(DeviceMemoryError):
            p2.free(addr)
        p1.free(addr)
        assert not p1.owns(addr)

    def test_release_all(self, dev):
        part = MemoryPartition(dev.memory, name="t")
        addrs = [part.malloc(MiB), part.malloc(MiB)]
        freed = part.release_all()
        assert freed == 2 * MiB
        assert not any(part.owns(a) for a in addrs)
        assert dev.memory.used_bytes == 0


class TestVirtualize:
    def test_virtualize_shares_device(self, dev):
        v = dev.virtualize("v0", share=2.0)
        assert v.device is dev
        assert v.share == 2.0
        assert v.memory.memory is dev.memory
        assert v.spec is dev.spec

    def test_launch_runs_real_kernel(self, eng, dev):
        v = dev.virtualize("v0")
        addr = v.memory.malloc(8 * 16)
        x = dev.memory.view(addr, dtype="float64", shape=(16,))
        x[:] = 2.0
        ev = v.launch("dscal", {"x": addr, "n": 16, "alpha": 3.0})
        eng.run(until=ev)
        np.testing.assert_array_equal(x, np.full(16, 6.0))
        assert v.kernels_launched == 1
        assert v.busy_time > 0

    def test_wfq_shares_drive_throughput(self, eng, dev):
        # Backlogged 2:1 shares: the heavy tenant finishes its batch of
        # equal-cost kernels in roughly half the fast tenant's span.
        heavy = dev.virtualize("heavy", share=2.0)
        light = dev.virtualize("light", share=1.0)
        n = 1 << 16
        done = {}

        def _finish(name):
            def cb(_ev, name=name):
                done[name] = eng.now
            return cb

        for vg, label in ((heavy, "heavy"), (light, "light")):
            last = None
            for i in range(12):
                last = vg.launch("dscal", {"n": n, "alpha": 1.0, "x": 0},
                                 real=False)
            last.add_callback(_finish(label))
        eng.run()
        assert done["heavy"] < done["light"]
        # Start-time fair queueing: the heavy tenant's 12th launch lands
        # around 2/3 through the combined busy period.
        assert done["heavy"] / done["light"] == pytest.approx(2 / 3, rel=0.15)

    def test_slicer_deterministic_tie_break(self, eng, dev):
        a = dev.virtualize("a", share=1.0)
        b = dev.virtualize("b", share=1.0)
        order = []
        for i in range(3):
            a.launch("fill", {"n": 256, "value": 0.0, "dst": 0},
                     real=False).add_callback(lambda _e, i=i: order.append(("a", i)))
            b.launch("fill", {"n": 256, "value": 0.0, "dst": 0},
                     real=False).add_callback(lambda _e, i=i: order.append(("b", i)))
        eng.run()
        # Equal shares, equal costs: submission order wins every tie.
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                         ("a", 2), ("b", 2)]

    def test_revoke_frees_memory_and_blocks_launches(self, eng, dev):
        v = dev.virtualize("v0")
        v.memory.malloc(MiB)
        v.memory.malloc(MiB)
        freed = v.revoke()
        assert freed == 2 * MiB
        assert dev.memory.used_bytes == 0
        assert v.revoked
        with pytest.raises(GPUError, match="revoked"):
            v.launch("fill", {"n": 1, "value": 0.0, "dst": 0}, real=False)

    def test_sibling_survives_revocation(self, eng, dev):
        doomed = dev.virtualize("doomed")
        keeper = dev.virtualize("keeper")
        kaddr = keeper.memory.malloc(1024)
        doomed.memory.malloc(1024)
        doomed.revoke()
        assert keeper.memory.owns(kaddr)
        ev = keeper.launch("fill", {"n": 128, "value": 1.0, "dst": kaddr})
        eng.run(until=ev)
        out = dev.memory.view(kaddr, dtype="float64", shape=(128,))
        np.testing.assert_array_equal(out, np.ones(128))
