"""Tests for GPU virtualization: partitions, the slice's launch, revocation."""

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
        v = dev.virtualize("v0")
        assert v.device is dev
        assert v.memory.memory is dev.memory

    def test_launch_runs_real_kernel(self, eng, dev):
        v = dev.virtualize("v0")
        addr = v.memory.malloc(8 * 16)
        x = dev.memory.view(addr, dtype="float64", shape=(16,))
        x[:] = 2.0
        ev = v.launch("dscal", {"x": addr, "n": 16, "alpha": 3.0})
        eng.run(until=ev)
        np.testing.assert_array_equal(x, np.full(16, 6.0))
        assert dev.kernels_launched == 1
        assert dev.busy_time > 0

    def test_slice_and_device_launches_finish_in_submission_order(
            self, eng, dev):
        # A slice's launch is the device's launch: one compute engine,
        # first come first served, whoever submitted it.
        a = dev.virtualize("a")
        b = dev.virtualize("b")
        order = []
        for i, target in enumerate((a, dev, b, b, dev, a)):
            target.launch("fill", {"n": 256, "value": 0.0, "dst": 0},
                          real=False).add_callback(
                lambda _e, i=i: order.append(i))
        eng.run()
        assert order == list(range(6))
        assert dev.kernels_launched == 6

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
