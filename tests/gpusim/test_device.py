"""Tests for DMA engine, kernel registry, and device execution."""

import numpy as np
import pytest

from repro.errors import DeviceMemoryError, GPUError, KernelError
from repro.gpusim import (
    DMAEngine,
    GPUDevice,
    GPUSpec,
    KernelRegistry,
    PCIeModel,
    PCIE_GEN2_X16,
    TESLA_C1060,
    default_registry,
)
from repro.sim import Engine
from repro.units import MiB, mib_per_s


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def dev(eng):
    return GPUDevice(eng, TESLA_C1060)


class TestPCIeModel:
    def test_pinned_faster_than_pageable(self):
        m = PCIE_GEN2_X16
        for n in (64 * 1024, MiB, 64 * MiB):
            assert m.copy_time(n, pinned=True) < m.copy_time(n, pinned=False)

    def test_peak_bandwidths_match_paper(self):
        m = PCIE_GEN2_X16
        assert mib_per_s(m.effective_bandwidth(64 * MiB, pinned=True)) == pytest.approx(5700, rel=0.02)
        assert mib_per_s(m.effective_bandwidth(64 * MiB, pinned=False)) == pytest.approx(4700, rel=0.02)

    def test_setup_dominates_small_copies(self):
        m = PCIE_GEN2_X16
        assert m.copy_time(1, pinned=True) == pytest.approx(m.dma_setup_s, rel=0.01)

    def test_validation(self):
        with pytest.raises(GPUError):
            PCIeModel("bad", 0, 1, 0, 0)
        with pytest.raises(GPUError):
            PCIeModel("bad", 1, 1, -1, 0)
        with pytest.raises(GPUError):
            PCIE_GEN2_X16.copy_time(-5)


class TestDMAEngine:
    def test_copy_takes_model_time(self, eng):
        dma = DMAEngine(eng, PCIE_GEN2_X16)

        def proc():
            yield dma.copy(16 * MiB, pinned=True)
            return eng.now

        p = eng.process(proc())
        assert eng.run(until=p) == pytest.approx(PCIE_GEN2_X16.copy_time(16 * MiB, True))

    def test_copies_serialize(self, eng):
        dma = DMAEngine(eng, PCIE_GEN2_X16)

        def proc():
            a = dma.copy(MiB)
            b = dma.copy(MiB)
            yield eng.all_of([a, b])
            return eng.now

        p = eng.process(proc())
        assert eng.run(until=p) == pytest.approx(2 * PCIE_GEN2_X16.copy_time(MiB, True))

    def test_accounting(self, eng):
        dma = DMAEngine(eng, PCIE_GEN2_X16)

        def proc():
            yield dma.copy(1000)
            yield dma.copy(2000, pinned=False)

        eng.run(until=eng.process(proc()))
        assert dma.transfers == 2
        assert dma.bytes_copied == 3000
        assert dma.busy_time > 0


class TestKernelRegistry:
    def test_register_and_get(self):
        reg = KernelRegistry()
        reg.register("k", lambda d, p: 0, lambda p, s: 1.0)
        assert "k" in reg
        assert reg.get("k").name == "k"

    def test_duplicate_rejected_unless_replace(self):
        reg = KernelRegistry()
        reg.register("k", lambda d, p: 0, lambda p, s: 1.0)
        with pytest.raises(KernelError):
            reg.register("k", lambda d, p: 1, lambda p, s: 2.0)
        reg.register("k", lambda d, p: 1, lambda p, s: 2.0, replace=True)

    def test_unknown_kernel(self):
        reg = KernelRegistry()
        with pytest.raises(KernelError, match="unknown kernel"):
            reg.get("nope")

    def test_clone_is_independent(self):
        reg = default_registry()
        c = reg.clone()
        c.register("extra", lambda d, p: 0, lambda p, s: 0.0)
        assert "extra" in c
        assert "extra" not in reg

    def test_negative_cost_rejected(self):
        reg = KernelRegistry()
        k = reg.register("bad", lambda d, p: 0, lambda p, s: -1.0)
        with pytest.raises(KernelError, match="negative cost"):
            k.cost({}, TESLA_C1060)

    def test_default_registry_contents(self):
        names = default_registry().names()
        for expected in ("fill", "daxpy", "dscal", "ddot", "dgemm", "dsyrk", "dtrsm"):
            assert expected in names


class TestDeviceExecution:
    def test_daxpy_computes(self, eng, dev):
        n = 100
        x = dev.memory.malloc(8 * n)
        y = dev.memory.malloc(8 * n)
        dev.memory.write_array(x, np.full(n, 2.0))
        dev.memory.write_array(y, np.full(n, 1.0))

        def proc():
            rc = yield dev.launch("daxpy", {"x": x, "y": y, "n": n, "alpha": 3.0})
            return rc

        rc = eng.run(until=eng.process(proc()))
        assert rc == 0
        np.testing.assert_allclose(dev.memory.read_array(y), np.full(n, 7.0))

    def test_dgemm_matches_numpy(self, eng, dev):
        rng = np.random.default_rng(1)
        m, n, k = 12, 9, 7
        A, B = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        C = rng.standard_normal((m, n))
        pa, pb, pc = (dev.memory.malloc(arr.nbytes) for arr in (A, B, C))
        dev.memory.write_array(pa, A)
        dev.memory.write_array(pb, B)
        dev.memory.write_array(pc, C)

        def proc():
            yield dev.launch("dgemm", {"A": pa, "B": pb, "C": pc,
                                       "m": m, "n": n, "k": k,
                                       "alpha": 2.0, "beta": 0.5})

        eng.run(until=eng.process(proc()))
        np.testing.assert_allclose(dev.memory.read_array(pc), 2.0 * A @ B + 0.5 * C)

    def test_dgemm_transposed_operands(self, eng, dev):
        rng = np.random.default_rng(2)
        m, n, k = 6, 5, 4
        At = rng.standard_normal((k, m))  # stored transposed
        B = rng.standard_normal((k, n))
        C = np.zeros((m, n))
        pa, pb, pc = (dev.memory.malloc(arr.nbytes) for arr in (At, B, C))
        dev.memory.write_array(pa, At)
        dev.memory.write_array(pb, B)
        dev.memory.write_array(pc, C)

        def proc():
            yield dev.launch("dgemm", {"A": pa, "B": pb, "C": pc,
                                       "m": m, "n": n, "k": k,
                                       "ta": True, "beta": 0.0})

        eng.run(until=eng.process(proc()))
        np.testing.assert_allclose(dev.memory.read_array(pc), At.T @ B)

    def test_dtrsm_solves(self, eng, dev):
        rng = np.random.default_rng(3)
        nb, m = 5, 8
        T = np.tril(rng.standard_normal((nb, nb))) + 5 * np.eye(nb)
        X = rng.standard_normal((m, nb))
        B = X @ T.T  # so the solve must recover X
        pt, pb = dev.memory.malloc(T.nbytes), dev.memory.malloc(B.nbytes)
        dev.memory.write_array(pt, T)
        dev.memory.write_array(pb, B)

        def proc():
            yield dev.launch("dtrsm", {"T": pt, "B": pb, "m": m, "nb": nb})

        eng.run(until=eng.process(proc()))
        np.testing.assert_allclose(dev.memory.read_array(pb), X, atol=1e-10)

    def test_timed_mode_charges_time_without_numerics(self, eng, dev):
        def proc():
            yield dev.launch("dgemm", {"A": 0, "B": 0, "C": 0,
                                       "m": 2048, "n": 2048, "k": 2048},
                             real=False)
            return eng.now

        t = eng.run(until=eng.process(proc()))
        # 2*2048^3 flops at ~62 GF/s is a fraction of a second.
        assert 0.1 < t < 1.0
        assert dev.kernels_launched == 1

    def test_kernels_serialize_on_device(self, eng, dev):
        def proc():
            a = dev.launch("dgemm", {"A": 0, "B": 0, "C": 0, "m": 512, "n": 512, "k": 512}, real=False)
            b = dev.launch("dgemm", {"A": 0, "B": 0, "C": 0, "m": 512, "n": 512, "k": 512}, real=False)
            yield eng.all_of([a, b])
            return eng.now

        t2 = eng.run(until=eng.process(proc()))
        eng2 = Engine()
        dev2 = GPUDevice(eng2, TESLA_C1060)

        def solo():
            yield dev2.launch("dgemm", {"A": 0, "B": 0, "C": 0, "m": 512, "n": 512, "k": 512}, real=False)
            return eng2.now

        t1 = eng2.run(until=eng2.process(solo()))
        assert t2 == pytest.approx(2 * t1, rel=0.01)

    def test_missing_param_raises(self, eng, dev):
        with pytest.raises(KernelError, match="missing kernel parameter"):
            dev.launch("daxpy", {"x": 0})

    def test_utilization_accounting(self, eng, dev):
        def proc():
            yield dev.launch("dgemm", {"A": 0, "B": 0, "C": 0, "m": 256, "n": 256, "k": 256}, real=False)
            yield eng.timeout(10.0)

        eng.run(until=eng.process(proc()))
        assert 0 < dev.utilization() < 0.2

    @pytest.mark.parametrize("virtual", [False, True], ids=["device", "vgpu"])
    def test_raising_kernel_fails_its_event_and_frees_the_device(
            self, eng, dev, virtual):
        target = dev.virtualize("t0") if virtual else dev
        x = dev.memory.malloc(32)
        bad = target.launch("fill", {"dst": 0xdead, "n": 4, "value": 1.0})
        good = target.launch("fill", {"dst": x, "n": 4, "value": 2.0})
        eng.run()
        assert not bad.ok and isinstance(bad.value, DeviceMemoryError)
        assert good.ok and good.value == 0
        np.testing.assert_array_equal(
            dev.memory.view(x, dtype="float64", shape=(4,)), np.full(4, 2.0))
        assert dev.kernels_launched == target.kernels_launched == 1


class TestEventBudget:
    """A launch is one heap entry, like a DMA copy: the compute grant is
    a call (now, or from the previous kernel's release) and the
    completion resumes its waiters in place."""

    PARAMS = {"A": 0, "B": 0, "C": 0, "m": 64, "n": 64, "k": 64}

    def test_an_uncontended_launch_is_one_heap_entry(self, eng, dev):
        done = dev.launch("dgemm", self.PARAMS, real=False)
        eng.run()
        assert done.processed and dev.kernels_launched == 1
        assert next(eng._seq) == 1

    def test_back_to_back_launches_cost_one_each(self, eng, dev):
        one = (TESLA_C1060.launch_overhead_s
               + dev.registry.get("dgemm").cost(self.PARAMS, TESLA_C1060))
        finished = []
        for i in range(4):
            dev.launch("dgemm", self.PARAMS, real=False).add_callback(
                lambda _ev, i=i: finished.append((i, eng.now)))
        eng.run()
        assert [i for i, _ in finished] == [0, 1, 2, 3]
        assert [at for _, at in finished] == pytest.approx(
            [one * (i + 1) for i in range(4)])
        assert next(eng._seq) == 4

    def test_a_virtual_gpu_launch_is_one_heap_entry(self, eng, dev):
        vgpu = dev.virtualize("t0")
        done = vgpu.launch("dgemm", self.PARAMS, real=False)
        eng.run()
        assert done.processed and vgpu.kernels_launched == 1
        assert next(eng._seq) == 1


class TestGPUSpec:
    def test_c1060_peak(self):
        assert TESLA_C1060.dp_gflops == 78.0

    def test_flops_time(self):
        t = TESLA_C1060.flops_time(78e9, efficiency=1.0)
        assert t == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(GPUError):
            GPUSpec("bad", 0, 0.5, 1, 1, 0, PCIE_GEN2_X16)
        with pytest.raises(GPUError):
            GPUSpec("bad", 1, 1.5, 1, 1, 0, PCIE_GEN2_X16)
        with pytest.raises(GPUError):
            GPUSpec("bad", 1, 0.5, 1, 1, -1, PCIE_GEN2_X16)
