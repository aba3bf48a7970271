"""Tests for DMA engine, kernel registry, and device execution."""

import dataclasses
import os
import sys
import threading
import time

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
from repro.gpusim.device import KernelLaunch, OFFLOAD_MIN_S
from repro.sim import Engine
from repro.units import MiB, mib_per_s

#: A C1060 slowed down so that small real kernels model >= OFFLOAD_MIN_S.
SLOW = dataclasses.replace(TESLA_C1060, name="slow-c1060", dp_gflops=0.01,
                           mem_bw_Bps=1e6)


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def dev(eng):
    return GPUDevice(eng, TESLA_C1060)


@pytest.fixture
def cores(monkeypatch):
    """Set how many cores the offload rule sees available."""
    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
    return set_cores


def _raising(dev, params):
    def compute():
        raise KernelError("boom")
    return compute


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
        reg.register("k", lambda d, p: lambda: 0, lambda p, s: 1.0)
        assert "k" in reg
        assert reg.get("k").name == "k"

    def test_duplicate_rejected_unless_replace(self):
        reg = KernelRegistry()
        reg.register("k", lambda d, p: lambda: 0, lambda p, s: 1.0)
        with pytest.raises(KernelError):
            reg.register("k", lambda d, p: lambda: 1, lambda p, s: 2.0)
        reg.register("k", lambda d, p: lambda: 1, lambda p, s: 2.0, replace=True)

    def test_unknown_kernel(self):
        reg = KernelRegistry()
        with pytest.raises(KernelError, match="unknown kernel"):
            reg.get("nope")

    def test_clone_is_independent(self):
        reg = default_registry()
        c = reg.clone()
        c.register("extra", lambda d, p: lambda: 0, lambda p, s: 0.0)
        assert "extra" in c
        assert "extra" not in reg

    def test_negative_cost_rejected(self):
        reg = KernelRegistry()
        k = reg.register("bad", lambda d, p: lambda: 0, lambda p, s: -1.0)
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

    @pytest.mark.parametrize("alpha", [1.0, 1])
    def test_daxpy_with_unit_alpha_is_bit_identical_to_the_general_path(
            self, eng, dev, alpha):
        """``alpha == 1`` adds in place with no temporary; since
        ``x * 1.0 == x`` exactly, every bit matches the general path's
        ``y + x * alpha`` — signed zeros, infinities and NaN included."""
        inf = np.inf
        xs = np.array([-0.0, -0.0, 0.0, inf, -inf, inf, 1e308, 5e-324,
                       np.nan, 0.1, -2.5, 3.0])
        ys = np.array([-0.0, 0.0, -0.0, 1.0, 2.0, -inf, 1e308, -5e-324,
                       1.0, 0.2, 2.5, -inf])
        n = len(xs)
        x, y = dev.memory.malloc(8 * n), dev.memory.malloc(8 * n)
        dev.memory.write_array(x, xs)
        dev.memory.write_array(y, ys)
        t = np.empty(n)
        expected = ys.copy()
        launch = dev.launch("daxpy", {"x": x, "y": y, "n": n, "alpha": alpha})
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(xs, 1.0, out=t)
            np.add(expected, t, out=expected)
            eng.run()
        assert launch.value == 0
        got = dev.memory.read_array(y)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert np.signbit(got[0]) and not np.signbit(got[1])
        assert np.isnan(got[5]) and got[6] == inf

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
        assert dev.kernels_launched == 1
        # The raising launch takes 2 heap entries (its run, its failure)
        # and the good one 1, through the slice as on the device.
        assert next(eng._seq) == 3


#: Per std kernel at offload size on SLOW: buffer shapes, other params.
STD_LAUNCHES = {
    "fill": ({"dst": (256,)}, {"n": 256, "value": 2.5}),
    "daxpy": ({"x": (256,), "y": (256,)}, {"n": 256, "alpha": -1.5}),
    "dscal": ({"x": (256,)}, {"n": 256, "alpha": 0.3}),
    "ddot": ({"x": (256,), "y": (256,), "out": (1,)}, {"n": 256}),
    "dgemm": ({"A": (24, 16), "B": (20, 16), "C": (24, 20)},
              {"m": 24, "n": 20, "k": 16, "tb": True, "alpha": 0.5,
               "beta": 0.5}),
    "dsyrk": ({"A": (24, 16), "C": (24, 24)},
              {"n": 24, "k": 16, "alpha": -1.0, "beta": 1.0}),
    "dtrsm": ({"T": (8, 8), "B": (24, 8)}, {"m": 24, "nb": 8}),
}


class TestOffload:
    """A long real launch binds at its grant and computes on a worker;
    the result, the completion time and the failure timing are those of
    the inline path."""

    @staticmethod
    def _run_std(name):
        eng = Engine()
        dev = GPUDevice(eng, SLOW)
        rng = np.random.default_rng(5)
        shapes, params = STD_LAUNCHES[name]
        addrs = {}
        for key, shape in shapes.items():
            arr = rng.standard_normal(shape)
            if key == "T":
                arr = np.tril(arr) + 8 * np.eye(shape[0])
            addrs[key] = dev.memory.malloc(arr.nbytes)
            dev.memory.write_array(addrs[key], arr)
        params = {**params, **addrs}
        assert dev.registry.get(name).cost(params, SLOW) >= OFFLOAD_MIN_S
        done = dev.launch(name, params)
        offloaded = dev.memory.inflight is not None
        eng.run()
        assert done.ok and done.value == 0
        return offloaded, {key: dev.memory.read_array(addr)
                           for key, addr in addrs.items()}

    @pytest.mark.parametrize("name", sorted(STD_LAUNCHES))
    def test_std_kernel_offloaded_is_bit_identical_to_inline(
            self, cores, name):
        cores(1)
        offloaded, inline = self._run_std(name)
        assert not offloaded
        cores(2)
        offloaded, pooled = self._run_std(name)
        assert offloaded
        for key, arr in inline.items():
            assert np.array_equal(pooled[key], arr), key

    def test_many_devices_under_a_short_switch_interval(self, cores):
        """Eight devices computing dependent launch chains at once, with
        the interpreter switching threads every microsecond, end exactly
        as the one-core schedule does."""
        def run():
            eng = Engine()
            ends = []
            for i in range(8):
                dev = GPUDevice(eng, SLOW)
                x, y = dev.memory.malloc(8 * 256), dev.memory.malloc(8 * 256)
                dev.memory.write_array(x, np.arange(256.0) * (i + 1))
                dev.memory.write_array(y, np.ones(256))
                for _ in range(4):
                    dev.launch("daxpy", {"x": x, "y": y, "n": 256,
                                         "alpha": 0.5})
                dev.launch("dscal", {"x": y, "n": 256, "alpha": 1.5})
                ends.append((dev, y))
            eng.run()
            return [dev.memory.read_array(y) for dev, y in ends]

        cores(1)
        want = run()
        cores(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run()
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("n, on_worker", [(1, False), (2, True)])
    def test_the_body_runs_on_a_worker_only_with_two_cores(
            self, eng, cores, n, on_worker):
        cores(n)
        dev = GPUDevice(eng, SLOW)
        threads = []

        def probe(d, p):
            def compute():
                threads.append(threading.get_ident())
                return 0
            return compute

        dev.registry.register("probe", probe, lambda p, s: 0.01)
        done = dev.launch("probe", {})
        assert (dev.memory.inflight is not None) == on_worker
        eng.run()
        assert done.ok and len(threads) == 1
        assert (threads[0] != threading.get_ident()) == on_worker

    @pytest.mark.parametrize("fault", ["bind", "compute"])
    def test_a_failure_fails_the_event_at_completion(self, eng, cores,
                                                     fault):
        cores(2)
        dev = GPUDevice(eng, SLOW)
        dev.registry.register("boom", _raising, lambda p, s: 0.01)
        x = dev.memory.malloc(32)
        name, params = (("fill", {"dst": 0xdead, "n": 256, "value": 1.0})
                        if fault == "bind" else ("boom", {}))
        bad = dev.launch(name, params)
        good = dev.launch("fill", {"dst": x, "n": 4, "value": 2.0})
        assert not bad.triggered        # a bind error is held until then
        failed_at = []
        bad.add_callback(lambda _ev: failed_at.append(eng.now))
        eng.run()
        assert failed_at == [SLOW.launch_overhead_s
                             + dev.registry.get(name).cost(params, SLOW)]
        assert not bad.ok and isinstance(
            bad.value, DeviceMemoryError if fault == "bind" else KernelError)
        assert good.ok and good.value == 0
        np.testing.assert_array_equal(
            dev.memory.view(x, dtype="float64", shape=(4,)), np.full(4, 2.0))
        assert dev.kernels_launched == 1

    def test_a_launch_queued_behind_an_inline_body_binds_after_it(
            self, eng, cores):
        """The body completes before the compute engine is released, so a
        queued offloaded launch computes over what it wrote."""
        cores(2)
        dev = GPUDevice(eng, SLOW)

        def slow_fill(d, p):      # inline (modeled 1 us), slow in real time
            view = d.memory.view(p["dst"], dtype="float64", shape=(256,))

            def compute():
                time.sleep(0.05)
                view[:] = 3.0
                return 0
            return compute

        dev.registry.register("slow_fill", slow_fill, lambda p, s: 1e-6)
        x, y = dev.memory.malloc(8 * 256), dev.memory.malloc(8 * 256)
        dev.memory.write_array(x, np.zeros(256))
        dev.memory.write_array(y, np.zeros(256))
        dev.launch("slow_fill", {"dst": x})
        done = dev.launch("daxpy", {"x": x, "y": y, "n": 256, "alpha": 1.0})
        eng.run()
        assert done.ok
        np.testing.assert_array_equal(dev.memory.read_array(y),
                                      np.full(256, 3.0))

    @pytest.mark.parametrize("access", ["read", "free"])
    def test_a_loop_access_waits_for_the_body_in_flight(self, eng, cores,
                                                        access):
        cores(2)
        dev = GPUDevice(eng, SLOW)
        gate = threading.Event()

        def gated_fill(d, p):
            view = d.memory.view(p["dst"], dtype="float64", shape=(4,))

            def compute():
                gate.wait(timeout=10)
                view[:] = 7.0
                return 0
            return compute

        dev.registry.register("gated_fill", gated_fill, lambda p, s: 0.01)
        x = dev.memory.malloc(32)
        dev.memory.write_array(x, np.zeros(4))
        done = dev.launch("gated_fill", {"dst": x})
        body = dev.memory.inflight
        assert body is not None and not body.done()
        opener = threading.Timer(0.05, gate.set)
        opener.start()
        try:
            if access == "read":
                np.testing.assert_array_equal(
                    dev.memory.read(x).view(np.float64), np.full(4, 7.0))
            else:
                dev.memory.free(x)
                assert dev.memory.n_allocations == 0
            assert body.done() and dev.memory.inflight is None
        finally:
            gate.set()
            opener.join(timeout=10)
        assert not opener.is_alive()
        eng.run()
        assert done.ok and done.value == 0


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

    def test_an_offloaded_launch_is_one_heap_entry(self, eng, cores):
        cores(2)
        dev = GPUDevice(eng, SLOW)
        x = dev.memory.malloc(8 * 256)
        params = {"dst": x, "n": 256, "value": 1.0}
        done = dev.launch("fill", params)
        assert dev.memory.inflight is not None
        eng.run()
        assert done.ok and next(eng._seq) == 1
        assert eng.now == (SLOW.launch_overhead_s
                           + dev.registry.get("fill").cost(params, SLOW))

    def test_a_virtual_gpu_launch_is_one_heap_entry(self, eng, dev):
        vgpu = dev.virtualize("t0")
        done = vgpu.launch("dgemm", self.PARAMS, real=False)
        eng.run()
        assert done.processed and dev.kernels_launched == 1
        assert next(eng._seq) == 1

    def test_a_launch_is_one_object(self):
        """One constructor per launch: the launch is its own completion
        event, its grant and finish are its methods.  (It was two
        events, ``ran`` and ``done``, plus two closures.)
        ``sys.setprofile`` ``__init__`` calls, a 40- minus a 20-launch
        run."""
        assert (self._inits(40, False) - self._inits(20, False)) / 20 == 1

    def test_a_slice_launch_is_one_object(self):
        """A virtual GPU's launch is the device's: one ``KernelLaunch``.
        (The slice's time slicer added a ``done`` event and a closure.)"""
        vgpu = GPUDevice(Engine(), TESLA_C1060).virtualize("t0")
        assert type(vgpu.launch("dgemm", self.PARAMS,
                                real=False)) is KernelLaunch
        assert (self._inits(40, True) - self._inits(20, True)) / 20 == 1

    def _inits(self, n, virtual):
        dev = GPUDevice(Engine(), TESLA_C1060)
        target = dev.virtualize("t0") if virtual else dev
        count = 0

        def hook(frame, event, _arg):
            nonlocal count
            if event == "call" and frame.f_code.co_name == "__init__":
                count += 1

        sys.setprofile(hook)
        try:
            for _ in range(n):
                target.launch("dgemm", self.PARAMS, real=False)
            dev.engine.run()
        finally:
            sys.setprofile(None)
        return count

    def test_a_launch_reads_pending_until_it_has_run(self, eng, dev):
        done = dev.launch("dgemm", self.PARAMS, real=False)
        assert not (done.triggered or done.processed)
        eng.run()
        assert done.ok and done.processed and done.value is None


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
