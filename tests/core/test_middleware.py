"""End-to-end middleware tests: the full front-end -> MPI -> daemon -> GPU path."""

import os

import numpy as np
import pytest

from repro.core import NAIVE_TRANSFER, TransferConfig, pipeline
from repro.errors import KernelError, MiddlewareError
from repro.mpisim import Phantom
from repro.units import KiB, MiB
from repro.core.api import run_parallel

from ..harness import register_tenants


def _raising(dev, params):
    def compute():
        raise KernelError("boom")
    return compute


@pytest.fixture
def ac(cluster, sess):
    """One allocated RemoteAccelerator front-end."""
    client = cluster.arm_client(0)
    handles = sess.call(client.alloc(count=1))
    return cluster.remote(0, handles[0])


class TestMemoryOps:
    def test_alloc_and_free(self, cluster, sess, ac):
        ptr = sess.call(ac.mem_alloc(1024))
        gpu = cluster.accelerator_for_handle(ac.handle).gpu
        assert gpu.memory.used_bytes == 1024
        sess.call(ac.mem_free(ptr))
        assert gpu.memory.used_bytes == 0

    def test_alloc_oom_raises_remotely(self, cluster, sess, ac):
        with pytest.raises(MiddlewareError, match="out of device memory"):
            sess.call(ac.mem_alloc(100 * 1024**3))

    def test_free_bad_pointer(self, sess, ac):
        with pytest.raises(MiddlewareError, match="unknown device address"):
            sess.call(ac.mem_free(0xdead))

    def test_operations_cost_virtual_time(self, sess, ac):
        t0 = sess.now
        sess.call(ac.mem_alloc(1024))
        # request + reply latency plus malloc cost: microseconds, not zero.
        assert sess.now - t0 > 5e-6


class TestMemcpyRoundTrip:
    @pytest.mark.parametrize("cfg", [
        NAIVE_TRANSFER,
        pipeline(128 * KiB),
        pipeline(64 * KiB),
        None,  # default adaptive
    ])
    def test_h2d_d2h_roundtrip_preserves_data(self, sess, ac, cfg):
        rng = np.random.default_rng(7)
        data = rng.standard_normal(int(0.5 * MiB / 8))  # 0.5 MiB of doubles
        ptr = sess.call(ac.mem_alloc(data.nbytes))
        sess.call(ac.memcpy_h2d(ptr, data, transfer=cfg))
        out = sess.call(ac.memcpy_d2h(ptr, data.nbytes, transfer=cfg))
        assert out.dtype == data.dtype
        np.testing.assert_array_equal(out, data)

    def test_roundtrip_preserves_2d_shape(self, sess, ac):
        data = np.arange(64, dtype=np.float64).reshape(8, 8)
        ptr = sess.call(ac.mem_alloc(data.nbytes))
        sess.call(ac.memcpy_h2d(ptr, data))
        out = sess.call(ac.memcpy_d2h(ptr, data.nbytes))
        assert out.shape == (8, 8)
        np.testing.assert_array_equal(out, data)

    def test_bytes_payload(self, sess, ac):
        data = bytes(range(256)) * 10
        ptr = sess.call(ac.mem_alloc(len(data)))
        sess.call(ac.memcpy_h2d(ptr, data))
        out = sess.call(ac.memcpy_d2h(ptr, len(data)))
        assert bytes(out) == data

    def test_phantom_transfer_charges_time_only(self, cluster, sess, ac):
        ptr = sess.call(ac.mem_alloc(64 * MiB))
        t0 = sess.now
        sess.call(ac.memcpy_h2d(ptr, Phantom(64 * MiB)))
        elapsed = sess.now - t0
        # 64 MiB at ~2660 MiB/s: at least 24 ms of virtual time.
        assert elapsed > 0.024
        gpu = cluster.accelerator_for_handle(ac.handle).gpu
        assert gpu.memory.allocation(ptr).data is None  # nothing materialized

    def test_phantom_d2h_returns_phantom(self, sess, ac):
        ptr = sess.call(ac.mem_alloc(MiB))
        sess.call(ac.memcpy_h2d(ptr, Phantom(MiB)))
        out = sess.call(ac.memcpy_d2h(ptr, MiB))
        assert isinstance(out, Phantom)
        assert out.nbytes == MiB

    def test_copy_overflow_rejected(self, sess, ac):
        ptr = sess.call(ac.mem_alloc(100))
        with pytest.raises(MiddlewareError, match="exceeds allocation"):
            sess.call(ac.memcpy_h2d(ptr, np.zeros(100)))

    @pytest.mark.parametrize("op", ["h2d-real", "h2d-phantom", "d2h"])
    def test_negative_offset_rejected_and_daemon_still_serves(self, sess,
                                                              ac, op):
        """The header check rejects ``offset < 0`` as it rejects a copy
        past the end: the call raises its status error, an H2D's blocks
        are drained, and the daemon serves the next request.  Unchecked,
        a real H2D raised out of the daemon's DMA landing, a D2H out of
        its loan, and a phantom H2D succeeded; after either raise the
        daemon's serve loop was gone."""
        ptr = sess.call(ac.mem_alloc(1024))
        call = {"h2d-real": lambda: ac.memcpy_h2d(ptr, np.ones(64),
                                                  offset=-8),
                "h2d-phantom": lambda: ac.memcpy_h2d(ptr, Phantom(512),
                                                     offset=-8),
                "d2h": lambda: ac.memcpy_d2h(ptr, 1024, offset=-8)}[op]
        with pytest.raises(MiddlewareError, match="negative copy offset"):
            sess.call(call())
        sess.call(ac.kernel_create("fill"))
        sess.call(ac.memcpy_h2d(ptr, np.arange(128.0)))
        np.testing.assert_array_equal(
            sess.call(ac.memcpy_d2h(ptr, 1024)), np.arange(128.0))

    def test_pipeline_faster_than_naive_for_large(self, sess, ac):
        ptr = sess.call(ac.mem_alloc(16 * MiB))
        t0 = sess.now
        sess.call(ac.memcpy_h2d(ptr, Phantom(16 * MiB), transfer=NAIVE_TRANSFER))
        t_naive = sess.now - t0
        t0 = sess.now
        sess.call(ac.memcpy_h2d(ptr, Phantom(16 * MiB), transfer=pipeline(128 * KiB)))
        t_pipe = sess.now - t0
        assert t_pipe < t_naive
        # The naive protocol serializes network + PCIe; pipeline mostly
        # hides the PCIe stage.
        assert t_naive / t_pipe > 1.2

    def test_daemon_staging_accounting(self, cluster, sess, ac):
        daemon = cluster.daemons[ac.handle.ac_id]
        ptr = sess.call(ac.mem_alloc(8 * MiB))
        sess.call(ac.memcpy_h2d(ptr, Phantom(8 * MiB), transfer=NAIVE_TRANSFER))
        naive_peak = daemon.stats.staging_peak
        assert naive_peak == 8 * MiB  # naive buffers the whole message
        daemon.stats.staging_peak = 0
        sess.call(ac.memcpy_h2d(ptr, Phantom(8 * MiB), transfer=pipeline(128 * KiB)))
        assert daemon.stats.staging_peak <= 16 * 128 * KiB  # bounded window


class TestKernels:
    def test_paper_listing2_flow(self, cluster, sess, ac):
        """The exact program shape of Listing 2: alloc, copy, kernel, copy, free."""
        x = np.full(1000, 2.0)
        y = np.full(1000, 1.0)
        px = sess.call(ac.mem_alloc(x.nbytes))
        py = sess.call(ac.mem_alloc(y.nbytes))
        sess.call(ac.memcpy_h2d(px, x))
        sess.call(ac.memcpy_h2d(py, y))
        sess.call(ac.kernel_create("daxpy"))
        ac.kernel_set_args("daxpy", {"x": px, "y": py, "n": 1000, "alpha": 3.0})
        rc = sess.call(ac.kernel_run("daxpy"))
        assert rc == 0
        out = sess.call(ac.memcpy_d2h(py, y.nbytes))
        np.testing.assert_allclose(out, np.full(1000, 7.0))
        sess.call(ac.mem_free(px))
        sess.call(ac.mem_free(py))

    def test_kernel_create_unknown_rejected(self, sess, ac):
        with pytest.raises(MiddlewareError, match="unknown kernel"):
            sess.call(ac.kernel_create("no-such-kernel"))

    def test_set_args_before_create_rejected(self, ac):
        with pytest.raises(MiddlewareError, match="not created"):
            ac.kernel_set_args("daxpy", {})

    @staticmethod
    def _fault_then_serve(cluster, sess, leased, name, params, match):
        if leased:
            register_tenants(cluster, "alice")
            ac = sess.call(cluster.tenant(0, "alice"))
        else:
            handles = sess.call(cluster.arm_client(0).alloc(count=1))
            ac = cluster.remote(0, handles[0])
        sess.call(ac.kernel_create("fill"))
        if name != "fill":
            sess.call(ac.kernel_create(name))
        with pytest.raises(MiddlewareError, match=match):
            sess.call(ac.kernel_run(name, params))
        addr = sess.call(ac.mem_alloc(32))
        assert sess.call(ac.kernel_run("fill", {"dst": addr, "n": 4,
                                                "value": 1.0})) == 0

    @pytest.mark.parametrize("leased", [False, True], ids=["direct", "valloc"])
    def test_raising_kernel_answers_error_and_frees_the_device(
            self, cluster, sess, leased):
        """A kernel that faults on device memory is an ERROR reply; the
        daemon, the device and (leased) its slice serve the next
        operations on the same accelerator."""
        self._fault_then_serve(cluster, sess, leased, "fill",
                               {"dst": 0xdead, "n": 4, "value": 1.0},
                               "unknown device address")

    @pytest.mark.parametrize("fault", ["bind", "compute"])
    @pytest.mark.parametrize("leased", [False, True], ids=["direct", "valloc"])
    def test_offloaded_raising_kernel_answers_error_and_frees_the_device(
            self, cluster, sess, monkeypatch, leased, fault):
        """The same at offload size, with two cores: the fault is raised at
        the grant (bind) or on a worker thread (compute) and answered the
        same way."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for daemon in cluster.daemons:
            daemon.gpu.registry.register("boom", _raising, lambda p, s: 0.01)
        if fault == "bind":   # 1.3 ms modeled
            self._fault_then_serve(cluster, sess, leased, "fill",
                                   {"dst": 0xdead, "n": 1 << 24, "value": 1.0},
                                   "unknown device address")
        else:
            self._fault_then_serve(cluster, sess, leased, "boom", {}, "boom")

    def test_kernel_run_with_explicit_params(self, sess, ac):
        n = 64
        p = sess.call(ac.mem_alloc(8 * n))
        sess.call(ac.memcpy_h2d(p, np.ones(n)))
        sess.call(ac.kernel_run("dscal", {"x": p, "n": n, "alpha": 5.0}))
        out = sess.call(ac.memcpy_d2h(p, 8 * n))
        np.testing.assert_allclose(out, np.full(n, 5.0))

    def test_timed_kernel_run(self, cluster, sess, ac):
        t0 = sess.now
        sess.call(ac.kernel_run("dgemm",
                                {"A": 0, "B": 0, "C": 0,
                                 "m": 1024, "n": 1024, "k": 1024},
                                real=False))
        # ~2.1 GFlop at ~60 GF/s -> tens of milliseconds.
        assert sess.now - t0 > 0.01

    def test_remote_gemm_matches_numpy(self, sess, ac):
        rng = np.random.default_rng(3)
        m = n = k = 16
        A, B = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        C = np.zeros((m, n))
        pa = sess.call(ac.mem_alloc(A.nbytes))
        pb = sess.call(ac.mem_alloc(B.nbytes))
        pc = sess.call(ac.mem_alloc(C.nbytes))
        for p, arr in ((pa, A), (pb, B), (pc, C)):
            sess.call(ac.memcpy_h2d(p, arr))
        sess.call(ac.kernel_run("dgemm", {"A": pa, "B": pb, "C": pc,
                                          "m": m, "n": n, "k": k, "beta": 0.0}))
        out = sess.call(ac.memcpy_d2h(pc, C.nbytes))
        np.testing.assert_allclose(out, A @ B)


class TestMultiAccelerator:
    def test_three_accelerators_independent(self, cluster, sess):
        client = cluster.arm_client(0)
        handles = sess.call(client.alloc(count=3))
        acs = [cluster.remote(0, h) for h in handles]
        ptrs = []
        for i, a in enumerate(acs):
            p = sess.call(a.mem_alloc(800))
            sess.call(a.memcpy_h2d(p, np.full(100, float(i))))
            ptrs.append(p)
        for i, (a, p) in enumerate(zip(acs, ptrs)):
            out = sess.call(a.memcpy_d2h(p, 800))
            np.testing.assert_array_equal(out, np.full(100, float(i)))

    def test_parallel_ops_via_session(self, cluster, sess):
        client = cluster.arm_client(0)
        handles = sess.call(client.alloc(count=3))
        acs = [cluster.remote(0, h) for h in handles]
        ptrs = sess.call(run_parallel(sess.engine, [a.mem_alloc(4 * MiB) for a in acs]))
        assert len(set(zip([a.handle.ac_id for a in acs], ptrs))) == 3
        # Parallel phantom uploads: wall time should be < 3x solo time.
        t0 = sess.now
        sess.call(run_parallel(sess.engine, [a.memcpy_h2d(p, Phantom(4 * MiB))
                       for a, p in zip(acs, ptrs)]))
        elapsed = sess.now - t0
        solo = 4 * MiB / (2660 * MiB)
        assert elapsed < 2.2 * 3 * solo  # the shared CN NIC serializes sends

    def test_peer_put_between_accelerators(self, cluster, sess):
        client = cluster.arm_client(0)
        handles = sess.call(client.alloc(count=2))
        a0, a1 = (cluster.remote(0, h) for h in handles)
        data = np.arange(2000, dtype=np.float64)
        p0 = sess.call(a0.mem_alloc(data.nbytes))
        p1 = sess.call(a1.mem_alloc(data.nbytes))
        sess.call(a0.memcpy_h2d(p0, data))
        cn_bytes_before = cluster.fabric.endpoints["cn0"].rx  # smoke only
        sess.call(a0.peer_put(p0, data.nbytes, a1, p1))
        out = sess.call(a1.memcpy_d2h(p1, data.nbytes))
        np.testing.assert_array_equal(out, data)
