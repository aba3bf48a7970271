"""Tests for the node-attached (CUDA local) baseline."""

import numpy as np
import pytest

from repro.baselines import LocalAccelerator
from repro.cluster import Cluster, paper_testbed
from repro.errors import MiddlewareError
from repro.gpusim import PCIE_GEN2_X16
from repro.mpisim import Phantom
from repro.units import MiB


@pytest.fixture
def rig():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=0,
                                    local_gpus=True))
    node = cluster.compute_nodes[0]
    local = LocalAccelerator(cluster.engine, node.local_gpu, node.cpu)
    return cluster, cluster.session(), local


class TestLocalAccelerator:
    def test_roundtrip(self, rig):
        _, sess, local = rig
        data = np.arange(500, dtype=np.float64)
        ptr = sess.call(local.mem_alloc(data.nbytes))
        sess.call(local.memcpy_h2d(ptr, data))
        out = sess.call(local.memcpy_d2h(ptr, data.nbytes))
        np.testing.assert_array_equal(out, data)
        sess.call(local.mem_free(ptr))

    def test_pinned_faster_than_pageable(self, rig):
        _, sess, local = rig
        pageable = LocalAccelerator(local.engine, local.gpu, local.cpu,
                                    pinned=False)
        ptr = sess.call(local.mem_alloc(16 * MiB))
        t0 = sess.now
        sess.call(local.memcpy_h2d(ptr, Phantom(16 * MiB)))
        t_pinned = sess.now - t0
        t0 = sess.now
        sess.call(pageable.memcpy_h2d(ptr, Phantom(16 * MiB)))
        t_pageable = sess.now - t0
        assert t_pinned < t_pageable

    def test_timing_matches_pcie_model(self, rig):
        _, sess, local = rig
        ptr = sess.call(local.mem_alloc(32 * MiB))
        t0 = sess.now
        sess.call(local.memcpy_h2d(ptr, Phantom(32 * MiB)))
        assert sess.now - t0 == pytest.approx(
            PCIE_GEN2_X16.copy_time(32 * MiB, pinned=True))

    def test_kernel_flow(self, rig):
        _, sess, local = rig
        n = 128
        x = np.full(n, 4.0)
        ptr = sess.call(local.mem_alloc(x.nbytes))
        sess.call(local.memcpy_h2d(ptr, x))
        sess.call(local.kernel_create("dscal"))
        local.kernel_set_args("dscal", {"x": ptr, "n": n, "alpha": 0.5})
        sess.call(local.kernel_run("dscal"))
        out = sess.call(local.memcpy_d2h(ptr, x.nbytes))
        np.testing.assert_allclose(out, np.full(n, 2.0))

    def test_extension_kernels_available(self, rig):
        # kernel_create installs workload kernels (module upload).
        _, sess, local = rig
        sess.call(local.kernel_create("qr_larfb"))
        sess.call(local.kernel_create("srd_collide"))

    def test_unknown_kernel_rejected(self, rig):
        _, sess, local = rig
        with pytest.raises(MiddlewareError, match="unknown kernel"):
            sess.call(local.kernel_create("quantum_annealing"))

    def test_set_args_before_create_rejected(self, rig):
        _, _, local = rig
        with pytest.raises(MiddlewareError, match="not created"):
            local.kernel_set_args("dgemm", {})

    def test_overflow_rejected(self, rig):
        _, sess, local = rig
        ptr = sess.call(local.mem_alloc(8))
        with pytest.raises(MiddlewareError, match="exceeds"):
            sess.call(local.memcpy_h2d(ptr, np.zeros(10)))
        with pytest.raises(MiddlewareError, match="exceeds"):
            sess.call(local.memcpy_d2h(ptr, 100))

    def test_offset_roundtrip(self, rig):
        _, sess, local = rig
        ptr = sess.call(local.mem_alloc(100))
        sess.call(local.memcpy_h2d(ptr, b"\x07" * 10, offset=40))
        out = sess.call(local.memcpy_d2h(ptr, 10, offset=40))
        assert bytes(out) == b"\x07" * 10

    def test_phantom_roundtrip(self, rig):
        _, sess, local = rig
        ptr = sess.call(local.mem_alloc(MiB))
        sess.call(local.memcpy_h2d(ptr, Phantom(MiB)))
        out = sess.call(local.memcpy_d2h(ptr, MiB))
        assert isinstance(out, Phantom)
