"""Tests for the rCUDA-style TCP remoting baseline."""

import numpy as np
import pytest

from repro.baselines import RCUDA_TRANSFER, mpi_cluster, rcuda_like_cluster
from repro.mpisim import Phantom
from repro.units import MiB


def alloc_one(cluster, transfer=None):
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=1))
    return sess, cluster.remote(0, handles[0], transfer=transfer)


class TestRcudaBaseline:
    def test_tcp_cluster_uses_tcp_model(self):
        cluster = rcuda_like_cluster()
        assert cluster.fabric.model.name == "tcp-ipoib"
        assert mpi_cluster().fabric.model.name == "ib-qdr-mpi"

    def test_rcuda_transfer_has_no_gpudirect(self):
        assert RCUDA_TRANSFER.gpudirect is False

    def test_data_still_correct_over_tcp(self):
        # Slower, not wronger.
        sess, ac = alloc_one(rcuda_like_cluster(), transfer=RCUDA_TRANSFER)
        data = np.arange(1000, dtype=np.float64)
        ptr = sess.call(ac.mem_alloc(data.nbytes))
        sess.call(ac.memcpy_h2d(ptr, data))
        out = sess.call(ac.memcpy_d2h(ptr, data.nbytes))
        np.testing.assert_array_equal(out, data)

    def test_tcp_slower_than_mpi(self):
        results = {}
        for name, cluster, cfg in [
            ("mpi", mpi_cluster(), None),
            ("tcp", rcuda_like_cluster(), RCUDA_TRANSFER),
        ]:
            sess, ac = alloc_one(cluster, transfer=cfg)
            ptr = sess.call(ac.mem_alloc(8 * MiB))
            t0 = sess.now
            sess.call(ac.memcpy_h2d(ptr, Phantom(8 * MiB)))
            results[name] = sess.now - t0
        assert results["tcp"] > 2 * results["mpi"]

    def test_tcp_latency_hits_small_ops(self):
        sess_m, ac_m = alloc_one(mpi_cluster())
        sess_t, ac_t = alloc_one(rcuda_like_cluster(), transfer=RCUDA_TRANSFER)
        t0 = sess_m.now
        sess_m.call(ac_m.kernel_create("fill"))
        t_mpi = sess_m.now - t0
        t0 = sess_t.now
        sess_t.call(ac_t.kernel_create("fill"))
        t_tcp = sess_t.now - t0
        assert t_tcp > 5 * t_mpi
