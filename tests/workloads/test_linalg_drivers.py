"""Integration tests: multi-GPU QR / Cholesky on local and remote backends."""

import numpy as np
import pytest

from repro.baselines import LocalAccelerator
from repro.cluster import Cluster, paper_testbed
from repro.workloads.linalg import (
    cholesky_factorize,
    qr_factorize,
    reconstruct_q,
)


def remote_accelerators(count):
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=count))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=count))
    acs = [cluster.remote(0, h) for h in handles]
    return cluster, sess, acs


def local_accelerator():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=0,
                                    local_gpus=True))
    node = cluster.compute_nodes[0]
    return cluster, cluster.session(), [
        LocalAccelerator(cluster.engine, node.local_gpu, node.cpu)]


def spd_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


class TestQRCorrectness:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_remote_qr_reproduces_a(self, g):
        n, nb = 96, 32
        rng = np.random.default_rng(g)
        A = rng.standard_normal((n, n))
        cluster, sess, acs = remote_accelerators(g)
        node = cluster.compute_nodes[0]
        res = sess.call(qr_factorize(cluster.engine, node.cpu, acs, n, nb, A=A))
        Q = reconstruct_q(n, res.reflectors)
        np.testing.assert_allclose(Q.T @ Q, np.eye(n), atol=1e-9)
        np.testing.assert_allclose(Q @ res.R, A, atol=1e-8)

    def test_local_qr_reproduces_a(self):
        n, nb = 80, 32
        A = np.random.default_rng(9).standard_normal((n, n))
        cluster, sess, acs = local_accelerator()
        node = cluster.compute_nodes[0]
        res = sess.call(qr_factorize(cluster.engine, node.cpu, acs, n, nb, A=A))
        Q = reconstruct_q(n, res.reflectors)
        np.testing.assert_allclose(Q @ res.R, A, atol=1e-8)

    def test_qr_non_divisible_n(self):
        n, nb = 70, 32  # 70 = 2*32 + 6: narrow last panel
        A = np.random.default_rng(11).standard_normal((n, n))
        cluster, sess, acs = remote_accelerators(2)
        node = cluster.compute_nodes[0]
        res = sess.call(qr_factorize(cluster.engine, node.cpu, acs, n, nb, A=A))
        Q = reconstruct_q(n, res.reflectors)
        np.testing.assert_allclose(Q @ res.R, A, atol=1e-8)

    def test_qr_r_upper_triangular(self):
        n = 64
        A = np.random.default_rng(12).standard_normal((n, n))
        cluster, sess, acs = remote_accelerators(1)
        node = cluster.compute_nodes[0]
        res = sess.call(qr_factorize(cluster.engine, node.cpu, acs, n, 32, A=A))
        np.testing.assert_allclose(res.R, np.triu(res.R), atol=1e-12)

    def test_qr_matches_numpy_r_magnitudes(self):
        n = 64
        A = np.random.default_rng(13).standard_normal((n, n))
        cluster, sess, acs = remote_accelerators(2)
        node = cluster.compute_nodes[0]
        res = sess.call(qr_factorize(cluster.engine, node.cpu, acs, n, 16, A=A))
        _, R_np = np.linalg.qr(A)
        np.testing.assert_allclose(np.abs(res.R), np.abs(R_np), atol=1e-8)


class TestQRBatchedControl:
    """``streams=True`` sends each GPU's control ops as runs of at most
    16.  A phantom N=2048 on one GPU has 16 panels: the teardown's 18
    frees split 16 + 2, and the later panels' allocations and the last
    step's single dlarfb launch travel alone."""

    def test_phantom_n2048_one_gpu_requests_and_time(self):
        cluster, sess, acs = remote_accelerators(1)
        res = sess.call(qr_factorize(cluster.engine,
                                     cluster.compute_nodes[0].cpu,
                                     acs, 2048, 128, streams=True))
        (daemon,) = cluster.daemons
        # Exact: a moved count or time is a change to the protocol's cost.
        assert daemon.stats.control_requests == 33
        assert daemon.stats.requests == 111
        assert res.seconds == 0.32834142218613127
        assert (daemon.stats.mbatches, daemon.stats.mbatched_ops) == (17, 141)


class TestCholeskyCorrectness:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_remote_cholesky_reproduces_a(self, g):
        n, nb = 96, 32
        A = spd_matrix(n, seed=g)
        cluster, sess, acs = remote_accelerators(g)
        node = cluster.compute_nodes[0]
        res = sess.call(cholesky_factorize(cluster.engine, node.cpu, acs,
                                           n, nb, A=A))
        np.testing.assert_allclose(res.L @ res.L.T, A, atol=1e-7)
        np.testing.assert_allclose(res.L, np.tril(res.L), atol=1e-12)

    def test_local_cholesky_reproduces_a(self):
        n, nb = 80, 32
        A = spd_matrix(n, seed=42)
        cluster, sess, acs = local_accelerator()
        node = cluster.compute_nodes[0]
        res = sess.call(cholesky_factorize(cluster.engine, node.cpu, acs,
                                           n, nb, A=A))
        np.testing.assert_allclose(res.L @ res.L.T, A, atol=1e-7)

    def test_cholesky_non_divisible_n(self):
        n, nb = 70, 32
        A = spd_matrix(n, seed=5)
        cluster, sess, acs = remote_accelerators(3)
        node = cluster.compute_nodes[0]
        res = sess.call(cholesky_factorize(cluster.engine, node.cpu, acs,
                                           n, nb, A=A))
        np.testing.assert_allclose(res.L @ res.L.T, A, atol=1e-7)

    def test_cholesky_matches_numpy(self):
        n = 64
        A = spd_matrix(n, seed=6)
        cluster, sess, acs = remote_accelerators(2)
        node = cluster.compute_nodes[0]
        res = sess.call(cholesky_factorize(cluster.engine, node.cpu, acs,
                                           n, 16, A=A))
        np.testing.assert_allclose(res.L, np.linalg.cholesky(A), atol=1e-8)


class TestTimedMode:
    def test_timed_qr_charges_time_no_data(self):
        cluster, sess, acs = remote_accelerators(2)
        node = cluster.compute_nodes[0]
        res = sess.call(qr_factorize(cluster.engine, node.cpu, acs,
                                     n=1024, nb=128))
        assert res.R is None
        assert res.seconds > 0.01
        assert res.gflops > 1.0

    def test_timed_cholesky_charges_time(self):
        cluster, sess, acs = remote_accelerators(2)
        node = cluster.compute_nodes[0]
        res = sess.call(cholesky_factorize(cluster.engine, node.cpu, acs,
                                           n=1024, nb=128))
        assert res.L is None
        assert res.seconds > 0.005

    def test_memory_released_after_run(self):
        cluster, sess, acs = remote_accelerators(2)
        node = cluster.compute_nodes[0]
        sess.call(qr_factorize(cluster.engine, node.cpu, acs, n=512, nb=128))
        for ac_node in cluster.accelerator_nodes:
            assert ac_node.gpu.memory.used_bytes == 0

    def test_multi_gpu_faster_than_single_at_scale(self):
        # The paper's core claim at the workload level: 3 network GPUs beat
        # 1 network GPU for a large enough matrix.
        c1, s1, a1 = remote_accelerators(1)
        r1 = s1.call(qr_factorize(c1.engine, c1.compute_nodes[0].cpu, a1,
                                  n=4096, nb=128))
        c3, s3, a3 = remote_accelerators(3)
        r3 = s3.call(qr_factorize(c3.engine, c3.compute_nodes[0].cpu, a3,
                                  n=4096, nb=128))
        assert r3.seconds < r1.seconds
        assert r3.gflops / r1.gflops > 1.5

    def test_local_beats_one_remote_qr(self):
        # QR is bandwidth-sensitive: one network-attached GPU must be
        # slower than the node-attached one (Fig. 9).
        cl, sl, al = local_accelerator()
        rl = sl.call(qr_factorize(cl.engine, cl.compute_nodes[0].cpu, al,
                                  n=2048, nb=128))
        cr, sr, ar = remote_accelerators(1)
        rr = sr.call(qr_factorize(cr.engine, cr.compute_nodes[0].cpu, ar,
                                  n=2048, nb=128))
        assert rr.seconds > rl.seconds
