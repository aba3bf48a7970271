"""Integration tests: the full MP2C driver on the simulated cluster."""

import numpy as np
import pytest

from repro.baselines import LocalAccelerator
from repro.cluster import Cluster, paper_testbed
from repro.workloads.mp2c import (
    MP2CConfig,
    kinetic_energy,
    momentum,
    run_mp2c,
    thermal_velocities,
)
from repro.workloads.mp2c.config import CELL_SIZE


def small_config(**kw):
    defaults = dict(n_particles=2000, steps=10, dt=0.02)
    defaults.update(kw)
    return MP2CConfig(**defaults)


def make_initial(cfg, n_ranks, seed=0):
    """Per-rank particle arrays inside each rank's slab."""
    rng = np.random.default_rng(seed)
    edge_cells = cfg.box_edge_cells()
    cells_x = edge_cells + (n_ranks - edge_cells % n_ranks) % n_ranks
    box = np.array([cells_x * CELL_SIZE,
                    edge_cells * CELL_SIZE,
                    edge_cells * CELL_SIZE])
    slab = box[0] / n_ranks
    out = []
    per_rank = cfg.n_particles // n_ranks
    for r in range(n_ranks):
        pos = rng.uniform(0, 1, (per_rank, 3)) * np.array(
            [slab, box[1], box[2]])
        pos[:, 0] += r * slab
        vel = thermal_velocities(rng, per_rank)
        out.append((pos, vel))
    return out


def remote_setup(n_ranks):
    cluster = Cluster(paper_testbed(n_compute=n_ranks, n_accelerators=n_ranks))
    sess = cluster.session()
    acs = []
    for i in range(n_ranks):
        handles = sess.call(cluster.arm_client(i).alloc(count=1))
        acs.append(cluster.remote(i, handles[0]))
    ranks = [cluster.compute_rank(i) for i in range(n_ranks)]
    return cluster, sess, ranks, acs


def local_setup(n_ranks):
    cluster = Cluster(paper_testbed(n_compute=n_ranks, n_accelerators=0,
                                    local_gpus=True))
    sess = cluster.session()
    acs = [LocalAccelerator(cluster.engine, node.local_gpu, node.cpu)
           for node in cluster.compute_nodes]
    ranks = [cluster.compute_rank(i) for i in range(n_ranks)]
    return cluster, sess, ranks, acs


class TestRealRuns:
    @pytest.mark.parametrize("setup", [remote_setup, local_setup])
    def test_two_rank_run_conserves_particles(self, setup):
        cfg = small_config()
        cluster, sess, ranks, acs = setup(2)
        initial = make_initial(cfg, 2)
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg, initial=initial))
        total = sum(p.shape[0] for p, _ in res.final)
        assert total == cfg.n_particles // 2 * 2
        assert res.seconds > 0

    def test_energy_conserved_without_forces(self):
        # Pure streaming + SRD rotations: kinetic energy is invariant.
        cfg = small_config(steps=10)
        cluster, sess, ranks, acs = remote_setup(2)
        initial = make_initial(cfg, 2, seed=1)
        e0 = sum(kinetic_energy(v) for _, v in initial)
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg, initial=initial))
        e1 = sum(kinetic_energy(v) for _, v in res.final)
        assert e1 == pytest.approx(e0, rel=1e-9)

    def test_momentum_conserved(self):
        cfg = small_config(steps=10)
        cluster, sess, ranks, acs = remote_setup(2)
        initial = make_initial(cfg, 2, seed=2)
        p0 = sum(momentum(v) for _, v in initial)
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg, initial=initial))
        p1 = sum(momentum(v) for _, v in res.final)
        np.testing.assert_allclose(p1, p0, atol=1e-7)

    def test_particles_stay_in_their_slab(self):
        cfg = small_config(steps=10)
        cluster, sess, ranks, acs = remote_setup(2)
        initial = make_initial(cfg, 2, seed=3)
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg, initial=initial))
        cells_x = cfg.box_edge_cells() + cfg.box_edge_cells() % 2
        slab = cells_x * CELL_SIZE / 2
        for r, (pos, _) in enumerate(res.final):
            assert np.all(pos[:, 0] >= r * slab - 1e-9)
            assert np.all(pos[:, 0] < (r + 1) * slab + 1e-9)

    def test_local_and_remote_agree_numerically(self):
        # Same seeds, same physics: the architecture must not change the
        # trajectory, only the virtual clock.
        cfg = small_config(steps=10)
        cl, sl, rl, al = local_setup(2)
        rr_ = remote_setup(2)
        cr, sr, rrk, ar = rr_
        res_l = sl.call(run_mp2c(cl.engine, cl.compute_nodes[0].cpu,
                                 rl, al, cfg, initial=make_initial(cfg, 2, 4)))
        res_r = sr.call(run_mp2c(cr.engine, cr.compute_nodes[0].cpu,
                                 rrk, ar, cfg, initial=make_initial(cfg, 2, 4)))
        for (p1, v1), (p2, v2) in zip(res_l.final, res_r.final):
            np.testing.assert_allclose(np.sort(p1, axis=0),
                                       np.sort(p2, axis=0), atol=1e-9)
            np.testing.assert_allclose(np.sort(v1, axis=0),
                                       np.sort(v2, axis=0), atol=1e-9)

    def test_single_rank_run(self):
        cfg = small_config(steps=5)
        cluster, sess, ranks, acs = remote_setup(1)
        initial = make_initial(cfg, 1, seed=5)
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg, initial=initial))
        assert res.final[0][0].shape[0] == cfg.n_particles


class TestTimedRuns:
    def test_timed_run_charges_md_and_transfer_time(self):
        cfg = MP2CConfig(n_particles=200_000, steps=10)
        cluster, sess, ranks, acs = remote_setup(2)
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg))
        # 10 steps x 100k local particles x 0.92us ~ 0.9s minimum.
        assert res.seconds > 0.8
        assert res.final is None

    def test_remote_slower_but_bounded(self):
        # The paper's claim: the dynamic architecture costs at most ~4%.
        cfg = MP2CConfig(n_particles=500_000, steps=20)
        cl, sl, rl, al = local_setup(2)
        res_l = sl.call(run_mp2c(cl.engine, cl.compute_nodes[0].cpu,
                                 rl, al, cfg))
        cr, sr, rrk, ar = remote_setup(2)
        res_r = sr.call(run_mp2c(cr.engine, cr.compute_nodes[0].cpu,
                                 rrk, ar, cfg))
        slowdown = res_r.seconds / res_l.seconds - 1.0
        assert slowdown > 0.0
        assert slowdown < 0.05
