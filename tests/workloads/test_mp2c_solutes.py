"""Tests for the coupled MD-solute + SRD-solvent simulation."""

import numpy as np
import pytest

from repro.cluster import Cluster, paper_testbed
from repro.errors import WorkloadError
from repro.workloads.mp2c import (
    MP2CConfig,
    kinetic_energy,
    momentum,
    run_mp2c,
    thermal_velocities,
)
from repro.workloads.mp2c.config import CELL_SIZE
from repro.workloads.mp2c.md import lj_forces, lj_forces_on_local


def setup(n_ranks):
    cluster = Cluster(paper_testbed(n_compute=n_ranks, n_accelerators=n_ranks))
    sess = cluster.session()
    acs = []
    for i in range(n_ranks):
        handles = sess.call(cluster.arm_client(i).alloc(count=1))
        acs.append(cluster.remote(i, handles[0]))
    ranks = [cluster.compute_rank(i) for i in range(n_ranks)]
    return cluster, sess, ranks, acs


def make_state(cfg, n_ranks, n_solutes_per_rank, seed=0):
    """Solvent + well-separated solutes inside each rank's slab."""
    rng = np.random.default_rng(seed)
    edge_cells = cfg.box_edge_cells()
    cells_x = edge_cells + (n_ranks - edge_cells % n_ranks) % n_ranks
    box = np.array([cells_x * CELL_SIZE,
                    edge_cells * CELL_SIZE,
                    edge_cells * CELL_SIZE])
    slab = box[0] / n_ranks
    solvent, solutes = [], []
    per_rank = cfg.n_particles // n_ranks
    for r in range(n_ranks):
        pos = rng.uniform(0, 1, (per_rank, 3)) * np.array(
            [slab, box[1], box[2]])
        pos[:, 0] += r * slab
        solvent.append((pos, thermal_velocities(rng, per_rank)))
        # Solutes on a loose grid to avoid violent initial LJ overlaps.
        spos = rng.uniform(0.15, 0.85, (n_solutes_per_rank, 3)) * np.array(
            [slab, box[1], box[2]])
        spos[:, 0] += r * slab
        # Enforce pairwise separation by rejection.
        for i in range(1, n_solutes_per_rank):
            for _ in range(200):
                d = spos[:i] - spos[i]
                if np.all(np.sum(d * d, axis=1) > 1.4):
                    break
                spos[i] = rng.uniform(0.15, 0.85, 3) * np.array(
                    [slab, box[1], box[2]])
                spos[i, 0] += r * slab
        svel = thermal_velocities(rng, n_solutes_per_rank) * 0.3
        solutes.append((spos, svel))
    return solvent, solutes


class TestLjForcesOnLocal:
    def test_matches_full_lj_for_self_interaction(self):
        rng = np.random.default_rng(1)
        box = np.array([12.0, 12.0, 12.0])
        pos = rng.uniform(0, 12, (30, 3))
        full, _ = lj_forces(pos, box, rcut=2.5)
        local = lj_forces_on_local(pos, pos, box, rcut=2.5, skip_self=True)
        np.testing.assert_allclose(local, full, atol=1e-9)

    def test_halo_split_equals_combined(self):
        rng = np.random.default_rng(2)
        box = np.array([12.0, 12.0, 12.0])
        a = rng.uniform(0, 12, (15, 3))
        b = rng.uniform(0, 12, (10, 3))
        both = np.concatenate([a, b])
        f_combined = lj_forces_on_local(both, both, box, skip_self=True)[:15]
        f_split = (lj_forces_on_local(a, a, box, skip_self=True)
                   + lj_forces_on_local(a, b, box))
        np.testing.assert_allclose(f_split, f_combined, atol=1e-9)

    def test_empty_inputs(self):
        box = np.array([10.0, 10.0, 10.0])
        assert lj_forces_on_local(np.zeros((0, 3)), np.zeros((5, 3)),
                                  box).shape == (0, 3)
        np.testing.assert_array_equal(
            lj_forces_on_local(np.zeros((2, 3)) + 5, np.zeros((0, 3)), box),
            np.zeros((2, 3)))


class TestCoupledRuns:
    CFG = dict(n_particles=2000, steps=10, dt=0.005)

    def test_counts_conserved_with_solutes(self):
        cfg = MP2CConfig(**self.CFG)
        cluster, sess, ranks, acs = setup(2)
        solvent, solutes = make_state(cfg, 2, n_solutes_per_rank=12)
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg, initial=solvent,
                                 solutes=solutes))
        n_solv = sum(p.shape[0] for p, _, _, _ in res.final)
        n_sol = sum(sp.shape[0] for _, _, sp, _ in res.final)
        assert n_solv == 2000
        assert n_sol == 24

    def test_momentum_conserved_with_solutes(self):
        cfg = MP2CConfig(**self.CFG)
        cluster, sess, ranks, acs = setup(2)
        solvent, solutes = make_state(cfg, 2, n_solutes_per_rank=10, seed=3)
        p0 = (sum(momentum(v) for _, v in solvent)
              + sum(momentum(v) for _, v in solutes))
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg, initial=solvent,
                                 solutes=solutes))
        p1 = (sum(momentum(v) for _, v, _, _ in res.final)
              + sum(momentum(sv) for _, _, _, sv in res.final))
        np.testing.assert_allclose(p1, p0, atol=1e-7)

    def test_total_energy_approximately_conserved(self):
        # SRD conserves KE exactly; LJ+Verlet conserves total energy to
        # integration error.  Use a single rank so the global potential is
        # easy to evaluate.
        cfg = MP2CConfig(n_particles=1000, steps=20, dt=0.004)
        cluster, sess, ranks, acs = setup(1)
        solvent, solutes = make_state(cfg, 1, n_solutes_per_rank=16, seed=4)
        box_edge = cfg.box_edge_cells() * CELL_SIZE
        box = np.array([box_edge] * 3)

        def total_energy(sol_pos, sol_vel, solv_vel):
            _, pot = lj_forces(sol_pos, box, rcut=2.5)
            return kinetic_energy(sol_vel) + kinetic_energy(solv_vel) + pot

        e0 = total_energy(solutes[0][0].copy(), solutes[0][1].copy(),
                          solvent[0][1].copy())
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg, initial=solvent,
                                 solutes=solutes))
        pos, vel, spos, svel = res.final[0]
        e1 = total_energy(spos, svel, vel)
        assert abs(e1 - e0) / abs(e0) < 0.02

    def test_solutes_actually_interact(self):
        # Two solutes placed close must repel.
        cfg = MP2CConfig(n_particles=1000, steps=4, dt=0.002)
        cluster, sess, ranks, acs = setup(1)
        solvent, _ = make_state(cfg, 1, n_solutes_per_rank=0, seed=5)
        edge = cfg.box_edge_cells() * CELL_SIZE
        spos = np.array([[edge / 2 - 0.5, edge / 2, edge / 2],
                         [edge / 2 + 0.5, edge / 2, edge / 2]])
        svel = np.zeros((2, 3))
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg, initial=solvent,
                                 solutes=[(spos, svel)]))
        _, _, spos1, svel1 = res.final[0]
        gap0 = 1.0
        gap1 = abs(spos1[1, 0] - spos1[0, 0])
        assert gap1 > gap0  # pushed apart
        assert svel1[0, 0] < 0 < svel1[1, 0]

    def test_cross_rank_interaction_through_halo(self):
        # Solutes straddling the slab boundary: each rank owns one; they
        # must repel through the halo exchange.
        cfg = MP2CConfig(n_particles=2000, steps=4, dt=0.002)
        cluster, sess, ranks, acs = setup(2)
        solvent, _ = make_state(cfg, 2, n_solutes_per_rank=0, seed=6)
        edge_cells = cfg.box_edge_cells()
        cells_x = edge_cells + edge_cells % 2
        slab = cells_x * CELL_SIZE / 2
        mid = cfg.box_edge_cells() * CELL_SIZE / 2
        s0 = (np.array([[slab - 0.5, mid, mid]]), np.zeros((1, 3)))
        s1 = (np.array([[slab + 0.5, mid, mid]]), np.zeros((1, 3)))
        res = sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                                 ranks, acs, cfg, initial=solvent,
                                 solutes=[s0, s1]))
        _, _, sp0, sv0 = res.final[0]
        _, _, sp1, sv1 = res.final[1]
        assert sv0[0, 0] < 0  # left solute pushed left
        assert sv1[0, 0] > 0  # right solute pushed right

    def test_solutes_without_initial_rejected(self):
        cfg = MP2CConfig(**self.CFG)
        cluster, sess, ranks, acs = setup(1)
        with pytest.raises(WorkloadError, match="real mode"):
            sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                               ranks, acs, cfg,
                               solutes=[(np.zeros((1, 3)), np.zeros((1, 3)))]))

    def test_wrong_solute_bundle_count_rejected(self):
        cfg = MP2CConfig(**self.CFG)
        cluster, sess, ranks, acs = setup(2)
        solvent, solutes = make_state(cfg, 2, n_solutes_per_rank=2)
        with pytest.raises(WorkloadError, match="per rank"):
            sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                               ranks, acs, cfg, initial=solvent,
                               solutes=solutes[:1]))
