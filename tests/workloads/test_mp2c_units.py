"""Unit and property tests for the MP2C physics pieces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads.mp2c import (
    MP2CConfig,
    SlabDecomposition,
    kinetic_energy,
    lj_forces,
    momentum,
    srd_collision,
    thermal_velocities,
    velocity_verlet,
)
from repro.workloads.mp2c.srd import cell_index, random_axes, rotation_matrices


class TestSRD:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.box = np.array([8.0, 8.0, 8.0])
        n = 640
        self.pos = rng.uniform(0, 8.0, (n, 3))
        self.vel = thermal_velocities(rng, n)

    def test_conserves_kinetic_energy(self):
        v2 = srd_collision(self.pos, self.vel, self.box, 1.0,
                           np.radians(130), seed=1)
        assert kinetic_energy(v2) == pytest.approx(kinetic_energy(self.vel))

    def test_conserves_total_momentum(self):
        v2 = srd_collision(self.pos, self.vel, self.box, 1.0,
                           np.radians(130), seed=2)
        np.testing.assert_allclose(momentum(v2), momentum(self.vel), atol=1e-9)

    def test_conserves_momentum_per_cell(self):
        seed = 3
        # Reproduce the internal grid shift to bin identically.
        rng = np.random.default_rng(seed)
        shift = np.array([rng.uniform(0, 1.0) for _ in range(3)])
        cells = cell_index(self.pos, self.box, 1.0, shift)
        v2 = srd_collision(self.pos, self.vel, self.box, 1.0,
                           np.radians(130), seed=seed)
        for c in np.unique(cells)[:50]:
            mask = cells == c
            np.testing.assert_allclose(self.vel[mask].sum(axis=0),
                                       v2[mask].sum(axis=0), atol=1e-9)

    def test_deterministic_given_seed(self):
        a = srd_collision(self.pos, self.vel, self.box, 1.0, 2.0, seed=7)
        b = srd_collision(self.pos, self.vel, self.box, 1.0, 2.0, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = srd_collision(self.pos, self.vel, self.box, 1.0, 2.0, seed=7)
        b = srd_collision(self.pos, self.vel, self.box, 1.0, 2.0, seed=8)
        assert not np.allclose(a, b)

    def test_actually_mixes_velocities(self):
        v2 = srd_collision(self.pos, self.vel, self.box, 1.0,
                           np.radians(130), seed=9)
        assert not np.allclose(v2, self.vel)

    def test_empty_input(self):
        v2 = srd_collision(np.zeros((0, 3)), np.zeros((0, 3)),
                           self.box, 1.0, 2.0, seed=1)
        assert v2.shape == (0, 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            srd_collision(np.zeros((4, 3)), np.zeros((5, 3)),
                          self.box, 1.0, 2.0, seed=1)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 200))
    @settings(max_examples=50, deadline=None)
    def test_property_energy_momentum_invariants(self, seed, n):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 6.0, (n, 3))
        vel = rng.normal(0, 1, (n, 3))
        box = np.array([6.0, 6.0, 6.0])
        v2 = srd_collision(pos, vel, box, 1.0, np.radians(130), seed=seed)
        assert kinetic_energy(v2) == pytest.approx(kinetic_energy(vel), rel=1e-9)
        np.testing.assert_allclose(momentum(v2), momentum(vel), atol=1e-7)

    def test_rotation_matrices_orthogonal(self):
        rng = np.random.default_rng(1)
        axes = random_axes(rng, 20)
        R = rotation_matrices(axes, np.radians(130))
        for i in range(20):
            np.testing.assert_allclose(R[i] @ R[i].T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R[i]) == pytest.approx(1.0)

    def test_thermal_velocities_zero_momentum(self):
        v = thermal_velocities(np.random.default_rng(2), 500, temperature=2.0)
        np.testing.assert_allclose(v.sum(axis=0), 0, atol=1e-10)


class TestSlabDecomposition:
    def test_bounds_cover_box(self):
        d = SlabDecomposition(box=(8.0, 8.0, 8.0), n_ranks=4)
        edges = [d.bounds(r) for r in range(4)]
        assert edges[0][0] == 0.0
        assert edges[-1][1] == 8.0
        for (lo1, hi1), (lo2, _) in zip(edges, edges[1:]):
            assert hi1 == lo2

    def test_owner_of(self):
        d = SlabDecomposition(box=(8.0, 8.0, 8.0), n_ranks=2)
        pos = np.array([[1.0, 0, 0], [5.0, 0, 0], [3.9, 0, 0], [4.0, 0, 0]])
        np.testing.assert_array_equal(d.owner_of(pos), [0, 1, 0, 1])

    def test_split_leavers_partition(self):
        d = SlabDecomposition(box=(8.0, 8.0, 8.0), n_ranks=2)
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 8.0, (100, 3))
        vel = rng.normal(0, 1, (100, 3))
        stay_p, stay_v, out = d.split_leavers(0, pos, vel)
        moved = sum(p.shape[0] for p, _ in out.values())
        assert stay_p.shape[0] + moved == 100
        assert np.all(d.owner_of(stay_p) == 0)
        for dest, (p, _) in out.items():
            assert np.all(d.owner_of(p) == dest)

    def test_unaligned_box_rejected(self):
        with pytest.raises(WorkloadError, match="whole number"):
            SlabDecomposition(box=(8.5, 8.0, 8.0), n_ranks=2)

    def test_uneven_split_rejected(self):
        with pytest.raises(WorkloadError, match="evenly"):
            SlabDecomposition(box=(9.0, 9.0, 9.0), n_ranks=2)

    def test_neighbors_periodic(self):
        d = SlabDecomposition(box=(9.0, 9.0, 9.0), n_ranks=3)
        assert d.neighbors(0) == (2, 1)
        assert d.neighbors(2) == (1, 0)


class TestMDPieces:
    def test_lj_forces_newton_third_law(self):
        rng = np.random.default_rng(4)
        box = np.array([10.0, 10.0, 10.0])
        pos = rng.uniform(0, 10.0, (60, 3))
        forces, _ = lj_forces(pos, box)
        np.testing.assert_allclose(forces.sum(axis=0), 0, atol=1e-9)

    def test_lj_repulsive_at_close_range(self):
        box = np.array([10.0, 10.0, 10.0])
        pos = np.array([[5.0, 5.0, 5.0], [5.9, 5.0, 5.0]])
        forces, energy = lj_forces(pos, box)
        assert forces[0, 0] < 0  # pushed apart
        assert forces[1, 0] > 0
        assert energy > 0

    def test_lj_matches_brute_force(self):
        rng = np.random.default_rng(5)
        box = np.array([12.0, 12.0, 12.0])
        pos = rng.uniform(0, 12.0, (40, 3))
        forces, energy = lj_forces(pos, box, rcut=2.5)
        # Brute force reference.
        f_ref = np.zeros_like(pos)
        e_ref = 0.0
        for i in range(40):
            for j in range(i + 1, 40):
                d = pos[i] - pos[j]
                d -= box * np.round(d / box)
                r2 = d @ d
                if r2 < 2.5 ** 2:
                    sr6 = (1.0 / r2) ** 3
                    fmag = 24 * (2 * sr6 * sr6 - sr6) / r2
                    f_ref[i] += fmag * d
                    f_ref[j] -= fmag * d
                    e_ref += 4 * (sr6 * sr6 - sr6)
        np.testing.assert_allclose(forces, f_ref, atol=1e-9)
        assert energy == pytest.approx(e_ref)

    def test_verlet_energy_stable(self):
        rng = np.random.default_rng(6)
        box = np.array([12.0, 12.0, 12.0])
        n = 64
        # Loose lattice start to avoid overlaps.
        grid = np.stack(np.meshgrid(*[np.arange(4)] * 3), -1).reshape(-1, 3)
        pos = (grid * 3.0 + 1.5).astype(np.float64)
        vel = thermal_velocities(rng, n, temperature=0.3)
        forces, e_pot = lj_forces(pos, box)
        e0 = kinetic_energy(vel) + e_pot
        for _ in range(50):
            forces, e_pot = velocity_verlet(pos, vel, forces, box, dt=0.005)
        e1 = kinetic_energy(vel) + e_pot
        assert abs(e1 - e0) / max(abs(e0), 1.0) < 0.02

    def test_too_small_box_rejected(self):
        with pytest.raises(WorkloadError, match="too small"):
            lj_forces(np.zeros((2, 3)), np.array([3.0, 3.0, 3.0]), rcut=2.5)


class TestMP2CConfig:
    def test_paper_cells(self):
        cfg = MP2CConfig(n_particles=10_000_000)
        assert cfg.n_cells == 1_000_000
        assert cfg.box_edge_cells() == 100
        assert cfg.n_srd_steps == 60

    def test_validation(self):
        with pytest.raises(WorkloadError):
            MP2CConfig(n_particles=0)
        with pytest.raises(WorkloadError):
            MP2CConfig(n_particles=10, steps=0)
