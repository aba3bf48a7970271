"""Configuration of the MP2C-like multi-scale particle simulation.

MP2C couples molecular dynamics with the stochastic rotation dynamics
(SRD) variant of multi-particle collision dynamics (Gompper et al. 2009):
solvent particles stream freely and undergo momentum-conserving cell-wise
collisions every few MD steps.  The paper's runs (Sect. V-C) use 10
particles per collision cell, the SRD step every 5th of 300 steps, and
5.12 M / 7.29 M / 10 M particles on 2 ranks.

The cost constants are calibrated so that the absolute runtimes land in
the paper's Figure 11 range (~12-23 minutes): the per-particle MD cost
covers force evaluation, coupling, and sorting work of the full MP2C code
that the model does not simulate in detail.
"""

from __future__ import annotations

import dataclasses

from ...errors import WorkloadError


#: The SRD collision runs every ``SRD_EVERY``-th MD step.
SRD_EVERY = 5
PARTICLES_PER_CELL = 10
#: Collision-cell edge (the unit of length).
CELL_SIZE = 1.0
#: SRD rotation angle.
ALPHA_DEG = 130.0
#: Calibrated per-particle CPU cost of one MD step (force evaluation,
#: coupling, sorting) — reproduces the paper's absolute runtimes.
MD_COST_PER_PARTICLE_S = 0.92e-6
#: Fraction of local particles crossing a rank boundary per step
#: (timed-mode migration volume).
MIGRATION_FRACTION = 0.004


@dataclasses.dataclass(frozen=True)
class MP2CConfig:
    """One MP2C run: particle count, step count and MD time step."""

    n_particles: int
    steps: int = 300
    dt: float = 0.02

    def __post_init__(self) -> None:
        if self.n_particles <= 0:
            raise WorkloadError("n_particles must be positive")
        if self.steps <= 0:
            raise WorkloadError("steps must be positive")

    @property
    def n_cells(self) -> int:
        return max(1, self.n_particles // PARTICLES_PER_CELL)

    def box_edge_cells(self) -> int:
        """Cells per box edge for a cubic box."""
        return max(1, round(self.n_cells ** (1.0 / 3.0)))

    @property
    def n_srd_steps(self) -> int:
        return self.steps // SRD_EVERY

    def particle_bytes(self, n_local: int) -> int:
        """Bytes of one 3-vector array for ``n_local`` particles."""
        return n_local * 3 * 8


#: The three configurations of Figure 11.
PAPER_RUNS = [
    MP2CConfig(n_particles=5_120_000),
    MP2CConfig(n_particles=7_290_000),
    MP2CConfig(n_particles=10_000_000),
]
