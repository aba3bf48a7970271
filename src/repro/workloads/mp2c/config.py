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
import math

from ...errors import WorkloadError


@dataclasses.dataclass(frozen=True)
class MP2CConfig:
    """One MP2C run: physics, decomposition, and cost calibration."""

    n_particles: int
    steps: int = 300
    srd_every: int = 5
    particles_per_cell: int = 10
    cell_size: float = 1.0
    alpha_deg: float = 130.0          # SRD rotation angle
    dt: float = 0.02
    temperature: float = 1.0
    #: Calibrated per-particle CPU cost of one MD step (force evaluation,
    #: coupling, sorting) — reproduces the paper's absolute runtimes.
    md_cost_per_particle_s: float = 0.92e-6
    #: Per-particle GPU cost of the SRD collision kernel.
    srd_gpu_cost_per_particle_s: float = 5.0e-9
    #: Fraction of local particles crossing a rank boundary per step
    #: (timed-mode migration volume).
    migration_fraction: float = 0.004

    def __post_init__(self) -> None:
        if self.n_particles <= 0:
            raise WorkloadError("n_particles must be positive")
        if self.steps <= 0 or self.srd_every <= 0:
            raise WorkloadError("steps and srd_every must be positive")
        if self.particles_per_cell <= 0:
            raise WorkloadError("particles_per_cell must be positive")
        if not 0 < self.alpha_deg < 360:
            raise WorkloadError("alpha must be in (0, 360) degrees")

    @property
    def n_cells(self) -> int:
        return max(1, self.n_particles // self.particles_per_cell)

    def box_edge_cells(self) -> int:
        """Cells per box edge for a cubic box."""
        return max(1, round(self.n_cells ** (1.0 / 3.0)))

    @property
    def alpha_rad(self) -> float:
        return math.radians(self.alpha_deg)

    @property
    def n_srd_steps(self) -> int:
        return self.steps // self.srd_every

    def particle_bytes(self, n_local: int) -> int:
        """Bytes of one 3-vector array for ``n_local`` particles."""
        return n_local * 3 * 8


#: The three configurations of Figure 11.
PAPER_RUNS = [
    MP2CConfig(n_particles=5_120_000),
    MP2CConfig(n_particles=7_290_000),
    MP2CConfig(n_particles=10_000_000),
]
