"""Geometric domain decomposition for the parallel MP2C runs.

The box is split into equal slabs along x, one per MPI rank (MP2C uses a
full 3-D decomposition; with the paper's two ranks a slab split is the
same thing).  Slab boundaries are aligned to the collision-cell grid so
no SRD cell ever spans two ranks.  After each streaming step particles
that crossed a slab boundary migrate to the neighbouring rank.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ...errors import WorkloadError
from .config import CELL_SIZE


@dataclasses.dataclass(frozen=True)
class SlabDecomposition:
    """Cell-aligned slab decomposition along x."""

    box: tuple[float, float, float]
    n_ranks: int

    def __post_init__(self) -> None:
        if self.n_ranks <= 0:
            raise WorkloadError("need at least one rank")
        cells_x = self.box[0] / CELL_SIZE
        if abs(cells_x - round(cells_x)) > 1e-9:
            raise WorkloadError("box x-edge must be a whole number of cells")
        if round(cells_x) % self.n_ranks != 0:
            raise WorkloadError(
                f"{round(cells_x)} cell columns do not split evenly over "
                f"{self.n_ranks} ranks")

    @property
    def slab_width(self) -> float:
        return self.box[0] / self.n_ranks

    def bounds(self, rank: int) -> tuple[float, float]:
        """[x_lo, x_hi) of one rank's slab."""
        self._check(rank)
        return rank * self.slab_width, (rank + 1) * self.slab_width

    def owner_of(self, pos: np.ndarray) -> np.ndarray:
        """Owning rank of each particle (positions already wrapped)."""
        ranks = (pos[:, 0] / self.slab_width).astype(np.int64)
        return np.clip(ranks, 0, self.n_ranks - 1)

    def neighbors(self, rank: int) -> tuple[int, int]:
        """(left, right) periodic neighbours."""
        self._check(rank)
        return ((rank - 1) % self.n_ranks, (rank + 1) % self.n_ranks)

    def split_leavers(self, rank: int, pos: np.ndarray, vel: np.ndarray):
        """Partition local particles into (stay, to_left, to_right).

        Returns ``(pos_stay, vel_stay, out)`` where ``out`` maps the
        destination rank to its ``(pos, vel)`` bundle.  With periodic
        wrapping a particle moves at most one slab per step (CFL-style
        assumption, asserted).
        """
        owners = self.owner_of(pos)
        stay = owners == rank
        out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        left, right = self.neighbors(rank)
        for dest in np.unique(owners[~stay]):
            dest = int(dest)
            if dest not in (left, right):
                raise WorkloadError(
                    f"particle jumped from rank {rank} to non-neighbour {dest} "
                    "(time step too large for the slab width)")
            mask = owners == dest
            out[dest] = (pos[mask].copy(), vel[mask].copy())
        return pos[stay], vel[stay], out

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise WorkloadError(f"rank {rank} out of range")
