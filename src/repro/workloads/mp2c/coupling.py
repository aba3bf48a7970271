"""The MP2C driver: MD streaming + migration + GPU-offloaded SRD.

One simulation process per MPI rank, each owning one accelerator (local
or network-attached) — the configuration of the paper's Sect. V-C runs
(two processes on separate nodes, one GPU each).  Per MD step:

1. CPU work: stream/integrate the local particles (charged to the
   calibrated per-particle cost; real mode also moves them numerically);
2. migrate boundary-crossing particles to the neighbouring ranks;
3. every ``SRD_EVERY``-th step, offload the SRD collision: upload
   positions + velocities, run the collision kernel, download the new
   velocities.

In timed mode the particle arrays are phantoms of the true sizes, so the
transfer schedule — the thing the dynamic architecture changes — is
exercised exactly.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

import numpy as np

from . import kernels as _kernels  # noqa: F401  (publishes srd_collide)
from ...cluster.specs import CPUSpec
from ...core.api import run_parallel
from ...errors import WorkloadError
from ...mpisim import Phantom, RankHandle
from ...sim import Engine
from ..linalg.hostmem import as_matrix
from .config import (
    ALPHA_DEG,
    CELL_SIZE,
    MD_COST_PER_PARTICLE_S,
    MIGRATION_FRACTION,
    SRD_EVERY,
    MP2CConfig,
)
from .domain import SlabDecomposition
from .md import lj_forces_on_local, stream, wrap_periodic

_MIG_TAG = 900
#: Tag slots used per MD step: solvent migration (0,1), solute migration
#: (2,3), solute halo exchange (4,5).
_TAGS_PER_STEP = 6
#: Tag block for the pre-loop halo exchange that seeds the solute forces.
_PRELOOP_TAG = 800


def _neighbour_exchange(rank, left: int, right: int, base_tag: int,
                        to_left: _t.Any, to_right: _t.Any):
    """Symmetric exchange with both slab neighbours (generator).

    Returns the two received payloads.  With two ranks the single
    neighbour plays both roles, so two distinct tags keep the streams
    apart.
    """
    if left == right:
        m1 = yield from rank.sendrecv(left, base_tag, to_left,
                                      source=left, recv_tag=base_tag)
        m2 = yield from rank.sendrecv(left, base_tag + 1, to_right,
                                      source=left, recv_tag=base_tag + 1)
    else:
        m1 = yield from rank.sendrecv(left, base_tag, to_left,
                                      source=right, recv_tag=base_tag)
        m2 = yield from rank.sendrecv(right, base_tag + 1, to_right,
                                      source=left, recv_tag=base_tag + 1)
    return m1.payload, m2.payload


def _gather_arrays(arrivals) -> np.ndarray:
    """Stack the non-empty (n, 6) migration bundles."""
    incoming = [a for a in arrivals if isinstance(a, np.ndarray) and a.size]
    if not incoming:
        return np.empty((0, 6))
    return np.concatenate(incoming, axis=0)


@dataclasses.dataclass
class MP2CResult:
    """Outcome of one parallel MP2C run."""

    config: MP2CConfig
    n_ranks: int
    seconds: float
    real: bool
    #: Final per-rank particle states (real mode only).
    final: list[tuple[np.ndarray, np.ndarray]] | None = None

    @property
    def minutes(self) -> float:
        return self.seconds / 60.0


def _migrate(rank, decomp, me: int, left: int, right: int, base_tag: int,
             pos: np.ndarray, vel: np.ndarray):
    """Exchange boundary-crossing particles; returns updated arrays."""
    pos, vel, leaving = decomp.split_leavers(me, pos, vel)
    payloads = {dest: np.concatenate([p, v], axis=1)
                for dest, (p, v) in leaving.items()}
    empty = np.empty((0, 6))
    to_left = payloads.get(left, empty)
    # With two ranks the single neighbour is both left and right;
    # everything goes in the "left" exchange.
    to_right = empty if left == right else payloads.get(right, empty)
    arrivals = yield from _neighbour_exchange(rank, left, right, base_tag,
                                              to_left, to_right)
    joined = _gather_arrays(arrivals)
    if joined.size:
        pos = np.concatenate([pos, joined[:, :3]], axis=0)
        vel = np.concatenate([vel, joined[:, 3:]], axis=0)
    return pos, vel


def _solute_halos(rank, decomp, me: int, left: int, right: int,
                  base_tag: int, spos: np.ndarray):
    """Exchange solute positions within the cutoff of the slab faces."""
    lo, hi = decomp.bounds(me)
    rcut = CELL_SIZE * 2.5  # LJ cutoff in cell units
    if left == right:
        # Two ranks: both faces border the same neighbour.  Send the
        # union of the two bands once so overlapping bands (narrow slabs)
        # cannot double-count any particle.
        band = spos[(spos[:, 0] < lo + rcut) | (spos[:, 0] >= hi - rcut)]
        halos = yield from _neighbour_exchange(rank, left, right, base_tag,
                                               band, np.empty((0, 3)))
    else:
        near_left = spos[spos[:, 0] < lo + rcut]
        near_right = spos[spos[:, 0] >= hi - rcut]
        halos = yield from _neighbour_exchange(rank, left, right, base_tag,
                                               near_left, near_right)
    return [h for h in halos if isinstance(h, np.ndarray) and h.size]


def _solute_forces(spos: np.ndarray, halos: list[np.ndarray],
                   box: np.ndarray, rcut: float) -> np.ndarray:
    """Forces on local solutes from local and halo solutes."""
    f = lj_forces_on_local(spos, spos, box, rcut, skip_self=True)
    for h in halos:
        f += lj_forces_on_local(spos, h, box, rcut)
    return f


def _rank_body(engine: Engine, cpu: CPUSpec, rank: RankHandle, ac: _t.Any,
               cfg: MP2CConfig, decomp: SlabDecomposition,
               pos: np.ndarray | None, vel: np.ndarray | None,
               spos: np.ndarray | None, svel: np.ndarray | None,
               out: list):
    """The per-rank simulation loop (generator)."""
    real = pos is not None
    me = rank.index
    box = np.array([decomp.box[0], decomp.box[1], decomp.box[2]])
    rcut = CELL_SIZE * 2.5
    n_local = (pos.shape[0] if real
               else cfg.n_particles // decomp.n_ranks)
    has_solutes = real and spos is not None and spos.shape[0] >= 0
    n_sol = spos.shape[0] if has_solutes else 0
    vec_bytes = cfg.particle_bytes(int((n_local + n_sol) * 1.25) + 16)

    yield from ac.kernel_create("srd_collide")
    gpu_pos = yield from ac.mem_alloc(vec_bytes)
    gpu_vel = yield from ac.mem_alloc(vec_bytes)

    left, right = decomp.neighbors(me)

    # Seed the solute forces F(t=0) with one halo exchange.
    sforce = None
    if has_solutes:
        if decomp.n_ranks > 1:
            halos = yield from _solute_halos(rank, decomp, me, left, right,
                                             _PRELOOP_TAG, spos)
        else:
            halos = []
        sforce = _solute_forces(spos, halos, box, rcut)

    for step in range(cfg.steps):
        tags = _MIG_TAG + _TAGS_PER_STEP * step
        # 1. CPU: streaming / MD / coupling work on local particles.
        count = pos.shape[0] if real else n_local
        yield engine.sleep(count * MD_COST_PER_PARTICLE_S)
        if real:
            stream(pos, vel, cfg.dt)
            wrap_periodic(pos, box)
            if has_solutes:
                # Velocity Verlet: half kick, drift (second half kick
                # after forces are recomputed below).
                svel += 0.5 * cfg.dt * sforce
                stream(spos, svel, cfg.dt)
                wrap_periodic(spos, box)

        # 2. Migration with both neighbours (combined send+recv so the
        #    exchange cannot deadlock).
        if decomp.n_ranks > 1:
            if real:
                pos, vel = yield from _migrate(rank, decomp, me, left, right,
                                               tags, pos, vel)
                if has_solutes:
                    spos, svel = yield from _migrate(rank, decomp, me, left,
                                                     right, tags + 2,
                                                     spos, svel)
            else:
                mig = int(n_local * MIGRATION_FRACTION / 2)
                yield from _neighbour_exchange(rank, left, right, tags,
                                               Phantom(mig * 48),
                                               Phantom(mig * 48))

        # 2b. Solute forces for the second Verlet half kick.
        if has_solutes:
            if decomp.n_ranks > 1:
                halos = yield from _solute_halos(rank, decomp, me, left,
                                                 right, tags + 4, spos)
            else:
                halos = []
            sforce = _solute_forces(spos, halos, box, rcut)
            svel += 0.5 * cfg.dt * sforce

        # 3. SRD collision on the accelerator every srd_every-th step.
        #    Solutes participate in the collision cells — the MPC way of
        #    coupling the molecular and mesoscopic scales.
        if (step + 1) % SRD_EVERY == 0:
            if real and has_solutes:
                all_pos = np.concatenate([pos, spos], axis=0)
                all_vel = np.concatenate([vel, svel], axis=0)
            elif real:
                all_pos, all_vel = pos, vel
            count = all_pos.shape[0] if real else n_local
            nbytes = cfg.particle_bytes(int(count))
            pos_payload: _t.Any = (np.ascontiguousarray(all_pos) if real
                                   else Phantom(nbytes))
            vel_payload: _t.Any = (np.ascontiguousarray(all_vel) if real
                                   else Phantom(nbytes))
            shift_axes = (0, 1, 2) if decomp.n_ranks == 1 else (1, 2)
            srd_params = {"pos": gpu_pos, "vel": gpu_vel, "n": int(count),
                          "box": tuple(box), "a": CELL_SIZE,
                          "alpha": math.radians(ALPHA_DEG),
                          "seed": 10_000 + step,  # same on all ranks per step
                          "shift_axes": shift_axes}
            yield from ac.memcpy_h2d(gpu_pos, pos_payload)
            yield from ac.memcpy_h2d(gpu_vel, vel_payload)
            yield from ac.kernel_run("srd_collide", srd_params, real=real)
            new_vel = yield from ac.memcpy_d2h(gpu_vel, nbytes)
            if real:
                all_new = as_matrix(new_vel, int(count), 3).copy()
                if has_solutes:
                    vel = all_new[:pos.shape[0]]
                    svel = all_new[pos.shape[0]:]
                else:
                    vel = all_new

    yield from ac.mem_free(gpu_pos)
    yield from ac.mem_free(gpu_vel)
    if real:
        out[me] = ((pos, vel, spos, svel) if has_solutes else (pos, vel))
    else:
        out[me] = None


def run_mp2c(engine: Engine, cpu: CPUSpec, ranks: _t.Sequence[RankHandle],
             accelerators: _t.Sequence[_t.Any], cfg: MP2CConfig,
             initial: _t.Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
             solutes: _t.Sequence[tuple[np.ndarray, np.ndarray]] | None = None):
    """Run MP2C across ``ranks`` (generator). Returns :class:`MP2CResult`.

    ``initial`` supplies per-rank solvent (pos, vel) arrays for real mode;
    omit it for timing-only runs at paper scale.  ``solutes`` optionally
    adds per-rank Lennard-Jones solute particles (real mode only): they
    integrate with velocity Verlet under pairwise LJ forces — computed
    across rank boundaries through halo exchanges — and join the SRD
    collision cells, which is how MPC couples the molecular scale to the
    mesoscopic solvent.  With solutes, ``final`` holds per-rank
    ``(pos, vel, solute_pos, solute_vel)`` tuples.
    """
    n_ranks = len(ranks)
    if len(accelerators) != n_ranks:
        raise WorkloadError("need exactly one accelerator per rank")
    real = initial is not None
    if solutes is not None and not real:
        raise WorkloadError("solutes require real mode (pass `initial`)")
    if solutes is not None and len(solutes) != n_ranks:
        raise WorkloadError("need one solute bundle per rank")
    edge = cfg.box_edge_cells() * CELL_SIZE
    # Round the x edge up so it splits evenly over the ranks.
    cells_x = cfg.box_edge_cells()
    if cells_x % n_ranks:
        cells_x += n_ranks - cells_x % n_ranks
    decomp = SlabDecomposition(box=(cells_x * CELL_SIZE, edge, edge),
                               n_ranks=n_ranks)
    if (solutes is not None and n_ranks > 1
            and decomp.slab_width < 2.5 * CELL_SIZE):
        raise WorkloadError(
            "slab width is below the LJ cutoff; one-neighbour halo "
            "exchange would miss interactions")
    out: list = [None] * n_ranks
    t0 = engine.now
    bodies = []
    for i, (rank, ac) in enumerate(zip(ranks, accelerators)):
        pos, vel = (initial[i] if real else (None, None))
        spos, svel = (solutes[i] if solutes is not None else (None, None))
        bodies.append(_rank_body(engine, cpu, rank, ac, cfg, decomp,
                                 pos, vel, spos, svel, out))
    yield from run_parallel(engine, bodies)
    seconds = engine.now - t0
    return MP2CResult(config=cfg, n_ranks=n_ranks, seconds=seconds,
                      real=real, final=out if real else None)
