"""The SRD collision kernel offloaded to the GPU.

Published to the extension catalog; ``kernel_create`` installs it.  The
numerics are exactly :func:`repro.workloads.mp2c.srd.srd_collision` (same
seed -> same result as the host reference), and the cost model is a
memory-bound streaming estimate over the particle arrays.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ...gpusim.kernels import provide
from .srd import srd_collision

if _t.TYPE_CHECKING:  # pragma: no cover
    from ...gpusim.device import GPUDevice, GPUSpec

#: Effective GPU memory passes over pos+vel for binning, reduction,
#: rotation, and scatter.
_PASSES = 6


def _srd_fn(dev: "GPUDevice", p: dict):
    n = p["n"]
    pos = dev.memory.view(p["pos"], dtype="float64", shape=(n, 3))
    vel = dev.memory.view(p["vel"], dtype="float64", shape=(n, 3))
    box, a, alpha, seed = np.asarray(p["box"]), p["a"], p["alpha"], p["seed"]
    shift_axes = tuple(p.get("shift_axes", (0, 1, 2)))

    def compute():
        vel[:] = srd_collision(pos, vel, box, a, alpha, seed,
                               shift_axes=shift_axes)
        return 0
    return compute


def _srd_cost(p: dict, spec: "GPUSpec") -> float:
    n = p["n"]
    bytes_touched = _PASSES * 2 * n * 3 * 8
    return bytes_touched / spec.mem_bw_Bps


provide("srd_collide", _srd_fn, _srd_cost)
