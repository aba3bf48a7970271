"""Multi-GPU blocked Cholesky factorization (``magma_dpotrf_mgpu`` analogue).

Right-looking hybrid algorithm over the same 1-D block-cyclic layout as
the QR driver:

1. download the nb x nb diagonal block from its owner;
2. ``dpotf2`` on the host CPU, upload the factored block back;
3. the owner GPU triangular-solves its sub-diagonal panel (``dtrsm``);
4. the factored panel L21 is broadcast to the *other* GPUs (the owner
   already has it on device!), and every GPU rank-nb-updates its local
   trailing panels.

With a single GPU steps 1-3 move only nb^2-sized blocks per step — which
is why Cholesky is far less bandwidth-sensitive than QR in the paper's
Figure 10: the bulk panel traffic only appears when the update must be
shared between multiple GPUs.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from . import kernels as _kernels  # noqa: F401  (publishes device kernels)
from ...core.api import run_parallel
from ...cluster.specs import CPUSpec
from ...errors import WorkloadError
from ...mpisim import Phantom
from ...sim import Engine
from ...units import gflops
from .distribution import BlockCyclic
from .hostmem import as_matrix
from .panel import potf2, potf2_flops


def cholesky_flops(n: int) -> float:
    """dpotrf flop count for an n x n matrix."""
    return n ** 3 / 3.0


@dataclasses.dataclass
class CholeskyResult:
    """Outcome of one factorization run."""

    n: int
    nb: int
    n_gpus: int
    seconds: float
    real: bool
    L: np.ndarray | None = None

    @property
    def gflops(self) -> float:
        return gflops(cholesky_flops(self.n), self.seconds)


def cholesky_factorize(engine: Engine, cpu: CPUSpec,
                       accelerators: _t.Sequence[_t.Any],
                       n: int, nb: int = 128, A: np.ndarray | None = None):
    """Factor an SPD n x n matrix on the given accelerators (generator).

    Same conventions as :func:`repro.workloads.linalg.qr.qr_factorize`:
    real numerics when ``A`` is given, timing-only otherwise; the timed
    region is the factorization loop.
    """
    real = A is not None
    if real and A.shape != (n, n):
        raise WorkloadError(f"matrix shape {A.shape} does not match n={n}")
    g = len(accelerators)
    if g == 0:
        raise WorkloadError("need at least one accelerator")
    dist = BlockCyclic(n, nb, g)

    # -- setup (untimed) --------------------------------------------------
    def panel_payload(j: int, w: int) -> _t.Any:
        return (np.ascontiguousarray(A[:, dist.cols(j)]) if real
                else Phantom(n * w * 8))

    panel_ptr: dict[int, int] = {}
    for ac in accelerators:
        yield from ac.kernel_create("chol_trsm")
        yield from ac.kernel_create("chol_update")
    l_scratch = []
    for ac in accelerators:
        l_scratch.append((yield from ac.mem_alloc(n * nb * 8)))
    for j in range(dist.n_panels):
        w = dist.width(j)
        ac = accelerators[dist.owner(j)]
        ptr = yield from ac.mem_alloc(n * w * 8)
        yield from ac.memcpy_h2d(ptr, panel_payload(j, w))
        panel_ptr[j] = ptr

    # -- the factorization loop (timed) ------------------------------------
    t0 = engine.now
    for k in range(dist.n_panels):
        k0 = dist.col0(k)
        w = dist.width(k)
        k1 = k0 + w
        owner = dist.owner(k)
        owner_ac = accelerators[owner]

        # 1. Download the diagonal block (rows k0..k1 of a width-w panel
        #    are contiguous at byte offset k0*w*8).
        raw = yield from owner_ac.memcpy_d2h(panel_ptr[k], w * w * 8,
                                             offset=k0 * w * 8)

        # 2. Host dpotf2, then upload the factored block in place.
        yield engine.sleep(cpu.flops_time(potf2_flops(w)))
        if real:
            blk = as_matrix(raw, w, w)
            Lkk = potf2(blk)
            up_payload: _t.Any = np.ascontiguousarray(Lkk)
        else:
            up_payload = Phantom(w * w * 8)
        yield from owner_ac.memcpy_h2d(panel_ptr[k], up_payload,
                                       offset=k0 * w * 8)

        if k1 >= n:
            continue

        # 3. Triangular solve of the sub-diagonal panel on the owner.
        yield from owner_ac.kernel_run(
            "chol_trsm",
            {"panel": panel_ptr[k], "n": n, "w": w, "k0": k0, "k1": k1},
            real=real)

        # 4. Share L21 with the other GPUs that have trailing work.
        targets = sorted({dist.owner(j) for j in range(k + 1, dist.n_panels)})
        others = [i for i in targets if i != owner]
        if others:
            l21_bytes = (n - k1) * w * 8
            raw_l21 = yield from owner_ac.memcpy_d2h(panel_ptr[k], l21_bytes,
                                                     offset=k1 * w * 8)
            if real:
                l21_payload: _t.Any = as_matrix(raw_l21, n - k1, w).copy()
            else:
                l21_payload = Phantom(l21_bytes)

            def send_l21(i):
                yield from accelerators[i].memcpy_h2d(l_scratch[i], l21_payload)

            yield from run_parallel(engine, [send_l21(i) for i in others])

        # 5. Rank-w update of every trailing panel, all GPUs in parallel.
        def update_params(i, j):
            l_ptr = panel_ptr[k] if i == owner else l_scratch[i]
            l_off = k1 if i == owner else 0
            return {"L": l_ptr, "l_off": l_off, "panel": panel_ptr[j],
                    "n": n, "wk": w, "wj": dist.width(j),
                    "k1": k1, "j0": dist.col0(j)}

        def update(i):
            for j in dist.trailing_panels_of(i, k):
                yield from accelerators[i].kernel_run(
                    "chol_update", update_params(i, j), real=real)

        yield from run_parallel(engine, [update(i) for i in targets])
    seconds = engine.now - t0

    # -- gather the result (untimed) ---------------------------------------
    L = None
    if real:
        L = np.zeros((n, n))
        for j in range(dist.n_panels):
            w = dist.width(j)
            raw = yield from accelerators[dist.owner(j)].memcpy_d2h(
                panel_ptr[j], n * w * 8)
            L[:, dist.cols(j)] = as_matrix(raw, n, w)
        L = np.tril(L)

    for j, ptr in panel_ptr.items():
        yield from accelerators[dist.owner(j)].mem_free(ptr)
    for i, ac in enumerate(accelerators):
        yield from ac.mem_free(l_scratch[i])

    return CholeskyResult(n=n, nb=nb, n_gpus=g, seconds=seconds, real=real, L=L)
