"""Multi-GPU blocked QR factorization (``magma_dgeqrf2_mgpu`` analogue).

Hybrid CPU/GPU algorithm with 1-D block-cyclic column distribution:

1. download the current panel column from its owning GPU;
2. Householder-factor the panel on the host CPU (``dgeqrf`` + ``dlarft``);
3. broadcast the reflector block V and the T factor to every GPU that owns
   trailing columns;
4. each GPU applies the block reflector (``dlarfb``) to its local trailing
   panels in parallel.

Every panel round-trips through the host, which is why QR is the
bandwidth-sensitive kernel of the paper's Figure 9: with network-attached
GPUs each step's D2H + broadcast travels at ~2.6 GiB/s instead of
~5.7 GiB/s.  The same driver runs on local and remote accelerators, in
real (verified numerics) or timed (paper-scale) mode.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from . import kernels as _kernels  # noqa: F401  (publishes device kernels)
from ...core.api import run_parallel
from ...core.protocol import Op
from ...cluster.specs import CPUSpec
from ...errors import WorkloadError
from ...mpisim import Phantom
from ...sim import Engine
from ...units import gflops
from .distribution import BlockCyclic
from .hostmem import as_matrix
from .panel import householder_panel, panel_qr_flops


def qr_flops(n: int) -> float:
    """dgeqrf flop count for an n x n matrix."""
    return 4.0 * n ** 3 / 3.0


@dataclasses.dataclass
class QRResult:
    """Outcome of one factorization run."""

    n: int
    nb: int
    n_gpus: int
    seconds: float          # virtual time of the factorization loop
    real: bool
    lookahead: bool = False
    R: np.ndarray | None = None
    #: (k0, V, T) per panel step, for reconstructing Q in tests.
    reflectors: list[tuple[int, np.ndarray, np.ndarray]] = dataclasses.field(
        default_factory=list)

    @property
    def gflops(self) -> float:
        return gflops(qr_flops(self.n), self.seconds)


def qr_factorize(engine: Engine, cpu: CPUSpec, accelerators: _t.Sequence[_t.Any],
                 n: int, nb: int = 128, A: np.ndarray | None = None,
                 lookahead: bool = False, streams: bool = False):
    """Factor an n x n matrix on the given accelerators (generator).

    ``accelerators`` are Remote- or LocalAccelerator front-ends.  Passing a
    real matrix ``A`` enables full numerics; otherwise the run is
    timing-only with phantom payloads.  The timed region is the
    factorization loop; the initial panel distribution is excluded, like
    MAGMA's testing harness.

    With ``lookahead=True`` the driver applies MAGMA's key optimization:
    at step k the next panel (k+1) is updated *first*, then downloaded and
    factored on the CPU **while** the GPUs update the remaining trailing
    panels — hiding the panel factorization and its transfers behind the
    bulk dlarfb work.

    With ``streams=True`` each GPU's runs of control ops (setup
    allocations, its dlarfb launches of a step, teardown frees) travel
    as batch frames through ``control_run``, one branch per GPU —
    identical numerics, fewer request round trips.
    """
    real = A is not None
    if real and A.shape != (n, n):
        raise WorkloadError(f"matrix shape {A.shape} does not match n={n}")
    g = len(accelerators)
    if g == 0:
        raise WorkloadError("need at least one accelerator")
    dist = BlockCyclic(n, nb, g)

    # -- setup: kernels, workspaces, panel distribution (untimed) --------
    def panel_payload(j: int, w: int) -> _t.Any:
        return (np.ascontiguousarray(A[:, dist.cols(j)]) if real
                else Phantom(n * w * 8))

    panel_ptr: dict[int, int] = {}
    if streams:
        def setup(i: int):
            """GPU i's setup: its first run of control ops is one frame."""
            ac = accelerators[i]
            mine = [j for j in range(dist.n_panels) if dist.owner(j) == i]
            _, v, t, *first = yield from ac.control_run(
                [(Op.KERNEL_CREATE, {"name": "qr_larfb"}),
                 (Op.MEM_ALLOC, {"nbytes": n * nb * 8}),
                 (Op.MEM_ALLOC, {"nbytes": nb * nb * 8})]
                + [(Op.MEM_ALLOC, {"nbytes": n * dist.width(j) * 8})
                   for j in mine[:1]])
            ptrs = dict(zip(mine, first))
            for j in mine:
                w = dist.width(j)
                if j not in ptrs:
                    ptrs[j] = yield from ac.mem_alloc(n * w * 8)
                yield from ac.memcpy_h2d(ptrs[j], panel_payload(j, w))
            return v, t, ptrs

        done = yield from run_parallel(engine, [setup(i) for i in range(g)])
        v_buf = [v for v, _, _ in done]
        t_buf = [t for _, t, _ in done]
        panel_ptr = dict(sorted(
            item for _, _, ptrs in done for item in ptrs.items()))
    else:
        for ac in accelerators:
            yield from ac.kernel_create("qr_larfb")
        v_buf = []
        t_buf = []
        for ac in accelerators:
            v_buf.append((yield from ac.mem_alloc(n * nb * 8)))
            t_buf.append((yield from ac.mem_alloc(nb * nb * 8)))
        for j in range(dist.n_panels):
            w = dist.width(j)
            ac = accelerators[dist.owner(j)]
            ptr = yield from ac.mem_alloc(n * w * 8)
            yield from ac.memcpy_h2d(ptr, panel_payload(j, w))
            panel_ptr[j] = ptr

    R = np.zeros((n, n)) if real else None
    reflectors: list[tuple[int, np.ndarray, np.ndarray]] = []

    def larfb_params(i: int, j: int, k0: int, w: int) -> dict:
        return {"V": v_buf[i], "T": t_buf[i], "panel": panel_ptr[j],
                "n": n, "wk": w, "wj": dist.width(j), "k0": k0}

    def larfb(i: int, j: int, k0: int, w: int):
        """Apply the current block reflector to trailing panel j on GPU i."""
        yield from accelerators[i].kernel_run(
            "qr_larfb", larfb_params(i, j, k0, w), real=real)

    def batched_updates(k: int, k0: int, w: int,
                        targets: _t.Sequence[int], skip: int | None = None):
        """One branch per GPU sending its trailing dlarfb launches as
        control runs (GPUs left with no launch get no branch)."""
        launches = {i: [(Op.KERNEL_RUN, {"name": "qr_larfb",
                                         "params": larfb_params(i, j, k0, w),
                                         "real": real})
                        for j in dist.trailing_panels_of(i, k) if j != skip]
                    for i in targets}
        return [accelerators[i].control_run(calls)
                for i, calls in launches.items() if calls]

    # -- the factorization loop (timed) ----------------------------------
    t0 = engine.now
    #: Lookahead state: (panel index, downloaded raw panel) factored early.
    pending: tuple[int, _t.Any] | None = None
    for k in range(dist.n_panels):
        k0 = dist.col0(k)
        w = dist.width(k)
        h = n - k0
        owner_ac = accelerators[dist.owner(k)]

        # 1./2. Download the panel column and factor it on the host — or
        # consume the result the lookahead path produced during step k-1
        # (its download and CPU time were already charged there).
        if pending is not None and pending[0] == k:
            raw = pending[1]
            pending = None
        else:
            raw = yield from owner_ac.memcpy_d2h(panel_ptr[k], n * w * 8)
            yield engine.sleep(cpu.flops_time(panel_qr_flops(h, w)))
        if real:
            col = as_matrix(raw, n, w)
            V, T, Rkk = householder_panel(col[k0:, :])
            R[:k0, dist.cols(k)] = col[:k0, :]
            R[k0:k0 + w, dist.cols(k)] = Rkk
            reflectors.append((k0, V, T))
            v_payload: _t.Any = V
            t_payload: _t.Any = T
        else:
            v_payload = Phantom(h * w * 8)
            t_payload = Phantom(w * w * 8)

        # 3. Write the reflector panel back into the owner's matrix storage
        #    (the factored V occupies the sub-diagonal part of the panel),
        #    and broadcast V and T to the GPUs with trailing work.
        yield from owner_ac.memcpy_h2d(panel_ptr[k], v_payload,
                                       offset=k0 * w * 8)
        targets = sorted({dist.owner(j) for j in range(k + 1, dist.n_panels)})
        if not targets:
            continue

        def send_vt(i):
            ac = accelerators[i]
            yield from ac.memcpy_h2d(v_buf[i], v_payload)
            yield from ac.memcpy_h2d(t_buf[i], t_payload)

        yield from run_parallel(engine, [send_vt(i) for i in targets])

        # 4. Apply the block reflector to every trailing panel.
        if lookahead and k + 1 < dist.n_panels:
            # Update panel k+1 first on its owner, then factor it on the
            # CPU while everything else updates.
            nxt = k + 1
            nxt_owner = dist.owner(nxt)
            w1 = dist.width(nxt)
            h1 = n - dist.col0(nxt)
            yield from larfb(nxt_owner, nxt, k0, w)

            def panel_path():
                r = yield from accelerators[nxt_owner].memcpy_d2h(
                    panel_ptr[nxt], n * w1 * 8)
                yield engine.sleep(cpu.flops_time(panel_qr_flops(h1, w1)))
                return r

            def update_rest(i):
                for j in dist.trailing_panels_of(i, k):
                    if j == nxt:
                        continue
                    yield from larfb(i, j, k0, w)

            rest = (batched_updates(k, k0, w, targets, skip=nxt) if streams
                    else [update_rest(i) for i in targets])
            results = yield from run_parallel(
                engine, [panel_path()] + rest)
            pending = (nxt, results[0])
        elif streams:
            yield from run_parallel(engine,
                                    batched_updates(k, k0, w, targets))
        else:
            def update(i):
                for j in dist.trailing_panels_of(i, k):
                    yield from larfb(i, j, k0, w)

            yield from run_parallel(engine, [update(i) for i in targets])
    seconds = engine.now - t0

    # -- teardown (untimed) ----------------------------------------------
    if streams:
        frees: list[list] = [[] for _ in range(g)]
        for j, ptr in panel_ptr.items():
            frees[dist.owner(j)].append((Op.MEM_FREE, {"addr": ptr}))
        for i in range(g):
            frees[i] += [(Op.MEM_FREE, {"addr": v_buf[i]}),
                         (Op.MEM_FREE, {"addr": t_buf[i]})]
        yield from run_parallel(engine, [accelerators[i].control_run(f)
                                         for i, f in enumerate(frees)])
    else:
        for j, ptr in panel_ptr.items():
            yield from accelerators[dist.owner(j)].mem_free(ptr)
        for i, ac in enumerate(accelerators):
            yield from ac.mem_free(v_buf[i])
            yield from ac.mem_free(t_buf[i])

    return QRResult(n=n, nb=nb, n_gpus=g, seconds=seconds, real=real,
                    lookahead=lookahead, R=R, reflectors=reflectors)


def reconstruct_q(n: int, reflectors: list[tuple[int, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Rebuild Q from the per-panel (k0, V, T) factors (for verification)."""
    Q = np.eye(n)
    for k0, V, T in reversed(reflectors):
        block = Q[k0:, :]
        block -= V @ (T @ (V.T @ block))
    return Q
