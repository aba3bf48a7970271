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

    With ``streams=True`` the control sequences (setup allocations, the
    per-GPU dlarfb launch chains, teardown frees) go through asynchronous
    command streams, coalescing consecutive control ops into BATCH frames
    — identical numerics, fewer request round trips.
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
        st = [ac.stream(name=f"qr-ac{i}")
              for i, ac in enumerate(accelerators)]
        for s in st:
            s.kernel_create("qr_larfb")
        v_fut = [s.mem_alloc(n * nb * 8) for s in st]
        t_fut = [s.mem_alloc(nb * nb * 8) for s in st]
        panel_fut = {}
        for j in range(dist.n_panels):
            w = dist.width(j)
            i = dist.owner(j)
            ptr = st[i].mem_alloc(n * w * 8)
            st[i].memcpy_h2d(ptr, panel_payload(j, w))
            panel_fut[j] = ptr
        for s in st:
            yield from s.synchronize()
        v_buf = [f.result() for f in v_fut]
        t_buf = [f.result() for f in t_fut]
        panel_ptr = {j: f.result() for j, f in panel_fut.items()}
    else:
        st = None
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

    def streamed_updates(k: int, k0: int, w: int,
                         targets: _t.Sequence[int], skip: int | None = None):
        """Queue every trailing dlarfb on per-GPU streams, then wait.

        Consecutive launches on one GPU coalesce into BATCH frames; the
        per-GPU streams run concurrently, like ``run_parallel`` does for
        the sync path.
        """
        for i in targets:
            for j in dist.trailing_panels_of(i, k):
                if j == skip:
                    continue
                st[i].kernel_run("qr_larfb", larfb_params(i, j, k0, w),
                                 real=real)
        for i in targets:
            yield from st[i].synchronize()

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

            rest = ([streamed_updates(k, k0, w, targets, skip=nxt)] if streams
                    else [update_rest(i) for i in targets])
            results = yield from run_parallel(
                engine, [panel_path()] + rest)
            pending = (nxt, results[0])
        elif streams:
            yield from streamed_updates(k, k0, w, targets)
        else:
            def update(i):
                for j in dist.trailing_panels_of(i, k):
                    yield from larfb(i, j, k0, w)

            yield from run_parallel(engine, [update(i) for i in targets])
    seconds = engine.now - t0

    # -- teardown (untimed) ----------------------------------------------
    if streams:
        for j, ptr in panel_ptr.items():
            st[dist.owner(j)].mem_free(ptr)
        for i in range(g):
            st[i].mem_free(v_buf[i])
            st[i].mem_free(t_buf[i])
        for s in st:
            yield from s.synchronize()
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
