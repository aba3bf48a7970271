"""Device kernels of the multi-GPU factorizations.

Published to the GPU extension catalog at import time; ``kernel_create``
installs them onto a device on first use (module upload).  All kernels
take their dimensions from parameters so costs work in timing-only mode,
and operate on explicit row windows of full-height column-panel buffers.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ...gpusim.kernels import provide
from ...gpusim.timing import gemm_time, trsm_time

if _t.TYPE_CHECKING:  # pragma: no cover
    from ...gpusim.device import GPUDevice, GPUSpec


def _panel_view(dev: "GPUDevice", addr: int, n: int, w: int) -> np.ndarray:
    """A full-height (n x w) view of a column-panel buffer."""
    return dev.memory.view(addr, dtype="float64", shape=(n, w))


# -- QR: apply the block reflector to one trailing panel --------------------

def _qr_larfb_fn(dev: "GPUDevice", p: dict):
    """panel[k0:n, :] <- (I - V T V^T)^T @ panel[k0:n, :].

    ``V`` is (h x wk) with h = n - k0; ``T`` is (wk x wk).
    """
    n, wk, wj, k0 = p["n"], p["wk"], p["wj"], p["k0"]
    h = n - k0
    V = dev.memory.view(p["V"], dtype="float64", shape=(h, wk))
    T = dev.memory.view(p["T"], dtype="float64", shape=(wk, wk))
    C = _panel_view(dev, p["panel"], n, wj)[k0:, :]

    def compute():
        W = V.T @ C
        W = T.T @ W
        np.subtract(C, V @ W, out=C)
        return 0
    return compute


def _qr_larfb_cost(p: dict, spec: "GPUSpec") -> float:
    n, wk, wj, k0 = p["n"], p["wk"], p["wj"], p["k0"]
    h = n - k0
    # Three gemms: (wk x h)(h x wj), (wk x wk)(wk x wj), (h x wk)(wk x wj).
    return (gemm_time(spec, wk, wj, h)
            + gemm_time(spec, wk, wj, wk)
            + gemm_time(spec, h, wj, wk))


# -- Cholesky: triangular solve of the sub-diagonal panel -------------------

def _chol_trsm_fn(dev: "GPUDevice", p: dict):
    """panel[k1:n, :] <- panel[k1:n, :] @ inv(Lkk)^T (right, lower, trans).

    ``Lkk`` is the factored diagonal block, read in place from rows
    [k0:k1) of the same panel buffer.
    """
    n, w, k0, k1 = p["n"], p["w"], p["k0"], p["k1"]
    P = _panel_view(dev, p["panel"], n, w)
    Lkk = P[k0:k1, :]
    B = P[k1:, :]
    # Imported in bind (as in gpusim.stdkernels): importing the package
    # must not load scipy.
    import scipy.linalg as sla

    def compute():
        if B.shape[0]:
            X = sla.solve_triangular(Lkk, B.T, lower=True)
            B[:] = X.T
        return 0
    return compute


def _chol_trsm_cost(p: dict, spec: "GPUSpec") -> float:
    n, w, k1 = p["n"], p["w"], p["k1"]
    return trsm_time(spec, max(n - k1, 1), w)


# -- Cholesky: rank-wk update of one trailing panel --------------------------

def _chol_update_fn(dev: "GPUDevice", p: dict):
    """panel[j0:n, :] -= L[rows j0..n] @ L[rows j0..j0+wj]^T.

    ``L`` holds the factored sub-diagonal panel L21 (rows k1..n of step k)
    starting at row offset ``l_off`` of its buffer: the owner passes its
    own column panel (l_off = k1), other GPUs a received scratch copy
    (l_off = 0).
    """
    n, wk, wj, k1, j0, l_off = (p["n"], p["wk"], p["wj"], p["k1"], p["j0"],
                                p["l_off"])
    rows = n - k1  # height of L21
    Lbuf = dev.memory.view(p["L"], dtype="float64",
                           shape=(l_off + rows, wk))[l_off:, :]
    C = _panel_view(dev, p["panel"], n, wj)[j0:, :]
    left = Lbuf[j0 - k1:, :]              # rows j0..n of L21
    right = Lbuf[j0 - k1:j0 - k1 + wj, :]  # rows j0..j0+wj

    def compute():
        np.subtract(C, left @ right.T, out=C)
        return 0
    return compute


def _chol_update_cost(p: dict, spec: "GPUSpec") -> float:
    n, wk, wj, j0 = p["n"], p["wk"], p["wj"], p["j0"]
    return gemm_time(spec, n - j0, wj, wk)


provide("qr_larfb", _qr_larfb_fn, _qr_larfb_cost)
provide("chol_trsm", _chol_trsm_fn, _chol_trsm_cost)
provide("chol_update", _chol_update_fn, _chol_update_cost)
