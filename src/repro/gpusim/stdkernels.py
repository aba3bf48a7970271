"""Built-in device kernels: fills, vector ops, and BLAS-3 building blocks.

Every kernel takes its problem dimensions from ``params`` (so its cost is
computable without device data) and performs its numerics on typed views of
device buffers identified by address parameters.

Shapes follow row-major numpy conventions.  The BLAS-3 kernels are the
building blocks the MAGMA-style multi-GPU factorizations launch on each
accelerator.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..errors import KernelError
from .kernels import KernelRegistry
from .timing import (
    gemm_time,
    streaming_time,
    syrk_time,
    trsm_time,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from .device import GPUDevice, GPUSpec


def _need(params: dict, *keys: str) -> list:
    out = []
    for k in keys:
        if k not in params:
            raise KernelError(f"missing kernel parameter {k!r}")
        out.append(params[k])
    return out


# -- elementwise / vector kernels ----------------------------------------

def _fill_fn(dev: "GPUDevice", p: dict):
    dst, n, value = _need(p, "dst", "n", "value")
    view = dev.memory.view(dst, dtype=p.get("dtype", "float64"), shape=(n,))

    def compute():
        view[:] = value
        return 0
    return compute


def _fill_cost(p: dict, spec: "GPUSpec") -> float:
    (n,) = _need(p, "n")
    return streaming_time(spec, 8.0 * n)


def _axpy_fn(dev: "GPUDevice", p: dict):
    x, y, n, alpha = _need(p, "x", "y", "n", "alpha")
    xv = dev.memory.view(x, dtype="float64", shape=(n,))
    yv = dev.memory.view(y, dtype="float64", shape=(n,))
    if alpha == 1.0:
        # x * 1.0 == x exactly in IEEE 754 (-0.0, infinities and NaN
        # included), so y + x is the general path's result, with no
        # temporary: every reduce of a collective takes this one.
        def add():
            np.add(yv, xv, out=yv)
            return 0
        return add
    t = np.empty(n)

    def compute():
        np.multiply(xv, alpha, out=t)
        np.add(yv, t, out=yv)
        return 0
    return compute


def _axpy_cost(p: dict, spec: "GPUSpec") -> float:
    (n,) = _need(p, "n")
    return streaming_time(spec, 3 * 8.0 * n, flops=2.0 * n)


def _scal_fn(dev: "GPUDevice", p: dict):
    x, n, alpha = _need(p, "x", "n", "alpha")
    xv = dev.memory.view(x, dtype="float64", shape=(n,))

    def compute():
        np.multiply(xv, alpha, out=xv)
        return 0
    return compute


def _scal_cost(p: dict, spec: "GPUSpec") -> float:
    (n,) = _need(p, "n")
    return streaming_time(spec, 2 * 8.0 * n, flops=float(n))


def _dot_fn(dev: "GPUDevice", p: dict):
    x, y, out, n = _need(p, "x", "y", "out", "n")
    xv = dev.memory.view(x, dtype="float64", shape=(n,))
    yv = dev.memory.view(y, dtype="float64", shape=(n,))
    ov = dev.memory.view(out, dtype="float64", shape=(1,))

    def compute():
        ov[0] = float(xv @ yv)
        return 0
    return compute


def _dot_cost(p: dict, spec: "GPUSpec") -> float:
    (n,) = _need(p, "n")
    return streaming_time(spec, 2 * 8.0 * n, flops=2.0 * n)


# -- BLAS-3 kernels --------------------------------------------------------

def _update(c: np.ndarray, a: np.ndarray, b: np.ndarray, alpha: float,
            beta: float):
    """Bind C = alpha * a @ b + beta * C with no full-size temporary in
    ``compute``: the product lands in C itself (beta == 0) or in a
    temporary allocated here.  Bit-identical to ``c[:] = alpha * (a @ b)``
    and to ``c *= beta; c += alpha * (a @ b)``.

    BLAS semantics: with beta == 0 the input C is never read (it may hold
    uninitialized memory).
    """
    if beta == 0.0:
        def compute():
            np.matmul(a, b, out=c)
            if alpha != 1.0:
                np.multiply(c, alpha, out=c)
            return 0
        return compute
    t = np.empty(c.shape)

    def compute():
        np.multiply(c, beta, out=c)
        np.matmul(a, b, out=t)
        if alpha != 1.0:
            np.multiply(t, alpha, out=t)
        np.add(c, t, out=c)
        return 0
    return compute


def _gemm_fn(dev: "GPUDevice", p: dict):
    """C = alpha * op(A) @ op(B) + beta * C."""
    m, n, k = _need(p, "m", "n", "k")
    ta, tb = p.get("ta", False), p.get("tb", False)
    a = dev.memory.view(p["A"], dtype="float64", shape=(k, m) if ta else (m, k))
    b = dev.memory.view(p["B"], dtype="float64", shape=(n, k) if tb else (k, n))
    c = dev.memory.view(p["C"], dtype="float64", shape=(m, n))
    return _update(c, a.T if ta else a, b.T if tb else b,
                   p.get("alpha", 1.0), p.get("beta", 1.0))


def _gemm_cost(p: dict, spec: "GPUSpec") -> float:
    m, n, k = _need(p, "m", "n", "k")
    return gemm_time(spec, m, n, k)


def _syrk_fn(dev: "GPUDevice", p: dict):
    """C = beta * C + alpha * A @ A^T (lower triangle semantics).

    The full product is formed (numpy has no triangular kernel); only the
    cost model reflects the halved flop count.
    """
    n, k = _need(p, "n", "k")
    a = dev.memory.view(p["A"], dtype="float64", shape=(n, k))
    c = dev.memory.view(p["C"], dtype="float64", shape=(n, n))
    return _update(c, a, a.T, p.get("alpha", 1.0), p.get("beta", 1.0))


def _syrk_cost(p: dict, spec: "GPUSpec") -> float:
    n, k = _need(p, "n", "k")
    return syrk_time(spec, n, k)


def _trsm_fn(dev: "GPUDevice", p: dict):
    """B = B @ inv(T)^T for lower-triangular T (right-side, used by Cholesky).

    ``T`` is the nb x nb factored diagonal block, ``B`` is m x nb.
    """
    m, nb = _need(p, "m", "nb")
    t = dev.memory.view(p["T"], dtype="float64", shape=(nb, nb))
    b = dev.memory.view(p["B"], dtype="float64", shape=(m, nb))
    import scipy.linalg as sla

    def compute():
        # Solve X @ T^T = B  <=>  T @ X^T = B^T.
        x = sla.solve_triangular(t, b.T, lower=True)
        b[:] = x.T
        return 0
    return compute


def _trsm_cost(p: dict, spec: "GPUSpec") -> float:
    m, nb = _need(p, "m", "nb")
    return trsm_time(spec, m, nb)


def default_registry() -> KernelRegistry:
    """The registry every new device starts from."""
    reg = KernelRegistry()
    reg.register("fill", _fill_fn, _fill_cost)
    reg.register("daxpy", _axpy_fn, _axpy_cost)
    reg.register("dscal", _scal_fn, _scal_cost)
    reg.register("ddot", _dot_fn, _dot_cost)
    reg.register("dgemm", _gemm_fn, _gemm_cost)
    reg.register("dsyrk", _syrk_fn, _syrk_cost)
    reg.register("dtrsm", _trsm_fn, _trsm_cost)
    return reg
