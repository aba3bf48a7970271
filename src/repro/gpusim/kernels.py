"""Kernel registry and launch descriptors for the virtual GPU.

A kernel pairs a **numerical function** (what it computes, on typed views of
device buffers) with a **cost function** (how long the real GPU would take).
The two are independent so the same kernel can run in ``real`` mode (small
problems, verified numerics) and ``timed`` mode (paper-scale problems,
virtual time only).

A numerical function runs in two phases.  ``fn(dev, params)`` *binds* on
the event-loop thread: it checks the parameters, takes its views with
``dev.memory.view`` and allocates any output or temporary it can, then
returns ``compute``.  ``compute()`` is numpy only over the bound views and
touches no simulator state, so it may run on a worker thread
(:meth:`~repro.gpusim.device.GPUDevice.launch`); it returns the kernel's
result.  (A buffer a worker thread allocates stays cached in that
thread's malloc arena, hence the allocations in bind.)

Kernel parameters must be plain picklable values (ints, floats, strings,
device addresses) because the middleware marshals them over the simulated
network exactly like ``acKernelSetArgs`` would.
"""

from __future__ import annotations

import typing as _t

from ..errors import KernelError

if _t.TYPE_CHECKING:  # pragma: no cover
    from .device import GPUDevice, GPUSpec

#: binds a launch and returns its ``compute``, which returns None or an
#: error code (0 == OK).
KernelFn = _t.Callable[["GPUDevice", dict], _t.Callable[[], _t.Any]]
#: maps (params, spec) -> execution seconds (excluding launch overhead).
CostFn = _t.Callable[[dict, "GPUSpec"], float]


class Kernel:
    """A named device kernel: numerics plus cost model."""

    __slots__ = ("name", "fn", "cost_fn")

    def __init__(self, name: str, fn: KernelFn, cost_fn: CostFn):
        self.name = name
        self.fn = fn
        self.cost_fn = cost_fn

    def cost(self, params: dict, spec: "GPUSpec") -> float:
        t = self.cost_fn(params, spec)
        if t < 0:
            raise KernelError(f"kernel {self.name!r} produced negative cost {t!r}")
        return t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Kernel {self.name}>"


class KernelRegistry:
    """Name -> kernel lookup, per device (or shared read-only)."""

    def __init__(self) -> None:
        self._kernels: dict[str, Kernel] = {}

    def register(self, name: str, fn: KernelFn, cost_fn: CostFn,
                 replace: bool = False) -> Kernel:
        """Register a kernel; duplicate names need ``replace=True``."""
        if name in self._kernels and not replace:
            raise KernelError(f"kernel {name!r} already registered")
        k = Kernel(name, fn, cost_fn)
        self._kernels[name] = k
        return k

    def get(self, name: str) -> Kernel:
        try:
            return self._kernels[name]
        except KeyError:
            raise KernelError(
                f"unknown kernel {name!r}; registered: {sorted(self._kernels)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def names(self) -> list[str]:
        return sorted(self._kernels)

    def clone(self) -> "KernelRegistry":
        """Independent copy (per-device registries start from the defaults)."""
        out = KernelRegistry()
        out._kernels = dict(self._kernels)
        return out


#: Extension catalog: workload packages publish kernels here at import
#: time; ``kernel_create`` installs them onto a device on first use — the
#: analogue of uploading a CUDA module to the accelerator.
EXTENSIONS: dict[str, tuple[KernelFn, CostFn]] = {}

#: Modules that publish kernels, imported lazily by :func:`resolve` so
#: ``kernel_create`` finds workload kernels regardless of import order.
_PROVIDER_MODULES = (
    "repro.workloads.linalg.kernels",
    "repro.workloads.mp2c.kernels",
)
_providers_loaded = False


def provide(name: str, fn: KernelFn, cost_fn: CostFn) -> None:
    """Publish a kernel for on-demand installation by ``kernel_create``."""
    EXTENSIONS[name] = (fn, cost_fn)


def _load_providers() -> None:
    global _providers_loaded
    if _providers_loaded:
        return
    _providers_loaded = True
    import importlib
    for mod in _PROVIDER_MODULES:
        importlib.import_module(mod)


def resolve(registry: KernelRegistry, name: str) -> bool:
    """Install ``name`` from the extension catalog if absent.

    Returns True if the kernel is (now) available in ``registry``.
    """
    if name in registry:
        return True
    if name not in EXTENSIONS:
        _load_providers()
    ext = EXTENSIONS.get(name)
    if ext is None:
        return False
    registry.register(name, ext[0], ext[1])
    return True
