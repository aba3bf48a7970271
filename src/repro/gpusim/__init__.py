"""Virtual GPU substrate: device memory, PCIe DMA, kernels, devices."""

from .device import (
    GPUDevice,
    GPUSpec,
    TESLA_C1060,
    VirtualGPU,
    XEON_PHI_KNC,
)
from .dma import DMAEngine, PCIeModel, PCIE_GEN2_X16
from .kernels import Kernel, KernelRegistry
from .memory import Allocation, DeviceMemory, MemoryPartition
from .stdkernels import default_registry
from . import timing

__all__ = [
    "GPUDevice",
    "GPUSpec",
    "VirtualGPU",
    "TESLA_C1060",
    "XEON_PHI_KNC",
    "DMAEngine",
    "PCIeModel",
    "PCIE_GEN2_X16",
    "Kernel",
    "KernelRegistry",
    "DeviceMemory",
    "Allocation",
    "MemoryPartition",
    "default_registry",
    "timing",
]
