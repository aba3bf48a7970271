"""Pipeline block-size policies and transfer configuration.

The pipeline copy protocol splits a payload into blocks.  The paper finds
(Sect. V-A) that on its testbed 128 KiB blocks win for host-to-device
messages below ~9 MiB while 512 KiB blocks win above, and that 128 KiB is
best for device-to-host at all sizes; the adaptive policy encodes exactly
that tuning.  Policies are objects so the ablation benchmarks can sweep
them.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as _t

from ..errors import MiddlewareError
from ..units import KiB, MiB


class BlockPolicy:
    """Chooses a pipeline block size for a given payload size."""

    name: str = "abstract"

    def block_bytes(self, nbytes: int, direction: str) -> int:
        """Block size for an ``nbytes`` transfer; direction 'h2d' or 'd2h'."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class FixedBlockPolicy(BlockPolicy):
    """Always the same block size (the pipeline-<N>K curves of Fig. 5/6)."""

    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise MiddlewareError(f"block size must be positive: {self.size!r}")

    @property
    def name(self) -> str:
        return f"pipeline-{self.size // KiB}K"

    def block_bytes(self, nbytes: int, direction: str) -> int:
        return self.size


#: The adaptive policy's blocks: ``ADAPTIVE_SMALL`` below
#: ``ADAPTIVE_THRESHOLD`` bytes and ``ADAPTIVE_LARGE`` above (H2D);
#: ``ADAPTIVE_SMALL`` at all sizes for D2H.
ADAPTIVE_SMALL = 128 * KiB
ADAPTIVE_LARGE = 512 * KiB
ADAPTIVE_THRESHOLD = 9 * MiB


@dataclasses.dataclass(frozen=True)
class AdaptiveBlockPolicy(BlockPolicy):
    """The paper's tuned policy: 128 KiB below 9 MiB, 512 KiB above (H2D);
    128 KiB at all sizes for D2H."""

    @property
    def name(self) -> str:
        return f"pipeline-{ADAPTIVE_SMALL // KiB}-{ADAPTIVE_LARGE // KiB}K"

    def block_bytes(self, nbytes: int, direction: str) -> int:
        if direction == "d2h":
            return ADAPTIVE_SMALL
        return ADAPTIVE_SMALL if nbytes < ADAPTIVE_THRESHOLD else ADAPTIVE_LARGE


#: Per-block send posting cost for H2D streams: the front-end's source
#: buffer is arbitrary user memory, so each block pays an InfiniBand
#: memory-registration surcharge on top of the descriptor post.
H2D_BLOCK_POST_S = 1.4e-6
#: Per-block send posting cost for D2H streams: the daemon sends from its
#: pre-registered pinned ring with pre-built descriptors, far cheaper.
D2H_BLOCK_POST_S = 0.15e-6


@dataclasses.dataclass(frozen=True)
class TransferConfig:
    """How one memory copy should be performed.

    ``protocol`` is ``"naive"`` (single message, then single DMA) or
    ``"pipeline"`` (blocked and overlapped).  ``gpudirect`` models
    GPUDirect v1 shared pinned buffers: when off, every block pays an extra
    host staging copy on the accelerator CPU.  Every copy is pinned; the
    asymmetric per-block posting costs (:data:`H2D_BLOCK_POST_S`,
    :data:`D2H_BLOCK_POST_S`) are behind the Fig. 5 (H2D crossover near
    9 MiB) vs Fig. 6 (128 KiB best everywhere) difference.
    """

    protocol: str = "pipeline"
    policy: BlockPolicy = AdaptiveBlockPolicy()
    gpudirect: bool = True

    def __post_init__(self) -> None:
        if self.protocol not in ("naive", "pipeline"):
            raise MiddlewareError(f"unknown protocol {self.protocol!r}")

    @property
    def name(self) -> str:
        return "naive" if self.protocol == "naive" else self.policy.name

    def plan_blocks(self, nbytes: int, direction: str) -> list[tuple[int, int]]:
        """(offset, size) blocks for a transfer of ``nbytes``.

        Plans are memoized per (config, size, direction): the hot loops
        copy the same few payload sizes thousands of times, and for a
        multi-hundred-block large transfer re-planning costs more host
        time than the request bookkeeping itself.  The returned list is
        shared — treat it as read-only (every consumer only iterates).
        """
        if nbytes < 0:
            raise MiddlewareError(f"negative transfer size: {nbytes!r}")
        return _plan_blocks_cached(self, int(nbytes), direction)


@functools.lru_cache(maxsize=4096)
def _plan_blocks_cached(cfg: "TransferConfig", nbytes: int,
                        direction: str) -> list[tuple[int, int]]:
    """Memoized block planning (frozen configs and policies are hashable)."""
    if nbytes == 0:
        return []
    if cfg.protocol == "naive":
        return [(0, nbytes)]
    bs = cfg.policy.block_bytes(nbytes, direction)
    return [(off, min(bs, nbytes - off)) for off in range(0, nbytes, bs)]


#: Default configuration: the paper's tuned adaptive pipeline.
DEFAULT_TRANSFER = TransferConfig()
#: The naive single-message protocol, for comparison curves.
NAIVE_TRANSFER = TransferConfig(protocol="naive")


def pipeline(block_bytes: int, **kw: _t.Any) -> TransferConfig:
    """Convenience constructor for a fixed-block pipeline config."""
    return TransferConfig(protocol="pipeline",
                          policy=FixedBlockPolicy(block_bytes), **kw)
