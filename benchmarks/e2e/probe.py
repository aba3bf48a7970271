"""Work counters read from outside the program under test.

Some public entry points build their cluster and front-ends internally
(``chaos.scenarios.run``, ``JobService``), so there is no object to read
a counter from afterwards.  :class:`Probe` therefore records every
instance of a few public classes constructed while it is open, by
wrapping their ``__init__``; the counters are then sums of *public
attributes* over those instances, with one definition on every workload.
Nothing else about the classes changes, and the wrappers are removed on
exit.
"""

from __future__ import annotations

import functools

from repro.buffers import copy_stats
from repro.cluster import Cluster
from repro.core.api import RemoteAccelerator
from repro.core.arm import ArmClient
from repro.core.coalesce import FrameCoalescer
from repro.core.reliability import ResilientAccelerator

#: Client-side objects that speak the ``reliable_rpc`` stats protocol
#: (``requests`` = frames sent, ``timeouts`` = deadlines expired).
_RPC_CLIENTS = (RemoteAccelerator, ArmClient, FrameCoalescer)
_RECORDED = (Cluster, ResilientAccelerator) + _RPC_CLIENTS


class Probe:
    """Context manager recording instances of the probed classes."""

    def __init__(self) -> None:
        self.seen: dict[type, list] = {cls: [] for cls in _RECORDED}
        self._originals: dict[type, object] = {}

    def __enter__(self) -> "Probe":
        for cls, bucket in self.seen.items():
            original = cls.__init__
            self._originals[cls] = original

            @functools.wraps(original)
            def recording_init(obj, *args, _orig=original, _bucket=bucket,
                               **kwargs):
                _orig(obj, *args, **kwargs)
                _bucket.append(obj)

            cls.__init__ = recording_init
        return self

    def __exit__(self, *exc) -> None:
        for cls, original in self._originals.items():
            cls.__init__ = original
        self._originals.clear()

    def clusters(self) -> list:
        return self.seen[Cluster]

    def counters(self) -> dict[str, float]:
        """Current totals over everything recorded so far."""
        clusters = self.seen[Cluster]
        fabrics = [c.fabric for c in clusters]
        gpus = [node.gpu for c in clusters for node in c.accelerator_nodes]
        clients = [obj for cls in _RPC_CLIENTS for obj in self.seen[cls]]
        coalescers = self.seen[FrameCoalescer]
        copies = copy_stats.snapshot()
        return {
            "netsim.messages_sent": sum(f.messages_sent for f in fabrics),
            "netsim.bytes_moved": sum(f.bytes_moved for f in fabrics),
            "netsim.trunk_bytes": sum(sum(f.trunk_bytes.values())
                                      for f in fabrics),
            "netsim.messages_dropped": sum(f.messages_dropped
                                           for f in fabrics),
            "gpusim.kernels_launched": sum(g.kernels_launched for g in gpus),
            "gpusim.kernel_busy_virtual_s": sum(g.busy_time for g in gpus),
            "gpusim.dma_transfers": sum(g.dma.transfers for g in gpus),
            "gpusim.dma_bytes": sum(g.dma.bytes_copied for g in gpus),
            "gpusim.dma_busy_virtual_s": sum(g.dma.busy_time for g in gpus),
            "buffers.payload_copies": copies["payload_copies"],
            "buffers.payload_bytes": copies["payload_bytes"],
            "buffers.device_write_bytes": copies["device_write_bytes"],
            "buffers.cow_bytes": copies["cow_bytes"],
            "core.requests": sum(c.requests for c in clients),
            "core.timeouts": sum(c.timeouts for c in clients),
            "core.failovers": sum(r.failovers
                                  for r in self.seen[ResilientAccelerator]),
            "core.arm_ttl_evictions": sum(c.arm.ttl_evictions
                                          for c in clusters),
            "core.coalesce_subs_in": sum(c.subs_in for c in coalescers),
            "core.coalesce_frames_out": sum(c.frames_out
                                            for c in coalescers),
            "core.coalesce_merged_subs": sum(c.merged_subs
                                             for c in coalescers),
        }


def delta(after: dict[str, float], before: dict[str, float]) -> dict:
    """Counter deltas over the timed section, plus the derived ratios."""
    out = {name: after[name] - before[name] for name in after}
    merged = out.pop("core.coalesce_merged_subs")
    subs = out["core.coalesce_subs_in"]
    out["core.coalesce_merged_ratio"] = merged / subs if subs else 0.0
    written = out["buffers.device_write_bytes"]
    out["buffers.copy_ratio"] = (out["buffers.payload_bytes"] / written
                                 if written else 0.0)
    return out
