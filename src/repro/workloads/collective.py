"""Collective workload: ring allreduce / broadcast over the P2P data plane.

Runs the same seeded collective twice — once over the direct
accelerator↔accelerator path (``mode="p2p"``) and once over the
historical staged path through the driving compute node
(``mode="staged"``) — on a multi-switch topology, and reports:

* bit-identity (the two modes' result digests, plus an exact numpy
  oracle reproducing the ring's accumulation order);
* virtual wall-clock per mode and the resulting speedup;
* bytes through the compute node's endpoint per mode (the ≥2× reduction
  the P2P plane exists to deliver) and bytes on inter-switch trunks;
* ring hop counts, showing what topology-aware placement buys.

Deterministic: same :class:`CollectiveConfig` ⇒ same digest (inputs come
from a seeded generator, and the ring schedule fixes the accumulation
order independent of transport timing).
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as _t

import numpy as np

from ..cluster import Cluster, ClusterSpec
from ..core.collectives import ring_allreduce, ring_broadcast
from ..errors import MiddlewareError
from ..netsim import TopologySpec

#: Transport modes compared by :func:`run`.
MODES = ("p2p", "staged")
#: Devices in the ring, attached round-robin to a 2x2 torus of switches.
DEVICES = 8
TOPOLOGY = TopologySpec(kind="torus2d", dims=(2, 2))


@dataclasses.dataclass(frozen=True)
class CollectiveConfig:
    """Shape of one collective comparison run."""

    #: float64 elements per chunk; each device owns ``DEVICES`` chunks.
    chunk_elements: int = 65536
    op: str = "allreduce"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.chunk_elements < 1:
            raise MiddlewareError("chunk_elements must be >= 1")
        if self.op not in ("allreduce", "broadcast"):
            raise MiddlewareError(f"unknown collective op {self.op!r}")

    def chunk_nbytes(self) -> int:
        return self.chunk_elements * 8


@dataclasses.dataclass
class ModeResult:
    """Measurements for one transport mode."""

    mode: str
    duration_s: float
    #: Bulk+control bytes through the driving compute node's endpoint.
    cn_bytes: int
    #: Total bytes that crossed inter-switch trunk segments.
    trunk_bytes: int
    bytes_moved: int
    digest: str
    exact: bool


@dataclasses.dataclass
class CollectiveReport:
    """Outcome of :func:`run`."""

    config: CollectiveConfig
    results: dict[str, ModeResult]
    #: P2P and staged produced bit-identical device contents.
    identical: bool
    #: staged duration / p2p duration (virtual time).
    speedup: float
    #: staged cn-endpoint bytes / p2p cn-endpoint bytes.
    cn_ratio: float
    #: Trunk hops between consecutive ring neighbours (placement view).
    ring_hops: list[int]
    digest: str

    def to_doc(self) -> dict:
        """JSON-serializable document (the CLI/CI contract)."""
        return {
            "schema": "repro-collective/1",
            "op": self.config.op,
            "devices": DEVICES,
            "chunk_elements": self.config.chunk_elements,
            "topology": TOPOLOGY.kind,
            "dims": list(TOPOLOGY.dims),
            "seed": self.config.seed,
            "identical": self.identical,
            "speedup": self.speedup,
            "cn_bytes_p2p": self.results["p2p"].cn_bytes,
            "cn_bytes_staged": self.results["staged"].cn_bytes,
            "trunk_bytes_p2p": self.results["p2p"].trunk_bytes,
            "trunk_bytes_staged": self.results["staged"].trunk_bytes,
            "duration_p2p_s": self.results["p2p"].duration_s,
            "duration_staged_s": self.results["staged"].duration_s,
            "exact": all(r.exact for r in self.results.values()),
            "ring_hops": self.ring_hops,
            "max_ring_hops": max(self.ring_hops, default=0),
            "digest": self.digest,
        }


def _oracle(cfg: CollectiveConfig,
            inputs: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Expected chunk values, reproducing the exact accumulation order.

    Reduce-scatter sums chunk ``c`` sequentially along the ring starting
    at device ``c``; reproducing that order makes the oracle *bit*-exact
    in float64, not merely allclose.
    """
    n = DEVICES
    if cfg.op == "broadcast":
        return [inputs[0][c].copy() for c in range(n)]
    out = []
    for c in range(n):
        acc = inputs[c][c].copy()
        for k in range(1, n):
            acc = acc + inputs[(c + k) % n][c]
        out.append(acc)
    return out


def run_once(cfg: CollectiveConfig, mode: str) -> ModeResult:
    """One collective on a fresh cluster over the given transport."""
    if mode not in MODES:
        raise MiddlewareError(f"unknown collective mode {mode!r}")
    n = DEVICES
    cluster = Cluster(ClusterSpec(n_compute=1, n_accelerators=n,
                                  topology=TOPOLOGY))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=n))
    acs = [cluster.remote(0, h) for h in handles]

    rng = np.random.default_rng(cfg.seed)
    inputs = [[rng.standard_normal(cfg.chunk_elements)
               for _ in range(n)] for _ in range(n)]
    nbytes = cfg.chunk_nbytes()
    chunks = [[sess.call(ac.mem_alloc(nbytes)) for _ in range(n)]
              for ac in acs]
    scratch = [sess.call(ac.mem_alloc(nbytes)) for ac in acs]
    for i, ac in enumerate(acs):
        for c in range(n):
            sess.call(ac.memcpy_h2d(chunks[i][c], inputs[i][c]))

    fabric = cluster.fabric
    cn = fabric.endpoints["cn0"]
    cn_before = cn.tx_bytes + cn.rx_bytes
    trunks_before = sum(fabric.trunk_bytes.values())
    moved_before = fabric.bytes_moved
    t0 = sess.now
    if cfg.op == "allreduce":
        sess.call(ring_allreduce(cluster.engine, acs, chunks, scratch,
                                 nbytes, cfg.chunk_elements, mode=mode))
    else:
        sess.call(ring_broadcast(cluster.engine, acs, chunks, nbytes,
                                 root=0, mode=mode))
    duration = sess.now - t0
    cn_bytes = cn.tx_bytes + cn.rx_bytes - cn_before
    trunk_bytes = sum(fabric.trunk_bytes.values()) - trunks_before
    moved = fabric.bytes_moved - moved_before

    expected = _oracle(cfg, inputs)
    digest = hashlib.sha256()
    exact = True
    for i, ac in enumerate(acs):
        for c in range(n):
            out = sess.call(ac.memcpy_d2h(chunks[i][c], nbytes))
            arr = np.asarray(out).view(np.float64).reshape(-1)
            digest.update(arr.tobytes())
            exact = exact and bool(np.array_equal(arr, expected[c]))
    return ModeResult(mode=mode, duration_s=duration, cn_bytes=cn_bytes,
                      trunk_bytes=trunk_bytes, bytes_moved=moved,
                      digest=digest.hexdigest(), exact=exact)


def ring_hop_counts() -> list[int]:
    """Trunk hops between consecutive ring devices under the placement."""
    cluster = Cluster(ClusterSpec(n_compute=1, n_accelerators=DEVICES,
                                  topology=TOPOLOGY))
    return [cluster.fabric.hop_count(f"ac{i}", f"ac{(i + 1) % DEVICES}")
            for i in range(DEVICES)]


def run(cfg: CollectiveConfig) -> CollectiveReport:
    """Compare the P2P and staged transports on one seeded collective."""
    results = {mode: run_once(cfg, mode) for mode in MODES}
    p2p, staged = results["p2p"], results["staged"]
    return CollectiveReport(
        config=cfg,
        results=results,
        identical=p2p.digest == staged.digest,
        speedup=(staged.duration_s / p2p.duration_s
                 if p2p.duration_s > 0 else float("inf")),
        cn_ratio=(staged.cn_bytes / p2p.cn_bytes
                  if p2p.cn_bytes > 0 else float("inf")),
        ring_hops=ring_hop_counts(),
        digest=hashlib.sha256(
            (p2p.digest + staged.digest).encode()).hexdigest(),
    )


def format_report(report: CollectiveReport) -> str:
    """Human-readable summary for the CLI."""
    cfg = report.config
    lines = [
        f"collective {cfg.op}: {DEVICES} devices x "
        f"{DEVICES} chunks x {cfg.chunk_elements} f64 "
        f"on {TOPOLOGY.kind}{TOPOLOGY.dims} (seed {cfg.seed})",
        f"  ring hops: {report.ring_hops} "
        f"(max {max(report.ring_hops, default=0)})",
    ]
    for mode in MODES:
        r = report.results[mode]
        lines.append(
            f"  {mode:>6}: {r.duration_s * 1e3:9.3f} ms   "
            f"cn bytes {r.cn_bytes:>12,}   trunk bytes {r.trunk_bytes:>12,}")
    lines.append(
        f"  p2p vs staged: speedup {report.speedup:.2f}x, "
        f"{report.cn_ratio:.1f}x fewer compute-node bytes, "
        f"bit-identical={report.identical}")
    return "\n".join(lines)
