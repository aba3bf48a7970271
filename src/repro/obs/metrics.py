"""Histogram/counter/gauge registry for cluster observability.

The registry is the quantitative half of :mod:`repro.obs`: where spans
answer "where did this request's time go", metrics answer "what are the
p50/p95/p99 latencies, per-op request mixes, and resource peaks across
the whole run".  :func:`instrument_cluster` snapshots every component
counter a :class:`~repro.cluster.builder.Cluster` keeps — daemon request
and byte counters, GPU busy time, fabric volume, ARM pool state — into
one registry, and distills per-operation latency histograms from the
engine's span collector when tracing was on.
:func:`repro.analysis.metrics.collect` builds its ``ClusterReport`` from
a fresh snapshot rather than scraping component fields directly; the
workload reports (``jobs``, ``chaos``) keep their own registries and
read quantiles with :meth:`Histogram.percentile`.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import typing as _t

from .spans import collector_for

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..cluster.builder import Cluster

Labels = _t.Tuple[_t.Tuple[str, str], ...]


def _label_key(labels: dict[str, _t.Any]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclasses.dataclass
class Counter:
    """A monotonically increasing count (requests, bytes, retries)."""

    name: str
    labels: Labels = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


@dataclasses.dataclass
class Gauge:
    """A point-in-time level (queue depth, staging bytes, utilization)."""

    name: str
    labels: Labels = ()
    value: float = 0.0
    #: High-water mark across every ``set`` call.
    peak: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value


class Histogram:
    """Sample distribution with exact quantiles.

    Samples are kept sorted (insertion via ``bisect``); the simulated
    request volumes are far below the point where a sketch would be
    needed, and exact quantiles keep the report deterministic.
    """

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self._sorted: list[float] = []
        self.sum = 0.0

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def mean(self) -> float:
        return self.sum / len(self._sorted) if self._sorted else 0.0

    @property
    def min(self) -> float:
        return self._sorted[0] if self._sorted else 0.0

    @property
    def max(self) -> float:
        return self._sorted[-1] if self._sorted else 0.0

    def observe(self, value: float) -> None:
        bisect.insort(self._sorted, value)
        self.sum += value

    def percentile(self, p: float) -> float:
        """Exact percentile (nearest-rank), ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p!r}")
        if not self._sorted:
            return 0.0
        rank = max(math.ceil(p / 100.0 * len(self._sorted)) - 1, 0)
        return self._sorted[min(rank, len(self._sorted) - 1)]

    def summary(self) -> dict[str, float]:
        return {"count": self.count, "mean": self.mean,
                "p50": self.percentile(50), "p95": self.percentile(95),
                "p99": self.percentile(99), "max": self.max}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:g}>"


class MetricsRegistry:
    """Get-or-create store of named, labelled metrics."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, str, Labels],
                            Counter | Gauge | Histogram] = {}

    def _get(self, kind: str, factory, name: str, labels: dict):
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory(name, key[2])
        return metric

    def counter(self, name: str, **labels: _t.Any) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: _t.Any) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels: _t.Any) -> Histogram:
        return self._get("histogram", Histogram, name, labels)

    # -- queries ----------------------------------------------------------
    def value(self, name: str, **labels: _t.Any) -> float:
        """The value of a counter/gauge (0.0 when absent)."""
        key = _label_key(labels)
        for kind in ("counter", "gauge"):
            metric = self._metrics.get((kind, name, key))
            if metric is not None:
                return metric.value
        return 0.0

    def histograms(self, name: str) -> list[Histogram]:
        return [m for (kind, n, _), m in sorted(self._metrics.items())
                if kind == "histogram" and n == name]

    def collect(self) -> dict[str, _t.Any]:
        """Flat snapshot: ``name{k=v,...}`` -> value / histogram summary."""
        out: dict[str, _t.Any] = {}
        for (kind, name, labels), metric in sorted(self._metrics.items()):
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            full = f"{name}{{{label_str}}}" if label_str else name
            out[full] = (metric.summary() if isinstance(metric, Histogram)
                         else metric.value)
        return out

    def __len__(self) -> int:
        return len(self._metrics)


def instrument_cluster(cluster: "Cluster") -> MetricsRegistry:
    """Snapshot a cluster's component counters into a fresh registry.

    Populates, per accelerator: ``daemon.requests`` / ``.transfer_requests``
    / ``.mbatches`` / ``.mbatched_subs`` / ``.mbatched_ops`` (batch
    frames, their sub-frames, the ops inside) / ``.dedup_hits``,
    ``bytes.h2d`` / ``bytes.d2h``, ``staging.peak_bytes`` (gauge),
    ``gpu.busy_seconds``, ``gpu.kernels``, ``dma.bytes`` /
    ``dma.busy_seconds``; cluster-wide: ``fabric.bytes`` /
    ``fabric.messages``, ``pool.utilization``, and ARM assignment seconds.
    When the engine's span collector holds client spans, per-op
    ``request.latency_s`` histograms are distilled from them
    (:meth:`Histogram.percentile` reads p50/p95/p99 out of these).
    """
    reg = MetricsRegistry()
    snap = cluster.arm.snapshot()
    for node, daemon in zip(cluster.accelerator_nodes, cluster.daemons):
        ac = f"ac{node.ac_id}"
        info = snap.get(node.ac_id, {})
        stats = daemon.stats
        reg.counter("daemon.requests", ac=ac).inc(stats.requests)
        reg.counter("daemon.transfer_requests", ac=ac).inc(
            stats.transfer_requests)
        reg.counter("daemon.mbatches", ac=ac).inc(stats.mbatches)
        reg.counter("daemon.mbatched_subs", ac=ac).inc(stats.mbatched_subs)
        reg.counter("daemon.mbatched_ops", ac=ac).inc(stats.mbatched_ops)
        reg.counter("daemon.dedup_hits", ac=ac).inc(stats.dedup_hits)
        reg.counter("bytes.h2d", ac=ac).inc(stats.bytes_h2d)
        reg.counter("bytes.d2h", ac=ac).inc(stats.bytes_d2h)
        staging = reg.gauge("staging.bytes", ac=ac)
        staging.set(stats.staging_peak)     # record the component's peak
        staging.set(stats.staging_now)      # then the current level
        reg.counter("gpu.kernels", ac=ac).inc(node.gpu.kernels_launched)
        reg.gauge("gpu.busy_seconds", ac=ac).set(node.gpu.busy_time)
        reg.counter("dma.bytes", ac=ac).inc(node.gpu.dma.bytes_copied)
        reg.counter("dma.transfers", ac=ac).inc(node.gpu.dma.transfers)
        reg.gauge("dma.busy_seconds", ac=ac).set(node.gpu.dma.busy_time)
        reg.gauge("arm.assigned_seconds", ac=ac).set(
            info.get("assigned_seconds", 0.0))
    reg.counter("fabric.bytes").inc(cluster.fabric.bytes_moved)
    reg.counter("fabric.messages").inc(cluster.fabric.messages_sent)
    reg.gauge("pool.utilization").set(cluster.arm.utilization())
    collector = collector_for(cluster.engine)
    for span in collector.spans:
        if span.open:
            continue
        if span.name.startswith("client."):
            op = span.name.split(".", 1)[1]
            reg.histogram("request.latency_s", op=op).observe(span.duration)
            reg.histogram("request.latency_s", op="all").observe(span.duration)
        elif span.name == "dma.copy":
            reg.histogram("dma.copy_s").observe(span.duration)
    return reg

