"""Metrics registry primitives and the registry-backed ClusterReport."""

import numpy as np
import pytest

from repro.analysis.metrics import collect
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    instrument_cluster,
)
from repro.units import MiB


class TestPrimitives:
    def test_counter_monotonic(self):
        c = Counter("requests")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_tracks_peak(self):
        g = Gauge("staging.bytes")
        g.set(10)
        g.set(50)
        g.set(5)
        assert g.value == 5
        assert g.peak == 50

    def test_histogram_exact_percentiles(self):
        h = Histogram("latency")
        for v in range(1, 101):       # 1..100
            h.observe(float(v))
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(99) == 99.0
        assert h.percentile(0) == h.min == 1.0
        assert h.percentile(100) == h.max == 100.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_histogram_empty(self):
        h = Histogram("latency")
        assert h.percentile(50) == 0.0
        assert h.summary() == {"count": 0, "mean": 0.0, "p50": 0.0,
                               "p95": 0.0, "p99": 0.0, "max": 0.0}

    def test_histogram_samples_kept_sorted(self):
        h = Histogram("latency")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert h.min == 1.0 and h.max == 3.0
        assert h.percentile(50) == 2.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x", ac="ac0") is reg.counter("x", ac="ac0")
        assert reg.counter("x", ac="ac0") is not reg.counter("x", ac="ac1")
        assert len(reg) == 2

    def test_same_name_different_kind_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(2)
        reg.gauge("y").set(7)
        assert reg.value("x") == 2
        assert reg.value("y") == 7
        assert reg.value("absent") == 0.0

    def test_collect_renders_labels(self):
        reg = MetricsRegistry()
        reg.counter("reqs", ac="ac0").inc(5)
        reg.histogram("lat", op="ping").observe(1.0)
        flat = reg.collect()
        assert flat["reqs{ac=ac0}"] == 5
        assert flat["lat{op=ping}"]["count"] == 1

    def test_histograms_query(self):
        reg = MetricsRegistry()
        reg.histogram("request.latency_s", op="ping").observe(1.0)
        reg.histogram("request.latency_s", op="mem_alloc").observe(2.0)
        reg.histogram("other").observe(3.0)
        hists = reg.histograms("request.latency_s")
        assert [dict(h.labels)["op"] for h in hists] == ["mem_alloc", "ping"]


class TestInstrumentCluster:
    def test_component_counters_snapshot(self, cluster, sess, ac):
        addr = sess.call(ac.mem_alloc(1 * MiB))
        sess.call(ac.memcpy_h2d(addr, np.ones(1 * MiB // 8)))
        reg = instrument_cluster(cluster)
        ac_label = f"ac{ac.handle.ac_id}"
        assert reg.value("bytes.h2d", ac=ac_label) == 1 * MiB
        assert reg.value("dma.bytes", ac=ac_label) == 1 * MiB
        assert reg.value("daemon.requests", ac=ac_label) >= 2
        assert reg.value("fabric.bytes") > 1 * MiB  # payload + control
        assert 0.0 <= reg.value("pool.utilization") <= 1.0

    def test_latency_histograms_from_spans(self, cluster, sess, collector,
                                           ac):
        addr = sess.call(ac.mem_alloc(1 * MiB))
        sess.call(ac.memcpy_h2d(addr, np.ones(1 * MiB // 8)))
        sess.call(ac.kernel_create("fill"))
        reg = instrument_cluster(cluster)
        by_op = {dict(h.labels)["op"]: h
                 for h in reg.histograms("request.latency_s")}
        assert {"mem_alloc", "memcpy_h2d", "kernel_create", "all"} <= set(by_op)
        assert by_op["all"].count == 3
        assert (by_op["memcpy_h2d"].percentile(50)
                > by_op["kernel_create"].percentile(50))
        dma = reg.histograms("dma.copy_s")
        assert dma and dma[0].count >= 1

    def test_no_latency_histograms_without_tracing(self, cluster, sess, ac):
        sess.call(ac.kernel_create("fill"))
        reg = instrument_cluster(cluster)
        assert reg.histograms("request.latency_s") == []


class TestClusterReport:
    def test_report_reproduced_from_registry(self, cluster, sess, collector,
                                             ac):
        addr = sess.call(ac.mem_alloc(1 * MiB))
        sess.call(ac.memcpy_h2d(addr, np.ones(1 * MiB // 8)))
        out = sess.call(ac.memcpy_d2h(addr, 1 * MiB))
        assert len(out) == 1 * MiB // 8
        report = collect(cluster)
        reg = instrument_cluster(cluster)
        a = next(m for m in report.accelerators
                 if m.ac_id == ac.handle.ac_id)
        # Every number in the report is readable straight off the registry.
        ac_label = f"ac{a.ac_id}"
        assert a.bytes_h2d == reg.value("bytes.h2d", ac=ac_label) == 1 * MiB
        assert a.bytes_d2h == reg.value("bytes.d2h", ac=ac_label) == 1 * MiB
        assert a.staging_peak == reg.gauge("staging.bytes", ac=ac_label).peak
        assert report.fabric_bytes == reg.value("fabric.bytes")
        assert report.total_offload_bytes == 2 * MiB
