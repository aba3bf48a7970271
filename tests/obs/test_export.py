"""Chrome trace export: golden schema test, validation, ASCII timeline.

The golden file is produced by a hand-rolled deterministic trace (fresh
engine, fixed span program) rather than a cluster run: cluster traces
carry globally counted request ids whose values depend on test order.
Regenerate with::

    PYTHONPATH=src:tests python -c \
      "from obs.test_export import regenerate_golden; regenerate_golden()"
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.cluster import Cluster, paper_testbed
from repro.obs import enable_tracing, trace_session
from repro.obs.export import (
    TraceSchemaError,
    chrome_trace,
    render_timeline,
    validate_chrome_trace,
)
from repro.sim import Engine
from repro.units import MiB
from repro.workloads.linalg import qr_factorize

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "simple_trace.json"
#: sha256 of the traced e2e ``--smoke`` QR's export, written once from the
#: code *before* the one-record-per-span recorder, so a recorder change is
#: compared with its parent's bytes and not with itself.  Rewrite with
#: ``regenerate_qr_golden()`` only when the export format itself changes.
QR_GOLDEN = GOLDEN.with_name("qr_smoke_trace.sha256")


def _reference_collector():
    """A tiny deterministic span program; ids and timestamps are fixed."""
    engine = Engine()
    col = enable_tracing(engine)

    def prog():
        with col.start("client.memcpy_h2d", "cn0", nbytes=4096) as root:
            root.event("inject", blocks=2)
            with root.child("daemon.memcpy_h2d", "ac0") as daemon:
                with daemon.child("net.recv", "ac0", block=0):
                    yield engine.timeout(1e-3)
                with daemon.child("dma.copy", "ac0.gpu.dma",
                                  nbytes=4096) as dma:
                    dma.event("engine_acquired")
                    yield engine.timeout(2e-3)

    engine.run(until=engine.process(prog()))
    return col


def regenerate_golden() -> None:  # pragma: no cover - maintenance helper
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(chrome_trace(_reference_collector()),
                                 indent=1) + "\n")


def _qr_smoke_digest() -> str:
    """Export digest of the e2e ``qr_protocol_obs --smoke`` shape."""
    with trace_session() as session:
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=3))
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=3))
        acs = [cluster.remote(0, h) for h in handles]
        sess.call(qr_factorize(cluster.engine, cluster.compute_nodes[0].cpu,
                               acs, 1024, 128))
    trace = session.to_chrome_trace()
    validate_chrome_trace(trace)
    return hashlib.sha256(
        json.dumps(trace, sort_keys=True).encode()).hexdigest()


def regenerate_qr_golden() -> None:  # pragma: no cover - maintenance helper
    QR_GOLDEN.write_text(_qr_smoke_digest() + "\n")


class TestGolden:
    def test_export_matches_golden(self):
        trace = chrome_trace(_reference_collector())
        golden = json.loads(GOLDEN.read_text())
        assert trace == golden, (
            "Chrome trace export drifted from the golden file; if the "
            "change is intentional, regenerate (see module docstring)")

    def test_qr_smoke_export_matches_parent_digest(self):
        assert _qr_smoke_digest() == QR_GOLDEN.read_text().strip(), (
            "the traced QR's Chrome export is no longer byte-identical to "
            "the one the golden was written from")

    def test_golden_passes_schema_validation(self):
        validate_chrome_trace(json.loads(GOLDEN.read_text()))

    def test_golden_is_json_round_trippable(self):
        trace = chrome_trace(_reference_collector())
        assert json.loads(json.dumps(trace)) == trace


class TestClusterTrace:
    def test_cluster_trace_validates(self, cluster, sess, collector, ac):
        addr = sess.call(ac.mem_alloc(1 * MiB))
        sess.call(ac.memcpy_h2d(addr, np.ones(1 * MiB // 8)))
        sess.call(ac.memcpy_d2h(addr, 1 * MiB))
        trace = chrome_trace(collector)
        validate_chrome_trace(trace)
        names = {ev["name"] for ev in trace["traceEvents"]}
        assert "client.memcpy_h2d" in names
        assert "dma.copy" in names
        assert trace["otherData"]["clock"] == "virtual"

    def test_write_chrome_trace(self, tmp_path, capsys):
        """``trace --out`` writes the validated export it reports."""
        from repro.analysis.cli import main
        path = tmp_path / "trace.json"
        assert main(["trace", "fig05", "--quick", "--out", str(path)]) == 0
        trace = json.loads(path.read_text())
        validate_chrome_trace(trace)
        out = capsys.readouterr().out
        assert f"traced {trace['otherData']['span_count']} spans" in out
        assert f"({len(trace['traceEvents'])} events;" in out


class TestAbandonedSpan:
    def test_open_span_outliving_its_engine_exports_validly(self):
        """An experiment may drop its engine with processes mid-flight
        (``ext_contention``'s background streams); their open spans must
        still export with a non-negative duration."""
        import gc
        engine = Engine()
        col = enable_tracing(engine)
        engine.run(until=engine.timeout(2e-3))
        span = col.start("client.memcpy_h2d", "cn0")
        engine.run(until=engine.timeout(1e-3))
        with col.start("client.ping", "cn0"):
            pass
        del engine
        gc.collect()
        trace = chrome_trace(col)
        validate_chrome_trace(trace)
        assert span.open and span.duration == pytest.approx(1e-3)


class TestValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(TraceSchemaError, match="must be a dict"):
            validate_chrome_trace([])

    def test_rejects_missing_events(self):
        with pytest.raises(TraceSchemaError, match="traceEvents"):
            validate_chrome_trace({"otherData": {}})

    def test_rejects_negative_duration(self):
        trace = chrome_trace(_reference_collector())
        span_event = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        span_event["dur"] = -1.0
        with pytest.raises(TraceSchemaError, match="dur"):
            validate_chrome_trace(trace)

    def test_rejects_dangling_parent(self):
        trace = chrome_trace(_reference_collector())
        span_events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        span_events[-1]["args"]["parent_id"] = 999
        with pytest.raises(TraceSchemaError, match="does not resolve"):
            validate_chrome_trace(trace)

    def test_rejects_cross_trace_parent(self):
        trace = chrome_trace(_reference_collector())
        span_events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        span_events[-1]["args"]["trace_id"] = 42
        with pytest.raises(TraceSchemaError, match="different trace"):
            validate_chrome_trace(trace)

    def test_rejects_bad_phase(self):
        trace = chrome_trace(_reference_collector())
        trace["traceEvents"][0]["ph"] = "Z"
        with pytest.raises(TraceSchemaError, match="unknown phase"):
            validate_chrome_trace(trace)


class TestTimeline:
    def test_render_timeline_shows_spans(self):
        col = _reference_collector()
        text = render_timeline(col)
        assert "4 spans" in text
        assert "cn0 client.memcpy_h2d" in text
        assert "ac0.gpu.dma dma.copy" in text
        assert "=" in text

    def test_render_timeline_empty(self):
        engine = Engine()
        col = enable_tracing(engine)
        assert render_timeline(col) == "(no spans recorded)"
