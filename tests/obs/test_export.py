"""Chrome trace export: golden schema test, validation, ASCII timeline.

The golden file is produced by a hand-rolled deterministic trace (fresh
engine, fixed span program) rather than a cluster run: cluster traces
carry globally counted request ids whose values depend on test order.
Regenerate with::

    PYTHONPATH=src:tests python -c \
      "from obs.test_export import regenerate_golden; regenerate_golden()"
"""

import json
import pathlib

import numpy as np
import pytest

from repro.obs import enable_tracing
from repro.obs.export import (
    TraceSchemaError,
    chrome_trace,
    render_timeline,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim import Engine
from repro.units import MiB

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "simple_trace.json"


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


class TestGolden:
    def test_export_matches_golden(self):
        trace = chrome_trace(_reference_collector())
        golden = json.loads(GOLDEN.read_text())
        assert trace == golden, (
            "Chrome trace export drifted from the golden file; if the "
            "change is intentional, regenerate (see module docstring)")

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

    def test_write_chrome_trace(self, tmp_path, cluster, sess, collector, ac):
        sess.call(ac.ping())
        path = tmp_path / "trace.json"
        trace = write_chrome_trace(collector, str(path))
        assert json.loads(path.read_text()) == trace


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
        col.start("client.ping", "cn0").finish()
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
