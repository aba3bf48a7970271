"""Observability: span tracing, trace export, and the metrics registry.

The site-operator's view of the dynamic accelerator cluster (the paper's
Sect. III utilization argument presumes one): every front-end ``ac*``
call opens a span whose context rides the request frame to the daemon,
where the network / staging / DMA / kernel phases open child spans on the
same trace id.  Exports feed ``chrome://tracing`` / Perfetto or an ASCII
timeline; the metrics registry distills latency percentiles and resource
counters for :func:`repro.analysis.metrics.collect`.

Public surface::

    from repro.obs import (Span, TraceCollector, NULL_SPAN,
                           collector_for, enable_tracing, trace_session)
    from repro.obs import (chrome_trace, validate_chrome_trace,
                           render_timeline)
    from repro.obs import (MetricsRegistry, Counter, Gauge, Histogram,
                           instrument_cluster)
"""

from .export import (
    TraceSchemaError,
    chrome_trace,
    render_timeline,
    validate_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    instrument_cluster,
)
from .spans import (
    NULL_SPAN,
    NullSpan,
    Span,
    TraceCollector,
    TraceSession,
    collector_for,
    enable_tracing,
    trace_session,
)

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "TraceCollector",
    "TraceSession",
    "collector_for",
    "enable_tracing",
    "trace_session",
    "chrome_trace",
    "validate_chrome_trace",
    "render_timeline",
    "TraceSchemaError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "instrument_cluster",
]
