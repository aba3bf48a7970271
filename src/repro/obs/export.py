"""Trace export: Chrome trace-event JSON and an ASCII timeline.

The JSON follows the Trace Event Format consumed by ``chrome://tracing``
and Perfetto: one complete-duration event (``"ph": "X"``) per span with
microsecond virtual timestamps, one instant event (``"ph": "i"``) per
span event, and metadata events naming the processes (one per engine)
and threads (one per actor).  Span identity (trace id, span id, parent
id) travels in ``args`` so external tools can rebuild the request tree.

:func:`validate_chrome_trace` is the schema check the golden tests and
the CI trace step share — it verifies structure, types, and that every
``parent_id`` resolves to a span on the same trace.
"""

from __future__ import annotations

import typing as _t

from .spans import Span, TraceCollector

#: Factor from virtual seconds to trace-event microseconds.
_US = 1e6


def _span_event(span: Span, pid: int, tid: int) -> dict:
    end = span.end if span.end is not None else span.collector.now
    args: dict[str, _t.Any] = {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
    }
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    if span.open:
        args["open"] = True
    for key, value in span.attrs.items():
        args[key] = value if isinstance(value, (int, float, str, bool,
                                                type(None))) else repr(value)
    return {
        "name": span.name,
        "cat": span.name.split(".", 1)[0],
        "ph": "X",
        "ts": span.start * _US,
        "dur": (end - span.start) * _US,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def chrome_trace(collectors: "TraceCollector | _t.Sequence[TraceCollector]",
                 ) -> dict:
    """Build a Chrome trace-event dict from one or more collectors.

    Each collector (engine) becomes one trace process; each actor one
    thread of that process.  Deterministic: pids follow collector order,
    tids follow first-appearance order of actors.
    """
    if isinstance(collectors, TraceCollector):
        collectors = [collectors]
    events: list[dict] = []
    total_spans = 0
    for pid, col in enumerate(collectors, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "ts": 0.0,
                       "args": {"name": f"engine{pid}"}})
        tids: dict[str, int] = {}
        # Group the collector's shared event log once, not once per span.
        log: dict[int, list[tuple]] = {}
        for row in col.event_log:
            log.setdefault(row[0], []).append(row)
        for span in col.spans:
            tid = tids.get(span.actor)
            if tid is None:
                tid = tids[span.actor] = len(tids) + 1
                events.append({"name": "thread_name", "ph": "M", "pid": pid,
                               "tid": tid, "ts": 0.0,
                               "args": {"name": span.actor}})
            record = _span_event(span, pid, tid)
            events.append(record)
            for _, time, name, attrs in log.get(span.span_id, ()):
                events.append({
                    "name": f"{span.name}:{name}",
                    "cat": record["cat"],
                    "ph": "i",
                    "s": "t",
                    "ts": time * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(attrs or (), span_id=span.span_id,
                                 trace_id=span.trace_id),
                })
        total_spans += len(col.spans)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "clock": "virtual",
            "span_count": total_spans,
        },
    }


class TraceSchemaError(ValueError):
    """The exported object violates the trace-event schema."""


def validate_chrome_trace(obj: _t.Any) -> None:
    """Assert ``obj`` is well-formed trace-event JSON; raise otherwise.

    Checks the container shape, per-event required fields and types, and
    referential integrity: every ``parent_id`` must name a span exported
    on the same pid with the same trace id.
    """
    if not isinstance(obj, dict):
        raise TraceSchemaError(f"trace must be a dict, got {type(obj).__name__}")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise TraceSchemaError("traceEvents must be a list")
    spans: dict[tuple[int, int], int] = {}  # (pid, span_id) -> trace_id
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise TraceSchemaError(f"event {i} is not a dict")
        for field, types in (("name", str), ("ph", str),
                             ("ts", (int, float)), ("pid", int), ("tid", int)):
            if not isinstance(ev.get(field), types):
                raise TraceSchemaError(
                    f"event {i} ({ev.get('name')!r}): bad {field!r} field")
        if ev["ph"] not in ("X", "i", "I", "M", "B", "E"):
            raise TraceSchemaError(f"event {i}: unknown phase {ev['ph']!r}")
        if ev["ph"] == "X":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                raise TraceSchemaError(
                    f"event {i} ({ev['name']!r}): X events need dur >= 0")
            if ev["ts"] < 0:
                raise TraceSchemaError(f"event {i}: negative timestamp")
            args = ev.get("args")
            if not isinstance(args, dict):
                raise TraceSchemaError(f"event {i}: X events need args")
            if not isinstance(args.get("trace_id"), int) or \
                    not isinstance(args.get("span_id"), int):
                raise TraceSchemaError(
                    f"event {i} ({ev['name']!r}): span events must carry "
                    f"integer trace_id/span_id")
            spans[(ev["pid"], args["span_id"])] = args["trace_id"]
    for i, ev in enumerate(events):
        if ev.get("ph") != "X":
            continue
        parent = ev["args"].get("parent_id")
        if parent is None:
            continue
        key = (ev["pid"], parent)
        if key not in spans:
            raise TraceSchemaError(
                f"event {i} ({ev['name']!r}): parent_id {parent} does not "
                f"resolve to an exported span")
        if spans[key] != ev["args"]["trace_id"]:
            raise TraceSchemaError(
                f"event {i} ({ev['name']!r}): parent span is on a "
                f"different trace")


# -- ASCII timeline -------------------------------------------------------

def render_timeline(collector: TraceCollector, width: int = 100,
                    max_rows: int = 60) -> str:
    """Render the collector's spans as a per-actor ASCII Gantt chart.

    One row per span, grouped by actor in first-appearance order, bars
    scaled to the collector's full time range.  Reading guide: bars that
    nest under a longer bar on another actor are the phases the longer
    operation decomposed into; gaps between child bars are wait time.
    """
    spans = sorted(collector.spans, key=lambda s: (s.start, s.span_id))
    if not spans:
        return "(no spans recorded)"
    t0 = min(s.start for s in spans)
    t1 = max((s.end if s.end is not None else collector.now) for s in spans)
    extent = max(t1 - t0, 1e-12)
    label_w = min(max(len(f"{s.actor} {s.name}") for s in spans) + 2, 44)
    bar_w = max(width - label_w - 14, 20)
    lines = [f"timeline: {len(spans)} spans over "
             f"{extent * 1e3:.3f} ms (virtual)",
             f"{'actor / span':<{label_w}}|{'':<{bar_w}}| duration"]
    by_actor: dict[str, list[Span]] = {}
    for s in spans:
        by_actor.setdefault(s.actor, []).append(s)
    rows = 0
    for actor, group in by_actor.items():
        for s in group:
            if rows >= max_rows:
                lines.append(f"... {len(spans) - rows} more spans elided")
                return "\n".join(lines)
            end = s.end if s.end is not None else collector.now
            lo = int((s.start - t0) / extent * bar_w)
            hi = max(int((end - t0) / extent * bar_w), lo + 1)
            bar = " " * lo + "=" * (hi - lo) + " " * (bar_w - hi)
            label = f"{actor} {s.name}"
            if len(label) > label_w - 1:
                label = label[:label_w - 2] + "…"
            lines.append(f"{label:<{label_w}}|{bar}| "
                         f"{(end - s.start) * 1e6:9.2f} us")
            rows += 1
    return "\n".join(lines)
