"""Span-based tracing for the middleware request path.

A *span* is one timed phase of a request — ``client.memcpy_h2d`` on the
front-end, ``daemon.memcpy_h2d`` on the back-end, ``net.recv`` while a
data block is on the wire, ``dma`` while the PCIe engine moves it.  Spans
carry a context, the pair ``(trace_id, span_id)`` (``Span.wire``); a
front-end span's context rides the :class:`~repro.core.protocol.Request`
frame to the daemon, whose spans become *children* on the same trace id,
so one remote operation decomposes into its injection / network /
staging / DMA phases end to end.

All timestamps are **virtual** times read from the simulation engine.
Recording a span never yields, never schedules an event, and never
advances the clock — tracing on or off, the simulation timeline is
bit-identical (asserted by ``tests/obs/test_identity.py``).

A recorded span is a row of the collector's column tables, not an
object: the data-plane work units (message, DMA copy, kernel launch,
block receive) hold its int row id and record through the collector's
``*_row`` methods, and process-level code holds a :class:`Span` handle
over the row.  Disabled tracing is a null object:
:meth:`TraceCollector.start` returns the shared :data:`NULL_SPAN` whose
methods all no-op, so process-level code pays one enabled check per
operation; the data-plane work units hold ``None`` and make no span call.

Collectors are looked up per engine with :func:`collector_for` — every
component of one simulation shares one collector, exactly like they share
one clock.  :func:`trace_session` turns tracing on globally for a block
of code (the ``python -m repro trace`` CLI uses it to trace experiments
that build their own clusters internally).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import itertools
import types
import typing as _t
import weakref

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..sim import Engine


class SpanEvent(_t.NamedTuple):
    """A timestamped point annotation inside a span (retry, failover...)."""

    time: float
    name: str
    attrs: dict


@dataclasses.dataclass(frozen=True, slots=True)
class Span:
    """A process-level handle over one recorded span: its collector and row.

    Spans are opened through :meth:`TraceCollector.start` (or
    :meth:`child`) and used as context managers — which also closes
    them when an exception (including a process interrupt) unwinds the
    enclosing generator, so failed branches cannot leak open spans.

    The span itself is a row of the collector's span table (DESIGN.md
    section 9); the handle only reads and writes that row, so the
    collector retains no handle, and two handles on one row are equal.
    """

    collector: "TraceCollector"
    #: The span's row in the collector's columns (its ``span_id`` - 1).
    row: int

    # -- identity ---------------------------------------------------------
    @property
    def span_id(self) -> int:
        return self.row + 1

    @property
    def trace_id(self) -> int:
        return self.collector._trace_ids[self.row]

    @property
    def parent_id(self) -> int | None:
        return self.collector._parent_ids[self.row]

    @property
    def name(self) -> str:
        return self.collector._names[self.row]

    @property
    def actor(self) -> str:
        return self.collector._actors[self.row]

    @property
    def start(self) -> float:
        return self.collector._starts[self.row]

    @property
    def end(self) -> float | None:
        return self.collector._ends[self.row]

    @property
    def attrs(self) -> dict:
        return self.collector._attrs[self.row]

    @property
    def wire(self) -> tuple[int, int]:
        """The context as a plain tuple: what rides a Request frame and
        what ``parent=`` / ``ctx=`` take without building a NamedTuple."""
        return (self.collector._trace_ids[self.row], self.row + 1)

    @property
    def open(self) -> bool:
        return self.collector._ends[self.row] is None

    @property
    def duration(self) -> float:
        """Span length; an open span extends to the collector's clock."""
        end = self.end
        return (end if end is not None else self.collector.now) - self.start

    @property
    def events(self) -> list[SpanEvent]:
        """This span's point events in emission order: a derived view,
        one pass over the collector's event columns."""
        col, row = self.collector, self.row
        return [SpanEvent(time, name, attrs or {})
                for r, time, name, attrs in zip(col._ev_rows, col._ev_times,
                                                col._ev_names, col._ev_attrs)
                if r == row]

    # -- recording --------------------------------------------------------
    def event(self, name: str, **attrs: _t.Any) -> None:
        """Record a timestamped point annotation on this span."""
        self.collector.event_row(self.row, name, attrs or None)

    def set(self, **attrs: _t.Any) -> None:
        """Attach attributes to the span."""
        self.collector._attrs[self.row].update(attrs)

    def child(self, name: str, actor: str | None = None,
              **attrs: _t.Any) -> "Span | NullSpan":
        """Open a child span (same trace id)."""
        col = self.collector
        if not col.enabled:
            return NULL_SPAN
        row = self.row
        return Span(col, col.open_row(
            name, actor or col._actors[row],
            (col._trace_ids[row], row + 1), attrs))

    # -- context manager --------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        col, row = self.collector, self.row
        if exc_type is not None and col._ends[row] is None:
            col._attrs[row].setdefault("error", f"{exc_type.__name__}: {exc}")
        col.finish_row(row)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.open else f"{self.duration * 1e6:.1f}us"
        return (f"<Span {self.name} t{self.trace_id}/s{self.span_id} "
                f"@{self.actor} {state}>")


class NullSpan:
    """The disabled-tracing span: every method no-ops.

    A single shared instance (:data:`NULL_SPAN`) is returned by disabled
    collectors so instrumented code never branches on "is tracing on".
    """

    __slots__ = ()

    wire = None
    # Immutable: one instance stands in for every disabled span, so a
    # write through ``span.attrs[...]`` must fail, not leak to the rest.
    events: tuple = ()
    attrs: _t.Mapping = types.MappingProxyType({})
    open = False
    duration = 0.0

    def event(self, name: str, **attrs: _t.Any) -> None:
        pass

    def set(self, **attrs: _t.Any) -> None:
        pass

    def child(self, name: str, actor: str | None = None,
              **attrs: _t.Any) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<NullSpan>"


#: Shared no-op span returned whenever tracing is disabled.
NULL_SPAN = NullSpan()


class SpanView:
    """The recorded spans of one collector, as :class:`Span` handles in
    ``span_id`` order: a read view over the span table, not a list of
    stored objects."""

    __slots__ = ("collector",)

    def __init__(self, collector: "TraceCollector"):
        self.collector = collector

    def __len__(self) -> int:
        return len(self.collector._starts)

    def __iter__(self) -> _t.Iterator[Span]:
        col = self.collector
        return (Span(col, row) for row in range(len(col._starts)))


class TraceCollector:
    """Per-engine span store, sharing the engine's virtual clock.

    One collector serves every component built against one engine — the
    front-ends, daemons, DMA engines, and the fabric all
    :func:`collector_for` the same instance, exactly like they share the
    clock.  ``enabled`` may be flipped at any time; components cache the
    collector object, not its state, so enabling after cluster
    construction works.  A ``parent`` is any ``(trace_id, span_id)``
    pair: ``Span.wire``, a Request's ``trace``.

    Spans and point events are rows of two column tables (DESIGN.md
    section 9): one list per field, so recording leaves no per-span
    object for the cyclic GC to track.  A span's row is its
    ``span_id - 1``.  The data-plane work units (message, DMA copy,
    kernel launch, block receive) keep that int and record through
    :meth:`open_row`, :meth:`event_row` and :meth:`finish_row`;
    process-level code holds a :class:`Span` over it.
    """

    def __init__(self, engine: "Engine", enabled: bool = False):
        self.enabled = enabled
        # A weak reference: collectors live in a WeakKeyDictionary keyed
        # by engine, so a strong back-reference would pin the entry (and
        # the whole simulation) forever.
        self._engine_ref = weakref.ref(engine)
        self._last_now = 0.0
        # The span table, one column per field.  ``_ends`` holds None
        # while a span is open; ``_attrs`` one dict per span, of atoms,
        # which the GC leaves untracked.
        self._names: list[str] = []
        self._actors: list[str] = []
        self._trace_ids: list[int] = []
        self._parent_ids: list[int | None] = []
        self._starts: list[float] = []
        self._ends: list[float | None] = []
        self._attrs: list[dict] = []
        # The point-event table, in emission order: the span row, time,
        # name and attrs (None for none) of each event.
        self._ev_rows: list[int] = []
        self._ev_times: list[float] = []
        self._ev_names: list[str] = []
        self._ev_attrs: list[dict | None] = []
        self._n_open = 0
        self._new_trace_ids = itertools.count(1)
        #: The :class:`BranchScope` whose watched step is running.
        self._scope: "BranchScope | None" = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        # Once the engine is gone the clock stays at the last time read,
        # so a span left open by an abandoned process still exports with
        # a non-negative duration.  (Recording reads it the same way, inline.)
        engine = self._engine_ref()
        if engine is not None:
            self._last_now = engine.now
        return self._last_now

    # -- recording by row -------------------------------------------------
    def open_row(self, name: str, actor: str,
                 parent: "tuple[int, int] | None", attrs: dict) -> int:
        """Record a span opening now; returns its row.

        ``parent`` None roots a new trace.  The caller checks
        ``enabled``.
        """
        engine = self._engine_ref()
        if engine is not None:
            self._last_now = engine.now
        row = len(self._starts)
        if parent is None:
            self._trace_ids.append(next(self._new_trace_ids))
            self._parent_ids.append(None)
        else:
            self._trace_ids.append(parent[0])
            self._parent_ids.append(parent[1])
        self._names.append(name)
        self._actors.append(actor)
        self._starts.append(self._last_now)
        self._ends.append(None)
        self._attrs.append(attrs)
        self._n_open += 1
        return row

    def event_row(self, row: int, name: str, attrs: dict | None = None
                  ) -> None:
        """Record a timestamped point event on span ``row``."""
        engine = self._engine_ref()
        if engine is not None:
            self._last_now = engine.now
        self._ev_rows.append(row)
        self._ev_times.append(self._last_now)
        self._ev_names.append(name)
        self._ev_attrs.append(attrs)

    def finish_row(self, row: int, attrs: dict | None = None) -> None:
        """Close span ``row`` at the current virtual time, adding
        ``attrs`` (idempotent: a closed span stays as it closed)."""
        ends = self._ends
        if ends[row] is None:
            if attrs:
                self._attrs[row].update(attrs)
            engine = self._engine_ref()
            if engine is not None:
                self._last_now = engine.now
            ends[row] = self._last_now
            self._n_open -= 1

    # -- span creation ----------------------------------------------------
    def start(self, name: str, actor: str,
              parent: "tuple[int, int] | None" = None,
              **attrs: _t.Any) -> "Span | NullSpan":
        """Open a span; returns :data:`NULL_SPAN` when disabled.

        Without a ``parent`` it roots a new trace.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, self.open_row(name, actor, parent, attrs))

    # -- queries ----------------------------------------------------------
    @property
    def spans(self) -> SpanView:
        """Every recorded span, in ``span_id`` order (a read view)."""
        return SpanView(self)

    @property
    def event_log(self) -> list[tuple]:
        """Every point event in emission order, as ``(span_id, time,
        name, attrs-or-None)`` rows built from the event columns."""
        return [(row + 1, time, name, attrs)
                for row, time, name, attrs in zip(
                    self._ev_rows, self._ev_times, self._ev_names,
                    self._ev_attrs)]

    @property
    def open_spans(self) -> list[Span]:
        """Still-open spans by ``span_id``: a scan, for error paths and
        tests — recording keeps a count, not a set."""
        if not self._n_open:
            return []
        return [Span(self, row) for row, end in enumerate(self._ends)
                if end is None]

    def by_name(self, name: str) -> list[Span]:
        return [Span(self, row) for row, n in enumerate(self._names)
                if n == name]

    def by_trace(self, trace_id: int) -> list[Span]:
        return [Span(self, row) for row, t in enumerate(self._trace_ids)
                if t == trace_id]

    def children_of(self, span: Span) -> list[Span]:
        trace_id, span_id = span.trace_id, span.span_id
        return [Span(self, row) for row, (t, p) in enumerate(
                    zip(self._trace_ids, self._parent_ids))
                if p == span_id and t == trace_id]

    # -- lifecycle --------------------------------------------------------
    def _abort(self, aborted: list[Span], reason: str) -> int:
        for span in aborted:
            span.attrs.setdefault("aborted", reason)
            self.finish_row(span.row)
        return len(aborted)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return (f"<TraceCollector {state} spans={len(self._starts)} "
                f"open={self._n_open}>")


class BranchScope:
    """The traces a set of processes opened, so a failure aborts only them.

    :meth:`watch` wraps a process's generator: every span opened
    synchronously inside one of its steps is claimed by this scope — and
    by the scope whose step was running when this one was made, so the
    traces of a nested ``run_parallel`` count for its caller too.  A
    claimed root claims its whole trace (the daemon, DMA and wire spans
    it parents).  Made only while tracing is on.
    """

    __slots__ = ("collector", "outer", "traces", "span_ids")

    def __init__(self, collector: TraceCollector):
        self.collector = collector
        self.outer = collector._scope
        self.traces: set[int] = set()
        self.span_ids: set[int] = set()

    def watch(self, gen: _t.Generator) -> _t.Generator:
        """Run ``gen`` step by step, claiming the spans each step opens."""
        col = self.collector
        value, error = None, None
        while True:
            mark, running = len(col._starts), col._scope
            col._scope = self
            try:
                target = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                col._scope = running
                if len(col._starts) > mark:
                    self._claim(mark)
            try:
                value, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                value, error = None, exc

    def _claim(self, first: int) -> None:
        """Claim the rows from ``first`` on, for this scope and every
        scope around it."""
        col = self.collector
        rows = range(first, len(col._starts))
        parent_ids, trace_ids = col._parent_ids, col._trace_ids
        scope = self
        while scope is not None:
            for row in rows:
                scope.span_ids.add(row + 1)
                if parent_ids[row] is None:
                    scope.traces.add(trace_ids[row])
            scope = scope.outer

    def abort(self, reason: str) -> int:
        """Close this scope's open spans, marking them aborted; returns
        the count.  Spans of every other trace keep running."""
        return self.collector._abort(
            [s for s in self.collector.open_spans
             if s.trace_id in self.traces or s.span_id in self.span_ids],
            reason)


#: engine -> collector.  Weak keys: a collector must not outlive (or pin)
#: its simulation.
_collectors: "weakref.WeakKeyDictionary[Engine, TraceCollector]" = (
    weakref.WeakKeyDictionary())

#: When True (inside a :func:`trace_session`), collectors are born enabled.
_default_enabled = False

#: The active session accumulating strong references to collectors of
#: engines created while it is open (engines are transient per experiment).
_active_session: "TraceSession | None" = None


def collector_for(engine: "Engine") -> TraceCollector:
    """The engine's span collector (created disabled on first use)."""
    col = _collectors.get(engine)
    if col is None:
        col = TraceCollector(engine, enabled=_default_enabled)
        _collectors[engine] = col
        if _active_session is not None:
            _active_session.collectors.append(col)
    return col


def enable_tracing(engine: "Engine") -> TraceCollector:
    """Turn span collection on for one engine; returns its collector."""
    col = collector_for(engine)
    col.enabled = True
    return col


class TraceSession:
    """Collects spans from every engine created while the session is open.

    Experiments build clusters (and therefore engines) internally; the
    session flips the global default so those engines' collectors are
    born enabled, and keeps strong references so their spans survive the
    engines themselves.  Collectors are exported as separate Chrome-trace
    processes (each engine has its own virtual clock).
    """

    def __init__(self) -> None:
        self.collectors: list[TraceCollector] = []

    def span_count(self) -> int:
        return sum(len(c.spans) for c in self.collectors)

    def to_chrome_trace(self) -> dict:
        from .export import chrome_trace
        return chrome_trace(self.collectors)

    def render_timeline(self, width: int = 100) -> str:
        from .export import render_timeline
        return "\n\n".join(
            render_timeline(col, width=width)
            for col in self.collectors if col.spans) or "(no spans recorded)"


@contextlib.contextmanager
def trace_session() -> _t.Iterator[TraceSession]:
    """Enable tracing for every engine created inside the block.

    On exit the session collects the garbage of the simulations run
    inside it.  A run that ends at a horizon abandons its processes
    mid-``with span:``; each such span closes (with the ``GeneratorExit``
    error) when the cyclic GC finalizes its generator.  Collecting here
    makes that happen before anything reads the session, not whenever
    the collector next runs, so an export does not depend on the GC's
    schedule.  Each collector reads its engine's clock first: the GC
    clears the weak reference to an engine before it finalizes the
    engine's generators, so the spans close when their run stopped.
    """
    global _default_enabled, _active_session
    session = TraceSession()
    prev_enabled, prev_session = _default_enabled, _active_session
    _default_enabled, _active_session = True, session
    try:
        yield session
    finally:
        _default_enabled, _active_session = prev_enabled, prev_session
        for col in session.collectors:
            col.now                     # keeps the clock the run stopped at
        gc.collect()
