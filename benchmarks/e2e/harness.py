"""One workload in one process: set-up, repetitions, the traced pass.

``run.py`` starts this module's :func:`child_main` in a subprocess per
workload (so peak RSS, imports and first-touch costs belong to that
workload alone).  The process builds the inputs, runs one discarded
warm-up repetition — the end of which marks ``setup_s`` — and then either

* times repetitions for the requested number of seconds with tracing
  off (the end-to-end pass), or
* runs one repetition under harness spans and one more under harness
  spans *and* ``cProfile`` (the traced pass), folds the profile into
  layers, and writes ``results/<workload>.trace.json``.

Both passes check that every virtual-clock metric and exact counter
repeats bit-exactly across repetitions.

Host times of the end-to-end pass are *calibrated*: the box this runs on
shares its cores, and its speed drifts by tens of percent over minutes,
which no statistic inside a 15-second run can remove.  So a fixed
interpreter-bound kernel (:func:`calibrate`) is timed beside every
repetition and each host time is scaled to the speed at which that
kernel takes ``CAL_REF_S``.  The raw seconds and the calibration samples
stay in the document.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import heapq
import json
import resource
import time

from repro.core.protocol import reset_request_ids

import layers
from compare import first_difference
import probe as probe_mod
from workloads import WORKLOADS, Outcome, jobs_paced_rep

RESULTS_DIR = layers.BENCH_DIR / "results"

#: Fewest timed repetitions per process, however short ``--seconds`` is.
MIN_REPS = 2

#: Reported host seconds are those of a host that runs :func:`calibrate`
#: in this time (this box with nothing else contending for its cores).
CAL_REF_S = 0.08

#: The pair whose wall-time ratio is ``obs.wall_overhead_ratio`` and whose
#: ``virtual_s`` must be equal: (untraced, traced by repro.obs).
OBS_PAIR = ("qr_protocol", "qr_protocol_obs")

#: Workload whose latency metrics come from a separate untimed run.
PACED_LATENCY = "jobs_ensemble"


def calibrate() -> float:
    """Seconds a fixed kernel takes right now: the host's current speed.

    Pure interpreter work of the kinds the simulator does — integer
    arithmetic, heap pushes and pops of small tuples, dict stores,
    generator resumes — and nothing from ``src/``, so no change to the
    program under test can move it.  The garbage of the repetition
    before is collected first and the collector is off meanwhile, so the
    kernel does the same work whatever ran before it.
    """
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for i in range(700_000):
        acc += i * i % 7
    heap: list = []
    slots: dict = {}

    def ticker():
        while True:
            yield

    tick = ticker()
    next(tick)
    for i in range(60_000):
        heapq.heappush(heap, (i * 7919 % 10007, i, None))
        if i & 3:
            heapq.heappop(heap)
        slots[i & 4095] = (i, acc)
        tick.send(i)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


class Rep:
    """Stage markers and measurements of one repetition."""

    def __init__(self, workload: str, rep_id: int, probe: probe_mod.Probe,
                 stack: contextlib.ExitStack, spans: bool,
                 profiler: cProfile.Profile | None):
        self.workload = workload
        self.rep_id = rep_id
        #: Set by the workload once an engine exists: virtual "now".
        self.clock = None
        self.wall_s = 0.0
        self.phases: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[dict] = []
        self._probe = probe
        self._stack = stack
        self._spans_on = spans
        self._profiler = profiler
        self._origin = time.perf_counter()
        self._stage: dict | None = None

    def enter(self, cm):
        """Enter a context manager that stays open until the rep ends."""
        return self._stack.enter_context(cm)

    def _virtual_now(self) -> float | None:
        return self.clock() if self.clock is not None else None

    @contextlib.contextmanager
    def _record(self, name: str, parent: dict | None, attrs: dict):
        span = {"id": len(self.spans), "name": name,
                "parent": parent["id"] if parent else None,
                "workload": self.workload, "rep": self.rep_id,
                "virtual_start_s": self._virtual_now(), **attrs}
        self.spans.append(span)
        span["host_start_s"] = time.perf_counter() - self._origin
        try:
            yield span
        finally:
            span["host_end_s"] = time.perf_counter() - self._origin
            span["virtual_end_s"] = self._virtual_now()

    @contextlib.contextmanager
    def phase(self, name: str):
        """An untimed stage: always recorded, one at a time."""
        with self._record(name, None, {}) as span:
            self._stage = span
            try:
                yield span
            finally:
                self._stage = None
        self.phases[name] = (self.phases.get(name, 0.0)
                             + span["host_end_s"] - span["host_start_s"])

    @contextlib.contextmanager
    def timed(self):
        """The measured section: wall time, counter deltas, profiler."""
        before = self._probe.counters()
        with self.phase("timed"):
            if self._profiler is not None:
                self._profiler.enable()
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.wall_s = time.perf_counter() - t0
                if self._profiler is not None:
                    self._profiler.disable()
        self.counters = probe_mod.delta(self._probe.counters(), before)

    def span(self, name: str, parent: dict | None = None, **attrs):
        """A harness span around one call into a public function.

        Recorded only in the traced pass.  ``parent`` defaults to the
        open stage; interleaved simulation processes pass it explicitly.
        """
        if not self._spans_on:
            return contextlib.nullcontext()
        return self._record(name, parent or self._stage, attrs)

    def span_totals(self, name: str) -> tuple[float, float]:
        """Summed (host, virtual) seconds of the spans called ``name``."""
        host = virtual = 0.0
        for span in self.spans:
            if span["name"] == name:
                host += span["host_end_s"] - span["host_start_s"]
                if span["virtual_start_s"] is not None:
                    virtual += span["virtual_end_s"] - span["virtual_start_s"]
        return host, virtual


def span_self_times(spans: list[dict]) -> None:
    """Annotate each span with its self time: duration minus children."""
    for span in spans:
        span["host_self_s"] = span["host_end_s"] - span["host_start_s"]
    for span in spans:
        if span["parent"] is not None:
            spans[span["parent"]]["host_self_s"] -= (
                span["host_end_s"] - span["host_start_s"])


def run_rep(name: str, inputs, rep_id: int, *, rep_fn=None,
            spans: bool = False,
            profiler: cProfile.Profile | None = None) -> dict:
    """Run one repetition on a fresh cluster; returns its record.

    ``exact`` holds everything that must repeat bit-exactly: the
    virtual-clock metrics, the work counters over the timed section, and
    the operation counts.
    """
    gc.collect()
    # Control frames are sized by pickling their request id, so virtual
    # times only repeat when every repetition draws the same id stream.
    reset_request_ids()
    with contextlib.ExitStack() as stack, probe_mod.Probe() as probe:
        rep = Rep(name, rep_id, probe, stack, spans, profiler)
        outcome: Outcome = (rep_fn or WORKLOADS[name].rep)(rep, inputs)
    exact = {"virtual_s": outcome.virtual_s, **rep.counters,
             **outcome.counters,
             "ops_attempted": outcome.attempted,
             "ops_failed": outcome.failed,
             "ops_wrong": (outcome.failed if outcome.wrong is None
                           else outcome.wrong)}
    if outcome.latency is not None:
        exact["virtual_op_p50_s"] = outcome.latency["p50_s"]
        exact["virtual_op_p99_s"] = outcome.latency["p99_s"]
        exact["virtual_op_count"] = outcome.latency["count"]
    span_self_times(rep.spans)
    return {"rep": rep_id, "wall_s": rep.wall_s, "phases": rep.phases,
            "exact": exact, "derived": outcome.derived, "spans": rep.spans}


def _ops(records: list[dict]) -> dict:
    """Operation totals over some repetitions."""
    return {key: sum(r["exact"][f"ops_{key}"] for r in records)
            for key in ("attempted", "failed", "wrong")}


def _check_repeats(warm: dict, records: list[dict], errors: list) -> None:
    """Determinism guard: every record must equal the warm-up exactly."""
    for rec in records:
        diff = first_difference(warm["exact"], rec["exact"])
        if diff:
            errors.append(f"repetition {rec['rep']} differs from the "
                          f"warm-up repetition in {diff}")
            return


def _timing_pass(name: str, inputs, warm: dict, seconds: float,
                 cal_s: float) -> dict:
    reps: list[dict] = []
    cals = [cal_s]
    while len(reps) < MIN_REPS or sum(r["wall_s"] for r in reps) < seconds:
        reps.append(run_rep(name, inputs, len(reps) + 1))
        cals.append(calibrate())
    errors: list[str] = []
    _check_repeats(warm, reps, errors)
    raw = [r["wall_s"] for r in reps]
    return {
        # Each repetition is scaled by the calibrations on either side.
        "rep_wall_s": [w * CAL_REF_S / ((before + after) / 2)
                       for w, before, after in zip(raw, cals, cals[1:])],
        "rep_wall_raw_s": raw,
        "rep_cal_s": cals,
        "rep_phases": [r["phases"] for r in reps],
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exact": warm["exact"],
        "errors": errors,
        **_ops(reps),
    }


def _traced_pass(name: str, inputs, warm: dict, setup_phases: dict) -> dict:
    plain = run_rep(name, inputs, 1, spans=True)
    profiler = cProfile.Profile()
    profiled = run_rep(name, inputs, 2, spans=True, profiler=profiler)
    errors: list[str] = []
    _check_repeats(warm, [plain, profiled], errors)
    folded = layers.fold_profile(profiler)

    metrics: dict[str, float] = {}
    total = sum(row["self_s"] for row in folded["layers"].values())
    for layer, row in folded["layers"].items():
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.self_share"] = row["self_s"] / total
        metrics[f"{layer}.calls"] = row["calls"]
    metrics["sim.heap_pushes"] = folded["heap_pushes"]
    metrics["sim.heap_pops"] = folded["heap_pops"]
    metrics["sim.us_per_event"] = (
        plain["wall_s"] / folded["heap_pops"] * 1e6
        if folded["heap_pops"] else 0.0)
    metrics["bench.trace_overhead_ratio"] = (profiled["wall_s"]
                                             / plain["wall_s"])
    for phase in ("build", "upload", "timed", "verify"):
        metrics[f"bench.phase.{phase}.wall_s"] = plain["phases"].get(
            phase, 0.0)
    metrics["bench.phase.inputs.wall_s"] = setup_phases["inputs"]
    metrics.update(plain["derived"])
    metrics.update({key: value for key, value in plain["exact"].items()
                    if not key.startswith("ops_")})

    counted = [plain]
    pair_mismatch = 0
    if name in OBS_PAIR:
        other = OBS_PAIR[1 - OBS_PAIR.index(name)]
        sibling = run_rep(other, inputs, 3)
        walls = {name: plain["wall_s"], other: sibling["wall_s"]}
        metrics["obs.wall_overhead_ratio"] = (walls[OBS_PAIR[1]]
                                              / walls[OBS_PAIR[0]])
        if sibling["exact"]["virtual_s"] != plain["exact"]["virtual_s"]:
            pair_mismatch = 1
            errors.append(
                f"virtual_s differs between {name} "
                f"({plain['exact']['virtual_s']!r}) and {other} "
                f"({sibling['exact']['virtual_s']!r})")
    if name == PACED_LATENCY:
        paced = run_rep(name, inputs, 3, rep_fn=jobs_paced_rep)
        counted.append(paced)
        for key in ("virtual_op_p50_s", "virtual_op_p99_s",
                    "virtual_op_count"):
            metrics[key] = paced["exact"][key]
    ops = _ops(counted)
    ops["failed"] += pair_mismatch
    ops["wrong"] += pair_mismatch
    metrics["ops_failed_share"] = ops["failed"] / ops["attempted"]

    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{name}.trace.json", "w") as fh:
        json.dump({"workload": name,
                   "spans": plain["spans"] + profiled["spans"],
                   "profiled_rep": profiled["rep"],
                   "profile": folded}, fh, indent=1)
        fh.write("\n")
    return {"metrics": metrics, "errors": errors,
            "rep_wall_s": {"spanned": plain["wall_s"],
                           "profiled": profiled["wall_s"]},
            **ops}


def child_main(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool, t_spawn: float) -> dict:
    """Body of one workload subprocess; returns its result document."""
    t0 = time.perf_counter()
    inputs = WORKLOADS[name].inputs(seed, smoke)
    inputs_s = time.perf_counter() - t0
    warm = run_rep(name, inputs, 0)
    setup_raw_s = time.time() - t_spawn
    cal_s = calibrate()
    doc = {"workload": name, "loop": WORKLOADS[name].loop, "seed": seed,
           "smoke": smoke, "setup_s": setup_raw_s * CAL_REF_S / cal_s,
           "setup_raw_s": setup_raw_s,
           "setup_phases": {"inputs": inputs_s, **warm["phases"]}}
    if trace:
        doc.update(_traced_pass(name, inputs, warm, doc["setup_phases"]))
    else:
        doc.update(_timing_pass(name, inputs, warm, seconds, cal_s))
    return doc
