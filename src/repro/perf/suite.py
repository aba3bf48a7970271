"""Wall-clock (host-time) benchmark suite.

Everything else in this repository measures *virtual* seconds; this
module measures how fast the simulator itself runs on the host.  It is
the measurement harness behind ``python -m repro perf`` and the CI
``perf-smoke`` regression gate, and the producer of the ``BENCH_*.json``
documents described in :mod:`repro.perf.schema`.

Methodology:

* every benchmark reports the **best** of a few repetitions — wall-clock
  noise on shared machines is one-sided, so the minimum is the stable
  estimator;
* data-plane benchmarks reuse one rig and warm the buffers before
  timing, so they measure steady-state copy throughput rather than
  first-touch page faults;
* benchmark *values* are oriented ("higher" / "lower" is better) so a
  comparison against an older document can always express improvement
  as a ratio > 1.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import platform
import sys
import time
import typing as _t

from .schema import SCHEMA, speedup, validate_bench

MiB = 1024 * 1024


@dataclasses.dataclass(frozen=True)
class Benchmark:
    """One registered benchmark."""

    name: str
    unit: str
    better: str  # "higher" | "lower"
    description: str
    fn: _t.Callable[[bool], tuple[float, float, dict]]
    #: Included in ``--quick`` runs (CI smoke) as well as full runs.
    quick: bool = True


# -- engine microbenchmarks ---------------------------------------------

def _bench_engine_events(quick: bool) -> tuple[float, float, dict]:
    """Throughput of the event loop on its leanest cycle: one process
    repeatedly waiting on a fresh timer (allocate, schedule, pop, resume).
    """
    from ..sim import Engine
    from ..sim.events import Timeout

    n = 50_000 if quick else 200_000
    reps = 2 if quick else 3
    best = float("inf")
    for _ in range(reps):
        eng = Engine()

        def prog():
            for _ in range(n):
                yield Timeout(eng, 1e-6)

        proc = eng.process(prog())
        t0 = time.perf_counter()
        eng.run(until=proc)
        best = min(best, time.perf_counter() - t0)
    return n / best, best, {"timeouts": n, "reps": reps}


def _bench_engine_race(quick: bool) -> tuple[float, float, dict]:
    """The RPC hot pattern: race a winning event against a deadline, then
    cancel the loser.  Exercises lazy deletion, heap compaction, and the
    deadline slot pool.
    """
    from ..sim import Engine
    from ..sim.events import Timeout

    n = 20_000 if quick else 100_000
    reps = 2 if quick else 3
    best = float("inf")
    for _ in range(reps):
        eng = Engine()

        def prog():
            for _ in range(n):
                reply = Timeout(eng, 1e-7)
                cond, dl = eng.race(reply, 1.0)
                yield cond
                dl.cancel()

        proc = eng.process(prog())
        t0 = time.perf_counter()
        eng.run(until=proc)
        best = min(best, time.perf_counter() - t0)
    return n / best, best, {"races": n, "reps": reps}


# -- data-plane benchmarks ----------------------------------------------

def _payload(nbytes: int):
    """Deterministic non-trivial payload, built fast (tiled random block)."""
    import numpy as np

    block = np.random.default_rng(0).integers(
        0, 255, min(nbytes, 64 * 1024), dtype=np.uint8)
    reps = -(-nbytes // block.size)
    return np.tile(block, reps)[:nbytes]


def _remote_rig():
    """A fresh 1 CN + 1 AC paper-testbed cluster with a remote front-end."""
    from ..cluster import Cluster, paper_testbed

    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=1))
    return cluster, sess, cluster.remote(0, handles[0])


def _bench_memcpy(direction: str, quick: bool) -> tuple[float, float, dict]:
    """Steady-state pipeline copy throughput for one direction (host MiB/s
    of wall time, not virtual bandwidth)."""
    nbytes = 16 * MiB if quick else 64 * MiB
    reps = 3 if quick else 5
    cluster, sess, ac = _remote_rig()
    payload = _payload(nbytes)
    ptr = sess.call(ac.mem_alloc(nbytes))

    def h2d():
        yield from ac.memcpy_h2d(ptr, payload)

    def d2h():
        out = yield from ac.memcpy_d2h(ptr, nbytes)
        return out

    prog = h2d if direction == "h2d" else d2h
    sess.call(prog())  # warm: fault in the device backing + payload pages
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        sess.call(prog())
        best = min(best, time.perf_counter() - t0)
    return (nbytes / MiB) / best, best, {
        "nbytes": nbytes, "reps": reps, "direction": direction}


def _bench_fig_large(direction: str, quick: bool) -> tuple[float, float, dict]:
    """Large-payload half of Fig. 5 (H2D) / Fig. 6 (D2H) with *real*
    payloads: a sweep over the top message sizes through the default
    adaptive pipeline, measured in host seconds (the figure experiments
    themselves move phantoms, so this is the copy path the figures time
    but with the bytes actually attached)."""
    sizes = [8 * MiB, 16 * MiB] if quick else [16 * MiB, 32 * MiB, 64 * MiB]
    reps = 1 if quick else 2
    cluster, sess, ac = _remote_rig()
    payloads = {n: _payload(n) for n in sizes}
    ptrs = {n: sess.call(ac.mem_alloc(n)) for n in sizes}

    def one_pass():
        for n in sizes:
            yield from ac.memcpy_h2d(ptrs[n], payloads[n])
            if direction == "d2h":
                yield from ac.memcpy_d2h(ptrs[n], n)

    sess.call(one_pass())  # warm
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        sess.call(one_pass())
        best = min(best, time.perf_counter() - t0)
    return best, best, {
        "sizes": sizes, "reps": reps, "direction": direction,
        "total_mib": sum(sizes) // MiB}


def _bench_qr(quick: bool) -> tuple[float, float, dict]:
    """Fig. 9 end to end: one timing-mode QR factorization on one
    network-attached GPU (the protocol- and event-bound workload)."""
    from ..cluster import Cluster, paper_testbed
    from ..workloads.linalg import qr_factorize

    n = 1536 if quick else 3072
    reps = 1 if quick else 2
    best = float("inf")
    for _ in range(reps + 1):  # +1 warm (module import, kernel registry)
        cluster, sess, ac = _remote_rig()
        t0 = time.perf_counter()
        sess.call(qr_factorize(cluster.engine, cluster.compute_nodes[0].cpu,
                               [ac], n, 128))
        best = min(best, time.perf_counter() - t0)
    return best, best, {"n": n, "nb": 128, "gpus": 1, "reps": reps}


def _bench_mp2c(quick: bool) -> tuple[float, float, dict]:
    """Fig. 11 end to end: a short 2-rank MP2C run on remote accelerators
    (timing mode: MPI halo traffic + SRD kernel launches + migrations)."""
    from ..baselines import LocalAccelerator  # noqa: F401 (import parity)
    from ..cluster import Cluster, paper_testbed
    from ..workloads.mp2c import MP2CConfig, run_mp2c

    n_particles = 128_000 if quick else 512_000
    steps = 20 if quick else 40
    cluster = Cluster(paper_testbed(n_compute=2, n_accelerators=2))
    sess = cluster.session()
    acs = []
    for i in range(2):
        handles = sess.call(cluster.arm_client(i).alloc(count=1))
        acs.append(cluster.remote(i, handles[0]))
    ranks = [cluster.compute_rank(i) for i in range(2)]
    cfg = MP2CConfig(n_particles=n_particles, steps=steps)
    t0 = time.perf_counter()
    sess.call(run_mp2c(cluster.engine, cluster.compute_nodes[0].cpu,
                       ranks, acs, cfg))
    wall = time.perf_counter() - t0
    return wall, wall, {"n_particles": n_particles, "steps": steps,
                        "ranks": 2}


def _bench_collective(quick: bool) -> tuple[float, float, dict]:
    """P2P ring allreduce end to end on a 2x2 torus: the daemon→daemon
    forwarding path, per-hop trunk contention, and the reduce kernels —
    the whole P2P data plane in one number.  Also records hop counts and
    the cn-endpoint byte ratio vs the staged path (reported as detail;
    the ≥2× gate itself lives in the CI p2p-smoke job)."""
    from ..workloads.collective import CollectiveConfig, run_once

    elements = 2048 if quick else 16384
    reps = 2 if quick else 3
    cfg = CollectiveConfig(devices=8, chunk_elements=elements,
                           topology="torus2d", dims=(2, 2))
    staged = run_once(cfg, "staged")  # warm + staged byte reference
    best = float("inf")
    p2p = None
    for _ in range(reps):
        t0 = time.perf_counter()
        p2p = run_once(cfg, "p2p")
        best = min(best, time.perf_counter() - t0)
    return best, best, {
        "devices": cfg.devices, "elements": elements, "reps": reps,
        "identical": p2p.digest == staged.digest,
        "cn_byte_ratio": round(staged.cn_bytes / max(p2p.cn_bytes, 1), 1),
        "virtual_speedup": round(staged.duration_s / p2p.duration_s, 2)}


def _bench_jobs_throughput(quick: bool) -> tuple[float, float, dict]:
    """Ensemble front door end to end: the warm-path run (coalescing +
    kernel/allocation caching + lease reuse) vs the cold baseline on the
    identical seeded ensemble.  Value is the warm run's *virtual* jobs/s;
    detail carries the cold baseline, the virtual speedup (the CI
    jobs-smoke gate requires >= JOBS_SPEEDUP_MIN), the cache hit rates,
    and the on/off outcome-digest match."""
    from ..workloads.ensemble import EnsembleConfig, run

    cfg = EnsembleConfig(n_jobs=64 if quick else 96, seed=0)
    t0 = time.perf_counter()
    warm = run(cfg)
    wall = time.perf_counter() - t0
    cold = run(dataclasses.replace(cfg, coalescing=False, caching=False))
    return warm.jobs_per_s, wall, {
        "n_jobs": cfg.n_jobs,
        "baseline_jobs_per_s": round(cold.jobs_per_s, 1),
        "speedup": (round(warm.jobs_per_s / cold.jobs_per_s, 2)
                    if cold.jobs_per_s else 0.0),
        "kernel_cache_hit_rate": round(warm.kernel_cache_hit_rate, 2),
        "alloc_cache_hit_rate": round(warm.alloc_cache_hit_rate, 2),
        "leases_reused": warm.leases_reused,
        "identical": warm.digest == cold.digest}


#: The registered suite, in execution order.
BENCHMARKS: tuple[Benchmark, ...] = (
    Benchmark("engine_events", "events/s", "higher",
              "event-loop throughput (timer churn)", _bench_engine_events),
    Benchmark("engine_race", "races/s", "higher",
              "race+cancel churn (lazy delete, slot pool)",
              _bench_engine_race),
    Benchmark("memcpy_h2d", "MiB/s", "higher",
              "steady-state H2D pipeline, real payload",
              lambda q: _bench_memcpy("h2d", q)),
    Benchmark("memcpy_d2h", "MiB/s", "higher",
              "steady-state D2H pipeline, real payload",
              lambda q: _bench_memcpy("d2h", q)),
    Benchmark("fig05_large", "s", "lower",
              "fig05 large-payload H2D sweep, real payloads",
              lambda q: _bench_fig_large("h2d", q)),
    Benchmark("fig06_large", "s", "lower",
              "fig06 large-payload D2H sweep, real payloads",
              lambda q: _bench_fig_large("d2h", q)),
    Benchmark("fig09_qr", "s", "lower",
              "fig09 QR end to end, 1 network GPU",
              _bench_qr),
    Benchmark("fig11_mp2c", "s", "lower",
              "fig11 MP2C end to end, 2 ranks", _bench_mp2c,
              quick=False),
    Benchmark("collective_ring", "s", "lower",
              "P2P ring allreduce, 8 devices on a 2x2 torus",
              _bench_collective),
    Benchmark("jobs_throughput", "jobs/s", "higher",
              "ensemble front door, warm paths vs cold baseline",
              _bench_jobs_throughput),
)


def _fmt(value: float) -> str:
    """Value formatting that works for events/s and for sub-second walls."""
    return f"{value:,.1f}" if value >= 100 else f"{value:.3f}"


def run_suite(quick: bool = False, only: _t.Sequence[str] | None = None,
              out: _t.TextIO | None = None) -> dict:
    """Run the suite and return a schema-valid benchmark document."""
    names = set(only) if only is not None else None
    doc: dict = {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "created": datetime.datetime.now(datetime.timezone.utc)
                   .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "implementation": platform.python_implementation(),
        },
        # Constant since the copying data plane was deleted; kept so
        # repro-perf/1 documents (and the baseline) still validate.
        "zero_copy": True,
        "benchmarks": {},
    }
    for bench in BENCHMARKS:
        if names is not None and bench.name not in names:
            continue
        if quick and not bench.quick:
            continue
        if out is not None:
            out.write(f"{bench.name:<14} ...")
            out.flush()
        value, wall, detail = bench.fn(quick)
        doc["benchmarks"][bench.name] = {
            "value": value,
            "unit": bench.unit,
            "better": bench.better,
            "wall_s": wall,
            "detail": detail,
        }
        if out is not None:
            out.write(f"\r{bench.name:<14} {_fmt(value):>14} {bench.unit:<10} "
                      f"(wall {wall:.3f}s)\n")
    validate_bench(doc)
    return doc


def attach_baseline(doc: dict, old_doc: dict, path: str | None = None) -> dict:
    """Embed ``old_doc``'s values and the resulting speedups into ``doc``.

    Speedups are oriented so > 1.0 always means this run is faster than
    the baseline, whatever the benchmark's unit direction.
    """
    validate_bench(old_doc)
    base_values = {name: bench["value"]
                   for name, bench in old_doc["benchmarks"].items()}
    doc["baseline"] = {
        "created": old_doc.get("created"),
        "mode": old_doc.get("mode"),
        "benchmarks": base_values,
    }
    if path is not None:
        doc["baseline"]["path"] = path
    doc["speedups"] = {}
    for name, bench in doc["benchmarks"].items():
        if name in base_values and base_values[name] > 0 and bench["value"] > 0:
            doc["speedups"][name] = speedup(
                bench["better"], bench["value"], base_values[name])
    validate_bench(doc)
    return doc


#: CI regression gate: benchmarks checked and their allowed slowdown.
#: Only the engine microbenchmarks gate — they are the most wall-clock
#: stable metrics on shared runners; the data-plane numbers are reported
#: as artifacts but too noisy to fail a build on.
REGRESSION_GATES: dict[str, float] = {
    "engine_events": 0.30,
}

#: The jobs-smoke gate: the warm-path ensemble run must deliver at least
#: this multiple of the cold baseline's *virtual* jobs/s, with a non-zero
#: cache hit rate and bit-identical outcomes.  Virtual-time ratios are
#: machine-independent, so no headroom is needed.
JOBS_SPEEDUP_MIN = 1.5


def check_regressions(doc: dict, baseline_doc: dict) -> list[str]:
    """Compare against a baseline document; returns failure messages."""
    validate_bench(doc)
    validate_bench(baseline_doc)
    failures = []
    for name, allowed in REGRESSION_GATES.items():
        new = doc["benchmarks"].get(name)
        old = baseline_doc["benchmarks"].get(name)
        if new is None or old is None:
            continue
        ratio = speedup(new["better"], new["value"], old["value"])
        if ratio < 1.0 - allowed:
            failures.append(
                f"{name}: {new['value']:,.0f} {new['unit']} is "
                f"{(1.0 - ratio) * 100:.0f}% below the baseline "
                f"{old['value']:,.0f} (allowed: {allowed * 100:.0f}%)")
    jobs = doc["benchmarks"].get("jobs_throughput")
    if jobs is not None:
        # Self-contained gate: speedup and hit rates are virtual-time
        # ratios inside this run's own detail, not a host comparison.
        detail = jobs.get("detail", {})
        if detail.get("speedup", 0.0) < JOBS_SPEEDUP_MIN:
            failures.append(
                f"jobs_throughput: warm-path speedup "
                f"{detail.get('speedup', 0.0):.2f}x is below the gate "
                f"(>= {JOBS_SPEEDUP_MIN}x over the uncoalesced/uncached "
                f"baseline)")
        if (detail.get("kernel_cache_hit_rate", 0.0) <= 0.0
                or detail.get("alloc_cache_hit_rate", 0.0) <= 0.0):
            failures.append(
                "jobs_throughput: warm caches saw no hits "
                f"(kernel {detail.get('kernel_cache_hit_rate', 0.0)}, "
                f"alloc {detail.get('alloc_cache_hit_rate', 0.0)})")
        if not detail.get("identical", False):
            failures.append(
                "jobs_throughput: warm-path on/off outcome digests differ")
    return failures


def render(doc: dict) -> str:
    """Human-readable table of one benchmark document."""
    lines = [f"perf suite ({doc['mode']} mode, zero_copy="
             f"{'on' if doc['zero_copy'] else 'off'})"]
    speedups = doc.get("speedups", {})
    for name, bench in doc["benchmarks"].items():
        line = (f"  {name:<14} {_fmt(bench['value']):>14} {bench['unit']:<9}"
                f" wall {bench['wall_s']:8.3f}s")
        if name in speedups:
            line += f"  ({speedups[name]:.2f}x vs baseline)"
        lines.append(line)
    return "\n".join(lines)


def write_json(doc: dict, path: str) -> None:
    validate_bench(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    validate_bench(doc)
    return doc


def main_run(quick: bool, json_path: str | None, against: str | None,
             check: str | None, out: _t.TextIO | None = None) -> int:
    """Driver behind ``python -m repro perf`` (returns an exit code)."""
    out = out if out is not None else sys.stdout
    doc = run_suite(quick=quick, out=out)
    if against:
        attach_baseline(doc, load_json(against), path=against)
    out.write(render(doc) + "\n")
    if json_path:
        write_json(doc, json_path)
        out.write(f"benchmark document written to {json_path}\n")
    if check:
        failures = check_regressions(doc, load_json(check))
        if failures:
            for failure in failures:
                out.write(f"REGRESSION: {failure}\n")
            return 1
        out.write(f"regression gate passed vs {check}\n")
    return 0
