"""The seven end-to-end workloads.

Each workload is an ``inputs(seed, smoke)`` function, run once per
process, and a ``rep(r, inputs)`` function, run once per repetition on a
fresh cluster.  ``rep`` drives the system through public entry points
only and marks its stages on the :class:`~harness.Rep` it is given:
``r.phase("build" | "upload" | "verify")`` for untimed stages,
``r.timed()`` for the measured section, and ``r.span(name)`` around each
public call inside it.  It returns an :class:`Outcome`.

Sizes are constants of the benchmark (README.md gives the reason for
each); ``smoke`` selects a tiny size used only by the harness self-tests.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.chaos import scenarios as chaos_scenarios
from repro.cluster import Cluster, ClusterSpec, paper_testbed
from repro.core.api import run_parallel
from repro.core.collectives import ring_allreduce
from repro.jobs import JobService
from repro.netsim import TopologySpec
from repro.obs import trace_session
from repro.workloads.ensemble import EnsembleConfig, generate_specs
from repro.workloads.linalg import qr_factorize

MiB = 1024 * 1024

#: The paper's MPI PingPong bound at 64 MiB (EXPERIMENTS.md), the
#: reference every simulated bandwidth is printed against.
PAPER_MPI_BOUND_MIB_S = 2660.0


@dataclasses.dataclass
class Outcome:
    """What one repetition produced."""

    #: Model time of the timed section.
    virtual_s: float
    #: Operations in the timed section, and how many of them failed, were
    #: refused, aborted, stuck, corrupted, or did not verify.
    attempted: int
    failed: int
    #: The subset of ``failed`` that makes the run incorrect.  Defaults
    #: to all of it; only a workload whose model may legitimately refuse
    #: an operation (admission under a partition) says otherwise.
    wrong: int | None = None
    #: Exact workload-specific counters (must repeat bit-exactly).
    counters: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Metrics derived from harness spans (traced pass only).
    derived: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Per-operation virtual latency, scheduled arrival -> terminal state:
    #: ``{"p50_s", "p99_s", "count"}`` from the program's own histogram.
    latency: dict[str, float] | None = None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "open" | "closed"
    why: str
    inputs: _t.Callable[[int, bool], _t.Any]
    rep: _t.Callable[[_t.Any, _t.Any], Outcome]


def _latency(hist) -> dict[str, float]:
    return {"p50_s": hist.percentile(50.0), "p99_s": hist.percentile(99.0),
            "count": hist.count}


def _remote_rig(n_compute: int, n_accelerators: int):
    """A paper-testbed cluster with one remote front-end per accelerator,
    accelerator ``i`` driven by compute node ``i % n_compute``."""
    cluster = Cluster(paper_testbed(n_compute=n_compute,
                                    n_accelerators=n_accelerators))
    sess = cluster.session()
    acs = []
    for i in range(n_accelerators):
        cn = i % n_compute
        handles = sess.call(cluster.arm_client(cn).alloc(count=1))
        acs.append(cluster.remote(cn, handles[0]))
    return cluster, sess, acs


# -- qr_protocol / qr_protocol_obs -----------------------------------------

def _qr_inputs(seed: int, smoke: bool) -> dict:
    # Phantom payloads: the factorization moves declared sizes, no bytes,
    # so there is nothing for the seed to generate.
    return {"n": 1024 if smoke else 10240, "nb": 128, "gpus": 3}


def _qr_rep(r, inp: dict, traced: bool) -> Outcome:
    session = None
    with r.phase("build"):
        if traced:
            # Collectors are born enabled only for engines created
            # inside the session, so the cluster is built inside it too.
            session = r.enter(trace_session())
        cluster = Cluster(paper_testbed(n_compute=1,
                                        n_accelerators=inp["gpus"]))
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=inp["gpus"]))
        acs = [cluster.remote(0, h) for h in handles]
        r.clock = lambda: cluster.engine.now
    with r.timed():
        with r.span("qr_factorize"):
            res = sess.call(qr_factorize(
                cluster.engine, cluster.compute_nodes[0].cpu, acs,
                inp["n"], inp["nb"]))
    with r.phase("verify"):
        ok = (res.n_gpus == inp["gpus"] and res.seconds > 0.0
              and not res.real)
        n = inp["n"]
    return Outcome(
        virtual_s=res.seconds, attempted=1, failed=0 if ok else 1,
        counters={"obs.spans": session.span_count() if session else 0,
                  "kernels.flops": 4.0 * n ** 3 / 3.0})


def qr_protocol_rep(r, inp):
    return _qr_rep(r, inp, traced=False)


def qr_protocol_obs_rep(r, inp):
    return _qr_rep(r, inp, traced=True)


# -- bulk_copy -------------------------------------------------------------

def _bulk_inputs(seed: int, smoke: bool) -> dict:
    nbytes = (1 if smoke else 64) * MiB
    rng = np.random.default_rng(seed)
    return {"payload": rng.integers(0, 256, nbytes, dtype=np.uint8),
            "passes": 2 if smoke else 24}


def bulk_copy_rep(r, inp: dict) -> Outcome:
    payload = inp["payload"]
    nbytes = payload.nbytes
    with r.phase("build"):
        cluster, sess, (ac,) = _remote_rig(1, 1)
        ptr = sess.call(ac.mem_alloc(nbytes))
        r.clock = lambda: cluster.engine.now
    with r.phase("upload"):
        # First touch of the device backing store, with bytes that differ
        # from the payload so a stale read-back cannot verify.
        sess.call(ac.memcpy_h2d(ptr, np.invert(payload)))
    out = None
    with r.timed():
        t0 = cluster.engine.now
        for _ in range(inp["passes"]):
            # As an application loop would: the previous read-back is
            # still referenced while the next write lands (device-side
            # copy-on-write keeps the loaned view intact).
            with r.span("memcpy_h2d"):
                sess.call(ac.memcpy_h2d(ptr, payload))
            with r.span("memcpy_d2h"):
                out = sess.call(ac.memcpy_d2h(ptr, nbytes))
        virtual_s = cluster.engine.now - t0
    with r.phase("verify"):
        ok = (isinstance(out, np.ndarray)
              and out.tobytes() == payload.tobytes())
    derived = {}
    moved_mib = inp["passes"] * nbytes / MiB
    for direction in ("h2d", "d2h"):
        host_s, virt_s = r.span_totals(f"memcpy_{direction}")
        if virt_s > 0.0:
            rate = moved_mib / virt_s
            derived[f"core.{direction}_wall_s"] = host_s
            derived[f"core.{direction}_virtual_mib_per_s"] = rate
            derived[f"model.{direction}_64mib_vs_paper"] = (
                rate / PAPER_MPI_BOUND_MIB_S)
    return Outcome(virtual_s=virtual_s, attempted=2 * inp["passes"],
                   failed=0 if ok else 1, derived=derived)


# -- jobs_ensemble ---------------------------------------------------------

def _jobs_inputs(seed: int, smoke: bool) -> dict:
    burst = EnsembleConfig(n_jobs=32 if smoke else 768, window_s=4e-3,
                           seed=seed)
    paced = dataclasses.replace(burst, n_jobs=32 if smoke else 1024,
                                window_s=24e-3)
    return {"burst": burst, "paced": paced}


def _run_ensemble(r, cfg: EnsembleConfig) -> Outcome:
    with r.phase("build"):
        cluster = Cluster(paper_testbed(n_compute=cfg.n_gateways,
                                        n_accelerators=cfg.n_accelerators))
        cluster.arm.admission.slots_per_device = cfg.slots_per_device
        service = JobService(cluster, coalescing=cfg.coalescing,
                             caching=cfg.caching,
                             window_s=cfg.coalesce_window_s,
                             lease_ttl_s=cfg.lease_ttl_s)
        for cname, _prio, weight, _frac in cfg.classes:
            service.ensure_tenant(cname, weight=weight)
        r.clock = lambda: cluster.engine.now
    with r.timed():
        with r.span("generate_specs"):
            specs = generate_specs(cfg)
        with r.span("JobService.run_all"):
            records = service.run_all(specs)
    with r.phase("verify"):
        # Every job body checked its own numerics against numpy and
        # raised on a mismatch, so a wrong result is a FAILED job.
        done = sum(1 for rec in records if rec.ok)
        makespan = max((rec.end_s for rec in records
                        if rec.end_s is not None), default=0.0)
        pool, cache = service.lease_pool, service.kernel_cache
    return Outcome(
        virtual_s=makespan, attempted=len(records),
        failed=len(records) - done,
        latency=_latency(service.metrics.histogram("jobs.latency_s")),
        counters={
            "jobs.done": service.jobs_done,
            "jobs.cancelled": service.jobs_cancelled,
            "jobs.kernel_cache_hit_rate": cache.hit_rate,
            "jobs.alloc_cache_hit_rate": pool.alloc_hit_rate,
            "jobs.leases_reused": pool.reused,
            "jobs.leases_cold": service.leases_cold,
            "jobs.burst_virtual_jobs_per_s": (done / makespan
                                              if makespan else 0.0),
        })


def jobs_ensemble_rep(r, inp: dict) -> Outcome:
    # Latency under saturation is queueing delay set by the burst size;
    # the latency metrics come from the paced run instead.
    return dataclasses.replace(_run_ensemble(r, inp["burst"]), latency=None)


def jobs_paced_rep(r, inp: dict) -> Outcome:
    """The untimed paced run behind ``virtual_op_p50_s``/``p99_s``."""
    return _run_ensemble(r, inp["paced"])


# -- ring_allreduce --------------------------------------------------------

def _ring_inputs(seed: int, smoke: bool) -> dict:
    n = 8
    elements = 1024 if smoke else 65536
    rounds = 2 if smoke else 16
    rng = np.random.default_rng(seed)
    inputs = [[rng.standard_normal(elements) for _ in range(n)]
              for _ in range(n)]
    # Iterated oracle in the ring's exact accumulation order: chunk c is
    # summed sequentially starting at device c, and after a round every
    # device holds the same chunk c, which is the next round's input.
    expected = [inputs[i][:] for i in range(n)]
    for _ in range(rounds):
        sums = []
        for c in range(n):
            acc = expected[c][c].copy()
            for k in range(1, n):
                acc = acc + expected[(c + k) % n][c]
            sums.append(acc)
        expected = [sums[:] for _ in range(n)]
    return {"n": n, "elements": elements, "rounds": rounds,
            "inputs": inputs, "expected": expected[0]}


def ring_allreduce_rep(r, inp: dict) -> Outcome:
    n, elements = inp["n"], inp["elements"]
    nbytes = elements * 8
    with r.phase("build"):
        cluster = Cluster(ClusterSpec(
            n_compute=1, n_accelerators=n,
            topology=TopologySpec(kind="torus2d", dims=(2, 2))))
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=n))
        acs = [cluster.remote(0, h) for h in handles]
        chunks = [[sess.call(ac.mem_alloc(nbytes)) for _ in range(n)]
                  for ac in acs]
        scratch = [sess.call(ac.mem_alloc(nbytes)) for ac in acs]
        r.clock = lambda: cluster.engine.now
    with r.phase("upload"):
        for i, ac in enumerate(acs):
            for c in range(n):
                sess.call(ac.memcpy_h2d(chunks[i][c], inp["inputs"][i][c]))
    with r.timed():
        t0 = cluster.engine.now
        for _ in range(inp["rounds"]):
            with r.span("ring_allreduce"):
                sess.call(ring_allreduce(cluster.engine, acs, chunks,
                                         scratch, nbytes, elements,
                                         mode="p2p"))
        virtual_s = cluster.engine.now - t0
    with r.phase("verify"):
        exact = True
        for i, ac in enumerate(acs):
            for c in range(n):
                out = sess.call(ac.memcpy_d2h(chunks[i][c], nbytes))
                got = np.asarray(out).view(np.float64).reshape(-1)
                exact = exact and np.array_equal(got, inp["expected"][c])
    # Reduce-scatter folds (n-1) chunks into each device's copy per
    # round: one multiply-add per element (daxpy), counted as 2 flops.
    flops = inp["rounds"] * n * (n - 1) * 2.0 * elements
    return Outcome(virtual_s=virtual_s, attempted=inp["rounds"],
                   failed=0 if exact else inp["rounds"],
                   counters={"kernels.flops": flops})


# -- chaos_partition -------------------------------------------------------

def _chaos_inputs(seed: int, smoke: bool) -> dict:
    return {"config": chaos_scenarios.ChaosConfig(
        n_tenants=24 if smoke else 600,
        window_s=8e-3 if smoke else 40e-3, seed=seed)}


def chaos_partition_rep(r, inp: dict) -> Outcome:
    # ``scenarios.run`` builds its own cluster and draws arrivals and
    # payloads from the config's seed, so the whole call is timed.
    with r.timed():
        with r.span("chaos.scenarios.run"):
            report = chaos_scenarios.run("partition", inp["config"])
    with r.phase("verify"):
        bad = (report.failed + report.rejected + report.aborted
               + report.stuck + report.corrupted)
    return Outcome(
        virtual_s=report.duration_s, attempted=report.submitted, failed=bad,
        # A refusal or abort while the pool is partitioned is the model's
        # answer, not an error; a stuck or corrupted session never is
        # (the repo's own chaos gate allows zero of either).
        wrong=report.stuck + report.corrupted,
        latency=_latency(report.registry.histogram("chaos.latency_s")),
        counters={"chaos.recoveries": report.recoveries,
                  "chaos.refused": report.rejected,
                  "chaos.late": report.late})


# -- walkers_gemm ----------------------------------------------------------

def _walkers_inputs(seed: int, smoke: bool) -> dict:
    ranks = 4
    naux, nwalkers, nbasis = (64, 32, 256) if smoke else (512, 256, 2048)
    rng = np.random.default_rng(seed)
    rchol = rng.random((naux, nbasis))
    ghalf = rng.random((ranks, 2, nwalkers, nbasis))
    # Rank r propagates walker set (r + step) % ranks, so every step's
    # allreduced force bias is the same sum over all walker sets.
    total = rchol @ ghalf.sum(axis=(0, 1)).T
    return {"ranks": ranks, "steps": 2 if smoke else 10, "rchol": rchol,
            "ghalf": ghalf, "expected": total,
            "dims": (naux, nwalkers, nbasis)}


def walkers_gemm_rep(r, inp: dict) -> Outcome:
    ranks, steps = inp["ranks"], inp["steps"]
    naux, nwalkers, nbasis = inp["dims"]
    rchol, ghalf = inp["rchol"], inp["ghalf"]
    vfb_bytes = naux * nwalkers * 8
    with r.phase("build"):
        cluster, sess, acs = _remote_rig(ranks, ranks)
        bufs = []
        for ac in acs:
            sess.call(ac.kernel_create("dgemm"))
            bufs.append({
                "rchol": sess.call(ac.mem_alloc(rchol.nbytes)),
                "g": [sess.call(ac.mem_alloc(ghalf[0, 0].nbytes))
                      for _ in range(2)],
                "vfb": sess.call(ac.mem_alloc(vfb_bytes))})
        r.clock = lambda: cluster.engine.now
    with r.phase("upload"):
        for ac, buf in zip(acs, bufs):
            sess.call(ac.memcpy_h2d(buf["rchol"], rchol))
    results: list[np.ndarray] = []

    def rank_program(me: int):
        """One MPI rank: propagate its walkers, then ring-sum the bias."""
        ac, buf, rank = acs[me], bufs[me], cluster.compute_rank(me)
        right, left = (me + 1) % ranks, (me - 1) % ranks
        for step in range(steps):
            with r.span("step", rank=me) as step_span:
                walkers = ghalf[(me + step) % ranks]
                for spin in range(2):
                    with r.span("memcpy_h2d", parent=step_span):
                        yield from ac.memcpy_h2d(buf["g"][spin],
                                                 walkers[spin])
                    # vfb (+)= rchol @ Ghalf[spin].T
                    with r.span("kernel_run", parent=step_span):
                        yield from ac.kernel_run("dgemm", {
                            "m": naux, "n": nwalkers, "k": nbasis,
                            "A": buf["rchol"], "B": buf["g"][spin],
                            "C": buf["vfb"], "tb": True, "alpha": 1.0,
                            "beta": float(spin)})
                with r.span("memcpy_d2h", parent=step_span):
                    out = yield from ac.memcpy_d2h(buf["vfb"], vfb_bytes)
                vfb = np.asarray(out).view(np.float64).reshape(
                    naux, nwalkers)
                # Ring allreduce across the compute ranks: pass partial
                # contributions along, adding each to the local total.
                total, passing = vfb.copy(), vfb
                with r.span("sendrecv_ring", parent=step_span):
                    for _hop in range(ranks - 1):
                        msg = yield from rank.sendrecv(
                            right, step, passing, source=left,
                            recv_tag=step)
                        passing = msg.payload
                        total += passing
                results.append(total)

    with r.timed():
        t0 = cluster.engine.now
        sess.call(run_parallel(cluster.engine,
                               [rank_program(me) for me in range(ranks)]))
        virtual_s = cluster.engine.now - t0
    with r.phase("verify"):
        bad = sum(1 for total in results
                  if not np.allclose(total, inp["expected"]))
        bad += ranks * steps - len(results)
    flops = ranks * steps * 2 * (2.0 * naux * nwalkers * nbasis)
    return Outcome(virtual_s=virtual_s, attempted=ranks * steps, failed=bad,
                   counters={"kernels.flops": flops})


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("qr_protocol", "closed",
             "protocol- and event-bound QR with phantom payloads: sim and "
             "mpisim carry it, buffers and kernels do nothing",
             _qr_inputs, qr_protocol_rep),
    Workload("qr_protocol_obs", "closed",
             "the same QR inside obs.trace_session: span emission plus "
             "the generator-process fabric/DMA path",
             _qr_inputs, qr_protocol_obs_rep),
    Workload("bulk_copy", "closed",
             "byte-bound 64 MiB h2d+d2h passes: numpy copies under gpusim "
             "dominate, few events per byte; bypasses event-loop work",
             _bulk_inputs, bulk_copy_rep),
    Workload("jobs_ensemble", "open",
             "768-job burst through JobService: the only workload where "
             "core+jobs (ARM, WFQ, coalescing, caches) lead after the engine",
             _jobs_inputs, jobs_ensemble_rep),
    Workload("ring_allreduce", "closed",
             "daemon-to-daemon P2P ring on a 2x2 torus: the only user of "
             "netsim.topology contention and core.collectives",
             _ring_inputs, ring_allreduce_rep),
    Workload("chaos_partition", "open",
             "partition scenario under 1200 sessions: retry, failover, TTL "
             "eviction and revocation; non-trivial failed-operation share",
             _chaos_inputs, chaos_partition_rep),
    Workload("walkers_gemm", "closed",
             "compute-dominated ipie-style step: numpy dgemm bodies "
             "dominate, so every middleware optimisation predicts no change",
             _walkers_inputs, walkers_gemm_rep),
)}
