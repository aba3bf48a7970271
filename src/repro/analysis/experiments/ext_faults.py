"""Extension E: fault tolerance — broken accelerators don't kill nodes.

The paper claims (Sect. III-A) that in the dynamic architecture "broken
accelerators or compute nodes no longer affect the availability of
operational compute nodes or accelerators".  This study breaks an
accelerator in the middle of a compute job and measures what the paper
only asserts — for **both** failure modes the middleware distinguishes:

* ``broken`` — the GPU dies but its daemon host survives and answers
  ``Status.BROKEN`` (fast, error-reply detection);
* ``crashed`` — the daemon host itself goes silent, so the failure is
  only detectable through the front-end's per-request deadline
  (:class:`~repro.errors.RequestTimeout`).

The job runs on real float64 data through a
:class:`~repro.core.ResilientAccelerator`: on the fault, the front-end
reports the break to the ARM, allocates a replacement, replays its
tracked buffer, re-runs the interrupted iteration, and finishes.  The final array is checked for exact equality
with the host-side reference, so the replay correctness of the failover
path — not just survival — is what the numbers certify.  A sweep over
fault times (a crude MTBF axis) reports recovery latency per mode.
"""

from __future__ import annotations

import numpy as np

from ...cluster import Cluster, paper_testbed
from ...core import FailoverConfig, FaultInjector, RetryPolicy
from ..series import FigureResult

#: Per-request deadline: comfortably above one healthy control-RPC round
#: trip, small enough that crash detection stays a control-plane latency.
TIMEOUT_S = 2e-3


def _run_job(mode: str, fault_time: float, iterations: int,
             n_elems: int = 65536) -> dict:
    """One mid-job failure scenario; returns recovery metrics."""
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=3))
    engine = cluster.engine
    sess = cluster.session()
    client = cluster.arm_client(0)
    injector = FaultInjector(cluster)

    handles = sess.call(client.alloc(count=2, job="victim-job"))
    victim_id = handles[0].ac_id
    retry = RetryPolicy(timeout_s=TIMEOUT_S)
    ra = cluster.resilient(0, handles[0],
                           config=FailoverConfig(job="victim-job"),
                           retry=retry)
    healthy = cluster.remote(0, handles[1], retry=retry)

    if mode == "broken":
        injector.break_at(victim_id, at_time=fault_time)
    else:
        injector.crash_at(victim_id, at_time=fault_time)

    rng = np.random.default_rng(42)
    data = rng.standard_normal(n_elems)
    expected = data * (1.25 ** iterations)

    stats = {"healthy_iters": 0, "correct": False}

    def job():
        ptr = yield from ra.mem_alloc(data.nbytes)
        hptr = yield from healthy.mem_alloc(data.nbytes)
        yield from ra.memcpy_h2d(ptr, data)
        yield from ra.kernel_create("dscal")
        for _ in range(iterations):
            # One transactional iteration: if a fault interrupts it, the
            # failover layer restores the last-uploaded state on a
            # replacement and the whole unit re-runs there.
            def iteration():
                yield from ra.kernel_run(
                    "dscal", {"x": ptr, "n": len(data), "alpha": 1.25})
                out = yield from ra.memcpy_d2h(ptr, data.nbytes)
                yield from ra.memcpy_h2d(ptr, out)  # checkpoint the result
                return out

            yield from ra.run_guarded(iteration)
            # The healthy accelerator keeps serving throughout.
            yield from healthy.memcpy_h2d(hptr, data)
            stats["healthy_iters"] += 1
        final = yield from ra.memcpy_d2h(ptr, data.nbytes)
        stats["correct"] = bool(np.allclose(final, expected))
        return stats

    sess.call(job())
    return {
        "mode": mode,
        "fault_time": fault_time,
        "failovers": ra.failovers,
        "recovery_ms": ((ra.recovered_at[0] - fault_time) * 1e3
                        if ra.recovered_at else 0.0),
        "replacement_id": ra.handle.ac_id,
        "victim_id": victim_id,
        "healthy_iters": stats["healthy_iters"],
        "correct": stats["correct"],
        "finished_at": engine.now,
    }


def run(quick: bool = False) -> FigureResult:
    iterations = 12 if quick else 40
    fault_times = [0.002] if quick else [0.002, 0.005, 0.010]

    fig = FigureResult(
        fig_id="ext-faults",
        title="Accelerator failure mid-job: recovery latency by failure mode",
        xlabel="fault injection time [s]",
        ylabel="recovery latency [ms]",
    )
    notes = []
    for mode in ("broken", "crashed"):
        xs, ys = [], []
        for t in fault_times:
            r = _run_job(mode, t, iterations)
            assert r["failovers"] >= 1, f"{mode}@{t}: fault never surfaced"
            assert r["correct"], f"{mode}@{t}: wrong data after failover"
            assert r["healthy_iters"] == iterations
            xs.append(t)
            ys.append(r["recovery_ms"])
            notes.append(f"{mode}@{t * 1e3:g}ms: ac{r['victim_id']}->"
                         f"ac{r['replacement_id']} in {r['recovery_ms']:.3f}ms")
        fig.add(mode, xs, ys)
    fig.notes = "; ".join(notes)
    return fig


def check(fig: FigureResult) -> None:
    broken = fig.get("broken")
    crashed = fig.get("crashed")
    # Every scenario recovered (latency is positive and control-plane fast).
    for s in (broken, crashed):
        assert all(0 < y < 100.0 for y in s.y), s.y
    # Crash detection must pay at least one request deadline on top of the
    # reallocation itself; broken-mode detection is a fast error reply.
    assert min(crashed.y) >= TIMEOUT_S * 1e3
    assert max(broken.y) < min(crashed.y)
