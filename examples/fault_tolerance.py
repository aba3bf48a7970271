#!/usr/bin/env python3
"""Fault tolerance: a broken accelerator no longer takes the node with it.

Under the static architecture a dying GPU drags down its host node and
whatever runs there.  Here an accelerator fails in the middle of a job
and the middleware's failover layer handles the whole recovery: the
front-end reports the break to the ARM, allocates a replacement from the
pool, replays the tracked device state, and re-runs the interrupted
iteration — the application code never sees the fault.  A second
accelerator of the same job keeps working undisturbed throughout.

Two failure modes are shown:

* ``break``  — the GPU dies but its daemon survives and answers
  ``Status.BROKEN`` (fast, error-reply detection);
* ``crash``  — the daemon host goes silent, detectable only through the
  per-request virtual-time deadline (``RequestTimeout``), after which the
  same failover path kicks in.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.cluster import Cluster, paper_testbed
from repro.core import FailoverConfig, FaultInjector, RetryPolicy
from repro.units import fmt_time


def main():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=4))
    engine = cluster.engine
    sess = cluster.session()
    arm = cluster.arm_client(0)
    injector = FaultInjector(cluster)

    handles = sess.call(arm.alloc(count=2, job="resilient-job"))
    primary, secondary = handles
    print(f"job holds ac{primary.ac_id} (primary) and "
          f"ac{secondary.ac_id} (secondary)")

    # Per-request deadline so even a silently crashed daemon is detected;
    # failover replays state on an ARM-assigned replacement.
    retry = RetryPolicy(timeout_s=2e-3)
    config = FailoverConfig(job="resilient-job")
    ra = cluster.resilient(0, primary, config=config, retry=retry)

    # The primary accelerator's GPU dies 2 ms into the run; later its
    # replacement's daemon host crashes outright (drops requests).
    injector.break_at(primary.ac_id, at_time=0.002)

    data = np.arange(100_000, dtype=np.float64)

    def job():
        ac2 = cluster.remote(0, secondary, retry=retry)
        p1 = yield from ra.mem_alloc(data.nbytes)
        p2 = yield from ac2.mem_alloc(data.nbytes)
        yield from ra.memcpy_h2d(p1, data)
        yield from ac2.memcpy_h2d(p2, data)
        yield from ra.kernel_create("dscal")

        completed = 0
        current = ra.handle.ac_id
        crash_armed = False
        for _ in range(100):
            def iteration():
                yield from ra.kernel_run("dscal", {"x": p1, "n": len(data),
                                                   "alpha": 1.0})

            yield from ra.run_guarded(iteration)
            if ra.handle.ac_id != current:
                print(f"[{fmt_time(engine.now)}] primary ac{current} failed; "
                      f"ARM assigned replacement ac{ra.handle.ac_id} "
                      f"(recovery took "
                      f"{fmt_time(ra.recovery_latencies[-1])})")
                current = ra.handle.ac_id
                if not crash_armed:
                    # Now crash the replacement's daemon host: no error
                    # reply this time, just silence.
                    injector.crash_at(current, at_time=engine.now + 0.002)
                    crash_armed = True
            # The secondary keeps serving throughout.
            yield from ac2.kernel_run("dscal", {"x": p2, "n": len(data),
                                                "alpha": 1.0})
            completed += 1
        final = yield from ra.memcpy_d2h(p1, data.nbytes)
        return completed, final

    completed, final = sess.call(job())
    assert ra.failovers == 2, "expected one break + one crash failover"
    assert np.allclose(final, data)  # replayed state survived both faults

    print(f"\niterations completed: {completed}/100 "
          "(interrupted iterations were replayed on the replacements)")
    print(f"request deadlines hit: {ra.timeouts} "
          "(the crashed daemon never answered; retries timed out)")
    print("secondary accelerator served every iteration — the failures "
          "stayed contained to single devices.")
    status = sess.call(arm.status())
    broken = sorted(k for k, v in status.items() if v["state"] == "broken")
    print(f"ARM registry now marks {['ac%d' % b for b in broken]} broken; "
          "the compute node itself never went down.")


if __name__ == "__main__":
    main()
