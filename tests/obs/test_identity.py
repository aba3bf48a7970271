"""Tracing must never perturb the virtual timeline.

The same cluster program runs twice on fresh clusters — once with the
span collector enabled, once without — and every observable number
(final virtual time, per-op completion times, transfer output, component
counters) must be bit-identical.  This is the acceptance bar that lets
tracing stay on in CI without invalidating performance figures.

It holds by construction: the traced run executes the same fabric-flow
and DMA callback chains as the untraced one, so it also schedules
exactly as many events.
"""

import numpy as np

from repro.cluster import Cluster, paper_testbed
from repro.netsim import IB_QDR_MPI, Fabric
from repro.obs import collector_for, enable_tracing
from repro.sim import Engine
from repro.units import MiB


def _program(traced: bool):
    """A transfer + kernel + failure-free batch workload; returns evidence."""
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=2))
    if traced:
        enable_tracing(cluster.engine)
    sess = cluster.session()
    ac = cluster.remote(0, sess.call(cluster.arm_client(0).alloc(count=1))[0])
    marks = []
    data = np.arange(1 * MiB // 8, dtype=np.float64)

    addr = sess.call(ac.mem_alloc(data.nbytes))
    marks.append(sess.now)
    sess.call(ac.memcpy_h2d(addr, data))
    marks.append(sess.now)
    sess.call(ac.kernel_run("dscal", {"x": addr, "n": 4096, "alpha": 2.0}))
    marks.append(sess.now)
    out = sess.call(ac.memcpy_d2h(addr, data.nbytes))
    marks.append(sess.now)
    sess.call(ac.mem_free(addr))
    sess.call(ac.kernel_create("fill"))
    marks.append(sess.now)

    stats = cluster.daemons[ac.handle.ac_id].stats
    evidence = {
        "marks": marks,
        "now": cluster.engine.now,
        "checksum": float(out.sum()),
        "requests": stats.requests,
        "bytes_h2d": stats.bytes_h2d,
        "bytes_d2h": stats.bytes_d2h,
        "fabric_bytes": cluster.fabric.bytes_moved,
        "fabric_messages": cluster.fabric.messages_sent,
        # The run is over, so drawing one sequence number is harmless.
        "events_scheduled": next(cluster.engine._seq),
    }
    spans = len(collector_for(cluster.engine).spans)
    return evidence, spans


def test_traced_run_is_bit_identical():
    untraced, n_untraced = _program(traced=False)
    traced, n_traced = _program(traced=True)
    assert n_untraced == 0
    assert n_traced > 10          # tracing actually recorded the run
    assert traced == untraced     # ...without moving a single number


def test_untraced_runs_are_deterministic():
    a, _ = _program(traced=False)
    b, _ = _program(traced=False)
    assert a == b


def _traced_fabric():
    eng = Engine()
    fabric = Fabric(eng, IB_QDR_MPI)
    fabric.add_endpoint("a")
    fabric.add_endpoint("b")
    return eng, fabric, enable_tracing(eng)


def test_dropped_flow_closes_its_span_at_injection():
    eng, fabric, obs = _traced_fabric()
    fabric.cut("a", "b")
    delivered = []
    tx = fabric.transfer("a", "b", 4096, on_delivered=delivered.append)
    fabric.transfer("b", "b", 4096)        # loopback is never cut
    eng.run()
    assert tx.dropped and tx.processed and not delivered
    assert not obs.open_spans
    dropped, loopback = obs.by_name("net.flow")
    # Closed at injection: the posting overhead, no wire time.
    assert dropped.end == IB_QDR_MPI.injection_overhead_s > 0
    assert [e.name for e in dropped.events] == ["injected"]
    assert loopback.end > dropped.end
    assert fabric.messages_dropped == 1 and fabric.messages_sent == 1
