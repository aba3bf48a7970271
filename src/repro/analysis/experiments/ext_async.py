"""Extension I: batched control frames vs per-op RPC round trips.

Every control operation on a network-attached GPU — allocation, kernel
creation, launch — costs a full request round trip through the daemon.
``RemoteAccelerator.control_run`` sends a list of them as runs of up to
16 ops, each run one ``MBATCH`` frame, so the QR driver's control
sequence crosses the network in a handful of frames instead of one RPC
per op.  (The series keep their ``stream`` labels.)

This study runs the *same* QR factorization (same seed, real numerics)
through the synchronous API and with batched control frames
(``streams=True``), on 1-3 network-attached GPUs, and reports:

* control round trips (daemon requests minus bulk-data transfers) for
  each path — the batching win;
* total requests and virtual wall time — batching must not slow the
  factorization down;
* a bit-identity check of the resulting R factors — batching must not
  change the numerics.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ...cluster import Cluster, paper_testbed
from ...workloads.linalg import qr_factorize
from ..series import FigureResult

SIZES = [512, 768, 1024]
QUICK_SIZES = [512]
NB = 128
SEED = 20120910  # the paper's publication date; any fixed seed works


def _run_qr(n: int, g: int, streams: bool):
    """One factorization on a fresh cluster; returns (R, stats)."""
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=g))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=g))
    acs = [cluster.remote(0, h) for h in handles]
    A = np.random.default_rng(SEED).standard_normal((n, n))
    res = sess.call(qr_factorize(cluster.engine, cluster.compute_nodes[0].cpu,
                                 acs, n, NB, A=A, streams=streams))
    control = sum(d.stats.control_requests for d in cluster.daemons)
    total = sum(d.stats.requests for d in cluster.daemons)
    return res.R, {"control": control, "total": total,
                   "seconds": res.seconds}


def run(quick: bool = False) -> FigureResult:
    sizes = QUICK_SIZES if quick else SIZES
    fig = FigureResult(
        fig_id="ext-async",
        title="QR control round trips: synchronous API vs command streams",
        xlabel="N", ylabel="requests",
        notes=f"1 compute node, nb={NB}, real numerics, seed={SEED}; "
              "control = daemon requests minus bulk H2D/D2H/peer copies",
    )
    for g in (1, 2, 3):
        sync_ctrl, stream_ctrl = [], []
        sync_total, stream_total = [], []
        sync_s, stream_s = [], []
        identical = []
        for n in sizes:
            r_sync, s_sync = _run_qr(n, g, streams=False)
            r_stream, s_stream = _run_qr(n, g, streams=True)
            sync_ctrl.append(s_sync["control"])
            stream_ctrl.append(s_stream["control"])
            sync_total.append(s_sync["total"])
            stream_total.append(s_stream["total"])
            sync_s.append(s_sync["seconds"])
            stream_s.append(s_stream["seconds"])
            identical.append(1.0 if (r_sync == r_stream).all() else 0.0)
        xs = list(sizes)
        fig.add(f"{g}gpu-sync-control", xs, sync_ctrl)
        fig.add(f"{g}gpu-stream-control", xs, stream_ctrl)
        fig.add(f"{g}gpu-sync-total", xs, sync_total)
        fig.add(f"{g}gpu-stream-total", xs, stream_total)
        fig.add(f"{g}gpu-sync-seconds", xs, sync_s)
        fig.add(f"{g}gpu-stream-seconds", xs, stream_s)
        fig.add(f"{g}gpu-bit-identical", xs, identical)
    return fig


def check(fig: FigureResult) -> None:
    for g in (1, 2, 3):
        sync_c = fig.get(f"{g}gpu-sync-control")
        stream_c = fig.get(f"{g}gpu-stream-control")
        for x in sync_c.x:
            # The headline claim: batching at least halves the control
            # round trips of the QR driver...
            assert stream_c.at(x) * 2 <= sync_c.at(x), (g, x)
            # ...without changing a single bit of the result...
            assert fig.get(f"{g}gpu-bit-identical").at(x) == 1.0, (g, x)
            # ...or moving any extra data.
            assert (fig.get(f"{g}gpu-stream-total").at(x)
                    < fig.get(f"{g}gpu-sync-total").at(x)), (g, x)
            # Fewer round trips must not make the run slower.
            assert (fig.get(f"{g}gpu-stream-seconds").at(x)
                    <= fig.get(f"{g}gpu-sync-seconds").at(x) * 1.001), (g, x)
