"""Cross-stream coalescing: merging, isolation, and MBATCH at-most-once.

What a sub-frame does whichever way it travels (one round trip, in-order
execution, skip-after-failure, rejection of non-batchable ops, client
bookkeeping) is ``TestBatchFrame`` in ``test_stream_api.py``; this file
keeps what only a coalescer with several riders can show.
"""

import pytest

from repro.cluster import Cluster, paper_testbed
from repro.core import (
    Op,
    Request,
    TAG_REQUEST,
    reply_tag,
)
from repro.core.coalesce import FrameCoalescer
from repro.core.daemon import DEDUP_CACHE_SIZE
from repro.core.api import run_parallel


def make_rig():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=1))
    ac = cluster.remote(0, handles[0])
    co = ac.coalescer = FrameCoalescer(
        cluster.compute_rank(0), handles[0].daemon_rank, window_s=2e-6)
    return cluster, sess, ac, co


@pytest.fixture
def rig():
    return make_rig()


class TestFrameCoalescer:
    def test_concurrent_sub_frames_share_a_wire_frame(self, rig):
        cluster, sess, ac, co = rig
        daemon = cluster.daemons[ac.handle.ac_id]
        results = sess.call(run_parallel(sess.engine, [
            ac.batch_rpc([(Op.MEM_ALLOC, {"nbytes": 64})])
            for _ in range(4)]))
        addrs = {subs[0].value for subs in results}
        assert len(addrs) == 4 and all(s[0].ok for s in results)
        # The 2 us window gathered the concurrent submissions: fewer
        # frames than sub-frames, and the daemon saw merged carriers.
        assert co.subs_in == 4
        assert co.frames_out < co.subs_in
        assert co.merged_subs > 0
        assert daemon.stats.mbatches == co.frames_out
        assert daemon.stats.mbatched_subs == 4

    def test_sub_frame_failure_does_not_skip_other_riders(self, rig):
        cluster, sess, ac, co = rig
        good, bad = sess.call(run_parallel(sess.engine, [
            ac.batch_rpc([(Op.MEM_ALLOC, {"nbytes": 64})]),
            ac.batch_rpc([(Op.MEM_FREE, {"addr": 0xdead})]),
        ]))
        assert good[0].ok
        assert not bad[0].ok

    def test_validation(self, rig):
        cluster, _, ac, _ = rig
        rank = cluster.compute_rank(0)
        with pytest.raises(ValueError):
            FrameCoalescer(rank, ac.handle.daemon_rank, window_s=-1.0)

    def test_nan_window_rejected(self, rig):
        cluster, _, ac, _ = rig
        with pytest.raises(ValueError):
            FrameCoalescer(cluster.compute_rank(0), ac.handle.daemon_rank,
                           window_s=float("nan"))


class TestMbatchDedup:
    """A retried merged frame must replay every sub-response exactly once."""

    def _exchange(self, cluster, sess, dst, req):
        rank = cluster.compute_rank(0)

        def roundtrip():
            rreq = rank.irecv(source=dst, tag=reply_tag(req.req_id))
            rank.isend(dst, TAG_REQUEST, req)
            yield rreq.done
            return rreq.message.payload

        return sess.call(roundtrip())

    def _mbatch_req(self, req_id, reqs, attempt=0):
        return Request(op=Op.MBATCH, req_id=req_id, reply_to=0,
                       params={"reqs": reqs}, attempt=attempt)

    def test_duplicate_mbatch_replays_every_sub_once(self, rig):
        cluster, sess, ac, _ = rig
        daemon = cluster.daemons[ac.handle.ac_id]
        scope = dict(ac._scope)
        req_id = next(cluster.comm.ids)
        reqs = [(next(cluster.comm.ids),
                 [(Op.MEM_ALLOC.value, {"nbytes": 256, **scope})])
                for _ in range(3)]
        first = self._exchange(cluster, sess, ac.handle.daemon_rank,
                               self._mbatch_req(req_id, reqs))
        assert first.ok and len(first.value) == 3
        used = daemon.gpu.memory.used_bytes

        dup = self._exchange(cluster, sess, ac.handle.daemon_rank,
                             self._mbatch_req(req_id, reqs, attempt=1))
        assert dup.ok
        # Bit-identical replay: same addresses per sub, no re-execution.
        assert [[s.value for s in sub] for sub in dup.value] \
            == [[s.value for s in sub] for sub in first.value]
        assert daemon.gpu.memory.used_bytes == used
        assert daemon.stats.dedup_hits == 1

    def test_merged_frame_weighs_its_sub_count_in_the_dedup_window(
            self, monkeypatch):
        # Regression: eviction must be weighted by replayable
        # sub-responses, or one frame of N ops (a coalescer's N riders or
        # a stream's N-op sub-frame) would occupy a single slot and
        # stretch the window's memory by N.
        import repro.core.daemon as daemon_mod
        monkeypatch.setattr(daemon_mod, "DEDUP_CACHE_SIZE", 8)
        for riders, ops in ((6, 1), (1, 6)):
            cluster, sess, ac, _ = make_rig()
            daemon = cluster.daemons[ac.handle.ac_id]
            scope = dict(ac._scope)
            mb_id = next(cluster.comm.ids)
            reqs = [(next(cluster.comm.ids),
                     [(Op.MEM_ALLOC.value, {"nbytes": 64, **scope})] * ops)
                    for _ in range(riders)]
            self._exchange(cluster, sess, ac.handle.daemon_rank,
                           self._mbatch_req(mb_id, reqs))
            assert daemon._dedup_weight == 6
            # Three plain allocs push the weight past 8: the 6-op frame
            # is evicted first (FIFO), leaving only the plain entries.
            for _ in range(3):
                req = Request(op=Op.MEM_ALLOC, req_id=next(cluster.comm.ids),
                              reply_to=0, params={"nbytes": 64, **scope})
                self._exchange(cluster, sess, ac.handle.daemon_rank, req)
            assert mb_id not in daemon._dedup
            assert daemon._dedup_weight == 3
            assert len(daemon._dedup) == 3

    def test_real_cache_bound_unchanged_for_plain_ops(self, rig):
        # The weighted window degenerates to the historical count bound
        # when nothing is merged.
        assert DEDUP_CACHE_SIZE == 512
