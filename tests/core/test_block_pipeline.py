"""The block pipeline's budgets: heap entries per block, nothing left behind.

The sender and receiver in :mod:`repro.core.transfer` serve every bulk
copy, so what one block costs — and what a failed stream leaves on the
data tag — is pinned here once per direction.
"""

import sys

import pytest

from repro.cluster import Cluster, paper_testbed
from repro.core.blocksize import pipeline
from repro.core.protocol import (
    Op, Request, Status, TAG_REQUEST, data_tag, reply_tag,
)
from repro.errors import MiddlewareError
from repro.mpisim import Phantom
from repro.units import KiB

from ..harness import register_tenants

BLOCK = 128 * KiB


@pytest.fixture
def rig():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=2))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=2))
    acs = [cluster.remote(0, h) for h in handles]
    cluster.engine.run()
    return cluster, sess, acs


def _entries_on(cluster, daemon_rank: int, tag: int) -> list:
    """Posted receives and unexpected arrivals a rank holds on ``tag``."""
    state = cluster.comm._states[daemon_rank]
    return [entry for queue in (state.posted, state.unexpected)
            for entry in queue._entries if entry[1] == tag]


class TestEventBudget:
    """Heap entries (``engine._seq`` draws) of one copy of N blocks: a
    fixed part for the request, its reply and the driving process, plus
    per block the eager message's three and

    * H2D 5 — the daemon's DMA and its per-block handling cost;
    * D2H 4 — the daemon's DMA;
    * PEER_PUT 6 — the source DMA, then at the peer the H2D pair.
    """

    @staticmethod
    def _draws(rig, op: str, n_blocks: int) -> int:
        cluster, sess, acs = rig
        cfg, nbytes = pipeline(BLOCK), n_blocks * BLOCK
        p0 = sess.call(acs[0].mem_alloc(nbytes))
        p1 = sess.call(acs[1].mem_alloc(nbytes))
        cluster.engine.run()
        before = next(cluster.engine._seq)
        if op == "h2d":
            sess.call(acs[0].memcpy_h2d(p0, Phantom(nbytes), transfer=cfg))
        elif op == "d2h":
            sess.call(acs[0].memcpy_d2h(p0, nbytes, transfer=cfg))
        else:
            sess.call(acs[0].peer_put(p0, nbytes, acs[1], p1, transfer=cfg))
        cluster.engine.run()
        return next(cluster.engine._seq) - before - 1

    @pytest.mark.parametrize("op,fixed,per_block", [
        ("h2d", 9, 5), ("d2h", 10, 4), ("peer_put", 18, 6)])
    def test_heap_entries_per_block(self, rig, op, fixed, per_block):
        for n_blocks in (4, 5):
            assert (self._draws(rig, op, n_blocks)
                    == fixed + per_block * n_blocks)


class TestObjectBudget:
    """Constructors (``__init__`` calls under ``sys.setprofile``) per
    block of a timing-only copy, a 40- minus a 20-block run: the eager
    message, the daemon's receive request (the client's, pre-posted, on
    a D2H) and the DMA copy.  The blocks share one phantom, the
    daemon's handling delay is a recycled sleep, the receiver share
    keeps the lone flow in two fields, and every copy of the stream
    lands through one function.  It was 7 per H2D block and 6 per D2H
    block with a send request, a phantom and a flow record per block,
    and a fresh handling timer per H2D block."""

    @staticmethod
    def _inits(rig, op: str, n_blocks: int) -> int:
        cluster, sess, acs = rig
        cfg, nbytes = pipeline(BLOCK), n_blocks * BLOCK
        p0 = sess.call(acs[0].mem_alloc(nbytes))
        cluster.engine.run()
        count = 0

        def hook(frame, event, _arg):
            nonlocal count
            if event == "call" and frame.f_code.co_name == "__init__":
                count += 1

        sys.setprofile(hook)
        try:
            if op == "h2d":
                sess.call(acs[0].memcpy_h2d(p0, Phantom(nbytes),
                                            transfer=cfg))
            else:
                sess.call(acs[0].memcpy_d2h(p0, nbytes, transfer=cfg))
            cluster.engine.run()
        finally:
            sys.setprofile(None)
        return count

    @pytest.mark.parametrize("op", ["h2d", "d2h"])
    def test_constructors_per_block(self, rig, op):
        per_block = (self._inits(rig, op, 40) - self._inits(rig, op, 20)) / 20
        assert per_block == 3


class TestNothingLeftOnTheDataTag:
    def test_stalled_stream_is_abandoned_cleanly(self, rig):
        cluster, sess, acs = rig
        daemon = cluster.daemons[0]
        daemon.data_stall_s = 1e-3
        ptr = sess.call(acs[0].mem_alloc(3 * 64))
        cn, dst = cluster.compute_rank(0), daemon.rank.index
        req_id = next(cn.comm.ids)
        dtag = data_tag(req_id)
        reply = cn.irecv(source=dst, tag=reply_tag(req_id))
        cn.isend(dst, TAG_REQUEST, Request(
            op=Op.MEMCPY_H2D, req_id=req_id, reply_to=cn.index,
            params={"dst": ptr, "blocks": [(0, 64), (64, 64), (128, 64)],
                    "data_tag": dtag}))
        # Only the first of the three announced blocks is ever sent in
        # time; the other two arrive after the daemon gave up.
        cn.isend(dst, dtag, Phantom(64), eager=True)
        cluster.engine.run()
        resp = reply.message.payload
        assert resp.status is Status.ERROR
        assert "stalled at block 1/3" in resp.error
        assert _entries_on(cluster, dst, dtag) == []
        for _ in range(2):
            cn.isend(dst, dtag, Phantom(64), eager=True)
        cluster.engine.run()
        assert _entries_on(cluster, dst, dtag) == []
        assert daemon.stats.staging_now == 0
        sess.call(acs[0].kernel_create("fill"))

    def test_rejected_header_drains_its_blocks(self, rig):
        cluster, sess, acs = rig
        with pytest.raises(MiddlewareError, match="unknown device address"):
            sess.call(acs[0].memcpy_h2d(0xDEAD, Phantom(4 * BLOCK),
                                        transfer=pipeline(BLOCK)))
        cluster.engine.run()
        self._assert_only_the_request_receive(cluster, acs[0])

    def test_foreign_address_drains_its_blocks(self):
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
        sess = cluster.session()
        register_tenants(cluster, "alice", "bob")
        alice = sess.call(cluster.tenant(0, "alice")).current
        bob = sess.call(cluster.tenant(0, "bob")).current
        theirs = sess.call(bob.mem_alloc(4 * BLOCK))
        with pytest.raises(MiddlewareError, match="not owned"):
            sess.call(alice.memcpy_h2d(theirs, Phantom(4 * BLOCK),
                                       transfer=pipeline(BLOCK)))
        cluster.engine.run()
        self._assert_only_the_request_receive(cluster, alice)

    @staticmethod
    def _assert_only_the_request_receive(cluster, ac):
        state = cluster.comm._states[ac.handle.daemon_rank]
        assert [tag for _, tag, _ in state.posted._entries] == [TAG_REQUEST]
        assert len(state.unexpected) == 0
        assert state.discards == []
