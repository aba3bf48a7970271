"""Tests for MPI_Cancel-style receive cancellation (posted-recv leaks)."""

import pytest

from repro.errors import MPIError


def _posted_entries(comm, index):
    return comm._states[index].posted._entries


class TestCancelRecv:
    def test_cancel_pending_recv(self, eng, comm2):
        r1 = comm2.rank(1)
        req = r1.irecv(source=0, tag=7)
        assert len(_posted_entries(comm2, 1)) == 1
        assert r1.cancel_recv(req) is True
        assert req.cancelled
        assert not req.completed
        assert len(_posted_entries(comm2, 1)) == 0

    def test_cancel_after_completion_loses_race(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        req = r1.irecv(source=0, tag=7)
        r0.isend(1, 7, "hello")
        eng.run(until=req.done)
        assert req.completed
        assert r1.cancel_recv(req) is False
        assert not req.cancelled

    def test_cancel_twice_is_false(self, eng, comm2):
        r1 = comm2.rank(1)
        req = r1.irecv(source=0, tag=7)
        assert r1.cancel_recv(req) is True
        assert r1.cancel_recv(req) is False

    def test_late_message_is_discarded_not_queued(self, eng, comm2):
        # The message the cancelled receive was waiting for must not
        # accumulate in the unexpected queue (one leaked entry per
        # missed deadline otherwise).
        r0, r1 = comm2.rank(0), comm2.rank(1)
        req = r1.irecv(source=0, tag=7)
        r1.cancel_recv(req)
        sreq = r0.isend(1, 7, "late reply")
        eng.run(until=sreq.done)
        eng.run()
        assert len(comm2._states[1].unexpected) == 0

    def test_discard_is_one_shot(self, eng, comm2):
        # Only the first matching arrival is swallowed; the next message
        # on the same (source, tag) is delivered normally.
        r0, r1 = comm2.rank(0), comm2.rank(1)
        req = r1.irecv(source=0, tag=7)
        r1.cancel_recv(req)
        s1 = r0.isend(1, 7, "swallowed")
        eng.run(until=s1.done)
        eng.run()
        s2 = r0.isend(1, 7, "delivered")
        eng.run(until=s2.done)
        eng.run()
        assert len(comm2._states[1].unexpected) == 1
        req2 = r1.irecv(source=0, tag=7)
        eng.run(until=req2.done)
        assert req2.message.payload == "delivered"

    def test_cancel_send_request_rejected(self, eng, comm2):
        r0 = comm2.rank(0)
        sreq = r0.isend(1, 7, "x")
        with pytest.raises(MPIError, match="cancel_recv"):
            r0.cancel_recv(sreq)

    def test_other_posted_recvs_untouched(self, eng, comm2):
        r1 = comm2.rank(1)
        keep = r1.irecv(source=0, tag=1)
        drop = r1.irecv(source=0, tag=2)
        r1.cancel_recv(drop)
        entries = _posted_entries(comm2, 1)
        assert len(entries) == 1
        r0 = comm2.rank(0)
        r0.isend(1, 1, "kept")
        eng.run(until=keep.done)
        assert keep.message.payload == "kept"
