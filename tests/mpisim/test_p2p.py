"""Point-to-point messaging tests: eager, rendezvous, matching, ordering."""

import collections
import gc
import pathlib
import sys
import weakref

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpisim import ANY_SOURCE, ANY_TAG, Phantom, World
from repro.netsim import Fabric
from repro.sim import Engine

from .conftest import MODEL


class TestBasicSendRecv:
    def test_eager_payload_delivered(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            yield from r0.send(1, tag=7, payload=b"hello")

        def receiver():
            msg = yield from r1.recv()
            return (msg.source, msg.tag, msg.payload)

        eng.process(sender())
        p = eng.process(receiver())
        assert eng.run(until=p) == (0, 7, b"hello")

    def test_rendezvous_payload_delivered(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        data = np.arange(1000, dtype=np.float64)  # 8000 B > threshold

        def sender():
            yield from r0.send(1, tag=1, payload=data)

        def receiver():
            msg = yield from r1.recv(source=0, tag=1)
            return msg

        eng.process(sender())
        p = eng.process(receiver())
        msg = eng.run(until=p)
        np.testing.assert_array_equal(msg.payload, data)
        assert msg.nbytes == 8000

    def test_numpy_payload_copied_on_send(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        data = np.zeros(10)

        def sender():
            req = r0.isend(1, tag=0, payload=data)
            data[:] = 99.0  # mutate after isend: receiver must not see this
            yield req.done

        def receiver():
            msg = yield from r1.recv()
            return msg.payload

        eng.process(sender())
        p = eng.process(receiver())
        np.testing.assert_array_equal(eng.run(until=p), np.zeros(10))

    def test_phantom_payload_times_but_carries_no_data(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        big = Phantom(64 * 1024 * 1024)

        def sender():
            yield from r0.send(1, tag=0, payload=big)

        def receiver():
            msg = yield from r1.recv()
            return msg

        eng.process(sender())
        p = eng.process(receiver())
        msg = eng.run(until=p)
        assert msg.payload == big
        assert msg.nbytes == 64 * 1024 * 1024
        assert eng.now > 60.0  # 64 MiB at 1 MB/s: over a minute of virtual time

    def test_none_payload_is_zero_bytes(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            yield from r0.send(1, tag=3, payload=None)

        def receiver():
            msg = yield from r1.recv()
            return msg

        eng.process(sender())
        p = eng.process(receiver())
        msg = eng.run(until=p)
        assert msg.payload is None
        assert msg.nbytes == 0

    def test_self_send(self, eng, comm2):
        r0 = comm2.rank(0)

        def proc():
            r0.isend(0, tag=5, payload=b"loop")
            msg = yield from r0.recv(source=0, tag=5)
            return msg.payload

        p = eng.process(proc())
        assert eng.run(until=p) == b"loop"


class TestMatching:
    def test_recv_by_specific_tag(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            yield from r0.send(1, tag=10, payload="ten")
            yield from r0.send(1, tag=20, payload="twenty")

        def receiver():
            m20 = yield from r1.recv(tag=20)
            m10 = yield from r1.recv(tag=10)
            return (m20.payload, m10.payload)

        eng.process(sender())
        p = eng.process(receiver())
        assert eng.run(until=p) == ("twenty", "ten")

    def test_recv_by_specific_source(self, eng, comm4):
        ranks = [comm4.rank(i) for i in range(4)]

        def sender(i):
            yield from ranks[i].send(0, tag=1, payload=f"from{i}")

        def receiver():
            m3 = yield from ranks[0].recv(source=3, tag=1)
            m1 = yield from ranks[0].recv(source=1, tag=1)
            m2 = yield from ranks[0].recv(source=2, tag=1)
            return (m3.payload, m1.payload, m2.payload)

        for i in (1, 2, 3):
            eng.process(sender(i))
        p = eng.process(receiver())
        assert eng.run(until=p) == ("from3", "from1", "from2")

    def test_wildcard_recv_gets_earliest(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            yield from r0.send(1, tag=5, payload="first")
            yield from r0.send(1, tag=6, payload="second")

        def receiver():
            yield from r1.recv(source=ANY_SOURCE, tag=ANY_TAG)  # drains "first"
            m = yield from r1.recv(source=ANY_SOURCE, tag=ANY_TAG)
            return m.payload

        eng.process(sender())
        p = eng.process(receiver())
        assert eng.run(until=p) == "second"

    def test_posted_recv_matched_by_later_arrival(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def receiver():
            req = r1.irecv(source=0, tag=9)
            msg = yield req.done
            return (msg.payload, eng.now)

        def sender():
            yield eng.timeout(5.0)
            yield from r0.send(1, tag=9, payload="late")

        p = eng.process(receiver())
        eng.process(sender())
        payload, t = eng.run(until=p)
        assert payload == "late"
        assert t > 5.0

    def test_fifo_same_source_tag(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            for i in range(10):
                r0.isend(1, tag=1, payload=i)
            if False:
                yield

        def receiver():
            out = []
            for _ in range(10):
                msg = yield from r1.recv(source=0, tag=1)
                out.append(msg.payload)
            return out

        eng.process(sender())
        p = eng.process(receiver())
        assert eng.run(until=p) == list(range(10))

    def test_small_message_does_not_overtake_large(self, eng, comm2):
        # A large rendezvous message followed by a tiny eager one on the
        # same (src, tag): matching order must be send order.
        r0, r1 = comm2.rank(0), comm2.rank(1)
        big = np.full(100_000, 1.0)

        def sender():
            r0.isend(1, tag=2, payload=big)
            r0.isend(1, tag=2, payload=b"tiny")
            if False:
                yield

        def receiver():
            first = yield from r1.recv(source=0, tag=2)
            second = yield from r1.recv(source=0, tag=2)
            return (first.nbytes, second.payload)

        eng.process(sender())
        p = eng.process(receiver())
        nbytes, tiny = eng.run(until=p)
        assert nbytes == big.nbytes
        assert tiny == b"tiny"


class TestRequests:
    def test_isend_eager_completes_before_delivery(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            req = r0.isend(1, tag=0, payload=b"x" * 100)
            yield req.done
            return eng.now

        def receiver():
            msg = yield from r1.recv()
            return eng.now

        ps = eng.process(sender())
        pr = eng.process(receiver())
        t_send = eng.run(until=ps)
        eng.run(until=pr)
        t_recv = eng.now
        assert t_send < t_recv  # local completion at injection

    def test_rendezvous_send_blocks_until_receiver_posts(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        data = np.zeros(10_000)

        def sender():
            yield from r0.send(1, tag=0, payload=data)
            return eng.now

        def receiver():
            yield eng.timeout(10.0)  # post the receive late
            yield from r1.recv()

        ps = eng.process(sender())
        eng.process(receiver())
        t_send_done = eng.run(until=ps)
        assert t_send_done > 10.0  # sender stalled on the handshake

    def test_sendrecv_exchanges(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def proc(rank, me):
            other = 1 - me
            msg = yield from rank.sendrecv(other, send_tag=1, payload=f"hi from {me}",
                                           source=other, recv_tag=1)
            return msg.payload

        p0 = eng.process(proc(r0, 0))
        p1 = eng.process(proc(r1, 1))
        assert eng.run(until=p0) == "hi from 1"
        assert eng.run(until=p1) == "hi from 0"

    def test_completed_flag(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        req = r1.irecv(source=0, tag=0)
        assert not req.completed

        def sender():
            yield from r0.send(1, tag=0, payload=b"z")

        eng.process(sender())
        eng.run()
        assert req.completed
        assert req.message.payload == b"z"


class TestSendCompletion:
    """An eager send is its message, which fires at injection and carries
    its value from the NIC grant on (like a timer), so a send is complete
    once it has fired, not once it is triggered."""

    INJ = 0.0001                        # conftest MODEL.injection_overhead_s

    def test_not_completed_before_the_injection_instant(self, eng, comm2):
        r0 = comm2.rank(0)
        first = r0.isend(1, tag=0, payload=b"x" * 900)
        queued = r0.isend(1, tag=1, payload=b"y")
        # Free NIC: granted inside isend, so already triggered.
        assert first.done.triggered and not first.completed
        assert not queued.done.triggered and not queued.completed
        eng.run(until=self.INJ / 2)
        assert not first.completed
        eng.run(until=first.done)
        assert first.completed and eng.now == pytest.approx(self.INJ)
        # The queued send is granted when the first has drained ...
        t_drained = self.INJ + (900 + 64) / 1_000_000.0
        eng.run(until=t_drained + self.INJ / 2)
        assert queued.done.triggered and not queued.completed
        # ... and completes one injection overhead later.
        eng.run(until=queued.done)
        assert queued.completed
        assert eng.now == pytest.approx(t_drained + self.INJ)

    def test_granted_send_that_has_not_fired_reads_incomplete(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        # A message to rank 1, delivered at injection + wire + latency.
        r0.isend(1, tag=5, payload=b"abc")
        t_arrival = self.INJ + (3 + 64) / 1_000_000.0 + 0.001

        def proc():
            rreq = r1.irecv(source=0, tag=5)
            # Send so late that the arrival lands between grant and
            # injection of this send.
            yield eng.timeout(t_arrival - self.INJ / 2)
            sreq = r1.isend(0, tag=6, payload=b"reply")
            assert sreq.done.triggered
            yield eng.any_of([sreq.done, rreq.done])
            return sreq.completed, rreq.completed, rreq.message.payload, eng.now

        sent, received, payload, t = eng.run(until=eng.process(proc()))
        assert (sent, received, payload) == (False, True, b"abc")
        assert t == pytest.approx(t_arrival)

    def test_send_dropped_at_a_cut_still_completes(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        comm2.fabric.cut("n0", "n1")
        lost = r0.isend(1, tag=0, payload=b"lost")
        assert not lost.completed
        eng.run()
        # The sender cannot tell: complete at injection, nothing arrives,
        # and no (src, dst) sequence number was consumed ...
        assert lost.completed and eng.now == pytest.approx(self.INJ)
        assert comm2._send_seq.get((0, 1), 0) == 0
        assert len(comm2._states[1].unexpected) == 0
        # ... so the first message after the heal is matched at once.
        comm2.fabric.heal()
        r0.isend(1, tag=0, payload=b"kept")

        def receiver():
            msg = yield from r1.recv(source=0, tag=0)
            return msg.payload

        assert eng.run(until=eng.process(receiver())) == b"kept"


class TestEventBudget:
    """One eager message into a posted receive is three heap entries
    (``engine._seq`` draws): the message's injection — the send's
    ``done`` — the receiver share's timer, and its delivery.  Matching
    settles at delivery and the receive's ``done`` is processed there;
    only a receive that finds its message already waiting completes
    through the heap (a process never resumes inside its own irecv)."""

    def test_eager_message_is_three_heap_entries(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        rreq = r1.irecv(source=0, tag=0)
        sreq = r0.isend(1, tag=0, payload=b"x" * 100)
        eng.run()
        assert sreq.completed and rreq.message.payload == b"x" * 100
        assert next(eng._seq) == 3

    def test_message_queued_on_the_nic_costs_the_same_three(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        rreqs = [r1.irecv(source=0, tag=t) for t in (0, 1)]
        for t in (0, 1):
            r0.isend(1, tag=t, payload=b"x" * 100)
        eng.run()
        assert [r.message.tag for r in rreqs] == [0, 1]
        assert next(eng._seq) == 6

    def test_receive_posted_after_arrival_completes_through_the_heap(
            self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        r0.isend(1, tag=0, payload=b"x" * 100)
        eng.run()
        rreq = r1.irecv(source=0, tag=0)
        assert rreq.completed and not rreq.done.processed
        eng.run()
        assert rreq.done.processed and next(eng._seq) == 4


class TestCallBudget:
    """Python-level calls per eager message, per layer: ``sys.setprofile``
    "call" events in a steady isend/irecv loop (a sender yielding each
    send, a receiver each receive, so every message finds its receive
    posted), taken as the difference between a 40- and a 20-message run;
    constructors are the ``__init__`` calls among them.
    Earlier message paths measured sim 27 / mpisim 28 / netsim 8, then
    sim 24 / obs 2, then sim 20 / mpisim 14 / netsim 6 with 9
    constructors (a message, its transmission, the transmission's
    ``injected`` and ``delivered`` events, two requests, each with an
    event, a flow and a fresh share timer), then sim 13 / mpisim 16 /
    netsim 5 with 4 (the message, a send and a receive request, the
    share's flow record)."""

    @staticmethod
    def _calls(n: int) -> collections.Counter:
        eng = Engine()
        fabric = Fabric(eng, MODEL)
        for name in ("n0", "n1"):
            fabric.add_endpoint(name)
        comm = World(eng, fabric).create_comm(["n0", "n1"])
        r0, r1 = comm.rank(0), comm.rank(1)

        def sender():
            for _ in range(n):
                yield r0.isend(1, tag=0, payload=b"x" * 100).done

        def receiver():
            for _ in range(n):
                yield r1.irecv(source=0, tag=0).done

        eng.process(sender())
        eng.process(receiver())
        calls = collections.Counter()

        def hook(frame, event, _arg):
            if event == "call":
                path = pathlib.PurePath(frame.f_code.co_filename)
                if path.parts[-3:-2] == ("repro",):
                    calls[path.parts[-2]] += 1
                    if frame.f_code.co_name == "__init__":
                        calls["__init__"] += 1

        sys.setprofile(hook)
        try:
            eng.run()
        finally:
            sys.setprofile(None)
        return calls

    def test_calls_per_eager_message(self):
        short, long = self._calls(20), self._calls(40)
        per_message = {layer: (long[layer] - short[layer]) / 20
                       for layer in ("sim", "mpisim", "netsim", "obs")}
        assert per_message == {"sim": 13, "mpisim": 15, "netsim": 5,
                               "obs": 0}

    def test_constructors_per_eager_message(self):
        """The message (its own transmission and its eager send) and the
        receive request; the receiver share keeps its lone flow in two
        fields and re-arms its own timer."""
        short, long = self._calls(20), self._calls(40)
        assert (long["__init__"] - short["__init__"]) / 20 == 2


class TestDroppedMessage:
    def test_freed_by_refcount_alone(self, eng, comm2):
        """A message cut by a partition is never delivered; once its send
        handle (the message itself) is dropped, the message and its payload (here a view
        into a buffer, as a D2H block's is into device memory) are freed
        without the cyclic collector."""
        from repro.buffers import ChunkView

        r0 = comm2.rank(0)
        comm2.fabric.cut("n0", "n1")
        backing = np.zeros(256, dtype=np.uint8)
        alive = weakref.ref(backing)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            req = r0.isend(1, tag=0, payload=ChunkView(backing), eager=True)
            del backing
            eng.run()
            assert req.completed and comm2.fabric.messages_dropped == 1
            del req
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()


class TestMatchingSettlesFirst:
    """An exception raised by a receiver that a delivery resumes, with
    nobody waiting on that receiver, unwinds to the caller of
    ``engine.run``; matching has settled before any receiver runs, so
    the message held for ordering behind the raising one and the next
    message on the pair still match."""

    @pytest.mark.parametrize("posted", [True, False],
                             ids=["held-into-posted", "held-into-unexpected"])
    def test_raising_receiver_leaves_matching_settled(self, eng, comm2, posted):
        r0, r1 = comm2.rank(0), comm2.rank(1)
        fabric = comm2.fabric
        got = []

        def raising():
            yield r1.irecv(source=0, tag=1).done
            raise RuntimeError("receiver failed")

        def waiting():
            msg = yield r1.irecv(source=0, tag=2).done
            got.append(msg.payload)

        eng.process(raising())
        if posted:
            eng.process(waiting())
        # "a" drains into a slow link; "b", sent once the link is fast
        # again, overtakes it and is held for ordering.
        fabric.set_link_delay("n0", "n1", 0.01)
        r0.isend(1, tag=1, payload=b"a")
        eng.run(until=0.0005)
        fabric.set_link_delay("n0", "n1", 0.0)
        r0.isend(1, tag=2, payload=b"b")
        eng.run(until=0.005)
        assert list(comm2._held[(0, 1)]) == [1]
        with pytest.raises(RuntimeError, match="receiver failed"):
            eng.run()
        state = comm2._states[1]
        assert comm2._match_seq[(0, 1)] == 2
        assert not comm2._held[(0, 1)]
        assert len(state.posted) == 0
        assert [tag for _, tag, _ in state.unexpected._entries] == (
            [] if posted else [2])
        if not posted:
            eng.process(waiting())
        r0.isend(1, tag=3, payload=b"c")

        def next_on_the_pair():
            msg = yield r1.irecv(source=0, tag=3).done
            return msg.payload

        assert eng.run(until=eng.process(next_on_the_pair())) == b"c"
        assert got == [b"b"]


class TestValidation:
    def test_bad_rank_rejected(self, comm2):
        with pytest.raises(MPIError):
            comm2.rank(5)
        with pytest.raises(MPIError):
            comm2.isend(0, 9, tag=0)

    def test_negative_tag_rejected(self, comm2):
        with pytest.raises(MPIError):
            comm2.rank(0).isend(1, tag=-3)

    def test_empty_comm_rejected(self, world):
        with pytest.raises(MPIError):
            world.create_comm([])
