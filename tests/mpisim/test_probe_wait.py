"""Tests for probe/iprobe and the waitall/waitany helpers."""

import pytest

from repro.errors import MPIError
from repro.mpisim import ANY_SOURCE, ANY_TAG


class TestIprobe:
    def test_nothing_pending(self, comm2):
        assert comm2.rank(1).iprobe() is None

    def test_sees_unexpected_without_consuming(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            yield from r0.send(1, tag=9, payload=b"xyz")

        eng.run(until=eng.process(sender()))
        eng.run()
        env = r1.iprobe()
        assert env is not None
        assert env.source == 0
        assert env.tag == 9
        assert env.nbytes == 3
        # Still receivable.
        def receiver():
            msg = yield from r1.recv()
            return msg.payload

        assert eng.run(until=eng.process(receiver())) == b"xyz"

    def test_tag_filter(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            yield from r0.send(1, tag=5, payload=None)

        eng.run(until=eng.process(sender()))
        eng.run()
        assert r1.iprobe(tag=6) is None
        assert r1.iprobe(tag=5) is not None


class TestBlockingProbe:
    def test_probe_waits_for_arrival(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def prober():
            env = yield from r1.probe(source=0, tag=3)
            return (env.nbytes, eng.now)

        def sender():
            yield eng.timeout(2.0)
            yield from r0.send(1, tag=3, payload=b"abcd")

        p = eng.process(prober())
        eng.process(sender())
        nbytes, t = eng.run(until=p)
        assert nbytes == 4
        assert t > 2.0

    def test_probe_immediate_when_buffered(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            yield from r0.send(1, tag=1, payload=b"z")

        eng.run(until=eng.process(sender()))
        eng.run()

        def prober():
            env = yield from r1.probe()
            msg = yield from r1.recv(source=env.source, tag=env.tag)
            return msg.payload

        assert eng.run(until=eng.process(prober())) == b"z"

    def test_probe_then_sized_recv_pattern(self, eng, comm4):
        # The classic probe-for-size pattern with wildcard source.
        sink = comm4.rank(0)

        def sender(i):
            yield from comm4.rank(i).send(0, tag=7, payload=bytes(i * 10))

        for i in (1, 2, 3):
            eng.process(sender(i))

        def receiver():
            sizes = {}
            for _ in range(3):
                env = yield from sink.probe(tag=7)
                msg = yield from sink.recv(source=env.source, tag=7)
                sizes[env.source] = len(msg.payload)
            return sizes

        assert eng.run(until=eng.process(receiver())) == {1: 10, 2: 20, 3: 30}


class TestWaitHelpers:
    def test_waitall_returns_messages_in_order(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            for i in range(3):
                yield from r0.send(1, tag=i, payload=f"m{i}")

        def receiver():
            reqs = [r1.irecv(source=0, tag=i) for i in (2, 0, 1)]
            msgs = yield from r1.waitall(reqs)
            return [m.payload for m in msgs]

        eng.process(sender())
        p = eng.process(receiver())
        assert eng.run(until=p) == ["m2", "m0", "m1"]

    def test_waitall_empty(self, eng, comm2):
        def proc():
            out = yield from comm2.rank(0).waitall([])
            return out

        assert eng.run(until=eng.process(proc())) == []

    def test_waitany_returns_first(self, eng, comm2):
        r0, r1 = comm2.rank(0), comm2.rank(1)

        def sender():
            yield eng.timeout(1.0)
            yield from r0.send(1, tag=8, payload="late-but-only")

        def receiver():
            reqs = [r1.irecv(source=0, tag=7), r1.irecv(source=0, tag=8)]
            idx, msg = yield from r1.waitany(reqs)
            return idx, msg.payload

        eng.process(sender())
        p = eng.process(receiver())
        assert eng.run(until=p) == (1, "late-but-only")

    def test_waitany_empty_rejected(self, comm2):
        with pytest.raises(MPIError):
            next(iter(comm2.rank(0).waitany([])))


class TestSendCompletion:
    """An eager send's ``done`` is the transmission's ``injected`` event,
    which carries its value from the NIC grant on (like a timer), so a
    send is complete once ``done`` has fired, not once it is triggered."""

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

    def test_waitany_skips_a_granted_send_that_has_not_fired(self, eng, comm2):
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
            idx, msg = yield from r1.waitany([sreq, rreq])
            return idx, msg.payload, eng.now

        idx, payload, t = eng.run(until=eng.process(proc()))
        assert (idx, payload) == (1, b"abc")
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
        assert r1.iprobe() is None
        # ... so the first message after the heal is matched at once.
        comm2.fabric.heal()
        r0.isend(1, tag=0, payload=b"kept")

        def receiver():
            msg = yield from r1.recv(source=0, tag=0)
            return msg.payload

        assert eng.run(until=eng.process(receiver())) == b"kept"
