"""Property-based tests for MPI semantics under randomized traffic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpisim import ANY_SOURCE, ANY_TAG, Phantom
from repro.netsim import Fabric, LinkModel
from repro.mpisim import World
from repro.sim import Engine

MODEL = LinkModel("prop-net", latency_s=1e-4, bandwidth_Bps=1e6,
                  injection_overhead_s=1e-5, rendezvous_threshold=1000)


def build(n_ranks):
    eng = Engine()
    fabric = Fabric(eng, MODEL)
    eps = [fabric.add_endpoint(f"n{i}") for i in range(n_ranks)]
    world = World(eng, fabric)
    return eng, world.create_comm(eps)


class TestOrderingProperties:
    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_mixed_size_messages_never_overtake(self, sizes):
        # Messages alternate eager/rendezvous depending on random sizes;
        # matching order must equal send order per (src, tag).
        eng, comm = build(2)
        r0, r1 = comm.rank(0), comm.rank(1)

        def sender():
            for i, n in enumerate(sizes):
                r0.isend(1, tag=1, payload=Phantom(n))
            if False:
                yield

        def receiver():
            out = []
            for _ in sizes:
                msg = yield from r1.recv(source=0, tag=1)
                out.append(msg.nbytes)
            return out

        eng.process(sender())
        p = eng.process(receiver())
        assert eng.run(until=p) == sizes

    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_wildcard_receives_drain_everything(self, n_ranks, seed):
        rng = np.random.default_rng(seed)
        eng, comm = build(n_ranks)
        counts = {src: int(rng.integers(1, 5)) for src in range(1, n_ranks)}
        total = sum(counts.values())

        def sender(src):
            r = comm.rank(src)
            for k in range(counts[src]):
                yield from r.send(0, tag=int(rng.integers(0, 3)),
                                  payload=(src, k))

        def receiver():
            got = []
            r = comm.rank(0)
            for _ in range(total):
                msg = yield from r.recv(source=ANY_SOURCE, tag=ANY_TAG)
                got.append(msg.payload)
            return got

        for src in counts:
            eng.process(sender(src))
        p = eng.process(receiver())
        got = eng.run(until=p)
        assert len(got) == total
        # Per-sender streams arrive in order even through wildcards.
        for src in counts:
            ks = [k for s, k in got if s == src]
            assert ks == sorted(ks)

    @given(st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_request_completion_is_permanent(self, n):
        eng, comm = build(2)
        r0, r1 = comm.rank(0), comm.rank(1)
        reqs = [r1.irecv(source=0, tag=0) for _ in range(n)]

        def sender():
            for i in range(n):
                yield from r0.send(1, tag=0, payload=i)

        eng.process(sender())
        eng.run()
        assert all(r.completed for r in reqs)
        assert [r.message.payload for r in reqs] == list(range(n))
