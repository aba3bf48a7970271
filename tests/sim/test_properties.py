"""Property-based tests for the simulation kernel."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import BandwidthShare, Engine


class TestClockProperties:
    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1,
                    max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_timeouts_process_in_sorted_order(self, delays):
        eng = Engine()
        seen = []
        for d in delays:
            eng.timeout(d, value=d).add_callback(lambda e: seen.append(e.value))
        eng.run()
        assert seen == sorted(delays)
        assert eng.now == max(delays)

    @given(st.lists(st.tuples(st.floats(0.0, 100.0, allow_nan=False),
                              st.floats(0.0, 100.0, allow_nan=False)),
                    min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_nested_process_clock_monotone(self, pairs):
        eng = Engine()
        stamps = []

        def proc(a, b):
            yield eng.timeout(a)
            stamps.append(eng.now)
            yield eng.timeout(b)
            stamps.append(eng.now)

        for a, b in pairs:
            eng.process(proc(a, b))
        eng.run()
        assert stamps == sorted(stamps)
        assert len(stamps) == 2 * len(pairs)


class TestBandwidthShareProperties:
    @given(st.lists(st.tuples(st.floats(0.0, 10.0, allow_nan=False),
                              st.floats(1.0, 10_000.0, allow_nan=False)),
                    min_size=1, max_size=20),
           st.floats(10.0, 10_000.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_all_flows_complete_and_capacity_respected(self, flows, capacity):
        eng = Engine()
        share = BandwidthShare(eng, capacity)
        done_times = []
        total_bytes = sum(nb for _, nb in flows)

        def finished():
            done_times.append(eng.now)

        for start, nbytes in flows:
            eng.call_at(start, lambda nbytes=nbytes:
                        share.drain(nbytes, finished))
        eng.run()
        assert len(done_times) == len(flows)
        # The pool can never move bytes faster than its capacity allows.
        first_start = min(s for s, _ in flows)
        makespan = max(done_times) - first_start
        assert makespan * capacity >= total_bytes * (1 - 1e-6)

    @given(st.lists(st.floats(1.0, 1000.0, allow_nan=False),
                    min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_simultaneous_flows_finish_in_size_order(self, sizes):
        eng = Engine()
        share = BandwidthShare(eng, 100.0)
        finish = {}

        for i, nb in enumerate(sizes):
            share.drain(nb, lambda i=i: finish.__setitem__(i, eng.now))
        eng.run()
        order = sorted(range(len(sizes)), key=lambda i: finish[i])
        # Equal-share flows drain smallest-first.
        for a, b in zip(order, order[1:]):
            assert sizes[a] <= sizes[b] + 1e-6

    def test_many_tiny_flows_terminate(self):
        # Regression guard for the float-residue infinite-timer loop.
        eng = Engine()
        share = BandwidthShare(eng, 2660 * 1024 * 1024.0)
        done = []
        for _ in range(256):
            share.drain(524288 + 64, lambda: done.append(eng.now))
        eng.run()
        assert len(done) == 256 and eng.now > 0
