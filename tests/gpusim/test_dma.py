"""Focused DMA tests: copy/compute overlap and utilization accounting."""

import sys

import pytest

from repro.gpusim import DMAEngine, GPUDevice, PCIE_GEN2_X16, TESLA_C1060
from repro.sim import Engine
from repro.units import MiB


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def dev(eng):
    return GPUDevice(eng, TESLA_C1060)


GEMM = {"A": 0, "B": 0, "C": 0, "m": 2048, "n": 2048, "k": 2048}


class TestCopyComputeOverlap:
    def test_copy_overlaps_kernel_execution(self, eng, dev):
        """DMA and compute are independent resources: total time is the
        max of the two, not the sum (the pipeline protocol's premise)."""
        copy_s = PCIE_GEN2_X16.copy_time(64 * MiB, pinned=True)
        kern_s = (dev.spec.launch_overhead_s
                  + dev.registry.get("dgemm").cost(GEMM, dev.spec))

        def proc():
            c = dev.dma.copy(64 * MiB)
            k = dev.launch("dgemm", GEMM, real=False)
            yield eng.all_of([c, k])
            return eng.now

        total = eng.run(until=eng.process(proc()))
        assert total == pytest.approx(max(copy_s, kern_s))
        assert total < copy_s + kern_s

    def test_serialized_baseline_is_the_sum(self, eng, dev):
        copy_s = PCIE_GEN2_X16.copy_time(64 * MiB, pinned=True)
        kern_s = (dev.spec.launch_overhead_s
                  + dev.registry.get("dgemm").cost(GEMM, dev.spec))

        def proc():
            yield dev.dma.copy(64 * MiB)
            yield dev.launch("dgemm", GEMM, real=False)
            return eng.now

        total = eng.run(until=eng.process(proc()))
        assert total == pytest.approx(copy_s + kern_s)

    def test_overlapped_copies_still_serialize_on_the_engine(self, eng, dev):
        """Two concurrent copies share the single copy engine."""
        one = PCIE_GEN2_X16.copy_time(8 * MiB, pinned=True)

        def proc():
            a = dev.dma.copy(8 * MiB)
            b = dev.dma.copy(8 * MiB)
            yield eng.all_of([a, b])
            return eng.now

        assert eng.run(until=eng.process(proc())) == pytest.approx(2 * one)


class TestEventBudget:
    def test_a_copy_is_one_heap_entry_idle_or_queued(self, eng):
        """The engine grant is a call (now, or from the previous copy's
        release), so a copy schedules its completion and nothing else."""
        dma = DMAEngine(eng, PCIE_GEN2_X16)
        sizes = (4 * MiB, 1 * MiB, 2 * MiB)
        finished = []
        for i, n in enumerate(sizes):
            dma.copy(n).add_callback(
                lambda _ev, i=i: finished.append((i, eng.now)))
        eng.run()
        # FIFO on the one engine, whatever the sizes.
        ends, t = [], 0.0
        for n in sizes:
            t += PCIE_GEN2_X16.copy_time(n)
            ends.append(t)
        assert [i for i, _ in finished] == [0, 1, 2]
        assert [at for _, at in finished] == pytest.approx(ends)
        assert next(eng._seq) == len(sizes)

    def test_a_copy_is_one_object(self):
        """One constructor per copy (the copy is its own completion
        event, its grant and finish are its methods): ``sys.setprofile``
        ``__init__`` calls, a 40- minus a 20-copy run."""
        def inits(n):
            eng = Engine()
            dma = DMAEngine(eng, PCIE_GEN2_X16)
            count = 0

            def hook(frame, event, _arg):
                nonlocal count
                if event == "call" and frame.f_code.co_name == "__init__":
                    count += 1

            sys.setprofile(hook)
            try:
                for _ in range(n):
                    dma.copy(MiB)
                eng.run()
            finally:
                sys.setprofile(None)
            return count

        assert (inits(40) - inits(20)) / 20 == 1

    def test_on_done_runs_before_the_waiters(self, eng):
        """``on_done(copy)`` is the copy's own completion step: it runs
        after the booking and before any callback, with no heap entry."""
        dma = DMAEngine(eng, PCIE_GEN2_X16)
        order = []
        copy = dma.copy(MiB, on_done=lambda c: order.append(
            ("on_done", c, c.processed, dma.transfers)))
        copy.add_callback(lambda c: order.append(("callback", c)))
        eng.run()
        assert order == [("on_done", copy, True, 1), ("callback", copy)]
        assert next(eng._seq) == 1


class TestBusyTimeAccounting:
    def test_busy_time_counts_transfer_only_not_queueing(self, eng):
        """A copy queued behind another accrues busy time for its own
        duration only — utilization must never exceed 100%."""
        dma = DMAEngine(eng, PCIE_GEN2_X16)
        one = PCIE_GEN2_X16.copy_time(4 * MiB, pinned=True)

        def proc():
            evs = [dma.copy(4 * MiB) for _ in range(3)]
            yield eng.all_of(evs)
            return eng.now

        elapsed = eng.run(until=eng.process(proc()))
        assert dma.busy_time == pytest.approx(3 * one)
        assert dma.busy_time <= elapsed + 1e-12
        assert dma.transfers == 3
        assert dma.bytes_copied == 3 * 4 * MiB

    def test_pinned_and_pageable_accrue_their_own_costs(self, eng):
        dma = DMAEngine(eng, PCIE_GEN2_X16)

        def proc():
            yield dma.copy(MiB, pinned=True)
            yield dma.copy(MiB, pinned=False)

        eng.run(until=eng.process(proc()))
        want = (PCIE_GEN2_X16.copy_time(MiB, True)
                + PCIE_GEN2_X16.copy_time(MiB, False))
        assert dma.busy_time == pytest.approx(want)

    def test_zero_byte_copy_counts_setup_only(self, eng):
        dma = DMAEngine(eng, PCIE_GEN2_X16)

        def proc():
            yield dma.copy(0)

        eng.run(until=eng.process(proc()))
        assert dma.busy_time == pytest.approx(PCIE_GEN2_X16.dma_setup_s)
        assert dma.bytes_copied == 0
        assert dma.transfers == 1
