"""Unit tests for the multi-tenant scheduling policy (no cluster needed)."""

import pytest

from repro.core import (
    AdmissionController,
    TenantSpec,
    WeightedFairQueue,
    jain_fairness,
)
from repro.errors import AllocationError


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec("t0")
        assert spec.weight == 1.0
        assert spec.priority == 0
        assert spec.max_vaccels == 1

    @pytest.mark.parametrize("kwargs", [
        {"tenant_id": ""},
        {"tenant_id": "t", "weight": 0.0},
        {"tenant_id": "t", "weight": -1.0},
        {"tenant_id": "t", "max_vaccels": 0},
        {"tenant_id": "t", "max_vaccels": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(AllocationError):
            TenantSpec(**kwargs)


class TestWeightedFairQueue:
    def test_fifo_within_tenant(self):
        q = WeightedFairQueue()
        for i in range(5):
            q.enqueue("a", 1.0, f"a{i}")
        assert [q.pop() for _ in range(5)] == [f"a{i}" for i in range(5)]

    def test_weighted_interleave(self):
        # Backlogged 2:1 weights: the heavy tenant drains twice as fast.
        q = WeightedFairQueue()
        for i in range(8):
            q.enqueue("heavy", 2.0, ("heavy", i))
            q.enqueue("light", 1.0, ("light", i))
        first6 = [q.pop() for _ in range(6)]
        heavy_share = sum(1 for t, _ in first6 if t == "heavy")
        assert heavy_share == 4  # 2/3 of dispatches

    def test_equal_weights_tie_break_by_submission(self):
        q = WeightedFairQueue()
        q.enqueue("a", 1.0, "a0")
        q.enqueue("b", 1.0, "b0")
        q.enqueue("c", 1.0, "c0")
        assert [q.pop(), q.pop(), q.pop()] == ["a0", "b0", "c0"]

    def test_no_starvation_for_light_tenant(self):
        # However heavy the competition, a weight-0.1 tenant's item pops
        # after a bounded number of dispatches (its tag is finite and the
        # system clock only moves forward).
        q = WeightedFairQueue()
        q.enqueue("tiny", 0.1, "tiny0")  # tag = 10.0
        for i in range(100):
            q.enqueue("big", 10.0, ("big", i))  # tags 0.1, 0.2, ...
        popped = []
        while True:
            item = q.pop()
            popped.append(item)
            if item == "tiny0":
                break
        assert len(popped) <= 101  # served, not starved

    def test_idle_tenant_cannot_bank_credit(self):
        # Drain "a" items, advancing the system clock; a newly active
        # tenant starts at the system clock, not at zero.
        q = WeightedFairQueue()
        for i in range(10):
            q.enqueue("a", 1.0, ("a", i))
        for _ in range(10):
            q.pop()
        q.enqueue("late", 1.0, ("late", 0))
        q.enqueue("a", 1.0, ("a", 10))
        # "late" must not leapfrog arbitrarily: both start at vtime=10,
        # and the tie breaks by submission order.
        assert q.pop() == ("late", 0)
        assert q.pop() == ("a", 10)

    def test_remove_token(self):
        q = WeightedFairQueue()
        q.enqueue("a", 1.0, "a0")
        tok = q.enqueue("a", 1.0, "a1")
        q.enqueue("a", 1.0, "a2")
        q.remove(tok)
        assert len(q) == 2
        assert q.items() == ["a0", "a2"]
        assert [q.pop(), q.pop()] == ["a0", "a2"]
        assert q.pop() is None

    def test_drain_returns_wfq_order(self):
        q = WeightedFairQueue()
        q.enqueue("slow", 1.0, "s0")
        q.enqueue("fast", 4.0, "f0")
        q.enqueue("fast", 4.0, "f1")
        assert q.drain() == ["f0", "f1", "s0"]
        assert len(q) == 0

    def test_rejects_non_positive_weight(self):
        q = WeightedFairQueue()
        with pytest.raises(AllocationError):
            q.enqueue("a", 0.0, "a0")


class TestAdmissionController:
    def _ctrl(self, slots=2):
        ctrl = AdmissionController(slots_per_device=slots)
        ctrl.register(TenantSpec("alice", weight=2.0, priority=1))
        ctrl.register(TenantSpec("bob", weight=1.0, priority=0))
        return ctrl

    def test_unknown_tenant_rejected(self):
        ctrl = self._ctrl()
        with pytest.raises(AllocationError, match="unknown tenant"):
            ctrl.tenant("mallory")

    def test_placement_spreads_deterministically(self):
        ctrl = self._ctrl(slots=2)
        healthy = [0, 1, 2]
        placed = []
        for _ in range(6):
            ac = ctrl.place(healthy)
            placed.append(ac)
            ctrl.grant("bob" if len(placed) % 2 else "alice", ac, now=0.0)
        # Most-free-slots first, ties to the lowest ac_id.
        assert placed == [0, 1, 2, 0, 1, 2]
        assert ctrl.place(healthy) is None  # full

    def test_free_slots_accounting(self):
        ctrl = self._ctrl(slots=2)
        assert ctrl.free_slots([0, 1]) == 4
        ctrl.grant("alice", 0, now=0.0)
        assert ctrl.free_slots([0, 1]) == 3
        assert ctrl.used_slots(0) == 1

    def test_find_victim_prefers_lowest_priority_oldest(self):
        ctrl = AdmissionController(slots_per_device=4)
        for name, prio in (("low_old", 0), ("low_new", 0), ("mid", 1)):
            ctrl.register(TenantSpec(name, priority=prio))
        l1 = ctrl.grant("low_old", 0, now=1.0)
        ctrl.grant("low_new", 0, now=2.0)
        ctrl.grant("mid", 0, now=0.5)
        victim = ctrl.find_victim(priority=2)
        assert victim.vac_id == l1.vac_id  # lowest priority, oldest grant

    def test_no_victim_at_equal_priority(self):
        ctrl = self._ctrl()
        ctrl.grant("bob", 0, now=0.0)  # priority 0
        assert ctrl.find_victim(priority=0) is None

    def test_end_accounts_weighted_service(self):
        ctrl = self._ctrl()
        la = ctrl.grant("alice", 0, now=0.0)   # weight 2.0
        lb = ctrl.grant("bob", 0, now=0.0)     # weight 1.0
        ctrl.end(la.vac_id, now=10.0)
        ctrl.end(lb.vac_id, now=10.0)
        assert ctrl.service_s["alice"] == pytest.approx(5.0)
        assert ctrl.service_s["bob"] == pytest.approx(10.0)

    def test_end_unknown_lease_raises(self):
        ctrl = self._ctrl()
        with pytest.raises(AllocationError):
            ctrl.end(999, now=0.0)

    def test_vac_ids_monotonic(self):
        ctrl = self._ctrl(slots=4)
        ids = [ctrl.grant("bob", 0, now=0.0).vac_id for _ in range(3)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3


class TestJainFairness:
    def test_perfectly_even(self):
        assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_one_taker(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0
