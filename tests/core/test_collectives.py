"""Ring collectives over the P2P data plane, and topology-aware placement.

The acceptance bar for the P2P plane: a ring allreduce on an 8-device
torus must be *bit-identical* to the staged two-hop oracle (and to a
numpy oracle reproducing the ring's accumulation order), strictly
faster in virtual time, and move at least 2x fewer bytes through
compute-node endpoints.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.collectives import ring_allreduce, ring_broadcast
from repro.errors import MiddlewareError
from repro.netsim import TopologySpec
from repro.workloads.collective import (
    DEVICES,
    CollectiveConfig,
    ring_hop_counts,
    run,
    run_once,
)

QUICK = CollectiveConfig(chunk_elements=256)


@pytest.fixture(scope="module")
def allreduce_report():
    """One 8-device comparison run shared by the assertions below."""
    return run(QUICK)


class TestRingAllreduce:
    def test_p2p_bit_identical_to_staged_and_oracle(self, allreduce_report):
        rep = allreduce_report
        assert rep.identical, "P2P and staged transports diverged"
        assert all(r.exact for r in rep.results.values()), \
            "device contents do not match the numpy oracle bit-for-bit"

    def test_p2p_reduces_compute_node_bytes(self, allreduce_report):
        rep = allreduce_report
        # The point of the plane: the driving compute node stops being
        # the data path.  Control traffic still crosses it, bulk no.
        assert rep.cn_ratio >= 2.0
        assert rep.results["p2p"].cn_bytes < rep.results["staged"].cn_bytes

    def test_p2p_faster_in_virtual_time(self, allreduce_report):
        assert allreduce_report.speedup > 1.0

    def test_deterministic_replay(self, allreduce_report):
        assert run(QUICK).digest == allreduce_report.digest

    def test_placement_keeps_ring_neighbours_close(self, allreduce_report):
        # Round-robin attachment over the 2x2 torus: every ring edge
        # crosses at most 2 trunks (the torus diameter).
        assert max(allreduce_report.ring_hops) <= 2

    def test_bytes_on_wire_match_the_schedule(self, allreduce_report):
        # Ring allreduce moves 2*(N-1) chunks per device end to end.
        cfg = QUICK
        expected = 2 * (DEVICES - 1) * DEVICES * cfg.chunk_nbytes()
        moved = allreduce_report.results["p2p"].bytes_moved
        assert moved >= expected
        # ... plus RPC envelopes, but nowhere near another chunk sweep.
        assert moved < expected + DEVICES * DEVICES * 4096


class TestRingBroadcast:
    def test_broadcast_matches_root(self):
        cfg = CollectiveConfig(chunk_elements=256, op="broadcast")
        rep = run(cfg)
        assert rep.identical
        assert all(r.exact for r in rep.results.values())
        assert rep.cn_ratio >= 2.0

    def test_single_mode_run(self):
        res = run_once(CollectiveConfig(chunk_elements=64, op="broadcast"),
                       "p2p")
        assert res.exact

    def test_config_validation(self):
        with pytest.raises(MiddlewareError):
            CollectiveConfig(chunk_elements=0)
        with pytest.raises(MiddlewareError):
            CollectiveConfig(op="allgather")
        with pytest.raises(MiddlewareError):
            run_once(QUICK, "telepathy")


class TestCollectiveLayer:
    def test_allreduce_argument_validation(self):
        cluster = Cluster(ClusterSpec(n_compute=1, n_accelerators=2))
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=2))
        acs = [cluster.remote(0, h) for h in handles]
        with pytest.raises(MiddlewareError):
            sess.call(ring_allreduce(cluster.engine, acs, [[1]], [1, 2],
                                     8, 1))
        with pytest.raises(MiddlewareError):
            sess.call(ring_allreduce(cluster.engine, acs, [[1, 2], [3, 4]],
                                     [1], 8, 1))
        with pytest.raises(MiddlewareError):
            sess.call(ring_broadcast(cluster.engine, acs, [[1], [2]], 8,
                                     root=5))

    def test_ring_hop_counts_shape(self):
        hops = ring_hop_counts()
        assert len(hops) == DEVICES
        assert all(h >= 0 for h in hops)


class TestTopologyAwarePlacement:
    @pytest.fixture
    def cluster(self):
        # 4 devices round-robined over a 2-switch ring: ac0, ac2 hang
        # off sw0 and ac1, ac3 off sw1.
        return Cluster(ClusterSpec(
            n_compute=1, n_accelerators=4,
            topology=TopologySpec(kind="ring", dims=(2,))))

    def test_pairs_land_on_one_switch(self, cluster):
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=2))
        switches = {cluster.fabric.switch_of(f"ac{h.ac_id}")
                    for h in handles}
        assert len(switches) == 1, \
            f"2-device alloc split across switches: {handles}"

    def test_hop_distance_and_snapshot(self, cluster):
        arm = cluster.arm
        assert arm.hop_distance(0, 2) == 0
        assert arm.hop_distance(0, 1) == 1
        snap = arm.snapshot()
        assert {r["switch"] for r in snap.values()} == {"sw0", "sw1"}

    def test_full_alloc_still_works(self, cluster):
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=4))
        assert len({h.ac_id for h in handles}) == 4
