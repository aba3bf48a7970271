"""Tests for direct accelerator-to-accelerator transfers (PEER_PUT).

The paper highlights (Sect. III-C) that its accelerators "can efficiently
exchange data without involving their associated compute nodes" — a
capability CUDA 4.2 / OpenCL 1.2 did not offer across a network.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import Cluster, paper_testbed
from repro.errors import MiddlewareError
from repro.mpisim import Phantom
from repro.units import MiB


@pytest.fixture
def rig():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=3))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=3))
    acs = [cluster.remote(0, h) for h in handles]
    return cluster, sess, acs


class TestPeerPut:
    def test_data_arrives_intact(self, rig):
        cluster, sess, acs = rig
        data = np.random.default_rng(0).standard_normal(5000)
        p0 = sess.call(acs[0].mem_alloc(data.nbytes))
        p1 = sess.call(acs[1].mem_alloc(data.nbytes))
        sess.call(acs[0].memcpy_h2d(p0, data))
        sess.call(acs[0].peer_put(p0, data.nbytes, acs[1], p1))
        out = sess.call(acs[1].memcpy_d2h(p1, data.nbytes))
        np.testing.assert_array_equal(
            np.asarray(out).view(np.float64).reshape(-1), data)

    def test_chain_across_three_accelerators(self, rig):
        cluster, sess, acs = rig
        data = np.arange(1000, dtype=np.float64)
        ptrs = [sess.call(ac.mem_alloc(data.nbytes)) for ac in acs]
        sess.call(acs[0].memcpy_h2d(ptrs[0], data))
        sess.call(acs[0].peer_put(ptrs[0], data.nbytes, acs[1], ptrs[1]))
        sess.call(acs[1].peer_put(ptrs[1], data.nbytes, acs[2], ptrs[2]))
        out = sess.call(acs[2].memcpy_d2h(ptrs[2], data.nbytes))
        np.testing.assert_array_equal(
            np.asarray(out).view(np.float64).reshape(-1), data)

    def test_no_compute_node_data_traffic(self, rig):
        # The bulk bytes flow ac0 -> ac1 directly: the compute node's
        # endpoint only sees the small request/response messages.
        cluster, sess, acs = rig
        p0 = sess.call(acs[0].mem_alloc(16 * MiB))
        p1 = sess.call(acs[1].mem_alloc(16 * MiB))
        sess.call(acs[0].memcpy_h2d(p0, Phantom(16 * MiB)))
        before = cluster.fabric.bytes_moved
        cn_rx_before = cluster.fabric.endpoints["cn0"].rx
        sess.call(acs[0].peer_put(p0, 16 * MiB, acs[1], p1))
        moved = cluster.fabric.bytes_moved - before
        assert moved >= 16 * MiB  # the payload crossed the fabric once
        assert moved < 16 * MiB * 1.1  # ...and only once (plus control)

    def test_peer_put_faster_than_via_host(self, rig):
        cluster, sess, acs = rig
        nbytes = 32 * MiB
        p0 = sess.call(acs[0].mem_alloc(nbytes))
        p1 = sess.call(acs[1].mem_alloc(nbytes))
        sess.call(acs[0].memcpy_h2d(p0, Phantom(nbytes)))
        t0 = sess.now
        sess.call(acs[0].peer_put(p0, nbytes, acs[1], p1))
        t_direct = sess.now - t0
        t0 = sess.now
        staged = sess.call(acs[0].memcpy_d2h(p0, nbytes))
        sess.call(acs[1].memcpy_h2d(p1, staged))
        t_via_host = sess.now - t0
        assert t_direct < t_via_host * 0.75

    def test_overflow_rejected(self, rig):
        cluster, sess, acs = rig
        p0 = sess.call(acs[0].mem_alloc(100))
        p1 = sess.call(acs[1].mem_alloc(100))
        with pytest.raises(MiddlewareError):
            sess.call(acs[0].peer_put(p0, 500, acs[1], p1))

    def test_partial_put_from_a_typed_buffer(self, rig):
        # The source's dtype/shape must not ride a put that moves only
        # part of it: the peer would declare a 128 B view over its 64 B
        # allocation and raise out of its serve loop.
        cluster, sess, acs = rig
        data = np.arange(16, dtype=np.float64)
        p0 = sess.call(acs[0].mem_alloc(data.nbytes))
        p1 = sess.call(acs[1].mem_alloc(64))
        sess.call(acs[0].memcpy_h2d(p0, data))
        assert sess.call(acs[0].peer_put(p0, 64, acs[1], p1)).ok
        out = sess.call(acs[1].memcpy_d2h(p1, 64))
        assert np.asarray(out).tobytes() == data.tobytes()[:64]
        sess.call(acs[1].kernel_create("fill"))

    def test_source_side_accounts_staging_like_d2h(self, rig):
        # Device -> pinned -> NIC is the D2H path: a ring slot per block
        # from DMA start to send injection, and without GPUDirect a CPU
        # staging copy per block — so turning GPUDirect off costs a put
        # at least what it costs a D2H of the same buffer (the peer's
        # own staging comes on top).
        cluster, sess, acs = rig
        nbytes = 8 * MiB
        p0 = sess.call(acs[0].mem_alloc(nbytes))
        p1 = sess.call(acs[1].mem_alloc(nbytes))
        sess.call(acs[0].memcpy_h2d(p0, Phantom(nbytes)))
        source = cluster.daemons[0]
        source.stats.staging_peak = 0

        def penalty(op):
            took = []
            for gpudirect in (True, False):
                cfg = dataclasses.replace(acs[0].transfer,
                                          gpudirect=gpudirect)
                t0 = sess.now
                sess.call(op(cfg))
                took.append(sess.now - t0)
            return took[1] - took[0]

        put = penalty(lambda cfg: acs[0].peer_put(p0, nbytes, acs[1], p1,
                                                  transfer=cfg))
        assert source.stats.staging_peak > 0
        assert source.stats.staging_now == 0
        d2h = penalty(lambda cfg: acs[0].memcpy_d2h(p0, nbytes, transfer=cfg))
        assert put >= d2h > 0

    def test_phantom_peer_put(self, rig):
        cluster, sess, acs = rig
        p0 = sess.call(acs[0].mem_alloc(MiB))
        p1 = sess.call(acs[1].mem_alloc(MiB))
        sess.call(acs[0].memcpy_h2d(p0, Phantom(MiB)))
        sess.call(acs[0].peer_put(p0, MiB, acs[1], p1))
        out = sess.call(acs[1].memcpy_d2h(p1, MiB))
        assert isinstance(out, Phantom)


class TestPeerProgramIdentity:
    """Seeded peer programs: P2P vs staged must be bit-identical."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
    def test_p2p_matches_staged_and_oracle(self, seed):
        from ..harness import run_peer_modes
        expected, outcomes = run_peer_modes(seed)
        for mode, out in outcomes.items():
            assert out.results == expected, (
                f"{mode}: downloaded bytes diverged from the host oracle")
            out.assert_monotonic()
        assert outcomes["p2p"].results == outcomes["staged"].results

    @pytest.mark.parametrize("seed", [3, 1234])
    def test_identity_holds_across_switches(self, seed):
        from repro.netsim import TopologySpec

        from ..harness import run_peer_modes
        expected, outcomes = run_peer_modes(
            seed, n_devices=4, topology=TopologySpec(kind="ring", dims=(2,)))
        for out in outcomes.values():
            assert out.results == expected

    def test_replay_is_deterministic(self):
        from ..harness import run_peer_modes
        first = run_peer_modes(5)[1]["p2p"]
        second = run_peer_modes(5)[1]["p2p"]
        assert first.results == second.results
        assert first.trace == second.trace


class TestPeerPutAcrossSwitches:
    @pytest.fixture
    def topo_rig(self):
        from repro.cluster import ClusterSpec
        from repro.netsim import TopologySpec
        cluster = Cluster(ClusterSpec(
            n_compute=1, n_accelerators=2,
            topology=TopologySpec(kind="ring", dims=(2,))))
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=2))
        acs = [cluster.remote(0, h) for h in handles]
        return cluster, sess, acs

    def test_bulk_bytes_cross_the_trunk_once(self, topo_rig):
        # ac0 sits on sw0, ac1 on sw1 (round-robin attachment): a
        # device-direct put sends the payload over the trunk exactly
        # once, and the compute node's endpoint never carries the bulk.
        cluster, sess, acs = topo_rig
        assert cluster.fabric.hop_count("ac0", "ac1") == 1
        nbytes = 4 * MiB
        p0 = sess.call(acs[0].mem_alloc(nbytes))
        p1 = sess.call(acs[1].mem_alloc(nbytes))
        sess.call(acs[0].memcpy_h2d(p0, Phantom(nbytes)))
        trunk_before = sum(cluster.fabric.trunk_bytes.values())
        cn = cluster.fabric.endpoints["cn0"]
        cn_before = cn.tx_bytes + cn.rx_bytes
        sess.call(acs[0].peer_put(p0, nbytes, acs[1], p1))
        trunk = sum(cluster.fabric.trunk_bytes.values()) - trunk_before
        cn_bytes = cn.tx_bytes + cn.rx_bytes - cn_before
        assert trunk >= nbytes  # the payload crossed the trunk...
        assert trunk < nbytes * 1.1  # ...once, plus control envelopes
        assert cn_bytes < nbytes * 0.01  # the CN saw control traffic only

    def test_cross_switch_put_arrives_intact(self, topo_rig):
        cluster, sess, acs = topo_rig
        data = np.random.default_rng(1).standard_normal(4000)
        p0 = sess.call(acs[0].mem_alloc(data.nbytes))
        p1 = sess.call(acs[1].mem_alloc(data.nbytes))
        sess.call(acs[0].memcpy_h2d(p0, data))
        sess.call(acs[0].peer_put(p0, data.nbytes, acs[1], p1))
        out = sess.call(acs[1].memcpy_d2h(p1, data.nbytes))
        np.testing.assert_array_equal(
            np.asarray(out).view(np.float64).reshape(-1), data)
