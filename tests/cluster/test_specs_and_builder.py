"""Tests for hardware specs and cluster assembly."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    CPUSpec,
    XEON_X5670_DUAL,
    paper_testbed,
)
from repro.errors import ClusterConfigError
from repro.gpusim import TESLA_C1060


class TestSpecs:
    def test_paper_testbed_defaults(self):
        spec = paper_testbed()
        assert spec.n_compute == 4
        assert spec.n_accelerators == 3
        assert spec.network.name == "ib-qdr-mpi"
        assert spec.compute.local_gpu is None
        node = Cluster(spec).accelerator_nodes[0]
        assert node.gpu.spec is TESLA_C1060
        assert node.cpu is XEON_X5670_DUAL

    def test_local_gpus_variant(self):
        spec = paper_testbed(local_gpus=True)
        assert spec.compute.local_gpu is TESLA_C1060

    def test_cpu_flops_time(self):
        t = XEON_X5670_DUAL.flops_time(11e9)
        assert t == pytest.approx(1.0)

    def test_cpu_validation(self):
        with pytest.raises(ClusterConfigError):
            CPUSpec("bad", 0, 1.0, 1, 1, 1, 0, 0)
        with pytest.raises(ClusterConfigError):
            CPUSpec("bad", 1, 1.0, 1, 1, 1, -1, 0)

    def test_cluster_spec_validation(self):
        with pytest.raises(ClusterConfigError):
            ClusterSpec(n_compute=0, n_accelerators=1)
        with pytest.raises(ClusterConfigError):
            ClusterSpec(n_compute=1, n_accelerators=-1)


class TestClusterAssembly:
    def test_ranks_and_endpoints(self):
        cluster = Cluster(paper_testbed(n_compute=2, n_accelerators=3))
        assert cluster.comm.size == 6  # 2 CN + 3 AC + ARM
        assert cluster.arm_rank_index == 5
        assert [n.rank.index for n in cluster.compute_nodes] == [0, 1]
        assert [n.rank.index for n in cluster.accelerator_nodes] == [2, 3, 4]
        assert len(cluster.daemons) == 3

    def test_local_gpu_created_only_when_asked(self):
        dyn = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
        assert dyn.compute_nodes[0].local_gpu is None
        static = Cluster(paper_testbed(n_compute=1, n_accelerators=0,
                                       local_gpus=True))
        assert static.compute_nodes[0].local_gpu is not None

    def test_arm_registry_matches_accelerators(self):
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=3))
        assert sorted(cluster.arm.records) == [0, 1, 2]
        assert cluster.arm.free_count() == 3

    def test_accelerator_for_handle(self):
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=2))
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=2))
        for h in handles:
            node = cluster.accelerator_for_handle(h)
            assert node.ac_id == h.ac_id

    def test_zero_accelerator_cluster(self):
        cluster = Cluster(paper_testbed(n_compute=2, n_accelerators=0))
        assert cluster.arm.free_count() == 0
        assert cluster.comm.size == 3
