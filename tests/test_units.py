"""Tests for unit helpers and the exception hierarchy."""

import pytest

import repro
from repro import errors, units


class TestUnits:
    def test_constants(self):
        assert units.MiB == 1024 ** 2
        assert units.GiB == 1024 ** 3
        assert units.KiB == 1024

    def test_bandwidth_conversions_inverse(self):
        assert units.mib_per_s(units.bytes_per_s(2660.0)) == pytest.approx(2660.0)

    def test_gflops(self):
        assert units.gflops(2e9, 1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            units.gflops(1.0, 0.0)

    def test_fmt_time_scales(self):
        assert units.fmt_time(120.0) == "2.00 min"
        assert units.fmt_time(2.5) == "2.500 s"
        assert units.fmt_time(0.0035) == "3.500 ms"
        assert units.fmt_time(2.2e-6) == "2.20 us"


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.SimulationError, errors.ReproError)
        assert issubclass(errors.MPIError, errors.ReproError)
        assert issubclass(errors.DeviceMemoryError, errors.GPUError)
        assert issubclass(errors.ProtocolError, errors.MiddlewareError)
        assert issubclass(errors.AcceleratorFault, errors.ReproError)

    def test_version(self):
        assert repro.__version__


class TestTracer:
    """Span tracing on a whole cluster: one ``net.flow`` per message."""

    def test_cluster_tracing_integration(self):
        from repro.cluster import Cluster, paper_testbed
        from repro.obs import enable_tracing
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
        obs = enable_tracing(cluster.engine)
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0])
        sess.call(ac.kernel_create("fill"))
        flows = obs.by_name("net.flow")
        assert len(flows) >= 4
        assert len(flows) == cluster.fabric.messages_sent
        assert not obs.open_spans
