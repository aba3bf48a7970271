"""Tests for the metrics reporting and the CLI."""

import importlib
import io
import json
import pkgutil

import numpy as np
import pytest

import repro
from repro.analysis.cli import EXPERIMENTS, list_experiments, main, run_experiment
from repro.analysis.metrics import collect
from repro.cluster import Cluster, paper_testbed
from repro.mpisim import Phantom
from repro.units import MiB


class TestMetrics:
    @pytest.fixture
    def busy_cluster(self):
        cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=2))
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0])
        ptr = sess.call(ac.mem_alloc(4 * MiB))
        sess.call(ac.memcpy_h2d(ptr, Phantom(4 * MiB)))
        sess.call(ac.kernel_run("dgemm", {"A": 0, "B": 0, "C": 0,
                                          "m": 512, "n": 512, "k": 512},
                                real=False))
        out = sess.call(ac.memcpy_d2h(ptr, 2 * MiB))
        assert isinstance(out, Phantom)
        return cluster

    def test_collect_counts_traffic(self, busy_cluster):
        report = collect(busy_cluster)
        a0 = report.accelerators[0]
        assert a0.bytes_h2d == 4 * MiB
        assert a0.bytes_d2h == 2 * MiB
        assert a0.kernels_launched == 1
        assert a0.daemon_requests >= 4
        assert report.total_offload_bytes == 6 * MiB

    def test_idle_accelerator_untouched(self, busy_cluster):
        report = collect(busy_cluster)
        a1 = report.accelerators[1]
        assert a1.bytes_h2d == 0
        assert a1.kernels_launched == 0
        assert a1.state == "free"

    def test_fabric_accounting(self, busy_cluster):
        report = collect(busy_cluster)
        assert report.fabric_bytes > 6 * MiB  # payloads + control traffic
        assert report.fabric_messages > 10

    def test_utilizations_bounded(self, busy_cluster):
        report = collect(busy_cluster)
        assert 0 <= report.mean_gpu_utilization <= 1
        assert 0 <= report.pool_utilization <= 1
        for a in report.accelerators:
            assert 0 <= a.gpu_busy_seconds <= report.elapsed


class TestCli:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
            "ext_tcp", "ext_blocksize", "ext_utilization", "ext_contention",
            "ext_faults", "ext_gpudirect", "ext_lookahead", "ext_batch",
            "ext_async",
        }

    def test_list(self):
        out = io.StringIO()
        list_experiments(out)
        text = out.getvalue()
        for name in EXPERIMENTS:
            assert name in text

    def test_run_unknown_rejected(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            run_experiment("fig99")

    def test_run_quick_with_json(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "fig.json"
        run_experiment("ext_utilization", quick=True,
                       json_path=str(path), out=out)
        assert "shape check passed" in out.getvalue()
        data = json.loads(path.read_text())
        assert data["fig_id"] == "ext-utilization"

    @pytest.mark.parametrize("name", ["fig06", "fig09", "ext_async"])
    def test_launches_in_one_process_agree(self, name):
        """Traced == untraced == a second untraced run, with no reset in
        between: request ids are per cluster and are not a size input, so
        virtual times do not depend on what ran earlier in the process."""
        from repro.obs import trace_session
        mod = EXPERIMENTS[name]
        with trace_session():
            traced = mod.run(quick=True).to_dict()
        assert mod.run(quick=True).to_dict() == traced
        EXPERIMENTS["ext_batch"].run(quick=True)    # unrelated traffic
        assert mod.run(quick=True).to_dict() == traced

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        assert "fig05" in capsys.readouterr().out

    def test_main_run(self, capsys):
        assert main(["run", "ext_utilization", "--quick"]) == 0
        assert "shape check passed" in capsys.readouterr().out

    def test_removed_perf_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf"])
        assert exc.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err


def test_package_exports_resolve():
    """No package under ``repro`` advertises a name it no longer defines."""
    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg]
    dangling = [f"{pkg.__name__}.{name}" for pkg in packages
                for name in getattr(pkg, "__all__", ())
                if not hasattr(pkg, name)]
    assert not dangling


class TestMicExtensibility:
    """The conclusion's claim: the stack is not CUDA/GPU-specific."""

    def test_middleware_drives_mic_pool_unchanged(self, monkeypatch):
        from repro.cluster import ClusterSpec, node
        from repro.gpusim import XEON_PHI_KNC

        monkeypatch.setattr(node, "ACCELERATOR_GPU", XEON_PHI_KNC)
        cluster = Cluster(ClusterSpec(n_compute=1, n_accelerators=2))
        sess = cluster.session()
        handles = sess.call(cluster.arm_client(0).alloc(count=1))
        ac = cluster.remote(0, handles[0])
        data = np.arange(256, dtype=np.float64)
        ptr = sess.call(ac.mem_alloc(data.nbytes))
        sess.call(ac.memcpy_h2d(ptr, data))
        sess.call(ac.kernel_run("dscal", {"x": ptr, "n": 256, "alpha": 2.0}))
        out = sess.call(ac.memcpy_d2h(ptr, data.nbytes))
        np.testing.assert_allclose(out, 2 * data)

    def test_mic_outcomputes_c1060(self, monkeypatch):
        from repro.cluster import ClusterSpec, node
        from repro.gpusim import XEON_PHI_KNC
        from repro.workloads.linalg import qr_factorize

        def gflops_with(gpu_spec):
            monkeypatch.setattr(node, "ACCELERATOR_GPU", gpu_spec)
            cluster = Cluster(ClusterSpec(n_compute=1, n_accelerators=1))
            sess = cluster.session()
            handles = sess.call(cluster.arm_client(0).alloc(count=1))
            acs = [cluster.remote(0, handles[0])]
            res = sess.call(qr_factorize(cluster.engine,
                                         cluster.compute_nodes[0].cpu,
                                         acs, n=2048, nb=128))
            return res.gflops

        from repro.gpusim import TESLA_C1060
        assert gflops_with(XEON_PHI_KNC) > gflops_with(TESLA_C1060) * 1.3
