"""End-to-end properties of the declared-size wire model.

Two contracts the per-frame unit tests (``tests/core/test_protocol.py``)
cannot see: whole workloads never serialise a protocol frame, and a
workload's result does not depend on what ran before it in the process —
request ids are per cluster and are not a size input, so there is no
process-wide stream to reset between runs.  (The CLI experiments' half of
that is ``tests/analysis/test_metrics_cli.py::
test_launches_in_one_process_agree``.)
"""

import pickle
import types

import pytest

from repro.chaos import ChaosConfig, scenarios
from repro.cluster import Cluster, paper_testbed
from repro.mpisim import datatypes
from repro.workloads import collective, ensemble
from repro.workloads.linalg import qr_factorize

ENSEMBLE = ensemble.EnsembleConfig(n_jobs=32, n_accelerators=4, n_gateways=2,
                                   slots_per_device=4)
CHAOS = ChaosConfig(n_tenants=24, window_s=10e-3)      # the CLI's --quick
COLLECTIVE = collective.CollectiveConfig(chunk_elements=1024)


def _small_qr():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=3))
    sess = cluster.session()
    handles = sess.call(cluster.arm_client(0).alloc(count=3))
    acs = [cluster.remote(0, h) for h in handles]
    return sess.call(qr_factorize(
        cluster.engine, cluster.compute_nodes[0].cpu, acs, 512, 128))


@pytest.fixture
def no_pickle(monkeypatch):
    """Make the user-payload fallback of ``payload_nbytes`` raise."""
    def dumps(obj, *args, **kwargs):
        raise AssertionError(f"a {type(obj).__name__} reached pickle.dumps")

    monkeypatch.setattr(datatypes, "pickle", types.SimpleNamespace(
        dumps=dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
    with pytest.raises(AssertionError, match="reached pickle"):
        datatypes.payload_nbytes(("user", "payload"))


class TestNoProtocolFrameIsPickled:
    def test_qr_with_phantom_payloads(self, no_pickle):
        res = _small_qr()
        assert not res.real and res.seconds > 0.0

    def test_job_ensemble_with_coalescing(self, no_pickle):
        report = ensemble.run(ENSEMBLE)
        assert report.done == ENSEMBLE.n_jobs
        assert report.coalesce["frames_out"] > 0

    def test_chaos_partition(self, no_pickle):
        report = scenarios.run("partition", CHAOS)
        assert report.stuck == 0 and report.corrupted == 0

    def test_ring_allreduce_p2p(self, no_pickle):
        result = collective.run_once(COLLECTIVE, "p2p")
        assert result.duration_s > 0.0


def _draw_ids(n=5000):
    """Burn ``n`` request ids on an unrelated cluster; returns the first."""
    ids = Cluster(paper_testbed(n_compute=1, n_accelerators=1)).comm.ids
    first = next(ids)
    for _ in range(n - 1):
        next(ids)
    return first


class TestRepeatableWithoutAReset:
    def test_every_cluster_starts_at_request_id_one(self):
        assert _draw_ids() == 1
        assert _draw_ids() == 1

    def test_a_request_sees_its_clusters_ids(self):
        # Two rigs in one process hand their first request the same id.
        seen = []
        for _ in range(2):
            cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=1))
            sess = cluster.session()
            sess.call(cluster.arm_client(0).alloc(count=1))
            seen.append(next(cluster.comm.ids))
        assert seen[0] == seen[1] > 1

    @pytest.mark.parametrize("run, cfg", [
        (ensemble.run, ENSEMBLE),
        (lambda cfg: scenarios.run("steady", cfg), CHAOS),
        (lambda cfg: scenarios.run("partition", cfg), CHAOS),
    ], ids=["ensemble", "chaos-steady", "chaos-partition"])
    def test_workload_repeats(self, run, cfg):
        first = run(cfg)
        _small_qr()             # thousands of ids, on its own cluster
        _draw_ids()
        again = run(cfg)
        assert again.digest == first.digest
        assert again.duration_s == first.duration_s
        assert again.latency_p99_s == first.latency_p99_s
