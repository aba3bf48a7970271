"""Backend conformance: one API_METHODS list, three interchangeable backends.

The same op program must produce identical results on the remote
middleware path, the node-attached local baseline, and the failover
wrapper, and the pre-unification call shapes are rejected uniformly.
``peer_put`` is the remote front end's alone.
"""

import numpy as np
import pytest

from repro.baselines import LocalAccelerator
from repro.cluster import Cluster, paper_testbed
from repro.core import FailoverConfig
from repro.core.interface import API_METHODS
from repro.errors import MiddlewareError

BACKENDS = ("remote", "local", "resilient")


@pytest.fixture
def rig():
    cluster = Cluster(paper_testbed(n_compute=1, n_accelerators=2,
                                    local_gpus=True))
    return cluster, cluster.session()


def make_backend(kind, cluster, sess):
    if kind == "local":
        node = cluster.compute_nodes[0]
        return LocalAccelerator(cluster.engine, node.local_gpu, node.cpu)
    handle = sess.call(cluster.arm_client(0).alloc(count=1, job=kind))[0]
    if kind == "remote":
        return cluster.remote(0, handle)
    return cluster.resilient(0, handle, config=FailoverConfig(job=kind))


@pytest.fixture(params=BACKENDS)
def backend(request, rig):
    cluster, sess = rig
    return make_backend(request.param, cluster, sess)


def run_op_program(sess, ac):
    """The shared conformance program: alloc, copy, kernel, copy, free."""
    data = np.arange(256, dtype=np.float64)
    ptr = sess.call(ac.mem_alloc(data.nbytes))
    sess.call(ac.memcpy_h2d(ptr, data))
    sess.call(ac.kernel_create("dscal"))
    ac.kernel_set_args("dscal", {"x": ptr, "n": 256, "alpha": 2.0})
    sess.call(ac.kernel_run("dscal"))
    out = sess.call(ac.memcpy_d2h(ptr, data.nbytes))
    pong = sess.call(ac.ping())
    sess.call(ac.mem_free(ptr))
    return out, pong


class TestStructuralConformance:
    def test_backend_has_every_api_method(self, backend):
        for name in API_METHODS:
            assert callable(getattr(backend, name)), name

    def test_api_methods_are_the_papers_seven_calls_and_ping(self):
        # Listing 2: acMemAlloc, acMemFree, acMemCpy (both directions),
        # acKernelCreate, acKernelSetArgs, acKernelRun; plus the probe.
        assert API_METHODS == (
            "mem_alloc", "mem_free", "memcpy_h2d", "memcpy_d2h",
            "kernel_create", "kernel_set_args", "kernel_run", "ping")


class TestBehavioralConformance:
    def test_same_program_same_results(self, rig):
        cluster, sess = rig
        outs = {}
        for kind in BACKENDS:
            ac = make_backend(kind, cluster, sess)
            out, pong = run_op_program(sess, ac)
            assert pong is not None
            outs[kind] = out
        expected = np.arange(256, dtype=np.float64) * 2.0
        for kind, out in outs.items():
            np.testing.assert_array_equal(out, expected, err_msg=kind)

    def test_unknown_kernel_rejected_everywhere(self, rig, backend):
        _, sess = rig
        with pytest.raises(MiddlewareError, match="unknown kernel"):
            sess.call(backend.kernel_create("no-such-kernel"))


class TestOptionalCapabilities:
    def test_remote_supports_peer_put(self, rig):
        cluster, sess = rig
        a = make_backend("remote", cluster, sess)
        b = cluster.remote(0, sess.call(
            cluster.arm_client(0).alloc(count=1, job="peer"))[0])
        data = np.arange(128, dtype=np.float64)
        src = sess.call(a.mem_alloc(data.nbytes))
        dst = sess.call(b.mem_alloc(data.nbytes))
        sess.call(a.memcpy_h2d(src, data))
        sess.call(a.peer_put(src, data.nbytes, b, dst))
        out = sess.call(b.memcpy_d2h(dst, data.nbytes))
        np.testing.assert_array_equal(out, data)


class TestDeprecationShims:
    """The shims' window has closed: old call shapes fail loudly."""

    def test_positional_pinned_raises(self, rig, backend):
        # A bool in the transfer slot must not be taken as a transfer
        # policy (or silently ignored) on any backend.
        _, sess = rig
        data = np.arange(64, dtype=np.float64)
        ptr = sess.call(backend.mem_alloc(data.nbytes))
        with pytest.raises(TypeError, match="pinned= keyword"):
            sess.call(backend.memcpy_h2d(ptr, data, False))
        with pytest.raises(TypeError, match="pinned= keyword"):
            sess.call(backend.memcpy_d2h(ptr, data.nbytes, True))

    def test_keyword_pinned_does_not_warn(self, rig, recwarn):
        cluster, sess = rig
        local = make_backend("local", cluster, sess)
        data = np.arange(64, dtype=np.float64)
        ptr = sess.call(local.mem_alloc(data.nbytes))
        sess.call(local.memcpy_h2d(ptr, data, pinned=False))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestPeerPutSignatureShim:
    def _pair(self, cluster, sess):
        a = make_backend("remote", cluster, sess)
        b = cluster.remote(0, sess.call(
            cluster.arm_client(0).alloc(count=1, job="shim-peer"))[0])
        data = np.arange(64, dtype=np.float64)
        src = sess.call(a.mem_alloc(data.nbytes))
        dst = sess.call(b.mem_alloc(data.nbytes))
        sess.call(a.memcpy_h2d(src, data))
        return a, b, src, dst, data

    @pytest.mark.parametrize("backend", ["remote"], indirect=True)
    def test_fifth_positional_raises(self, rig, backend):
        with pytest.raises(TypeError, match="positional"):
            backend.peer_put(0, 8, backend, 0, None)

    def test_keyword_transfer_does_not_warn(self, rig, recwarn):
        cluster, sess = rig
        a, b, src, dst, data = self._pair(cluster, sess)
        sess.call(a.peer_put(src, data.nbytes, b, dst, transfer=None))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_too_many_positionals_is_a_type_error(self, rig):
        cluster, sess = rig
        a, b, src, dst, data = self._pair(cluster, sess)
        with pytest.raises(TypeError, match="positional"):
            a.peer_put(src, data.nbytes, b, dst, None, True)

    def test_positional_and_keyword_transfer_conflict(self, rig):
        cluster, sess = rig
        a, b, src, dst, data = self._pair(cluster, sess)
        from repro.core import DEFAULT_TRANSFER
        with pytest.raises(TypeError, match="positional"):
            a.peer_put(src, data.nbytes, b, dst, DEFAULT_TRANSFER,
                       transfer=DEFAULT_TRANSFER)
