"""Backend conformance: one API_METHODS list, three interchangeable backends.

The same op program must produce identical results on the remote
middleware path, the node-attached local baseline, and the failover
wrapper; optional capabilities degrade through the typed UnsupportedOp;
the context-manager lifecycle behaves uniformly and the pre-unification
call shapes are rejected uniformly.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import LocalAccelerator
from repro.cluster import Cluster, paper_testbed
from repro.core import FailoverConfig
from repro.core.interface import API_METHODS, CapabilitySet
from repro.errors import MiddlewareError, UnsupportedOp

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
    @pytest.mark.parametrize("kind", ("local", "resilient"))
    def test_peer_put_raises_typed_unsupported(self, rig, kind):
        cluster, sess = rig
        ac = make_backend(kind, cluster, sess)
        with pytest.raises(UnsupportedOp) as exc_info:
            sess.call(ac.peer_put(0, 1024, None, 0))
        assert exc_info.value.op == "peer_put"
        assert exc_info.value.backend == type(ac).__name__

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


class TestLifecycle:
    def test_with_releases_live_allocations(self, rig, backend):
        _, sess = rig
        with backend as ac:
            assert ac is backend
            ptr = sess.call(ac.mem_alloc(4096))
            assert ptr is not None
        # Exiting drove release(): a second program can reuse the backend
        # and the freed address is gone from its live-set.
        live = getattr(backend, "_live", None)
        if live is None:
            live = backend._vmap      # the resilient wrapper's ledger
        assert live == {}

    def test_with_body_exception_still_released_and_propagates(self, rig,
                                                               backend):
        _, sess = rig
        with pytest.raises(RuntimeError, match="body failed"):
            with backend as ac:
                sess.call(ac.mem_alloc(4096))
                raise RuntimeError("body failed")
        live = getattr(backend, "_live", None)
        if live is None:
            live = backend._vmap
        assert live == {}

    def test_double_close_is_harmless(self, rig, backend):
        _, sess = rig
        sess.call(backend.mem_alloc(1024))
        backend.close()
        backend.close()

    def test_stream_with_flushes_on_exit(self, rig, backend):
        with backend.stream() as s:
            fut = s.mem_alloc(1024)
            s.kernel_create("dscal")
        assert fut.ok                     # exit drove synchronize()
        assert not s._queue

    def test_stream_with_body_exception_not_masked(self, rig, backend):
        with pytest.raises(RuntimeError, match="body failed"):
            with backend.stream() as s:
                s.kernel_create("no-such-kernel")   # will fail the stream
                raise RuntimeError("body failed")


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


class TestCapabilityNegotiation:
    """capabilities() is the query; UnsupportedOp is the enforcement.
    The two must always agree."""

    def test_every_backend_reports_capabilities(self, backend):
        caps = backend.capabilities()
        assert isinstance(caps, CapabilitySet)
        for field in ("peer_put", "streams", "fabric"):
            assert isinstance(getattr(caps, field), bool)

    def test_capability_set_is_frozen(self, backend):
        caps = backend.capabilities()
        with pytest.raises(dataclasses.FrozenInstanceError):
            caps.peer_put = True

    def test_capabilities_agree_with_unsupported(self, rig, backend):
        """peer_put=False means a peer-less direct call raises the typed
        error; peer_put=True means the op is natively available."""
        _, sess = rig
        caps = backend.capabilities()
        if caps.peer_put:
            assert type(backend).__name__ == "RemoteAccelerator"
        else:
            with pytest.raises(UnsupportedOp):
                sess.call(backend.peer_put(0, 1024, None, 0))

    def test_remote_advertises_the_fabric(self, rig):
        cluster, sess = rig
        caps = make_backend("remote", cluster, sess).capabilities()
        assert caps.peer_put and caps.streams and caps.fabric

    def test_wrapper_masks_delegate_capabilities(self, rig):
        # The failover wrapper replays ops from host shadows; the native
        # fabric path would bypass that, so the wrapper must not
        # advertise it even though its delegate does.
        cluster, sess = rig
        resilient = make_backend("resilient", cluster, sess)
        assert resilient._ac.capabilities().peer_put
        assert not resilient.capabilities().peer_put

    def test_local_peer_put_stages_instead_of_raising(self, rig):
        # A capable peer gets the degraded two-hop path; only a peer
        # without memcpy_h2d is a typed UnsupportedOp.
        cluster, sess = rig
        local = make_backend("local", cluster, sess)
        data = np.arange(96, dtype=np.float64)
        src = sess.call(local.mem_alloc(data.nbytes))
        dst = sess.call(local.mem_alloc(data.nbytes))
        sess.call(local.memcpy_h2d(src, data))
        sess.call(local.peer_put(src, data.nbytes, local, dst))
        out = sess.call(local.memcpy_d2h(dst, data.nbytes))
        np.testing.assert_array_equal(out, data)

    def test_resilient_fallback_reaches_a_remote_peer(self, rig):
        cluster, sess = rig
        a = make_backend("resilient", cluster, sess)
        b = cluster.remote(0, sess.call(
            cluster.arm_client(0).alloc(count=1, job="peer-b"))[0])
        data = np.arange(128, dtype=np.float64)
        src = sess.call(a.mem_alloc(data.nbytes))
        dst = sess.call(b.mem_alloc(data.nbytes))
        sess.call(a.memcpy_h2d(src, data))
        sess.call(a.peer_put(src, data.nbytes, b, dst))
        out = sess.call(b.memcpy_d2h(dst, data.nbytes))
        np.testing.assert_array_equal(out, data)


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
