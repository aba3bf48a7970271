"""Direct numerics tests for the remaining built-in kernels."""

import numpy as np
import pytest

from repro.gpusim import GPUDevice, TESLA_C1060
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def dev(eng):
    return GPUDevice(eng, TESLA_C1060)


def run(eng, ev):
    def proc():
        out = yield ev
        return out

    return eng.run(until=eng.process(proc()))


class TestFill:
    def test_fills_value(self, eng, dev):
        n = 50
        p = dev.memory.malloc(8 * n)
        rc = run(eng, dev.launch("fill", {"dst": p, "n": n, "value": 2.5}))
        assert rc == 0
        np.testing.assert_array_equal(
            dev.memory.view(p, "float64", (n,)), np.full(n, 2.5))

    def test_fill_int_dtype(self, eng, dev):
        n = 10
        p = dev.memory.malloc(8 * n)
        run(eng, dev.launch("fill", {"dst": p, "n": n, "value": 7,
                                     "dtype": "int64"}))
        np.testing.assert_array_equal(
            dev.memory.view(p, "int64", (n,)), np.full(n, 7))


class TestDot:
    def test_dot_matches_numpy(self, eng, dev):
        rng = np.random.default_rng(0)
        n = 200
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        px, py = dev.memory.malloc(8 * n), dev.memory.malloc(8 * n)
        pout = dev.memory.malloc(8)
        dev.memory.write_array(px, x)
        dev.memory.write_array(py, y)
        dev.memory.set_array_meta(pout, "float64", (1,))
        run(eng, dev.launch("ddot", {"x": px, "y": py, "out": pout, "n": n}))
        assert dev.memory.read_array(pout)[0] == pytest.approx(float(x @ y))


class TestSyrk:
    def test_syrk_matches_numpy(self, eng, dev):
        rng = np.random.default_rng(1)
        n, k = 8, 5
        A = rng.standard_normal((n, k))
        C = rng.standard_normal((n, n))
        pa, pc = dev.memory.malloc(A.nbytes), dev.memory.malloc(C.nbytes)
        dev.memory.write_array(pa, A)
        dev.memory.write_array(pc, C)
        run(eng, dev.launch("dsyrk", {"A": pa, "C": pc, "n": n, "k": k,
                                      "alpha": 2.0, "beta": 0.5}))
        np.testing.assert_allclose(dev.memory.read_array(pc),
                                   2.0 * A @ A.T + 0.5 * C)

    def test_syrk_cost_cheaper_than_gemm(self, eng, dev):
        syrk = dev.registry.get("dsyrk").cost({"n": 512, "k": 512},
                                              TESLA_C1060)
        gemm = dev.registry.get("dgemm").cost({"m": 512, "n": 512, "k": 512},
                                              TESLA_C1060)
        assert syrk < gemm


class TestGemmBeta:
    def test_beta_zero_ignores_garbage(self, eng, dev):
        rng = np.random.default_rng(2)
        m = n = k = 6
        A, B = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        pa, pb = dev.memory.malloc(A.nbytes), dev.memory.malloc(B.nbytes)
        pc = dev.memory.malloc(8 * m * n)
        dev.memory.write_array(pa, A)
        dev.memory.write_array(pb, B)
        dev.memory.write_array(pc, np.full((m, n), np.nan))
        run(eng, dev.launch("dgemm", {"A": pa, "B": pb, "C": pc,
                                      "m": m, "n": n, "k": k, "beta": 0.0}))
        np.testing.assert_allclose(dev.memory.read_array(pc), A @ B)


def _reference_update(c, a, b, alpha, beta):
    """The BLAS-3 update as the kernels computed it with temporaries."""
    c = c.copy()
    if beta == 0.0:
        c[:] = alpha * (a @ b)
    else:
        np.multiply(c, beta, out=c)
        c += alpha * (a @ b)
    return c


class TestUpdateWithoutTemporaries:
    """dgemm / dsyrk write the product into C (or a temporary bound at
    launch) and stay bit-identical to the temporaries they replaced."""

    @pytest.mark.parametrize("beta", [0.0, 1.0, 0.5])
    @pytest.mark.parametrize("alpha", [1.0, -1.0, 0.5])
    @pytest.mark.parametrize("ta, tb", [(False, False), (True, False),
                                        (False, True), (True, True)])
    def test_gemm(self, eng, dev, ta, tb, alpha, beta):
        rng = np.random.default_rng(11)
        m, n, k = 64, 48, 40
        A = rng.standard_normal((k, m) if ta else (m, k))
        B = rng.standard_normal((n, k) if tb else (k, n))
        C = rng.standard_normal((m, n))
        pa, pb, pc = (dev.memory.malloc(arr.nbytes) for arr in (A, B, C))
        for addr, arr in ((pa, A), (pb, B), (pc, C)):
            dev.memory.write_array(addr, arr)
        run(eng, dev.launch("dgemm", {"A": pa, "B": pb, "C": pc, "m": m,
                                      "n": n, "k": k, "ta": ta, "tb": tb,
                                      "alpha": alpha, "beta": beta}))
        want = _reference_update(C, A.T if ta else A, B.T if tb else B,
                                 alpha, beta)
        assert np.array_equal(dev.memory.read_array(pc), want)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 0.5])
    @pytest.mark.parametrize("alpha", [1.0, -1.0, 0.5])
    def test_syrk(self, eng, dev, alpha, beta):
        rng = np.random.default_rng(12)
        n, k = 48, 40
        A = rng.standard_normal((n, k))
        C = rng.standard_normal((n, n))
        pa, pc = dev.memory.malloc(A.nbytes), dev.memory.malloc(C.nbytes)
        dev.memory.write_array(pa, A)
        dev.memory.write_array(pc, C)
        run(eng, dev.launch("dsyrk", {"A": pa, "C": pc, "n": n, "k": k,
                                      "alpha": alpha, "beta": beta}))
        want = _reference_update(C, A, A.T, alpha, beta)
        assert np.array_equal(dev.memory.read_array(pc), want)
