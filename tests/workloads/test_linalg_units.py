"""Unit tests for distribution and CPU panel numerics."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads.linalg import BlockCyclic, householder_panel
from repro.workloads.linalg.panel import (
    apply_block_reflector,
    form_t,
    panel_qr_flops,
    potf2,
    potf2_flops,
)


def test_importing_the_stack_does_not_load_scipy():
    # Only two kernel bodies solve with scipy; each imports it when it
    # runs, so a process that never solves never pays for loading it.
    import repro
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    code = ("import sys, repro.cluster, repro.core, repro.jobs, repro.chaos, "
            "repro.workloads.linalg\n"
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, "importing repro pulled scipy in"


class TestBlockCyclic:
    def test_panel_count(self):
        assert BlockCyclic(1024, 128, 2).n_panels == 8
        assert BlockCyclic(1000, 128, 2).n_panels == 8
        assert BlockCyclic(1025, 128, 2).n_panels == 9

    def test_round_robin_ownership(self):
        d = BlockCyclic(1024, 128, 3)
        assert [d.owner(j) for j in range(8)] == [0, 1, 2, 0, 1, 2, 0, 1]

    def test_panels_partition_columns(self):
        d = BlockCyclic(1000, 128, 3)
        cols = []
        for j in range(d.n_panels):
            s = d.cols(j)
            cols.extend(range(s.start, s.stop))
        assert cols == list(range(1000))

    def test_last_panel_narrow(self):
        d = BlockCyclic(1000, 128, 2)
        assert d.width(d.n_panels - 1) == 1000 - 7 * 128

    def test_panels_of_is_partition(self):
        d = BlockCyclic(2048, 128, 3)
        all_panels = sorted(p for g in range(3) for p in d.panels_of(g))
        assert all_panels == list(range(d.n_panels))

    def test_trailing_panels(self):
        d = BlockCyclic(1024, 128, 2)
        assert d.trailing_panels_of(0, 3) == [4, 6]
        assert d.trailing_panels_of(1, 3) == [5, 7]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            BlockCyclic(0, 128, 1)
        with pytest.raises(WorkloadError):
            BlockCyclic(128, 0, 1)
        with pytest.raises(WorkloadError):
            BlockCyclic(128, 128, 0)
        with pytest.raises(WorkloadError):
            BlockCyclic(128, 64, 1).owner(5)

    @given(n=st.integers(1, 600), nb=st.integers(1, 130), g=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_distribution_properties(self, n, nb, g):
        d = BlockCyclic(n, nb, g)
        widths = [d.width(j) for j in range(d.n_panels)]
        assert sum(widths) == n
        assert all(0 < w <= nb for w in widths)
        owners = {j: d.owner(j) for j in range(d.n_panels)}
        for gpu in range(g):
            assert d.panels_of(gpu) == [j for j, o in owners.items() if o == gpu]


class TestHouseholderPanel:
    def test_reproduces_r(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((40, 8))
        V, T, R = householder_panel(A)
        # Applying Q^T to the original panel must give [[R],[0]].
        C = A.copy()
        apply_block_reflector(V, T, C)
        np.testing.assert_allclose(C[:8], R, atol=1e-10)
        np.testing.assert_allclose(C[8:], 0, atol=1e-10)

    def test_matches_numpy_qr_magnitudes(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((30, 6))
        _, _, R = householder_panel(A)
        _, R_np = np.linalg.qr(A)
        np.testing.assert_allclose(np.abs(R), np.abs(R_np), atol=1e-10)

    def test_v_unit_lower_trapezoidal(self):
        rng = np.random.default_rng(2)
        V, _, _ = householder_panel(rng.standard_normal((20, 5)))
        for j in range(5):
            assert V[j, j] == pytest.approx(1.0)
            np.testing.assert_allclose(V[:j, j], 0, atol=1e-14)

    def test_q_orthonormal(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((25, 7))
        V, T, _ = householder_panel(A)
        Q = np.eye(25) - V @ T @ V.T
        np.testing.assert_allclose(Q.T @ Q, np.eye(25), atol=1e-10)

    def test_wide_panel_rejected(self):
        with pytest.raises(WorkloadError, match="tall"):
            householder_panel(np.zeros((3, 5)))

    def test_zero_column_handled(self):
        A = np.zeros((10, 3))
        A[:, 1] = np.arange(10)
        V, T, R = householder_panel(A)
        C = A.copy()
        apply_block_reflector(V, T, C)
        np.testing.assert_allclose(C[3:], 0, atol=1e-10)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_property_qt_a_gives_r(self, seed, w, extra):
        rng = np.random.default_rng(seed)
        h = w + extra
        A = rng.standard_normal((h, w))
        V, T, R = householder_panel(A)
        C = A.copy()
        apply_block_reflector(V, T, C)
        np.testing.assert_allclose(C[:w], R, atol=1e-8)
        np.testing.assert_allclose(C[w:], 0, atol=1e-8)

    def test_flop_counts_positive_and_monotone(self):
        assert panel_qr_flops(100, 8) < panel_qr_flops(200, 8)
        assert potf2_flops(64) < potf2_flops(128)


class TestPotf2:
    def test_factors_spd(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((12, 12))
        A = M @ M.T + 12 * np.eye(12)
        L = potf2(A)
        np.testing.assert_allclose(L @ L.T, A, atol=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(WorkloadError, match="positive definite"):
            potf2(-np.eye(4))


class TestFormT:
    def test_t_upper_triangular(self):
        rng = np.random.default_rng(5)
        V, T, _ = householder_panel(rng.standard_normal((15, 6)))
        np.testing.assert_allclose(T, np.triu(T), atol=1e-14)
