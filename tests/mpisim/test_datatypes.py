"""Tests for payload sizing and send-snapshot semantics."""

import numpy as np
import pytest

from repro.mpisim import Phantom, copy_for_send, payload_nbytes


class TestPayloadNbytes:
    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_ndarray(self):
        assert payload_nbytes(np.zeros((4, 5))) == 160
        assert payload_nbytes(np.zeros(3, dtype=np.float32)) == 12

    def test_bytes_like(self):
        assert payload_nbytes(b"abc") == 3
        assert payload_nbytes(bytearray(7)) == 7
        assert payload_nbytes(memoryview(b"12345")) == 5

    def test_typed_memoryview_counts_bytes_not_elements(self):
        # Regression: len() of a typed view is its element count (4), but
        # copy_for_send charges the same object view.nbytes (32).
        view = memoryview(np.zeros(4))
        assert len(view) == 4
        assert payload_nbytes(view) == view.nbytes == 32

    def test_declared_nbytes_is_taken_at_its_word(self):
        class Framed:
            nbytes = 77

        assert payload_nbytes(Framed()) == 77

    def test_phantom(self):
        assert payload_nbytes(Phantom(10**9)) == 10**9

    def test_pickled_objects(self):
        small = payload_nbytes(("ctl", 1))
        big = payload_nbytes(("ctl", list(range(1000))))
        assert 0 < small < big

    def test_phantom_validation(self):
        with pytest.raises(ValueError):
            Phantom(-1)

    def test_phantom_equality_and_hash(self):
        assert Phantom(5) == Phantom(5)
        assert Phantom(5) != Phantom(6)
        assert hash(Phantom(5)) == hash(Phantom(5))
        assert Phantom(5) != b"12345"


class TestCopyForSend:
    def test_ndarray_snapshot_independent(self):
        a = np.zeros(4)
        snap = copy_for_send(a)
        a[:] = 9
        np.testing.assert_array_equal(snap, np.zeros(4))

    def test_bytearray_frozen(self):
        b = bytearray(b"abc")
        snap = copy_for_send(b)
        b[0] = 0
        assert snap == b"abc"

    def test_memoryview_materialized(self):
        buf = bytearray(b"xyz")
        snap = copy_for_send(memoryview(buf))
        buf[0] = 0
        assert snap == b"xyz"

    def test_immutables_pass_through(self):
        p = Phantom(5)
        assert copy_for_send(p) is p
        s = "hello"
        assert copy_for_send(s) is s
