"""Payload handling for the simulated MPI layer.

Messages carry real Python payloads (numpy arrays, tuples, dataclasses).
For timing purposes every payload has a byte size:

* numpy arrays report ``arr.nbytes`` and are copied at send time (MPI buffer
  semantics — the sender may reuse its buffer immediately after ``isend``
  returns, exactly like a buffered eager send);
* ``bytes``/``bytearray`` report their length, a ``memoryview`` its
  ``nbytes`` (its length counts elements, not bytes);
* :class:`Phantom` wraps a declared size with no real data — used by the
  timing-only execution mode to move "10 million particles" without
  allocating them;
* any other object that declares ``nbytes`` is taken at its word (the
  middleware's control frames: :mod:`repro.core.protocol`);
* anything else (an arbitrary user payload) by its pickled size.
"""

from __future__ import annotations

import pickle
import typing as _t

import numpy as np

from ..buffers import ChunkView, copy_stats


class Phantom:
    """A payload of declared size with no backing data (timing-only mode)."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        if nbytes < 0:
            raise ValueError(f"negative phantom size: {nbytes!r}")
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:
        return f"Phantom({self.nbytes})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Phantom) and other.nbytes == self.nbytes

    def __hash__(self) -> int:
        return hash(("Phantom", self.nbytes))


def payload_nbytes(payload: _t.Any) -> int:
    """Byte size of ``payload`` for transfer-time accounting."""
    if payload is None:
        return 0
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def copy_for_send(payload: _t.Any) -> _t.Any:
    """Snapshot a payload so the sender can reuse its buffer immediately.

    Arrays are copied; immutable and phantom payloads are passed through.
    A :class:`~repro.buffers.ChunkView` is an *ownership transfer*, not a
    copy: the view is immutable by contract and its backing buffer is
    loaned to the transport until delivery, so "MPI copies at send time"
    costs nothing physical.  Anything else passes through as is.
    """
    if isinstance(payload, ChunkView):
        return payload
    if isinstance(payload, np.ndarray):
        copy_stats.count_payload_copy(payload.nbytes)
        return payload.copy()
    if isinstance(payload, bytearray):
        copy_stats.count_payload_copy(len(payload))
        return bytes(payload)
    if isinstance(payload, memoryview):
        copy_stats.count_payload_copy(payload.nbytes)
        return payload.tobytes()
    return payload
