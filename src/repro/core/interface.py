"""The unified accelerator interface all backends conform to.

Three backends implement it — the paper's remote middleware path
(:class:`~repro.core.api.RemoteAccelerator`), the static node-attached
baseline (:class:`~repro.baselines.local.LocalAccelerator`), and the
failover wrapper (:class:`~repro.core.reliability.ResilientAccelerator`,
with its lease-scoped subclass ``TenantAccelerator``); the job service's
``JobAccelerator`` adds caches in front of a ``RemoteAccelerator`` and
delegates the rest.  Workloads are written once against the methods
named in :data:`API_METHODS` and measured on any of them; the
conformance suite (``tests/core/test_interface_conformance.py``) asserts
that every backend exposes them and that the same op program produces
identical results on all three backends.

Canonical signatures:

* ``memcpy_h2d(dst, payload, transfer=None, offset=0, pinned=None)`` and
  ``memcpy_d2h(src, nbytes, transfer=None, offset=0, pinned=None)`` —
  every backend accepts both the remote path's ``transfer``
  (:class:`~repro.core.blocksize.TransferConfig`) and the local path's
  per-call ``pinned`` override; backends ignore what has no meaning for
  them (a local copy has no network protocol).
* ``peer_put(src, nbytes, peer, dst, *, transfer=None, pinned=None)`` —
  one signature on every backend.  Backends without a native fabric path
  stage the transfer through host memory (D2H + H2D) instead of raising,
  *provided* the peer can participate; an unusable peer still raises the
  typed :class:`~repro.errors.UnsupportedOp`.
* Capability negotiation: ``capabilities()`` returns a frozen
  :class:`CapabilitySet` so callers branch on a query up front instead of
  catching :class:`~repro.errors.UnsupportedOp` after the fact.  Direct
  calls to an unsupported op still raise the typed error — the query and
  the raise must agree (the conformance suite checks this).
* Every backend is a context manager: ``with`` synchronizes and releases
  live allocations on exit (see :class:`AcceleratorLifecycle`).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..errors import UnsupportedOp


@dataclasses.dataclass(frozen=True)
class CapabilitySet:
    """What one accelerator front-end can actually do.

    * ``peer_put`` — native device↔device path over the fabric (daemon
      forwards directly to the peer daemon).  ``False`` means a call to
      ``peer_put`` degrades to a staged host copy when the peer exposes
      ``memcpy_h2d``, and raises :class:`~repro.errors.UnsupportedOp`
      otherwise.
    * ``streams`` — ``stream()`` sends runs of control ops through the
      front-end's ``batch_rpc``, one MBATCH sub-frame per run (``False``:
      streams exist but execute eagerly, no batching).
      :class:`~repro.core.stream.Stream` reads this to decide.
    * ``fabric`` — operations traverse the simulated network fabric (and
      therefore appear in fabric byte/message accounting).
    """

    peer_put: bool = False
    streams: bool = False
    fabric: bool = False


class AcceleratorLifecycle:
    """Context-manager lifecycle shared by every backend.

    ``with ac:`` releases all live allocations on exit by driving the
    backend's :meth:`release` generator.  Two execution contexts work:

    * plain scripts (the engine is idle): the cleanup runs synchronously,
      advancing the shared virtual clock like a
      :class:`~repro.core.session.SyncSession` call would;
    * inside a simulation process (the engine is running): the cleanup is
      spawned as a background process and completes as the simulation
      advances — ``with`` cannot block there, because ``__exit__`` is not
      a generator.

    After a with-body exception, cleanup failures are swallowed so they
    never mask the original error; on the clean path they propagate.

    Subclasses provide ``_lifecycle_engine()`` and ``release()``.
    """

    def _lifecycle_engine(self):
        raise NotImplementedError  # pragma: no cover - abstract

    def release(self) -> _t.Iterator:
        raise NotImplementedError  # pragma: no cover - abstract

    def close(self) -> None:
        """Free live allocations (drives :meth:`release`, see above)."""
        engine = self._lifecycle_engine()
        proc = engine.process(self.release(), name=f"release:{self!r}")
        if not getattr(engine, "_running", False):
            engine.run(until=proc)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self.close()
        except Exception:
            if exc_type is None:
                raise
            # Unwinding from a with-body failure already: a cleanup error
            # (e.g. the accelerator broke mid-body) must not mask it.
        return False


def release_all(ac, live: _t.Iterable[int]) -> _t.Iterator:
    """Free every address in ``live`` (a shared ``release()`` body).

    Addresses are freed in insertion order; ``live`` is snapshotted first
    because ``mem_free`` mutates the backend's live-set as it goes.
    """
    for addr in list(live):
        yield from ac.mem_free(addr)


def unsupported(op: str, backend: _t.Any) -> _t.NoReturn:
    """Raise the typed capability error for an optional op."""
    raise UnsupportedOp(op, type(backend).__name__)


def reject_bool_transfer(transfer: _t.Any) -> None:
    """A bool in the ``transfer`` slot is a pre-unification positional
    ``pinned``; taking it as a transfer policy would silently change the
    copy's timing, so it is a ``TypeError``."""
    if isinstance(transfer, bool):
        raise TypeError(
            f"transfer must be a TransferConfig or None, got {transfer!r}; "
            f"per-call pinning is the pinned= keyword")


#: The ``ac*`` surface: methods every backend must expose.  The operations
#: (all but ``kernel_set_args``, ``capabilities``, ``stream`` and the
#: context-manager pair) are generators to be driven inside a simulation
#: process or through :class:`~repro.core.session.SyncSession`.  The
#: conformance suite checks every backend against this list.
API_METHODS = (
    "mem_alloc", "mem_free", "memcpy_h2d", "memcpy_d2h",
    "kernel_create", "kernel_set_args", "kernel_run",
    "ping", "capabilities", "peer_put", "stream", "release",
    "__enter__", "__exit__",
)
