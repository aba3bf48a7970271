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

The remote front end alone adds ``peer_put`` (a device-to-device copy
over the fabric) and ``stream()`` (an asynchronous command queue whose
control ops travel in batch frames): they need the fabric and the
daemon's batch executor, which the other two backends do not have.
"""

from __future__ import annotations

import typing as _t


def reject_bool_transfer(transfer: _t.Any) -> None:
    """A bool in the ``transfer`` slot is a pre-unification positional
    ``pinned``; taking it as a transfer policy would silently change the
    copy's timing, so it is a ``TypeError``."""
    if isinstance(transfer, bool):
        raise TypeError(
            f"transfer must be a TransferConfig or None, got {transfer!r}; "
            f"per-call pinning is the pinned= keyword")


#: The ``ac*`` surface: the paper's seven calls (Listing 2) plus the
#: ``ping`` liveness probe.  All but ``kernel_set_args`` are generators
#: to be driven inside a simulation process or through
#: :class:`~repro.core.session.SyncSession`.  The conformance suite
#: checks every backend against this list.
API_METHODS = (
    "mem_alloc", "mem_free", "memcpy_h2d", "memcpy_d2h",
    "kernel_create", "kernel_set_args", "kernel_run",
    "ping",
)
