"""The unified accelerator interface all backends conform to.

Four front ends implement it — the paper's remote middleware path
(:class:`~repro.core.api.RemoteAccelerator`), the static node-attached
baseline (:class:`~repro.baselines.local.LocalAccelerator`), the
failover wrapper (:class:`~repro.core.reliability.ResilientAccelerator`,
with its lease-scoped subclass ``TenantAccelerator``), and the job
service's lease (:class:`~repro.jobs.service.JobAccelerator`, a
``RemoteAccelerator`` whose allocations and kernel creates go through
the service's caches).  Workloads are written once against the methods
named in :data:`API_METHODS` and measured on any of them; the
conformance suite (``tests/core/test_interface_conformance.py``) asserts
that every backend exposes them and that the same op program produces
identical results on all four.

Canonical signatures:

* ``memcpy_h2d(dst, payload, transfer=None, offset=0)`` and
  ``memcpy_d2h(src, nbytes, transfer=None, offset=0)`` — every backend
  accepts the remote path's ``transfer``
  (:class:`~repro.core.blocksize.TransferConfig`); a local copy, which
  has no network protocol, ignores it and copies as its front end was
  built (``LocalAccelerator(pinned=...)``).

The remote front end (and so the job service's lease) alone adds
``peer_put`` (a device-to-device copy over the fabric) and
``control_run`` (a list of control ops sent as batch frames): they need
the fabric and the daemon's batch executor, which the local and failover
backends do not have.
"""

from __future__ import annotations

import typing as _t


def reject_bool_transfer(transfer: _t.Any) -> None:
    """A bool in the ``transfer`` slot is a pre-unification positional
    ``pinned``; taking it as a transfer policy would silently change the
    copy's timing, so it is a ``TypeError``."""
    if isinstance(transfer, bool):
        raise TypeError(
            f"transfer must be a TransferConfig or None, got {transfer!r}")


#: The ``ac*`` surface: exactly the paper's seven calls (Listing 2).
#: All but ``kernel_set_args`` are generators to be driven inside a
#: simulation process or through :class:`~repro.core.session.SyncSession`.
#: The conformance suite checks every backend against this list.
API_METHODS = (
    "mem_alloc", "mem_free", "memcpy_h2d", "memcpy_d2h",
    "kernel_create", "kernel_set_args", "kernel_run",
)
