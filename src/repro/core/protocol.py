"""Wire protocol between middleware front-ends, daemons, and the ARM.

Every middleware operation follows the paper's two-message pattern
(Sect. IV): the front-end sends a :class:`Request`, the back-end replies
with a :class:`Response` carrying an error code and optional value.  Bulk
payloads travel as separate data messages on a per-request data tag so that
concurrent operations from one front-end to one daemon never interleave.

Tag layout (all below the simulated-MPI collective tag space):

* ``TAG_REQUEST`` — requests to accelerator daemons,
* ``TAG_ARM`` — requests to the accelerator resource manager,
* ``reply_tag(req_id)`` — the unique response tag of one request,
* ``data_tag(req_id)`` — the unique bulk-data tag of one request.

Request ids are drawn from the communicator the frames travel on
(``next(rank.comm.ids)``): unique per cluster, starting at 1.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from ..errors import ProtocolError

TAG_REQUEST = 100
TAG_ARM = 101

_REPLY_BASE = 10_000
_REPLY_SPAN = 290_000
_DATA_BASE = 300_000
_DATA_SPAN = 700_000


def reset_request_ids() -> None:
    """Do nothing; kept only for the frozen benchmark harness, which
    calls it before every repetition (ids are per cluster and sizes do
    not depend on them, so there is no stream left to restart)."""


def reply_tag(req_id: int) -> int:
    return _REPLY_BASE + (req_id % _REPLY_SPAN)


def data_tag(req_id: int) -> int:
    return _DATA_BASE + (req_id % _DATA_SPAN)


class Op(enum.Enum):
    """Middleware operation codes (the ``ac*`` API, Listing 2)."""

    MEM_ALLOC = "mem_alloc"
    MEM_FREE = "mem_free"
    MEMCPY_H2D = "memcpy_h2d"
    MEMCPY_D2H = "memcpy_d2h"
    KERNEL_CREATE = "kernel_create"
    KERNEL_RUN = "kernel_run"
    PEER_PUT = "peer_put"         # direct accelerator-to-accelerator copy
    MBATCH = "mbatch"             # one or more sub-frames of control ops
    SHUTDOWN = "shutdown"
    # ARM operations:
    ARM_ALLOC = "arm_alloc"
    ARM_RELEASE = "arm_release"
    ARM_STATUS = "arm_status"
    ARM_BREAK = "arm_break"
    # Multi-tenant ARM operations:
    ARM_VALLOC = "arm_valloc"       # lease a virtual accelerator
    ARM_VRELEASE = "arm_vrelease"   # return a virtual accelerator
    # Daemon-side virtual-accelerator lifecycle:
    VAC_ATTACH = "vac_attach"       # instantiate the lease on the device
    VAC_DETACH = "vac_detach"       # tear the slice down, free its memory
    VAC_REVOKE = "vac_revoke"       # ARM-initiated preemption notice
    # Resource discovery (daemon -> ARM, one-way):
    ARM_REPORT = "arm_report"       # periodic capability/health report
    ARM_LEAVE = "arm_leave"         # graceful departure from the pool


#: Ops whose handler is safe to re-execute on a duplicate request: probes,
#: validations, and read-only transfers.
IDEMPOTENT_OPS = frozenset({
    Op.KERNEL_CREATE,
    Op.MEMCPY_D2H,
    Op.ARM_STATUS,
    Op.ARM_BREAK,
    Op.VAC_REVOKE,      # revoking an already-revoked slice is a no-op
    Op.ARM_REPORT,      # reports carry full state; replays refresh in place
    Op.ARM_LEAVE,       # leaving an already-left pool is a no-op
})

#: Ops the client may automatically resend (same request id) after a
#: timeout.  KERNEL_CREATE and the ARM probes are naturally idempotent;
#: MEM_ALLOC is retried safely because the daemon's request-id dedup
#: cache replays the first allocation's address instead of allocating
#: twice.
RETRYABLE_OPS = frozenset({
    Op.MEM_ALLOC,
    Op.KERNEL_CREATE,
    Op.MBATCH,
    Op.ARM_STATUS,
    Op.ARM_BREAK,
    Op.VAC_ATTACH,      # dedup-cached by the daemon (see DEDUP_OPS)
    Op.VAC_DETACH,
})

#: Non-idempotent daemon ops that get at-most-once protection through the
#: daemon's request-id dedup cache: a duplicate request replays the cached
#: response instead of mutating device state again.
DEDUP_OPS = frozenset({
    Op.MEM_ALLOC,
    Op.MEM_FREE,
    Op.MEMCPY_H2D,
    Op.KERNEL_RUN,
    Op.PEER_PUT,
    Op.MBATCH,
    Op.VAC_ATTACH,
    Op.VAC_DETACH,
})

#: Control ops that may ride a sub-frame of an :data:`Op.MBATCH` frame: a
#: front-end's run of ops (``RemoteAccelerator.control_run``), or one job's
#: op merged with other tenants' by a
#: :class:`~repro.core.coalesce.FrameCoalescer`.
#: Bulk transfers are excluded: their data blocks travel on per-request
#: tags and must keep their own frames.  A retried frame is at-most-once
#: because MBATCH is in :data:`DEDUP_OPS` — the daemon replays the recorded
#: sub-responses instead of re-executing the ops.
BATCHABLE_OPS = frozenset({
    Op.MEM_ALLOC,
    Op.MEM_FREE,
    Op.KERNEL_CREATE,
    Op.KERNEL_RUN,
})


# -- wire sizes -----------------------------------------------------------
# A control frame has a fixed format: its size is a function of its op and
# of how many variable-length records it carries, never of a serialiser,
# of a request id's magnitude, or of the span contexts riding out of band
# (``trace`` / ``sub_traces`` have no width).  The widths are calibrated
# to what each frame measured while sizes were still pickled (DESIGN.md
# section 10 prints the comparison).
REQUEST_HEADER_BYTES = 152    # op, id, reply rank, attempt, lease scope
RESPONSE_HEADER_BYTES = 112   # id, status, value shape
BLOCK_BYTES = 12              # one (offset, length) block descriptor
ARG_BYTES = 8                 # one kernel launch argument
SUBFRAME_HEADER_BYTES = 24    # one MBATCH rider: sub-frame id, op count, scope
SUBOP_HEADER_BYTES = 16       # one op inside a rider: op code, param length
SUBRESPONSE_BYTES = 16        # one per-op response inside an MBATCH reply
FIELD_BYTES = 8               # a scalar; a list's count; a dict entry's code

#: Width of each op's fixed parameter block, grouped by width.  Exhaustive
#: on purpose: an op without an entry cannot be sized (``KeyError``), so
#: adding an :class:`Op` member means declaring its width here.
PARAM_BYTES: dict[Op, int] = {
    **dict.fromkeys((Op.SHUTDOWN, Op.ARM_STATUS, Op.MBATCH), 0),  # + sub-frames
    **dict.fromkeys((Op.MEM_ALLOC, Op.MEM_FREE, Op.ARM_BREAK), 16),
    **dict.fromkeys((Op.ARM_RELEASE, Op.VAC_DETACH, Op.VAC_REVOKE), 24),
    **dict.fromkeys((Op.KERNEL_CREATE, Op.ARM_ALLOC), 32),
    **dict.fromkeys((Op.ARM_VALLOC, Op.ARM_VRELEASE, Op.ARM_LEAVE), 40),
    Op.KERNEL_RUN: 40,                          # + ARG_BYTES per argument
    Op.VAC_ATTACH: 56,
    Op.MEMCPY_H2D: 88,                          # + BLOCK_BYTES per block
    **dict.fromkeys((Op.MEMCPY_D2H, Op.PEER_PUT), 104),     # + per block
    Op.ARM_REPORT: 120,
}

#: Sub-frames name their ops by wire value (``op.value``).
_OP_BY_WIRE: dict[str, Op] = {op.value: op for op in Op}


def _body_nbytes(op: Op, params: dict) -> int:
    """Parameter block plus variable-length records of one op."""
    n = PARAM_BYTES[op]
    if op is Op.KERNEL_RUN:
        n += ARG_BYTES * len(params.get("params") or ())
    elif "blocks" in params:
        n += BLOCK_BYTES * len(params["blocks"])
    return n


def _value_nbytes(value: _t.Any) -> int:
    """Width of a response value, by shape."""
    if value is None:
        return 0
    kind = type(value)
    if kind is int or kind is float or kind is bool:
        return FIELD_BYTES
    if kind is str:
        return len(value)
    if kind is tuple:       # a fixed-arity record, e.g. (dtype, shape)
        return sum(map(_value_nbytes, value))
    if kind is list:        # variable length: a count, then the items
        return FIELD_BYTES + sum(map(_value_nbytes, value))
    if kind is dict:        # a record of (field code, value) entries
        return (FIELD_BYTES * len(value)
                + sum(map(_value_nbytes, value.values())))
    if kind is Response:    # a per-op response riding an MBATCH reply
        return (SUBRESPONSE_BYTES + _value_nbytes(value.value)
                + len(value.error))
    try:                    # handles, numpy scalars: they declare a width
        return int(value.nbytes)
    except AttributeError:
        raise ProtocolError(
            f"response value of type {kind.__name__} has no declared "
            "wire width") from None


class Status(enum.IntEnum):
    """Response error codes."""

    OK = 0
    ERROR = 1
    BROKEN = 2          # the accelerator hardware has failed
    UNAVAILABLE = 3     # ARM: not enough free accelerators
    DENIED = 4          # ARM: invalid release / ownership violation
    PREEMPTED = 5       # the virtual accelerator's lease was revoked


@dataclasses.dataclass
class Request:
    """A front-end request.  ``params`` must be small and picklable."""

    op: Op
    req_id: int
    reply_to: int                      # rank to answer
    params: dict = dataclasses.field(default_factory=dict)
    #: Retry attempt number (0 = first send).  Resends keep the same
    #: ``req_id`` so the receiver can deduplicate.
    attempt: int = 0
    #: Span context ``(trace_id, span_id)`` of the front-end operation
    #: this request belongs to, or None when tracing is off.  The daemon
    #: opens its spans as children of this context so one remote op
    #: decomposes across client and server on a single trace id.
    trace: tuple[int, int] | None = None
    #: For :data:`Op.MBATCH` frames only: one span context (or None) per
    #: sub-frame, so the daemon parents each sub-frame's spans under its
    #: *originating* front-end's trace rather than the carrier frame's.
    sub_traces: list | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.op, Op):
            raise ProtocolError(f"op must be an Op, got {self.op!r}")
        if self.req_id <= 0:
            raise ProtocolError(f"invalid request id: {self.req_id!r}")
        if self.reply_to < 0:
            raise ProtocolError(f"invalid reply rank: {self.reply_to!r}")
        if self.attempt < 0:
            raise ProtocolError(f"invalid attempt number: {self.attempt!r}")
        if self.trace is not None and (
                not isinstance(self.trace, tuple) or len(self.trace) != 2):
            raise ProtocolError(f"invalid trace context: {self.trace!r}")

    @property
    def nbytes(self) -> int:
        """Declared wire size: header + parameter block + records."""
        op, params = self.op, self.params
        n = REQUEST_HEADER_BYTES + _body_nbytes(op, params)
        if op is Op.MBATCH:
            for _sub_id, ops in params["reqs"]:
                n += SUBFRAME_HEADER_BYTES
                for wire_op, sub_params in ops:
                    n += SUBOP_HEADER_BYTES + _body_nbytes(
                        _OP_BY_WIRE[wire_op], sub_params)
        return n


@dataclasses.dataclass
class Response:
    """A back-end response to one request."""

    req_id: int
    status: Status
    value: _t.Any = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == Status.OK

    @property
    def nbytes(self) -> int:
        """Declared wire size: header + value (by shape) + error text."""
        return (RESPONSE_HEADER_BYTES + _value_nbytes(self.value)
                + len(self.error))

    def raise_for_status(self) -> None:
        """Raise the library exception matching a failure status."""
        if self.status == Status.OK:
            return
        from ..errors import AcceleratorFault, AllocationError, MiddlewareError
        if self.status == Status.BROKEN:
            raise AcceleratorFault(self.error or "accelerator failed")
        if self.status == Status.PREEMPTED:
            # A revoked lease looks like a device fault to the caller so
            # the resilience layer's reacquire-and-replay path kicks in.
            raise AcceleratorFault(self.error or "virtual accelerator preempted")
        if self.status in (Status.UNAVAILABLE, Status.DENIED):
            raise AllocationError(self.error or self.status.name)
        raise MiddlewareError(self.error or f"request {self.req_id} failed")


@dataclasses.dataclass(frozen=True)
class AcceleratorHandle:
    """Opaque handle identifying one exclusively assigned accelerator.

    The front-end passes it to every ``ac*`` call, exactly like the
    ``ac_handle`` parameter in the paper's Listing 2.
    """

    ac_id: int
    daemon_rank: int

    #: Declared wire width (two scalar fields).
    nbytes: _t.ClassVar[int] = 2 * FIELD_BYTES

    def __post_init__(self) -> None:
        if self.ac_id < 0 or self.daemon_rank < 0:
            raise ProtocolError("invalid accelerator handle")


@dataclasses.dataclass(frozen=True)
class VirtualAcceleratorHandle:
    """Handle to one leased *virtual* accelerator.

    Carries the physical coordinates (``ac_id`` / ``daemon_rank``) so the
    existing request routing works unchanged, plus the lease identity
    (``vac_id`` / ``tenant``) that the daemon uses to resolve the slice.
    A preempted lease keeps its handle; operations on it answer
    :data:`Status.PREEMPTED` until the tenant re-allocates.
    """

    vac_id: int
    ac_id: int
    daemon_rank: int
    tenant: str

    #: Declared wire width (three scalar fields, a 32 B tenant name).
    nbytes: _t.ClassVar[int] = 3 * FIELD_BYTES + 32

    def __post_init__(self) -> None:
        if self.vac_id <= 0 or self.ac_id < 0 or self.daemon_rank < 0:
            raise ProtocolError("invalid virtual accelerator handle")
        if not self.tenant:
            raise ProtocolError("virtual accelerator handle needs a tenant")

    def physical(self) -> AcceleratorHandle:
        """The physical handle this lease is multiplexed onto."""
        return AcceleratorHandle(ac_id=self.ac_id, daemon_rank=self.daemon_rank)
