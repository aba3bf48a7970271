"""Simulated MPI: world, communicators, and point-to-point messaging.

The layer reproduces the MPI semantics the middleware and the workloads
rely on:

* **eager protocol** for messages up to the link model's
  ``rendezvous_threshold``: the payload is buffered and shipped immediately;
  the send completes locally once the NIC has posted it;
* **rendezvous protocol** for larger messages: a ready-to-send (RTS) control
  message travels first, the data flows only after the receiver has matched
  it and answered clear-to-send (CTS) — so large sends complete no earlier
  than delivery, exactly the behaviour that makes PingPong a round trip;
* **non-overtaking matching** per ``(source, tag)`` with wildcard receives.

Payloads are real Python objects (see :mod:`repro.mpisim.datatypes`), so
the whole middleware stack moves genuine bytes during correctness tests.

A message is one object: a :class:`Message` is its envelope and, as a
:class:`~repro.netsim.Transmission`, its own flow over the fabric.  An
eager ``isend`` returns the message itself, which is the send's
completion event; a receive (and a rendezvous send) :class:`Request` is
its own completion event.  Both answer ``done`` and ``completed``.
"""

from __future__ import annotations

import itertools
import typing as _t
from functools import partial

from ..errors import MPIError
from ..netsim import Endpoint, Fabric, Transmission
from ..sim import Engine, Event
from ..sim.events import PENDING
from .datatypes import copy_for_send, payload_nbytes
from .matching import ANY_SOURCE, ANY_TAG, MatchList

#: Bytes added to every data message for the match header.
HEADER_BYTES = 64
#: Size of RTS/CTS control messages.
CONTROL_BYTES = 64

#: Upper bound of the tag space; the middleware's reply and data tag
#: windows sit below it.
MAX_USER_TAG = 2**20


class Message(Transmission):
    """One message from ``isend`` to its receiver: envelope and flow in one.

    ``source``, ``tag`` and ``nbytes`` (the payload's size; the
    transmission's ``wire_bytes`` adds the header) are the envelope
    matching reads, ``payload`` the sender's snapshot.  As a
    :class:`~repro.netsim.Transmission` the message is its own flow over
    the fabric: it fires at injection (an eager send's ``done``) and
    hands itself to the communicator at delivery.  An eager ``isend``
    returns the message as its send handle: ``done`` is the message
    itself and ``completed`` is ``processed`` (the NIC has posted it).
    ``dest`` (the
    receiving rank) and ``seq`` (its place in the ``(source, dest)`` send
    order) admit it to matching in order; it waits as itself in the
    held-for-order and unexpected queues, and a receive gets it as
    ``req.message``.  An RTS is a Message whose ``rts`` is the sender's
    :class:`Request`: its payload moves once a receive matches it.
    """

    __slots__ = ("source", "tag", "payload", "nbytes", "dest", "seq", "rts")

    def __init__(self, comm: "Communicator", source: int, dest: int,
                 tag: int, payload: _t.Any, nbytes: int, wire_bytes: int,
                 injection_s: float | None):
        # Event.__init__ inlined, and Transmission.__init__ not chained:
        # this runs once per message.
        self.engine = comm.engine
        self.callbacks = None
        self._value = PENDING
        self._ok = None
        self._processed = False
        self._cancelled = False
        self._scheduled = False
        self.on_delivered = comm._deliver_bound
        self.source = source
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.dest = dest
        self.seq = -1
        self.rts: Request | None = None
        eps = comm._endpoints
        self._launch(comm.fabric, eps[source], eps[dest], wire_bytes,
                     injection_s)

    @property
    def done(self) -> "Message":
        """An eager send's completion event: the message itself."""
        return self

    @property
    def completed(self) -> bool:
        # The message carries its value from the NIC grant on (like a
        # Timeout), so the send is complete once it has *fired*.
        return self._processed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Message src={self.source} tag={self.tag} {self.nbytes}B>"


class Request(Event):
    """Handle for a non-blocking receive or rendezvous send.

    Wait for it inside a process with ``yield req.done``: the request is
    its own completion event, so ``done`` is the request itself.  A
    receive's value (and ``req.message``) is the :class:`Message`.  An
    eager send builds no request: ``isend`` returns its
    :class:`Message`, which answers ``done`` and ``completed`` the same
    way.
    """

    __slots__ = ("message", "kind")

    def __init__(self, engine: Engine, kind: str):
        # Event.__init__ inlined: every receive makes one.
        self.engine = engine
        self.callbacks = None
        self._value = PENDING
        self._ok = None
        self._processed = False
        self._cancelled = False
        self._scheduled = False
        self.message: Message | None = None
        self.kind = kind

    @property
    def done(self) -> "Request":
        """The event to wait on: the request itself."""
        return self

    @property
    def completed(self) -> bool:
        # A receive is complete from the moment its message is matched:
        # the RPC layer's reply-versus-deadline tie depends on that.  A
        # rendezvous send once it has fired.
        if self.kind == "send":
            return self._processed
        return self._value is not PENDING

    def _complete(self, message: Message | None = None) -> None:
        self.message = message
        self.succeed(message)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.completed else "pending"
        return f"<Request {self.kind} {state}>"


class _RankState:
    __slots__ = ("posted", "unexpected", "discards")

    def __init__(self) -> None:
        #: Posted receive Requests, keyed by the (src, tag) they want.
        self.posted = MatchList()
        #: Messages no receive wanted yet, keyed by their own (src, tag).
        self.unexpected = MatchList()
        #: One-shot (src, tag) patterns of cancelled receives: the next
        #: matching arrival is dropped instead of rotting in ``unexpected``.
        self.discards: list[tuple[int, int]] = []


class World:
    """Binds an engine and a fabric; the factory for communicators."""

    def __init__(self, engine: Engine, fabric: Fabric):
        self.engine = engine
        self.fabric = fabric

    def create_comm(self, endpoints: _t.Sequence[Endpoint | str],
                    name: str = "comm") -> "Communicator":
        """Create a communicator whose rank *i* lives on ``endpoints[i]``.

        Several ranks may share one endpoint (processes on the same node).
        """
        eps = [self.fabric.endpoint(e) if isinstance(e, str) else e for e in endpoints]
        if not eps:
            raise MPIError("a communicator needs at least one rank")
        return Communicator(self, eps, name)


class Communicator:
    """An ordered group of ranks with private matching state."""

    def __init__(self, world: World, endpoints: list[Endpoint], name: str):
        self.world = world
        self.engine = world.engine
        self.fabric = world.fabric
        self.name = name
        self._endpoints = endpoints
        self._states = [_RankState() for _ in endpoints]
        # Per (src, dst) sequence numbers enforce MPI's non-overtaking
        # matching even when a small eager message would physically beat an
        # earlier large one through the fluid fabric.
        self._send_seq: dict[tuple[int, int], int] = {}
        self._match_seq: dict[tuple[int, int], int] = {}
        self._held: dict[tuple[int, int], dict[int, Message]] = {}
        #: Ids unique within this communicator: the middleware numbers its
        #: requests (hence reply and data tags) here, from 1 per cluster.
        self.ids = itertools.count(1)
        #: Every message's ``on_delivered``, bound once.
        self._deliver_bound = self._deliver

    @property
    def size(self) -> int:
        return len(self._endpoints)

    def rank(self, index: int) -> "RankHandle":
        """Handle bound to rank ``index`` for issuing operations."""
        self._check_rank(index)
        return RankHandle(self, index)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise MPIError(f"rank {rank} out of range for {self.name} (size {self.size})")

    # -- sending --------------------------------------------------------
    def isend(self, src: int, dst: int, tag: int, payload: _t.Any = None,
              eager: bool | None = None,
              injection_s: float | None = None) -> Message | Request:
        """Non-blocking send from rank ``src`` to rank ``dst``.

        Returns the send's handle: an eager send's :class:`Message`, or
        a rendezvous send's :class:`Request`.  Either is its own
        completion event (``done``; ``completed``).

        ``eager`` overrides the size-based protocol choice: ``True`` forces
        eager delivery (models a receiver that pre-posted its buffers, so no
        rendezvous handshake is needed — the middleware's pipeline block
        streams announce their block count in a header and use this),
        ``False`` forces rendezvous, ``None`` applies the threshold.
        ``injection_s`` overrides the NIC's per-message posting cost (see
        :meth:`repro.netsim.Fabric.transfer`).
        """
        eps = self._endpoints
        if not (0 <= src < len(eps) and 0 <= dst < len(eps)):
            self._check_rank(src)
            self._check_rank(dst)
        if tag < 0:
            raise MPIError(f"negative tag: {tag!r}")
        nbytes = payload_nbytes(payload)
        payload = copy_for_send(payload)
        if eager is None:
            threshold = self.fabric.model.rendezvous_threshold
            eager = threshold == 0 or nbytes <= threshold
        if eager:
            # Eager sends complete locally as soon as the NIC has the
            # message — even across a partition (the sender cannot tell
            # its bytes died) — so the handle *is* the message.
            msg = req = Message(self, src, dst, tag, payload, nbytes,
                                nbytes + HEADER_BYTES, injection_s)
        else:
            # A dropped RTS leaves the send pending forever, exactly like
            # a real rendezvous sender blocked on a handshake that will
            # never come.  Callers racing a deadline (the RPC layer)
            # escape; bare blocking sends are the caller's risk.
            req = Request(self.engine, "send")
            msg = Message(self, src, dst, tag, payload, nbytes,
                          CONTROL_BYTES, None)
            msg.rts = req
        if not msg.dropped:
            # A dropped message must NOT consume a (src, dst) sequence
            # number: in-order matching would wait for that seq forever
            # and hold back every later message on the pair.  The fabric
            # decides drops synchronously, so the seq is drawn only here.
            pair = (src, dst)
            msg.seq = self._send_seq.get(pair, 0)
            self._send_seq[pair] = msg.seq + 1
        return req

    def _deliver(self, msg: Message) -> None:
        """Admit a delivered message to matching in send order per pair.

        Matching settles before any receiver code runs: ``_match_seq``
        advances past this message and every held successor it releases.
        Then the receive this message matched, if one was posted, resumes
        here at delivery with no heap entry, so an exception raised by
        that receiver strands nothing of the pair.  Successors released
        from the held-for-order queue complete through the heap, like a
        receive that finds its message already waiting.
        """
        pair = (msg.source, msg.dest)
        seq = self._match_seq.get(pair, 0)
        if msg.seq != seq:
            self._held.setdefault(pair, {})[msg.seq] = msg
            return
        req = self._match(msg)
        seq += 1
        held = self._held.get(pair)
        while held and seq in held:
            late = held.pop(seq)
            late_req = self._match(late)
            if late_req is not None:
                late_req._complete(late)
            seq += 1
        self._match_seq[pair] = seq
        if req is not None:
            req.message = msg
            req.fire(msg)

    def _match(self, msg: Message) -> Request | None:
        """Admit one in-order message; the eager receive it completes.

        None when the message was discarded, is left as unexpected, or is
        an RTS whose matched receive now runs the rendezvous.
        """
        state = self._states[msg.dest]
        if state.discards:
            # A cancelled receive's in-flight message: drop it (one-shot).
            for i, (src, tag) in enumerate(state.discards):
                if src in (ANY_SOURCE, msg.source) and tag in (ANY_TAG, msg.tag):
                    del state.discards[i]
                    if msg.rts is not None:
                        # Rendezvous: complete the sender without moving
                        # the payload anywhere (receiver-side truncation).
                        msg.rts._complete(None)
                    return None
        req = state.posted.pop_match_for_arrival(msg.source, msg.tag)
        if req is None:
            state.unexpected.add(msg.source, msg.tag, msg)
            return None
        if msg.rts is not None:
            self._rendezvous_cts(msg, req)
            return None
        return req

    def _rendezvous_cts(self, msg: Message, req: Request) -> None:
        """A receive matched an RTS: bind it to the message, answer CTS."""
        req.message = msg
        self.fabric.transfer(self._endpoints[msg.dest],
                             self._endpoints[msg.source], CONTROL_BYTES,
                             on_delivered=partial(self._rendezvous_data, req))

    def _rendezvous_data(self, req: Request, _cts: Transmission) -> None:
        """The CTS reached the sender: move the payload."""
        msg = req.message
        self.fabric.transfer(self._endpoints[msg.source],
                             self._endpoints[msg.dest],
                             msg.nbytes + HEADER_BYTES,
                             on_delivered=partial(self._rendezvous_done, req))

    def _rendezvous_done(self, req: Request, _data: Transmission) -> None:
        msg = req.message
        msg.rts._complete(None)
        req._complete(msg)

    # -- receiving ------------------------------------------------------
    def irecv(self, me: int, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive at rank ``me``."""
        if not 0 <= me < len(self._states):
            self._check_rank(me)
        state = self._states[me]
        req = Request(self.engine, "recv")
        msg = state.unexpected.pop_match_for_recv(source, tag)
        if msg is None:
            state.posted.add(source, tag, req)
        elif msg.rts is not None:
            self._rendezvous_cts(msg, req)
        else:
            # Through the heap: a process never resumes inside its own irecv.
            req._complete(msg)
        return req

    def cancel_recv(self, me: int, request: Request) -> bool:
        """Cancel a posted, still-incomplete receive (MPI_Cancel-style).

        Removes the posted entry so it cannot leak, and registers a
        one-shot discard for its ``(source, tag)`` pattern: if the message
        the receive was waiting for is still in flight, its eventual
        arrival is dropped instead of accumulating in the unexpected
        queue (the daemon uses this when a data block misses its
        ``data_stall_s`` deadline).  Returns True if the receive was
        pending and is now cancelled; False if it had already completed
        (its message was delivered — cancellation lost the race, exactly
        like MPI_Cancel).
        """
        if not isinstance(request, Request) or request.kind != "recv":
            raise MPIError("cancel_recv on a send")
        if request.completed or request._cancelled:
            return False
        state = self._states[me]
        pattern = state.posted.pop_item(request)
        if pattern is None:
            return False
        request.cancel()
        state.discards.append(pattern)
        return True

    def discard_next(self, me: int, source: int, tag: int,
                     count: int = 1) -> None:
        """Drop the next ``count`` arrivals matching ``(source, tag)``.

        For abandoning an in-progress multi-block data stream: blocks
        still in flight (delayed rather than dropped) would otherwise rot
        in the unexpected queue and be mis-matched by a later transfer
        that reuses the tag.  Matching messages already buffered as
        unexpected are removed immediately; the remainder become one-shot
        pending discards consumed on arrival.  Discards for blocks that
        died at a partition simply never fire (tags are per-request, so a
        stale pattern has nothing left to match).
        """
        self._check_rank(me)
        state = self._states[me]
        remaining = count
        while remaining > 0:
            msg = state.unexpected.pop_match_for_recv(source, tag)
            if msg is None:
                break
            if msg.rts is not None:
                # Receiver-side truncation: complete the sender without
                # moving the payload (same as a cancelled recv's discard).
                msg.rts._complete(None)
            remaining -= 1
        for _ in range(remaining):
            state.discards.append((source, tag))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Communicator {self.name} size={self.size}>"


class RankHandle:
    """All MPI operations of one rank, bound for convenient calling.

    Non-blocking calls return their handle immediately: ``irecv`` a
    :class:`Request`, ``isend`` an eager send's :class:`Message` or a
    rendezvous send's :class:`Request`.  Blocking calls are generators for use with ``yield from``
    inside a simulation process.
    """

    __slots__ = ("comm", "index")

    def __init__(self, comm: Communicator, index: int):
        self.comm = comm
        self.index = index

    @property
    def size(self) -> int:
        return self.comm.size

    # -- point to point --------------------------------------------------
    def isend(self, dst: int, tag: int, payload: _t.Any = None,
              eager: bool | None = None,
              injection_s: float | None = None) -> Message | Request:
        return self.comm.isend(self.index, dst, tag, payload, eager=eager,
                               injection_s=injection_s)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return self.comm.irecv(self.index, source, tag)

    def cancel_recv(self, request: Request) -> bool:
        """Cancel a pending posted receive (see :meth:`Communicator.cancel_recv`)."""
        return self.comm.cancel_recv(self.index, request)

    def discard_next(self, source: int, tag: int, count: int = 1) -> None:
        """Drop upcoming arrivals (see :meth:`Communicator.discard_next`)."""
        self.comm.discard_next(self.index, source, tag, count)

    def send(self, dst: int, tag: int, payload: _t.Any = None):
        """Blocking send (generator)."""
        req = self.isend(dst, tag, payload)
        yield req.done

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator). Returns the :class:`Message`."""
        req = self.irecv(source, tag)
        msg = yield req.done
        return msg

    def sendrecv(self, dst: int, send_tag: int, payload: _t.Any,
                 source: int = ANY_SOURCE, recv_tag: int = ANY_TAG):
        """Combined send+receive (generator). Returns the received Message."""
        rreq = self.irecv(source, recv_tag)
        sreq = self.isend(dst, send_tag, payload)
        yield self.comm.engine.all_of([rreq.done, sreq.done])
        return rreq.message

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Rank {self.index}/{self.comm.size} on {self.comm.name}>"
