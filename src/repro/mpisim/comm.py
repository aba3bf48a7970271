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
"""

from __future__ import annotations

import itertools
import typing as _t

from ..errors import MPIError
from ..netsim import Endpoint, Fabric
from ..sim import Engine, Event
from .datatypes import copy_for_send, payload_nbytes
from .matching import ANY_SOURCE, ANY_TAG, Envelope, MatchList, _matches

#: Bytes added to every data message for the match header.
HEADER_BYTES = 64
#: Size of RTS/CTS control messages.
CONTROL_BYTES = 64

#: Upper bound of the tag space; the middleware's reply and data tag
#: windows sit below it.
MAX_USER_TAG = 2**20


class Message:
    """A received message: payload plus matching metadata."""

    __slots__ = ("source", "tag", "payload", "nbytes")

    def __init__(self, source: int, tag: int, payload: _t.Any, nbytes: int):
        self.source = source
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Message src={self.source} tag={self.tag} {self.nbytes}B>"


class Request:
    """Handle for a non-blocking operation.

    Wait for it inside a process with ``yield req.done``; a receive's
    ``done`` value (and ``req.message``) is the :class:`Message`.
    """

    __slots__ = ("done", "message", "kind", "cancelled")

    def __init__(self, engine: Engine, kind: str, done: Event | None = None):
        self.done = Event(engine) if done is None else done
        self.message: Message | None = None
        self.kind = kind
        #: True once :meth:`Communicator.cancel_recv` removed this receive.
        self.cancelled = False

    @property
    def completed(self) -> bool:
        # An eager send's ``done`` is the transmission's ``injected``
        # event, which carries its value from the NIC grant on (like a
        # Timeout), so a send is complete once ``done`` has *fired*.  A
        # receive is complete from the moment its message is matched:
        # the RPC layer's reply-versus-deadline tie depends on that.
        if self.kind == "send":
            return self.done.processed
        return self.done.triggered

    def _complete(self, message: Message | None = None) -> None:
        self.message = message
        self.done.succeed(message)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.completed else "pending"
        return f"<Request {self.kind} {state}>"


class _PostedRecv:
    __slots__ = ("request",)

    def __init__(self, request: Request):
        self.request = request


class _Arrival:
    """An unexpected arrival: either buffered eager data or a pending RTS."""

    __slots__ = ("env", "payload", "rts")

    def __init__(self, env: Envelope, payload: _t.Any = None, rts: "_Rts | None" = None):
        self.env = env
        self.payload = payload
        self.rts = rts


class _Rts:
    """Sender-side state of a rendezvous in progress."""

    __slots__ = ("src_rank", "payload", "nbytes", "send_request")

    def __init__(self, src_rank: int, payload: _t.Any, nbytes: int, send_request: Request):
        self.src_rank = src_rank
        self.payload = payload
        self.nbytes = nbytes
        self.send_request = send_request


class _RankState:
    __slots__ = ("posted", "unexpected", "discards")

    def __init__(self) -> None:
        self.posted = MatchList()
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
        self._held: dict[tuple[int, int], dict[int, _Arrival]] = {}
        #: Ids unique within this communicator: the middleware numbers its
        #: requests (hence reply and data tags) here, from 1 per cluster.
        self.ids = itertools.count(1)

    @property
    def size(self) -> int:
        return len(self._endpoints)

    def rank(self, index: int) -> "RankHandle":
        """Handle bound to rank ``index`` for issuing operations."""
        self._check_rank(index)
        return RankHandle(self, index)

    def endpoint_of(self, rank: int) -> Endpoint:
        self._check_rank(rank)
        return self._endpoints[rank]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise MPIError(f"rank {rank} out of range for {self.name} (size {self.size})")

    # -- sending --------------------------------------------------------
    def isend(self, src: int, dst: int, tag: int, payload: _t.Any = None,
              eager: bool | None = None,
              injection_s: float | None = None) -> Request:
        """Non-blocking send from rank ``src`` to rank ``dst``.

        ``eager`` overrides the size-based protocol choice: ``True`` forces
        eager delivery (models a receiver that pre-posted its buffers, so no
        rendezvous handshake is needed — the middleware's pipeline block
        streams announce their block count in a header and use this),
        ``False`` forces rendezvous, ``None`` applies the threshold.
        ``injection_s`` overrides the NIC's per-message posting cost (see
        :meth:`repro.netsim.Fabric.transfer`).
        """
        self._check_rank(src)
        self._check_rank(dst)
        if tag < 0:
            raise MPIError(f"negative tag: {tag!r}")
        nbytes = payload_nbytes(payload)
        snapshot = copy_for_send(payload)
        env = Envelope(src, tag, nbytes)
        if eager is None:
            threshold = self.fabric.model.rendezvous_threshold
            eager = threshold == 0 or nbytes <= threshold
        if eager:
            return self._eager_send(env, dst, snapshot, injection_s)
        req = Request(self.engine, "send")
        self._rendezvous_rts(env, dst, snapshot, req)
        return req

    def _next_seq(self, pair: tuple[int, int]) -> int:
        seq = self._send_seq.get(pair, 0)
        self._send_seq[pair] = seq + 1
        return seq

    def _eager_send(self, env: Envelope, dst: int, payload: _t.Any,
                    injection_s: float | None = None) -> Request:
        tx = self.fabric.transfer(self._endpoints[env.source], self._endpoints[dst],
                                  env.nbytes + HEADER_BYTES,
                                  injection_s=injection_s)
        # Eager sends complete locally as soon as the NIC has the message —
        # even across a partition (the sender cannot tell its bytes died) —
        # so the request's ``done`` *is* ``injected``: the fabric installed
        # its own continuation first, so NIC accounting precedes any waiter.
        req = Request(self.engine, "send", done=tx.injected)
        if tx.dropped:
            # A dropped message must NOT consume a (src, dst) sequence
            # number: in-order matching would wait for that seq forever
            # and hold back every later message on the pair.  The fabric
            # decides drops synchronously, so the seq is drawn only here.
            return req
        seq = self._next_seq((env.source, dst))
        tx.delivered.add_callback(
            lambda _ev: self._deliver_in_order(dst, _Arrival(env, payload=payload), seq))
        return req

    def _rendezvous_rts(self, env: Envelope, dst: int, payload: _t.Any,
                        req: Request) -> None:
        rts = _Rts(env.source, payload, env.nbytes, req)
        ctrl = self.fabric.transfer(self._endpoints[env.source], self._endpoints[dst],
                                    CONTROL_BYTES)
        if ctrl.dropped:
            # The RTS died at a partition: the send stays pending forever,
            # exactly like a real rendezvous sender blocked on a handshake
            # that will never come.  Callers racing a deadline (the RPC
            # layer) escape; bare blocking sends are the caller's risk.
            return
        seq = self._next_seq((env.source, dst))
        ctrl.delivered.add_callback(
            lambda _ev: self._deliver_in_order(dst, _Arrival(env, rts=rts), seq))

    def _deliver_in_order(self, dst: int, arrival: _Arrival, seq: int) -> None:
        """Admit arrivals to matching strictly in send order per (src, dst)."""
        pair = (arrival.env.source, dst)
        expected = self._match_seq.get(pair, 0)
        if seq != expected:
            self._held.setdefault(pair, {})[seq] = arrival
            return
        self._on_arrival(dst, arrival)
        self._match_seq[pair] = expected + 1
        held = self._held.get(pair)
        while held:
            nxt = self._match_seq[pair]
            queued = held.pop(nxt, None)
            if queued is None:
                break
            self._on_arrival(dst, queued)
            self._match_seq[pair] = nxt + 1

    def _rendezvous_data(self, dst: int, arrival: _Arrival, recv_req: Request) -> None:
        """Receiver matched an RTS: answer CTS, then move the payload."""
        rts = arrival.rts
        assert rts is not None
        cts = self.fabric.transfer(self._endpoints[dst], self._endpoints[rts.src_rank],
                                   CONTROL_BYTES)

        def on_cts(_ev: Event) -> None:
            data = self.fabric.transfer(self._endpoints[rts.src_rank],
                                        self._endpoints[dst],
                                        rts.nbytes + HEADER_BYTES)

            def on_data(_ev2: Event) -> None:
                rts.send_request._complete(None)
                recv_req._complete(Message(arrival.env.source, arrival.env.tag,
                                           rts.payload, rts.nbytes))

            data.delivered.add_callback(on_data)

        cts.delivered.add_callback(on_cts)

    # -- receiving ------------------------------------------------------
    def irecv(self, me: int, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive at rank ``me``."""
        self._check_rank(me)
        state = self._states[me]
        req = Request(self.engine, "recv")
        arrival: _Arrival | None = state.unexpected.pop_match_for_recv(source, tag)
        if arrival is not None:
            if arrival.rts is not None:
                self._rendezvous_data(me, arrival, req)
            else:
                req._complete(Message(arrival.env.source, arrival.env.tag,
                                      arrival.payload, arrival.env.nbytes))
        else:
            state.posted.add(source, tag, _PostedRecv(req))
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
        if request.kind != "recv":
            raise MPIError(f"cancel_recv on a {request.kind} request")
        if request.completed or request.cancelled:
            return False
        state = self._states[me]
        for i, (src, tag, item) in enumerate(state.posted._entries):
            if isinstance(item, _PostedRecv) and item.request is request:
                del state.posted._entries[i]
                request.cancelled = True
                request.done.cancel()
                state.discards.append((src, tag))
                return True
        return False

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
            arrival = state.unexpected.pop_match_for_recv(source, tag)
            if arrival is None:
                break
            if arrival.rts is not None:
                # Receiver-side truncation: complete the sender without
                # moving the payload (same as a cancelled recv's discard).
                arrival.rts.send_request._complete(None)
            remaining -= 1
        for _ in range(remaining):
            state.discards.append((source, tag))

    def _on_arrival(self, dst: int, arrival: _Arrival) -> None:
        state = self._states[dst]
        if state.discards:
            # A cancelled receive's in-flight message: drop it (one-shot).
            for i, (src, tag) in enumerate(state.discards):
                if _matches(src, tag, arrival.env):
                    del state.discards[i]
                    if arrival.rts is not None:
                        # Rendezvous: complete the sender without moving
                        # the payload anywhere (receiver-side truncation).
                        arrival.rts.send_request._complete(None)
                    return
        posted: _PostedRecv | None = state.posted.pop_match_for_arrival(arrival.env)
        if posted is None:
            state.unexpected.add(arrival.env.source, arrival.env.tag, arrival)
            return
        if arrival.rts is not None:
            self._rendezvous_data(dst, arrival, posted.request)
        else:
            posted.request._complete(Message(arrival.env.source, arrival.env.tag,
                                             arrival.payload, arrival.env.nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Communicator {self.name} size={self.size}>"


class RankHandle:
    """All MPI operations of one rank, bound for convenient calling.

    Non-blocking calls (``isend``/``irecv``) return a :class:`Request`
    immediately.  Blocking calls are generators for use with ``yield from``
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
              injection_s: float | None = None) -> Request:
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
