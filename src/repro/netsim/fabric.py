"""Switched network fabric with fair-share contention.

The fabric is modeled as a non-blocking crossbar: every endpoint has a
transmit share and a receive share of ``bandwidth_Bps`` each (full duplex).
A message flows concurrently through the sender's TX share and the
receiver's RX share; it is delivered one wire latency after both shares have
drained it.  Uncontended transfers therefore take exactly
``injection + latency + bytes/bandwidth``, while concurrent flows into or
out of the same endpoint split that endpoint's bandwidth fairly — the
"host-device traffic competes with compute traffic" effect the paper warns
about (Sect. III-B).
"""

from __future__ import annotations

import typing as _t

from ..errors import NetworkError
from ..obs.spans import collector_for
from ..sim import BandwidthShare, Engine, Event, Resource
from .models import LinkModel
from .topology import Topology


class Transmission:
    """One in-flight message: its handle and its flow.

    ``injected`` fires when the sender's NIC has posted the message (the
    sending CPU is free again); ``delivered`` fires when the last byte has
    arrived at the destination.

    The flow runs as this object's own continuations, traced or not (the
    ``net.flow`` span is recorded by the steps that move the message):
    NIC grant -> ``injected`` -> drain through the shares -> ``delivered``.
    Only the physical boundaries are heap events — ``injected``, one
    share timer per stage, ``delivered``.  The NIC grant and the drain of
    the shares are the next steps of this chain at the same instant, so
    they are called, not scheduled (and ``injected`` therefore reads
    ``triggered`` from the grant on, like a timer).  The continuations on
    ``injected`` and ``delivered`` are installed before the Transmission
    is returned, so they precede any client callback.
    """

    __slots__ = ("fabric", "src", "dst", "nbytes", "injected", "delivered",
                 "injection_s", "dropped", "hops", "span", "on_delivered",
                 "arg", "_stages_left")

    def __init__(self, fabric: "Fabric", src: "Endpoint", dst: "Endpoint",
                 nbytes: int, injection_s: float | None,
                 on_delivered: _t.Callable[[_t.Any], None] | None,
                 arg: _t.Any):
        engine = fabric.engine
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.injected = Event(engine)
        self.injected.callbacks = [self._on_injected]
        self.delivered = Event(engine)
        self.delivered.callbacks = [self._on_delivered]
        #: Per-message posting cost override (None -> the link model's).
        self.injection_s = injection_s
        #: Set synchronously by :meth:`Fabric.transfer` when the link is
        #: cut: sender-side costs are paid, ``delivered`` never fires.
        self.dropped = False
        #: Directed inter-switch trunk pairs this message traverses
        #: (empty on a single switch or a same-switch pair).
        self.hops = (fabric._route_hops(src.name, dst.name)
                     if fabric.topology is not None and src is not dst else ())
        # Fabric flows root their own traces (no request context reaches
        # this layer); each endpoint gets its own timeline row.  None
        # when tracing is off, so an untraced flow makes no span call.
        obs = fabric._obs
        self.span = (obs.start_root("net.flow", src.name, dst=dst.name,
                                    nbytes=nbytes) if obs.enabled else None)
        self.on_delivered = on_delivered
        self.arg = arg
        self._stages_left = 0

    def _granted(self) -> None:
        # 1. The sender NIC drains its queue FIFO: it is held for the
        #    injection overhead and the wire transmission of this
        #    message.  This keeps queued messages (e.g. pipeline blocks)
        #    arriving back-to-back instead of fair-sharing against each
        #    other.
        fabric = self.fabric
        inj = self.injection_s
        fabric.engine.succeed_after(
            self.injected,
            fabric.model.injection_overhead_s if inj is None else inj)

    def _on_injected(self, _ev: Event) -> None:
        if self.span is not None:
            self.span.event("injected")
        if self.dropped:
            # The message entered the wire and vanished at the cut:
            # the NIC frees, the receiver never hears anything.
            self.src.nic.release()
            if self.span is not None:
                self.span.finish()
            return
        nbytes = self.nbytes
        if nbytes == 0:
            self._drained()
            return
        # 2. Wire transmission through the receiver's share: concurrent
        #    senders into one endpoint split its bandwidth fairly, and
        #    the resulting backpressure keeps this NIC busy longer.
        #    With a finite switch core, inter-node flows traverse it as
        #    well and proceed at the slower of the two stages; on a
        #    multi-switch route the flow also drains through every
        #    trunk segment it crosses (per-hop contention).
        fabric = self.fabric
        core = fabric._core if self.src is not self.dst else None
        if core is None and not self.hops:
            self.dst.rx.drain(nbytes, self._drained)
            return
        stages = [self.dst.rx]
        if core is not None:
            stages.append(core)
        stages += [fabric._trunks[h] for h in self.hops]
        self._stages_left = len(stages)
        for share in stages:
            share.drain(nbytes, self._stage_drained)

    def _stage_drained(self) -> None:
        self._stages_left -= 1
        if self._stages_left == 0:
            self._drained()

    def _drained(self) -> None:
        # 3. Propagation latency (not a NIC resource): ``delivered``
        #    itself is scheduled one wire latency out, plus one trunk
        #    latency per inter-switch hop.
        fabric = self.fabric
        latency = fabric.model.latency_s
        delay = latency if self.src is not self.dst and latency > 0 else 0.0
        if self.hops:
            delay += fabric._trunk_latency_s * len(self.hops)
        if fabric._slow or fabric._slow_trunks:
            delay += fabric._extra_latency(self)
        fabric.engine.succeed_after(self.delivered, delay)
        # Last: the release grants the next queued message by call,
        # and this ``delivered`` precedes that message's ``injected``
        # should the two ever fall on the same instant.
        self.src.nic.release()

    def _on_delivered(self, _ev: Event) -> None:
        # ``bytes_moved`` counts each message once regardless of hop
        # count (an end-to-end total); trunk traffic is accounted
        # separately per segment in ``trunk_bytes``.
        fabric = self.fabric
        nbytes = self.nbytes
        fabric.bytes_moved += nbytes
        fabric.messages_sent += 1
        self.src.tx_bytes += nbytes
        self.dst.rx_bytes += nbytes
        if self.hops:
            tb = fabric.trunk_bytes
            for h in self.hops:
                tb[h] = tb.get(h, 0) + nbytes
        if self.span is not None:
            self.span.finish()
        if self.on_delivered is not None:
            self.on_delivered(self.arg)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Transmission {self.src.name}->{self.dst.name} {self.nbytes}B>"


class Endpoint:
    """One fabric port (a compute node or accelerator node NIC)."""

    def __init__(self, fabric: "Fabric", name: str, switch: str | None = None):
        self.fabric = fabric
        self.name = name
        #: Switch this port hangs off (None on a topology-less fabric).
        self.switch = switch
        model = fabric.model
        #: Receive-side bandwidth pool: concurrent senders share it fairly.
        self.rx = BandwidthShare(fabric.engine, model.bandwidth_Bps)
        #: The send-side NIC: drains its message queue FIFO.
        self.nic = Resource(fabric.engine, capacity=1)
        #: Delivered-byte totals for endpoint-traffic accounting.
        self.tx_bytes = 0
        self.rx_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Endpoint {self.name}>"


class Fabric:
    """The cluster interconnect shared by compute nodes and accelerators.

    By default the switch is a non-blocking crossbar: only per-endpoint
    port bandwidth limits flows.  :meth:`set_core_capacity` adds a shared
    core stage (finite bisection bandwidth) that every inter-node flow
    also traverses — modelling oversubscribed switches, where accelerator
    traffic and application traffic contend even between disjoint node
    pairs (the scenario behind the paper's advice to keep the
    accelerator-to-node ratio low).
    """

    def __init__(self, engine: Engine, model: LinkModel,
                 topology: Topology | None = None):
        self.engine = engine
        self.model = model
        self.endpoints: dict[str, Endpoint] = {}
        self._obs = collector_for(engine)
        self._core: BandwidthShare | None = None
        #: Running totals for utilization analysis.
        self.bytes_moved = 0
        self.messages_sent = 0
        #: Partitioned directed links: messages on them vanish in flight.
        self._cuts: set[tuple[str, str]] = set()
        #: Extra propagation latency per directed link (slow-link fault).
        self._slow: dict[tuple[str, str], float] = {}
        self.messages_dropped = 0
        self.bytes_dropped = 0
        #: Multi-switch extension: one BandwidthShare per *directed* trunk
        #: so cross-switch flows contend hop by hop, a per-hop latency,
        #: and routed impairments (cut/slow applied to trunk segments).
        self.topology = topology
        self._trunks: dict[tuple[str, str], BandwidthShare] = {}
        self._trunk_latency_s = 0.0
        self.trunk_bytes: dict[tuple[str, str], int] = {}
        self._trunk_cuts: dict[tuple[str, str], int] = {}
        self._pair_trunk_cuts: dict[tuple[str, str],
                                    tuple[tuple[str, str], ...]] = {}
        self._slow_trunks: dict[tuple[str, str], float] = {}
        self._hop_cache: dict[tuple[str, str],
                              tuple[tuple[str, str], ...]] = {}
        if topology is not None:
            trunk_bw = topology.trunk_bandwidth_Bps or model.bandwidth_Bps
            self._trunk_latency_s = (model.latency_s
                                     if topology.trunk_latency_s is None
                                     else topology.trunk_latency_s)
            for a, b in topology.trunks:
                self._trunks[(a, b)] = BandwidthShare(engine, trunk_bw)
                self._trunks[(b, a)] = BandwidthShare(engine, trunk_bw)

    def set_core_capacity(self, capacity_Bps: float | None) -> None:
        """Limit the switch core to ``capacity_Bps`` (None = non-blocking)."""
        if capacity_Bps is None:
            self._core = None
        else:
            self._core = BandwidthShare(self.engine, capacity_Bps)

    def add_endpoint(self, name: str, switch: str | None = None) -> Endpoint:
        """Register a new port on the fabric. Names must be unique.

        On a multi-switch fabric ``switch`` attaches the port to a named
        switch (default: the topology's first switch).
        """
        if name in self.endpoints:
            raise NetworkError(f"duplicate endpoint name: {name!r}")
        topo = self.topology
        if topo is None:
            if switch is not None:
                raise NetworkError(
                    f"endpoint {name!r} names switch {switch!r} but the "
                    f"fabric has no topology")
        else:
            if switch is None:
                switch = topo.switches[0]
            elif switch not in topo._adjacency:
                raise NetworkError(f"unknown switch {switch!r} for "
                                   f"endpoint {name!r}")
        ep = Endpoint(self, name, switch)
        self.endpoints[name] = ep
        return ep

    def endpoint(self, name: str) -> Endpoint:
        """Look up an endpoint by name."""
        try:
            return self.endpoints[name]
        except KeyError:
            raise NetworkError(f"unknown endpoint {name!r}") from None

    # -- topology queries -----------------------------------------------
    def switch_of(self, name: str) -> str | None:
        """Switch the named endpoint hangs off (None without a topology)."""
        return self.endpoint(name).switch

    def hop_count(self, a: str, b: str) -> int:
        """Trunk hops between two endpoints (0 = same switch / no topo)."""
        return len(self._route_hops(a, b))

    def _route_hops(self, src: str, dst: str) -> tuple[tuple[str, str], ...]:
        if self.topology is None or src == dst:
            return ()
        key = (src, dst)
        hops = self._hop_cache.get(key)
        if hops is None:
            sa = self.endpoint(src).switch
            sb = self.endpoint(dst).switch
            hops = (() if sa == sb
                    else self.topology.trunk_hops(sa, sb))
            self._hop_cache[key] = hops
        return hops

    # -- impairments (chaos injection) ----------------------------------
    def cut(self, a: str, b: str) -> None:
        """Partition the ``a``/``b`` link both ways: messages on it vanish
        in flight.

        The sender still pays its NIC/injection costs (it cannot tell),
        but nothing arrives and no delivery event ever fires — exactly
        the silence a real partition produces.  Loopback (``a == b``)
        traffic is never cut.

        When ``a`` and ``b`` sit on different switches the cut is routed:
        the trunk segments on their path go down, so every endpoint pair
        whose route crosses those trunks loses connectivity too (a real
        trunk failure severs the path, not one flow).  Same-switch pairs
        keep the original port-level semantics.
        """
        if a not in self.endpoints or b not in self.endpoints:
            raise NetworkError(f"unknown endpoint in cut: {a!r}/{b!r}")
        for src, dst in ((a, b), (b, a)):
            hops = self._route_hops(src, dst)
            if hops and (src, dst) not in self._pair_trunk_cuts:
                self._pair_trunk_cuts[(src, dst)] = hops
                for h in hops:
                    self._trunk_cuts[h] = self._trunk_cuts.get(h, 0) + 1
            else:
                self._cuts.add((src, dst))

    def heal(self, a: str | None = None, b: str | None = None) -> None:
        """Undo :meth:`cut` for one link, or every link when ``a`` is None.

        Only affects messages sent after the heal; in-flight drops stay
        dropped (the wire does not retroactively deliver).
        """
        if a is None:
            self._cuts.clear()
            self._trunk_cuts.clear()
            self._pair_trunk_cuts.clear()
            return
        for src, dst in ((a, b), (b, a)):
            self._cuts.discard((src, dst))
            hops = self._pair_trunk_cuts.pop((src, dst), ())
            for h in hops:
                left = self._trunk_cuts.get(h, 0) - 1
                if left <= 0:
                    self._trunk_cuts.pop(h, None)
                else:
                    self._trunk_cuts[h] = left

    def is_cut(self, src: str, dst: str) -> bool:
        if (src, dst) in self._cuts:
            return True
        if not self._trunk_cuts:
            return False
        return any(h in self._trunk_cuts for h in self._route_hops(src, dst))

    def set_link_delay(self, a: str, b: str, extra_s: float) -> None:
        """Add ``extra_s`` propagation latency to the ``a``/``b`` link,
        both ways.

        ``extra_s`` of 0 restores the nominal latency.  Ordering per
        (src, dst) pair is preserved: the extra delay is a constant, so
        messages delay-shift uniformly instead of overtaking.

        Cross-switch pairs route the impairment to the first trunk
        segment on their path, so every flow crossing that trunk slows
        down — the fault lives on the wire, not on one endpoint pair.
        """
        if extra_s < 0:
            raise NetworkError(f"negative link delay: {extra_s!r}")
        for pair in ((a, b), (b, a)):
            hops = self._route_hops(*pair)
            target: dict = self._slow_trunks if hops else self._slow
            key = hops[0] if hops else pair
            if extra_s == 0:
                target.pop(key, None)
            else:
                target[key] = extra_s

    def _extra_latency(self, tx: Transmission) -> float:
        if tx.src is tx.dst:
            return 0.0
        extra = 0.0
        if self._slow:
            extra = self._slow.get((tx.src.name, tx.dst.name), 0.0)
        if self._slow_trunks and tx.hops:
            slow = self._slow_trunks
            for h in tx.hops:
                extra += slow.get(h, 0.0)
        return extra

    def transfer(self, src: Endpoint | str, dst: Endpoint | str, nbytes: int,
                 injection_s: float | None = None,
                 on_delivered: _t.Callable[[_t.Any], None] | None = None,
                 arg: _t.Any = None) -> Transmission:
        """Start moving ``nbytes`` from ``src`` to ``dst``.

        Returns immediately with a :class:`Transmission`; the flow itself
        runs as a chain of its continuations.  Sending to oneself is
        charged a loopback (no wire latency, through the local RX share
        only).

        ``injection_s`` overrides the per-message posting cost, modelling
        protocol-specific send paths: per-block memory registration makes
        it *higher* for middleware H2D block streams, pre-built descriptors
        over a pinned ring make it *lower* for daemon D2H streams.

        ``on_delivered(arg)`` is called at delivery, right after the
        fabric's own accounting: the messaging layer's continuation,
        without a closure or a second callback on ``delivered``.
        """
        if isinstance(src, str):
            src = self.endpoint(src)
        if isinstance(dst, str):
            dst = self.endpoint(dst)
        if src.fabric is not self or dst.fabric is not self:
            raise NetworkError("endpoints belong to a different fabric")
        if nbytes < 0:
            raise NetworkError(f"negative message size: {nbytes!r}")
        if injection_s is not None and injection_s < 0:
            raise NetworkError(f"negative injection override: {injection_s!r}")
        tx = Transmission(self, src, dst, nbytes, injection_s, on_delivered, arg)
        if src is not dst and (
                (self._cuts and (src.name, dst.name) in self._cuts)
                or (self._trunk_cuts
                    and any(h in self._trunk_cuts for h in tx.hops))):
            # Decided synchronously so the messaging layer above can see
            # the drop before it draws a delivery-order sequence number.
            tx.dropped = True
            self.messages_dropped += 1
            self.bytes_dropped += nbytes
        src.nic.when_granted(tx._granted)
        return tx

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Fabric {self.model.name} endpoints={len(self.endpoints)}>"
