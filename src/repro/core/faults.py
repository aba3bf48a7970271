"""Fault injection for the fault-tolerance experiments.

The paper argues (Sect. III-A) that in the dynamic architecture a broken
accelerator no longer takes a compute node down with it.  The injector
models a hardware failure of one accelerator's GPU: the daemon host stays
up (it answers every subsequent request with ``Status.BROKEN``), the ARM
marks the accelerator BROKEN, and the owning compute node sees an
:class:`~repro.errors.AcceleratorFault` on its next operation instead of
losing its own node.
"""

from __future__ import annotations

import typing as _t

from .protocol import Op, Request, Status, TAG_ARM, reply_tag

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..cluster.builder import Cluster


class FaultInjector:
    """Schedules accelerator failures on a cluster."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.engine = cluster.engine

    def break_at(self, ac_id: int, at_time: float) -> None:
        """Break accelerator ``ac_id`` at virtual time ``at_time``."""
        daemon = self.cluster.daemons[ac_id]

        def failer():
            delay = at_time - self.engine.now
            if delay > 0:
                yield self.engine.timeout(delay)
            daemon.broken = True
            # Hardware monitoring notifies the ARM out of band.
            self._notify_break(ac_id)
            if False:
                yield  # pragma: no cover

        self.engine.process(failer(), name=f"fault:ac{ac_id}")

    def crash_at(self, ac_id: int, at_time: float) -> None:
        """Silently kill accelerator ``ac_id``'s daemon host at ``at_time``.

        Unlike :meth:`break_at` — where the daemon host survives and keeps
        answering ``Status.BROKEN`` — a crashed daemon drops every request
        without replying.  The failure is only observable through client
        deadlines (:class:`~repro.errors.RequestTimeout`) or the ARM's
        discovery TTL sweep.
        """
        daemon = self.cluster.daemons[ac_id]

        def crasher():
            delay = at_time - self.engine.now
            if delay > 0:
                yield self.engine.timeout(delay)
            daemon.crashed = True
            if False:
                yield  # pragma: no cover

        self.engine.process(crasher(), name=f"crash:ac{ac_id}")

    # -- discovery-layer injections (chaos scenarios) -------------------
    # These require a cluster built with ``discovery=True`` (it owns the
    # per-accelerator DiscoveryAgents).  Pure state flips are scheduled
    # with Engine.call_at instead of one generator process each.

    def join_at(self, ac_id: int, at_time: float) -> None:
        """Start ``ac_id``'s discovery agent: the node joins the pool."""
        agent = self.cluster.agents[ac_id]
        self.engine.call_at(at_time, lambda: agent.start())

    def leave_at(self, ac_id: int, at_time: float,
                 reason: str | None = "departed") -> None:
        """Gracefully leave the pool (``ARM_LEAVE``) at ``at_time``.

        ``reason=None`` leaves silently — the agent just stops reporting
        and the node ages out via the ARM's TTL sweep instead.
        """
        agent = self.cluster.agents[ac_id]
        self.engine.call_at(at_time, lambda: agent.stop(reason=reason))

    def flap_at(self, ac_id: int, at_time: float, until_time: float,
                half_period_s: float) -> None:
        """Oscillate ``ac_id``'s report stream (heartbeat flapping).

        The agent pauses and resumes every ``half_period_s`` until
        ``until_time``: with a pause longer than the ARM's TTL the node
        is repeatedly evicted and rejoins, churning the pool.
        """
        agent = self.cluster.agents[ac_id]

        def flapper():
            delay = at_time - self.engine.now
            if delay > 0:
                yield self.engine.timeout(delay)
            while self.engine.now < until_time:
                agent.pause()
                yield self.engine.timeout(half_period_s)
                agent.resume()
                yield self.engine.timeout(half_period_s)
            agent.resume()

        self.engine.process(flapper(), name=f"flap:ac{ac_id}")

    def slow_at(self, ac_id: int, at_time: float, factor: float,
                until_time: float | None = None) -> None:
        """Make ``ac_id``'s daemon a straggler (software slowdown).

        Every software cost — request handling, mallocs, and crucially
        the discovery report cadence — multiplies by ``factor``; a severe
        straggler ages out of the pool like a crash (gray failure).
        ``until_time`` restores nominal speed.
        """
        daemon = self.cluster.daemons[ac_id]
        self.engine.call_at(at_time,
                            lambda: setattr(daemon, "slow_factor", factor))
        if until_time is not None:
            self.engine.call_at(until_time,
                                lambda: setattr(daemon, "slow_factor", 1.0))

    def partition_at(self, group_a: _t.Sequence[str],
                     group_b: _t.Sequence[str], at_time: float,
                     until_time: float | None = None) -> None:
        """Cut every fabric link between two endpoint-name groups.

        Messages crossing the cut vanish in flight (no error back to the
        sender); ``until_time`` heals the cut.  In-flight drops stay
        dropped — the wire does not retroactively deliver.
        """
        fabric = self.cluster.fabric
        a, b = list(group_a), list(group_b)

        def cut():
            for x in a:
                for y in b:
                    fabric.cut(x, y)

        def heal():
            for x in a:
                for y in b:
                    fabric.heal(x, y)

        self.engine.call_at(at_time, cut)
        if until_time is not None:
            self.engine.call_at(until_time, heal)

    def slow_link_at(self, a: str, b: str, extra_s: float, at_time: float,
                     until_time: float | None = None) -> None:
        """Add ``extra_s`` propagation latency to the ``a``/``b`` link."""
        fabric = self.cluster.fabric
        self.engine.call_at(at_time,
                            lambda: fabric.set_link_delay(a, b, extra_s))
        if until_time is not None:
            self.engine.call_at(until_time,
                                lambda: fabric.set_link_delay(a, b, 0.0))

    def upgrade_at(self, ac_id: int, at_time: float, version: str,
                   downtime_s: float) -> None:
        """One rolling-upgrade step: announce, go down, restart upgraded.

        The daemon leaves gracefully (reason ``upgrade``), is unreachable
        for ``downtime_s`` (requests dropped, live slices lost), then
        restarts advertising ``version`` and rejoins via discovery.
        """
        daemon = self.cluster.daemons[ac_id]
        agent = self.cluster.agents.get(ac_id)

        def take_down():
            if agent is not None:
                agent.stop(reason="upgrade")
            daemon.crashed = True

        def bring_up():
            daemon.restart(version=version)
            if agent is not None:
                agent.start()

        self.engine.call_at(at_time, take_down)
        self.engine.call_at(at_time + downtime_s, bring_up)

    def _notify_break(self, ac_id: int) -> None:
        # The notification is sent from the accelerator's own rank (its
        # management agent); the reply is consumed by a helper process.
        daemon = self.cluster.daemons[ac_id]
        req = Request(op=Op.ARM_BREAK, req_id=next(daemon.rank.comm.ids),
                      reply_to=daemon.rank.index, params={"ac_id": ac_id})
        daemon.rank.isend(self.cluster.arm_rank_index, TAG_ARM, req)

        def consume_reply():
            msg = yield from daemon.rank.recv(
                source=self.cluster.arm_rank_index, tag=reply_tag(req.req_id))
            resp = msg.payload
            if resp.status not in (Status.OK,):
                raise RuntimeError(f"ARM rejected fault notification: {resp}")

        self.engine.process(consume_reply(), name=f"fault-ack:ac{ac_id}")
