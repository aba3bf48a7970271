"""Resource discovery and autoscaling for a dynamic accelerator pool.

The paper's ARM is built from a static device roster; this module makes
pool membership *dynamic*, in the spirit of the ARC GPU
information-provider: every accelerator daemon runs a
:class:`DiscoveryAgent` that periodically publishes a capability/health
report (one-way ``ARM_REPORT``), and the ARM builds its pool from the
feed — unknown healthy reporters join as FREE, silent devices age out of
the pool after a TTL (the ARM's sweeper, see
:meth:`~repro.core.arm.ResourceManager.enable_discovery`), and a
graceful departure sends ``ARM_LEAVE``.

Failure detection falls out of the reporting cadence: a crashed daemon
stops publishing and is TTL-evicted; a *straggler* publishes late (its
agent's sleep scales with the daemon's ``slow_factor``) and, when severe
enough, ages out exactly like a crash — gray failures and hard failures
are indistinguishable from the consumer side, which is the point.

:class:`Autoscaler` closes the loop against offered load: it samples the
ARM's lease backlog and grows the virtual pool by starting an inactive
agent, or shrinks it by gracefully retiring an idle one (the retired
agent leaves with reason ``scale-down`` so membership scoring can tell
policy from failure).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from .protocol import Op, Request, TAG_ARM

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..obs import MetricsRegistry
    from .arm import ResourceManager
    from .daemon import Daemon


@dataclasses.dataclass(frozen=True)
class CapabilityReport:
    """One discovery report, as carried in ``ARM_REPORT`` params."""

    ac_id: int
    daemon_rank: int
    healthy: bool
    version: str
    active_slices: int
    #: Monotonic per-agent sequence number (diagnostics, not ordering —
    #: the fabric already delivers per-pair in order).
    seq: int
    #: Fabric placement: the switch this device hangs off (None on a
    #: single-switch fabric) — lets the ARM place multi-device
    #: allocations topology-aware.
    switch: str | None

    def params(self) -> dict:
        return {
            "ac_id": self.ac_id, "daemon_rank": self.daemon_rank,
            "healthy": self.healthy, "version": self.version,
            "active_slices": self.active_slices, "seq": self.seq,
            "switch": self.switch, "oneway": True,
        }


class DiscoveryAgent:
    """Publishes one daemon's capability reports to the ARM.

    The agent lives on the daemon's own rank and sends one-way reports
    every ``period_s`` of virtual time (scaled by the daemon's
    ``slow_factor``, so stragglers report late and can age out).  A
    crashed daemon's agent goes silent — the host is gone — and resumes
    publishing when the daemon is repaired or restarted.  ``phase_s``
    staggers first reports so a fleet does not thunder in lockstep.
    """

    def __init__(self, daemon: "Daemon", ac_id: int, arm_rank: int,
                 period_s: float, phase_s: float = 0.0):
        self.daemon = daemon
        self.ac_id = ac_id
        self.arm_rank = arm_rank
        self.period_s = period_s
        self.phase_s = phase_s
        self.engine = daemon.engine
        self.reports_sent = 0
        self._seq = 0
        #: Paused agents skip publishing (heartbeat-flap injection).
        self.paused = False
        #: Bumped on stop(): stale publish loops notice and exit.
        self._generation = 0
        self._proc = None

    @property
    def active(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    def start(self):
        """Begin (or resume after stop) the publish loop."""
        if self.active:
            return self._proc
        self._generation += 1
        self._proc = self.engine.process(
            self._publish(self._generation), name=f"discovery:ac{self.ac_id}")
        return self._proc

    def stop(self, reason: str | None = None) -> None:
        """Stop publishing; optionally announce a graceful departure.

        With ``reason`` the agent sends a one-way ``ARM_LEAVE`` (e.g.
        ``scale-down``, ``upgrade``) so the ARM removes the record now
        instead of waiting out the TTL.  A crashed daemon cannot send.
        """
        self._generation += 1
        self._proc = None
        if reason is not None and not self.daemon.crashed:
            self.daemon.rank.isend(self.arm_rank, TAG_ARM, Request(
                op=Op.ARM_LEAVE, req_id=next(self.daemon.rank.comm.ids),
                reply_to=self.daemon.rank.index,
                params={"ac_id": self.ac_id, "reason": reason,
                        "oneway": True}))

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def report(self) -> CapabilityReport:
        """The report the agent would publish right now."""
        d = self.daemon
        self._seq += 1
        ep = getattr(d.node, "endpoint", None)
        return CapabilityReport(
            ac_id=self.ac_id, daemon_rank=d.rank.index,
            healthy=not d.broken, version=d.version,
            active_slices=sum(1 for v in d._vacs.values() if not v.revoked),
            seq=self._seq, switch=ep.switch if ep is not None else None)

    def _publish(self, generation: int):
        if self.phase_s > 0:
            yield self.engine.sleep(self.phase_s)
        while generation == self._generation:
            d = self.daemon
            if not (d.crashed or self.paused):
                self.daemon.rank.isend(self.arm_rank, TAG_ARM, Request(
                    op=Op.ARM_REPORT, req_id=next(d.rank.comm.ids),
                    reply_to=d.rank.index, params=self.report().params()))
                self.reports_sent += 1
            # A straggler publishes late: its reports age out via the
            # ARM's TTL exactly like a crash would, and the device
            # rejoins once the slowdown ends.
            yield self.engine.sleep(self.period_s * d.slow_factor)


#: When the autoscaler grows or shrinks the discovered pool: never
#: retire below ``MIN_NODES`` members; grow when the ARM's lease backlog
#: reaches ``SCALE_UP_BACKLOG``; shrink after ``SCALE_DOWN_IDLE_ROUNDS``
#: consecutive idle (no backlog, spare capacity) sampling rounds, one
#: every ``AUTOSCALE_PERIOD_S`` virtual seconds.
MIN_NODES = 1
SCALE_UP_BACKLOG = 1
SCALE_DOWN_IDLE_ROUNDS = 4
AUTOSCALE_PERIOD_S = 1e-3


class Autoscaler:
    """Grows/shrinks the virtual pool against the ARM's offered load.

    Scale-up starts the inactive agent with the lowest ``ac_id``; the
    device joins through the normal discovery feed, so queued waiters
    wake through the same (exactly-once) path as any other join.
    Scale-down gracefully retires the idle, leaseless pool member with
    the highest ``ac_id`` via ``ARM_LEAVE`` with reason ``scale-down``.
    Scale-up never starts agents beyond ``max_nodes`` pool members.
    """

    def __init__(self, arm: "ResourceManager",
                 agents: _t.Sequence[DiscoveryAgent], max_nodes: int,
                 registry: "MetricsRegistry | None" = None):
        self.arm = arm
        self.agents = {a.ac_id: a for a in agents}
        self.max_nodes = max_nodes
        self.registry = registry
        self.engine = arm.engine
        self.scale_ups = 0
        self.scale_downs = 0
        #: Ordered decision log: (time, "up"/"down", ac_id).
        self.events: list[tuple[float, str, int]] = []
        self._idle_rounds = 0
        self._proc = None

    def backlog(self) -> int:
        """Queued demand the ARM cannot place right now."""
        return len(self.arm._vqueue) + len(self.arm._wait_queue)

    def start(self, rounds: int | None = None):
        if self._proc is not None and self._proc.is_alive:
            return self._proc
        self._proc = self.engine.process(self._loop(rounds),
                                         name="autoscaler")
        return self._proc

    def stop(self) -> None:
        self._proc = None

    def _loop(self, rounds: int | None):
        done = 0
        while self._proc is not None:
            if rounds is not None and done >= rounds:
                break
            yield self.engine.sleep(AUTOSCALE_PERIOD_S)
            done += 1
            self._sample()

    def _sample(self) -> None:
        pool = len(self.arm.records)
        backlog = self.backlog()
        if self.registry is not None:
            self.registry.gauge("autoscaler.pool_size").set(pool)
            self.registry.gauge("autoscaler.backlog").set(backlog)
        if backlog >= SCALE_UP_BACKLOG:
            self._idle_rounds = 0
            if pool < self.max_nodes:
                self._scale_up()
            return
        if backlog == 0 and pool > MIN_NODES:
            self._idle_rounds += 1
            if self._idle_rounds >= SCALE_DOWN_IDLE_ROUNDS:
                self._idle_rounds = 0
                self._scale_down()
        else:
            self._idle_rounds = 0

    def _scale_up(self) -> None:
        for ac_id in sorted(self.agents):
            agent = self.agents[ac_id]
            if agent.active or agent.daemon.crashed:
                continue
            agent.start()
            self.scale_ups += 1
            self.events.append((self.engine.now, "up", ac_id))
            if self.registry is not None:
                self.registry.counter("autoscaler.scale_ups").inc()
            return

    def _scale_down(self) -> None:
        # Retire the highest-id member that is FREE and hosts no leases.
        leased = {lease.ac_id for lease in self.arm.admission.leases.values()}
        for ac_id in sorted(self.arm.records, reverse=True):
            r = self.arm.records[ac_id]
            if r.state.value != "free" or ac_id in leased:
                continue
            agent = self.agents.get(ac_id)
            if agent is None or not agent.active:
                continue
            agent.stop(reason="scale-down")
            self.scale_downs += 1
            self.events.append((self.engine.now, "down", ac_id))
            if self.registry is not None:
                self.registry.counter("autoscaler.scale_downs").inc()
            return
