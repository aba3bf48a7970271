"""Multi-switch fabric topologies: rings and 2D/3D tori.

The paper's testbed hangs every node off one non-blocking switch; the
APEnet+/GPU-P2P line of work (arXiv:1307.8276, 1311.1741) runs direct
GPU↔GPU traffic over a 3D-torus interconnect instead.  A
:class:`Topology` names the switches, lists the inter-switch trunk
links, and answers shortest-path routing queries; the
:class:`~repro.netsim.fabric.Fabric` turns each directed trunk into a
:class:`~repro.sim.BandwidthShare` so concurrent flows crossing the same
trunk contend for it hop by hop (exactly the per-endpoint fair-share
machinery, applied per trunk).

Routing is deterministic: breadth-first search visiting neighbours in
sorted name order, so among equal-length paths the one through the
lexicographically earliest discovered predecessor wins.  The same
topology therefore always produces the same routing table — seeded runs
replay bit-identically.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing as _t

from ..errors import NetworkError


class Topology:
    """Named switches + undirected trunk links + deterministic routing."""

    def __init__(self, name: str, switches: _t.Sequence[str],
                 trunks: _t.Iterable[tuple[str, str]]):
        if len(set(switches)) != len(switches):
            raise NetworkError(f"duplicate switch names in topology {name!r}")
        self.name = name
        self.switches: tuple[str, ...] = tuple(switches)
        known = set(self.switches)
        #: Undirected trunk set, each stored with endpoints sorted.
        self.trunks: tuple[tuple[str, str], ...] = tuple(sorted(
            {tuple(sorted(t)) for t in trunks if t[0] != t[1]}))
        for a, b in self.trunks:
            if a not in known or b not in known:
                raise NetworkError(f"trunk {a!r}-{b!r} references an "
                                   f"unknown switch")
        self._adjacency: dict[str, tuple[str, ...]] = {s: () for s in switches}
        neigh: dict[str, set[str]] = {s: set() for s in switches}
        for a, b in self.trunks:
            neigh[a].add(b)
            neigh[b].add(a)
        for s, ns in neigh.items():
            self._adjacency[s] = tuple(sorted(ns))
        #: source -> {dest: predecessor-of-dest on the route} (lazy, per
        #: source; a BFS tree is deterministic given sorted adjacency).
        self._parents: dict[str, dict[str, str]] = {}
        self._routes: dict[tuple[str, str], tuple[str, ...]] = {}

    # -- constructors -----------------------------------------------------
    @classmethod
    def single(cls, name: str = "single") -> "Topology":
        """One switch, no trunks — the paper's original crossbar."""
        return cls(name, ["sw0"], [])

    @classmethod
    def ring(cls, n: int) -> "Topology":
        """``n`` switches in a cycle (n >= 2; n == 2 degenerates to one
        trunk)."""
        if n < 2:
            raise NetworkError(f"a ring needs >= 2 switches, got {n}")
        switches = [f"sw{i}" for i in range(n)]
        trunks = [(f"sw{i}", f"sw{(i + 1) % n}") for i in range(n)]
        return cls(f"ring{n}", switches, trunks)

    @classmethod
    def torus(cls, *dims: int) -> "Topology":
        """A 2D or 3D torus: wraparound mesh over ``dims`` switches."""
        if len(dims) not in (2, 3):
            raise NetworkError(f"torus takes 2 or 3 dimensions, got {dims!r}")
        if any(d < 1 for d in dims):
            raise NetworkError(f"torus dimensions must be >= 1: {dims!r}")
        coords = list(itertools.product(*(range(d) for d in dims)))
        name_of = {c: "sw" + "-".join(str(x) for x in c) for c in coords}
        trunks = []
        for c in coords:
            for axis, extent in enumerate(dims):
                if extent < 2:
                    continue
                nxt = list(c)
                nxt[axis] = (c[axis] + 1) % extent
                trunks.append((name_of[c], name_of[tuple(nxt)]))
        label = "x".join(str(d) for d in dims)
        return cls(f"torus{label}", [name_of[c] for c in coords], trunks)

    # -- routing ----------------------------------------------------------
    def _bfs(self, src: str) -> dict[str, str]:
        parents: dict[str, str] = {src: src}
        queue = collections.deque([src])
        while queue:
            cur = queue.popleft()
            for nxt in self._adjacency[cur]:
                if nxt not in parents:
                    parents[nxt] = cur
                    queue.append(nxt)
        return parents

    def route(self, src: str, dst: str) -> tuple[str, ...]:
        """The switch path ``(src, ..., dst)``; deterministic tie-breaks."""
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        if src not in self._adjacency or dst not in self._adjacency:
            raise NetworkError(f"unknown switch in route: {src!r}/{dst!r}")
        if src == dst:
            path: tuple[str, ...] = (src,)
        else:
            parents = self._parents.get(src)
            if parents is None:
                parents = self._parents[src] = self._bfs(src)
            if dst not in parents:
                raise NetworkError(
                    f"no trunk path {src!r} -> {dst!r} in {self.name!r}")
            rev = [dst]
            while rev[-1] != src:
                rev.append(parents[rev[-1]])
            path = tuple(reversed(rev))
        self._routes[key] = path
        return path

    def hops(self, src: str, dst: str) -> int:
        """Trunk hops between two switches (0 for the same switch)."""
        return len(self.route(src, dst)) - 1

    def trunk_hops(self, src: str, dst: str) -> tuple[tuple[str, str], ...]:
        """The directed trunk pairs a ``src``→``dst`` message traverses."""
        path = self.route(src, dst)
        return tuple(zip(path, path[1:]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Topology {self.name} switches={len(self.switches)} "
                f"trunks={len(self.trunks)}>")


@dataclasses.dataclass(frozen=True)
class TopologySpec:
    """Declarative topology choice for a :class:`~repro.cluster.ClusterSpec`.

    ``kind`` is one of ``single``, ``ring``, ``torus2d``, ``torus3d``;
    ``dims`` is the switch count (ring) or per-axis extents (torus).
    Trunks have the cluster link model's bandwidth and latency.
    """

    kind: str = "single"
    dims: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("single", "ring", "torus2d", "torus3d"):
            raise NetworkError(f"unknown topology kind {self.kind!r}")
        want = {"single": 0, "ring": 1, "torus2d": 2, "torus3d": 3}[self.kind]
        if len(self.dims) != want:
            raise NetworkError(
                f"topology {self.kind!r} takes {want} dimension(s), "
                f"got {self.dims!r}")

    def build(self) -> Topology:
        if self.kind == "single":
            return Topology.single()
        if self.kind == "ring":
            return Topology.ring(self.dims[0])
        return Topology.torus(*self.dims)
