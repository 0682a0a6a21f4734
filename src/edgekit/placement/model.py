"""Application/network graphs and assignment-energy evaluation.

An assignment X maps every application component to one network node.  Its
energy splits into the device term (computation) and the network term (data
moved between components over shortest energy paths):

    E_d = sum_t C_X(t) * S_t / P_X(t)
    E_n = sum_(t1,t2) O_t1 * D(X(t1), X(t2))
    E_t = E_d + E_n

D(n1, n2) is the least total transfer energy T_l over the undirected links
joining n1 to n2 (inf when none does), found by a Dijkstra run from every
node.  A link with T_l = 0 is a link: it joins its nodes at no cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np


class Infeasible(RuntimeError):
    pass


class TimeBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class AppComponent:
    id: int
    resources: float  # R_t
    output: float  # O_t, data emitted per received input
    compute: float  # S_t, computation time multiple

    def __post_init__(self):
        if not all(map(math.isfinite, (self.resources, self.output, self.compute))):
            raise ValueError("component parameters must be finite")
        if self.resources <= 0:
            raise ValueError("component resources must be > 0")
        if self.output < 0:
            raise ValueError("component output must be >= 0")
        if self.compute <= 0:
            raise ValueError("component compute size must be > 0")


@dataclass(frozen=True)
class AppGraph:
    components: tuple[AppComponent, ...]
    edges: tuple[tuple[int, int], ...]  # directed (t1, t2), data volume O_t1
    shape: str = "custom"  # wide | long | custom

    def __post_init__(self):
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate component ids")
        known = set(ids)
        for t1, t2 in self.edges:
            if t1 not in known or t2 not in known:
                raise ValueError(f"edge ({t1},{t2}) references unknown component")
        if self._has_cycle():
            raise ValueError("application graph must be acyclic")

    def _has_cycle(self) -> bool:
        adj: dict[int, list[int]] = {c.id: [] for c in self.components}
        for t1, t2 in self.edges:
            adj[t1].append(t2)
        state: dict[int, int] = {}

        def visit(u):
            state[u] = 1
            for v in adj[u]:
                s = state.get(v, 0)
                if s == 1 or (s == 0 and visit(v)):
                    return True
            state[u] = 2
            return False

        return any(state.get(c.id, 0) == 0 and visit(c.id) for c in self.components)


@dataclass(frozen=True)
class NetNode:
    id: int
    speed: float  # P_n, processing speedup
    resources: float  # R_n
    compute_energy: float  # C_n, energy per computation unit
    kind: str = "wired"  # wired | wireless

    def __post_init__(self):
        if not all(map(math.isfinite, (self.speed, self.resources, self.compute_energy))):
            raise ValueError("node parameters must be finite")
        if min(self.speed, self.resources, self.compute_energy) <= 0:
            raise ValueError("node parameters must be > 0")
        if self.kind not in ("wired", "wireless"):
            raise ValueError(f"unknown node kind {self.kind!r}")


class _NodeTable(NamedTuple):
    """A network's nodes in id order, the order the solvers try them in."""

    nodes: list[NetNode]
    speed: list[float]
    compute_energy: list[float]
    D: list[list[float]]  # path_energy, rows and columns in id order


@dataclass(frozen=True)
class NetGraph:
    nodes: tuple[NetNode, ...]
    links: tuple[tuple[int, int, float], ...]  # (n1, n2, T_l)

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        known = set(ids)
        for a, b, tl in self.links:
            if a not in known or b not in known:
                raise ValueError(f"link ({a},{b}) references unknown node")
            if not math.isfinite(tl):
                raise ValueError(f"link ({a},{b}) transfer energy must be finite")
            if tl < 0:
                raise ValueError("link transfer energy must be >= 0")

    @cached_property
    def _index(self) -> dict[int, int]:
        return {n.id: i for i, n in enumerate(self.nodes)}

    @cached_property
    def path_energy(self) -> np.ndarray:
        """All-pairs shortest-path transfer-energy matrix D; D(n,n) = 0.

        Parallel links count at their cheapest, self-loops not at all.  Each
        row is its own Dijkstra run, never copied from its transpose: D[i, j]
        is the fixed point min over neighbours u of fl(D[i, u] + T_l(u, j)),
        whatever order the heap breaks ties in, and D[j, i] may differ from
        it in the last ulp.
        """
        m = len(self.nodes)
        adj: list[dict[int, float]] = [{} for _ in range(m)]
        for a, b, tl in self.links:
            i, j = self._index[a], self._index[b]
            if i != j and tl < adj[i].get(j, math.inf):
                adj[i][j] = adj[j][i] = tl
        rows = []
        for src in range(m):
            dist = [math.inf] * m
            dist[src] = 0.0
            heap = [(0.0, src)]
            while heap:
                d, u = heappop(heap)
                if d > dist[u]:
                    continue
                for v, tl in adj[u].items():
                    nd = d + tl
                    if nd < dist[v]:
                        dist[v] = nd
                        heappush(heap, (nd, v))
            rows.append(dist)
        return np.array(rows, dtype=np.float64).reshape(m, m)

    @cached_property
    def _by_id(self) -> _NodeTable:
        """The node-side solver tables, built once per network."""
        rows = sorted(range(len(self.nodes)), key=lambda r: self.nodes[r].id)
        nodes = [self.nodes[r] for r in rows]
        D = self.path_energy[np.ix_(rows, rows)].tolist()
        return _NodeTable(nodes, [n.speed for n in nodes], [n.compute_energy for n in nodes], D)

    def node(self, nid: int) -> NetNode:
        return self.nodes[self._index[nid]]

    @property
    def connected(self) -> bool:
        return bool(np.all(np.isfinite(self.path_energy)))

    @cached_property
    def _link_energy(self) -> dict[int, float]:
        """Each node's mean incident link energy, from one pass over `links`.

        A node's incident energies are listed in link order (a self-loop
        once) and averaged by np.mean, whose pairwise sum differs from a
        sequential one from 8 terms on.
        """
        incident: dict[int, list[float]] = {n.id: [] for n in self.nodes}
        for a, b, tl in self.links:
            incident[a].append(tl)
            if b != a:
                incident[b].append(tl)
        return {nid: float(np.mean(inc)) if inc else 0.0 for nid, inc in incident.items()}

    def mean_link_energy(self, nid: int) -> float:
        """Average transfer energy of the node's incident links: 0 for a node
        without links, KeyError for an id that is not a node.  The table of
        every node's mean is built once per network, on first use."""
        return self._link_energy[nid]


@dataclass(frozen=True)
class Assignment:
    mapping: dict[int, int]  # component id -> node id
    device_energy: float  # E_d
    network_energy: float  # E_n
    feasible: bool = True
    violations: tuple[str, ...] = ()
    status: str = "evaluated"  # evaluated | optimal | heuristic | time_budget_exceeded
    gap: float = 0.0  # upper bound on E_t excess over the optimum

    @property
    def total_energy(self) -> float:
        return self.device_energy + self.network_energy


def evaluate_assignment(app: AppGraph, net: NetGraph, mapping: dict[int, int], status: str = "evaluated", gap: float = 0.0) -> Assignment:
    """Energy breakdown of a total component-to-node mapping.

    Infeasible (over-capacity) mappings are flagged, not rejected, so callers
    can still inspect the energies.
    """
    missing = {c.id for c in app.components} - set(mapping)
    if missing:
        raise ValueError(f"mapping misses components {sorted(missing)}")
    e_d = 0.0
    for c in app.components:
        node = net.node(mapping[c.id])
        e_d += node.compute_energy * (c.compute / node.speed)
    index, D = net._index, net.path_energy
    output = {c.id: c.output for c in app.components}
    e_n = 0.0
    for t1, t2 in app.edges:
        e_n += output[t1] * float(D[index[mapping[t1]], index[mapping[t2]]])
    violations = []
    load: dict[int, float] = {}
    for c in app.components:
        load[mapping[c.id]] = load.get(mapping[c.id], 0.0) + c.resources
    for nid, used in sorted(load.items()):
        cap = net.node(nid).resources
        if used > cap:
            violations.append(f"node {nid}: resources {used} > {cap}")
    return Assignment(
        mapping=dict(mapping),
        device_energy=e_d,
        network_energy=e_n,
        feasible=not violations,
        violations=tuple(violations),
        status=status,
        gap=gap,
    )
