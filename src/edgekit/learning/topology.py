"""Worker communication topologies: static chains, random bipartite graphs,
and the dynamic re-chaining step.

Workers are numbered 1..N.  A chain is stored as the ordered tuple of worker
ids; constraint edges join consecutive chain positions and roles alternate
head, tail, head, ... along the chain.  A bipartite topology stores explicit
(head, tail) edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import child_rng, make_rng


class InvalidN(ValueError):
    pass


@dataclass(frozen=True)
class Topology:
    kind: str  # "chain" | "bipartite"
    n: int
    edges: tuple[tuple[int, int], ...]  # (left, right); left carries +lambda
    heads: frozenset[int]
    order: tuple[int, ...] | None = None  # chain permutation, chain kind only
    tau_coh: float = math.inf  # iterations between re-chaining; inf = static
    positions: np.ndarray | None = None  # (N, 2) unit-square worker positions
    # per worker, every worker id from the nearest by `positions` to the farthest, ties to
    # the lower id: derived by the first `rechain` of a positions array and passed on to the
    # chains it makes; not an init field, so dataclasses.replace does not carry it over
    nearest: tuple[tuple[int, ...], ...] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def tails(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.heads

    def validate(self) -> None:
        ids = set(range(1, self.n + 1))
        for u, v in self.edges:
            if u not in ids or v not in ids:
                raise ValueError(f"edge ({u},{v}) outside worker range")
            same = (u in self.heads) == (v in self.heads)
            if same:
                raise ValueError(f"edge ({u},{v}) joins two workers of the same role")
        if not _connected(self.n, self.edges):
            raise ValueError("topology must be connected")
        if self.kind == "chain":
            if self.order is None:
                raise ValueError("a chain needs its order")
            expect = tuple(
                (self.order[i], self.order[i + 1]) for i in range(self.n - 1)
            )
            if self.edges != expect:
                raise ValueError("chain edges must join consecutive chain positions")


def _connected(n: int, edges) -> bool:
    if n == 1:
        return True
    adj: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _chain_from_order(order: list[int], n: int, tau_coh: float, positions, nearest=None) -> Topology:
    edges = tuple((order[i], order[i + 1]) for i in range(n - 1))
    heads = frozenset(order[i] for i in range(0, n, 2))
    chain = Topology(
        kind="chain",
        n=n,
        edges=edges,
        heads=heads,
        order=tuple(order),
        tau_coh=tau_coh,
        positions=positions,
    )
    object.__setattr__(chain, "nearest", nearest)
    return chain


def build_topology(
    N: int,
    kind: str = "chain",
    seed: int = 0,
    tau_coh: float = math.inf,
    mean_degree: float = 3.0,
) -> Topology:
    """Build the initial worker topology.

    chain: the identity chain 1-2-...-N with alternating head/tail roles.
    bipartite: odd ids are heads, even ids tails; head-tail edges drawn
    independently with a probability targeting `mean_degree`, redrawn until
    connected.  Worker positions on the unit square are drawn for chains so
    dynamic re-chaining has a communication cost to minimize.
    """
    if N < 2:
        raise InvalidN(f"need at least 2 workers, got {N}")
    rng = make_rng(seed)
    if kind == "chain":
        positions = rng.random((N, 2))
        return _chain_from_order(list(range(1, N + 1)), N, tau_coh, positions)
    if kind == "bipartite":
        heads = frozenset(range(1, N, 2))  # odd ids but N: worker N is a tail
        tails = sorted(set(range(1, N + 1)) - heads)
        hs = sorted(heads)
        p = min(1.0, mean_degree * N / (2.0 * len(hs) * len(tails)))
        pairs = [(h, t) for h in hs for t in tails]
        for _ in range(1000):  # one draw per head-tail pair, in pair order
            edges = tuple(pair for pair, u in zip(pairs, rng.random(len(pairs)).tolist()) if u < p)
            if _connected(N, edges):
                return Topology(
                    kind="bipartite",
                    n=N,
                    edges=edges,
                    heads=heads,
                    tau_coh=math.inf,
                )
        raise RuntimeError("failed to draw a connected bipartite graph")
    raise ValueError(f"unknown topology kind {kind!r}")


def rechain(topology: Topology, iteration: int, seed: int) -> Topology:
    """Re-draw the chain permutation and head/tail roles.

    Worker 1 stays a head and worker N stays a tail.  The remaining head slots
    are drawn uniformly from the middle workers; the chain order is then built
    by the nearest-available-neighbor greedy walk over the unit-square
    positions, alternating roles and forcing worker N into the last slot.
    Deterministic in (seed, iteration).  The walk reads each worker's others
    by distance (`Topology.nearest`), which the first re-chain of a
    positions array sorts and the re-chained topology carries on.
    """
    if topology.kind != "chain":
        raise ValueError("rechain applies to chain topologies only")
    if math.isinf(topology.tau_coh):
        return topology
    N = topology.n
    if N % 2 != 0:
        raise ValueError("dynamic re-chaining requires an even worker count")
    pos = topology.positions
    if pos is None:
        raise ValueError("dynamic re-chaining requires worker positions")
    rng = child_rng(seed, iteration)
    middle = np.arange(2, N)
    picks = rng.choice(middle, size=N // 2 - 1, replace=False)
    heads = {1, *(int(x) for x in picks)}
    tails = set(range(1, N + 1)) - heads
    nearest = topology.nearest or _by_distance(pos)

    order = [1]
    pools = (heads - {1}, tails - {N})  # even slots take heads, odd ones tails
    for slot in range(1, N - 1):
        pool = pools[slot % 2]
        for nxt in nearest[order[-1] - 1]:
            if nxt in pool:
                break
        order.append(nxt)
        pool.discard(nxt)
    order.append(N)  # the last slot, a tail
    assert len(order) == N and set(order) == set(range(1, N + 1))
    return _chain_from_order(order, N, topology.tau_coh, pos, nearest)


def _by_distance(pos: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Per worker, every worker id by Euclidean distance from it, ties to
    the lower id (a stable sort of each row of the distance table)."""
    diff = pos[:, None, :] - pos[None, :, :]
    by_distance = np.argsort(np.hypot(diff[..., 0], diff[..., 1]), axis=1, kind="stable") + 1
    return tuple(map(tuple, by_distance.tolist()))
