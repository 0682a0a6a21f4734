"""Random instance generators for the placement evaluation.

Networks: 60% wired / 40% wireless nodes; link probabilities 0.8 wired-wired,
0.5 wireless-wireless, 0.4 mixed; transfer energy 0.2 (wired) or 0.8
(wireless); node resources uniform integers 1..8, speedups uniform [1,3],
compute energies uniform [0.5,1.5].  Disconnected draws are re-drawn.

Applications: a "long" app is a serial chain; a "wide" app has a start and an
end component with every middle component fed by the start and feeding the
end.  Component resources are uniform integers 1..8, outputs uniform
[0.5,1.5], compute sizes 1 or 2.
"""
from __future__ import annotations

import itertools

from ..core import make_rng
from .model import AppComponent, AppGraph, NetGraph, NetNode

WIRED_LINK_ENERGY = 0.2
WIRELESS_LINK_ENERGY = 0.8
_LINK_PROB = {("wired", "wired"): 0.8, ("wireless", "wireless"): 0.5}
_MIXED_LINK_PROB = 0.4


class InvalidShape(ValueError):
    pass


def generate_network(M: int, seed: int = 0) -> NetGraph:
    if M < 2:
        raise ValueError(f"need at least 2 nodes, got {M}")
    rng = make_rng(seed)
    n_wired = round(0.6 * M)
    for _ in range(10_000):
        nodes = []
        for i in range(1, M + 1):
            kind = "wired" if i <= n_wired else "wireless"
            nodes.append(
                NetNode(
                    id=i,
                    speed=float(rng.uniform(1.0, 3.0)),
                    resources=int(rng.integers(1, 9)),
                    compute_energy=float(rng.uniform(0.5, 1.5)),
                    kind=kind,
                )
            )
        links = []
        # one draw per node pair, in pair order: the values and the next state of one scalar draw each
        for (a, b), u in zip(itertools.combinations(nodes, 2), rng.random(M * (M - 1) // 2).tolist()):
            if u < _LINK_PROB.get((a.kind, b.kind), _MIXED_LINK_PROB):
                tl = WIRED_LINK_ENERGY if a.kind == b.kind == "wired" else WIRELESS_LINK_ENERGY
                links.append((a.id, b.id, tl))
        net = NetGraph(nodes=tuple(nodes), links=tuple(links))
        if net.connected:
            return net
    raise RuntimeError("failed to generate a connected network")


def _draw_component(cid: int, rng) -> AppComponent:
    return AppComponent(
        id=cid,
        resources=int(rng.integers(1, 9)),
        output=float(rng.uniform(0.5, 1.5)),
        compute=float(rng.integers(1, 3)),
    )


def generate_application(kind: str, N: int, seed: int = 0) -> AppGraph:
    rng = make_rng(seed)
    if kind == "long":
        if N < 2:
            raise InvalidShape("a long application needs at least 2 components")
        comps = tuple(_draw_component(i, rng) for i in range(1, N + 1))
        edges = tuple((i, i + 1) for i in range(1, N))
        return AppGraph(components=comps, edges=edges, shape="long")
    if kind == "wide":
        if N < 3:
            raise InvalidShape("a wide application needs at least 3 components")
        comps = tuple(_draw_component(i, rng) for i in range(1, N + 1))
        start, end = 1, N
        edges = tuple((start, m) for m in range(2, N)) + tuple((m, end) for m in range(2, N))
        return AppGraph(components=comps, edges=edges, shape="wide")
    raise InvalidShape(f"unknown application kind {kind!r}")
