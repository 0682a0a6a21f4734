"""Placement instance serialization.

Instances are stored as nested YAML mirroring the model's field names
(R_t, O_t, S_t per component; P_n, R_n, C_n per node; T_l per link).  See
scenarios/placement_instance.yaml for a golden example.
"""
from __future__ import annotations

from pathlib import Path

from ..core import load_yaml
from .model import AppComponent, AppGraph, NetGraph, NetNode


def instance_to_dict(app: AppGraph, net: NetGraph) -> dict:
    return {
        "application": {
            "shape": app.shape,
            "components": [
                {"id": c.id, "R_t": c.resources, "O_t": c.output, "S_t": c.compute}
                for c in app.components
            ],
            "edges": [[t1, t2] for t1, t2 in app.edges],
        },
        "network": {
            "nodes": [
                {"id": n.id, "kind": n.kind, "P_n": n.speed, "R_n": n.resources, "C_n": n.compute_energy}
                for n in net.nodes
            ],
            "links": [{"a": a, "b": b, "T_l": tl} for a, b, tl in net.links],
        },
    }


def instance_from_dict(data: dict) -> tuple[AppGraph, NetGraph]:
    appd = data["application"]
    app = AppGraph(
        components=tuple(
            AppComponent(id=c["id"], resources=c["R_t"], output=c["O_t"], compute=c["S_t"])
            for c in appd["components"]
        ),
        edges=tuple((t1, t2) for t1, t2 in appd["edges"]),
        shape=appd.get("shape", "custom"),
    )
    netd = data["network"]
    net = NetGraph(
        nodes=tuple(
            NetNode(
                id=n["id"],
                speed=n["P_n"],
                resources=n["R_n"],
                compute_energy=n["C_n"],
                kind=n.get("kind", "wired"),
            )
            for n in netd["nodes"]
        ),
        links=tuple((l["a"], l["b"], l["T_l"]) for l in netd["links"]),
    )
    return app, net


def load_instance(path: str | Path) -> tuple[AppGraph, NetGraph]:
    return instance_from_dict(load_yaml(Path(path).read_text()))
