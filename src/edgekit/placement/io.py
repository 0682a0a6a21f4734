"""Placement instance serialization.

Instances are stored as nested YAML mirroring the model's field names
(R_t, O_t, S_t per component; P_n, R_n, C_n per node; T_l per link).  See
scenarios/placement_instance.yaml for a golden example.
"""
from __future__ import annotations

from pathlib import Path

from ..core import is_number, load_yaml
from .model import AppComponent, AppGraph, NetGraph, NetNode


def _number(value, name: str):
    """`value`, which must be a real number in the float range (`is_number`).
    The message leaves the value out: it may be an integer of any length."""
    if not is_number(value):
        raise TypeError(f"{name} must be a finite number")
    return value


def _numbers(record: dict, *keys: str) -> list:
    return [_number(record[key], key) for key in keys]


def instance_from_dict(data: dict) -> tuple[AppGraph, NetGraph]:
    appd = data["application"]
    app = AppGraph(
        components=tuple(
            AppComponent(*_numbers(c, "id", "R_t", "O_t", "S_t")) for c in appd["components"]
        ),
        edges=tuple((_number(t1, "edge end"), _number(t2, "edge end")) for t1, t2 in appd["edges"]),
        shape=appd.get("shape", "custom"),
    )
    netd = data["network"]
    net = NetGraph(
        nodes=tuple(
            NetNode(*_numbers(n, "id", "P_n", "R_n", "C_n"), kind=n.get("kind", "wired")) for n in netd["nodes"]
        ),
        links=tuple(tuple(_numbers(l, "a", "b", "T_l")) for l in netd["links"]),
    )
    return app, net


def load_instance(path: str | Path) -> tuple[AppGraph, NetGraph]:
    return instance_from_dict(load_yaml(Path(path).read_text()))
