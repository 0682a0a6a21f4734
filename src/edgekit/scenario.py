"""Scenario files: a YAML schema describing one experiment run.

A scenario selects exactly one experiment kind and carries the config blocks
that kind needs.  Top-level keys:

    seed      integer RNG seed (default 0)
    kind      learning | placement | radio-dlt | integrated
    output    path of the CSV report (directories are created)
    sweep     optional {param: "<block>.<field>", values: [...]}
    learning / placement / radio / power / dlt / integrated   config blocks

Golden examples live in scenarios/.  Validation errors name the offending
field by its dotted path (e.g. "radio.K").
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .core import load_yaml
from .radio import DltConfig, PowerProfile, RadioConfig

KINDS = ("learning", "placement", "radio-dlt", "integrated")

LEARNING_DEFAULTS: dict = {
    "variant": "gadmm",
    "workers": 10,
    "dim": 5,
    "samples": 20,
    "noise": 0.1,
    "reg": 1e-3,
    "topology": "chain",
    "mean_degree": 3.0,
    "tau_coh": None,  # iterations between re-chaining (d-gadmm only)
    "rho": 1.0,
    "iters": 500,
    "quantizer_bits": None,
    "censor_xi0": None,
    "censor_alpha": 0.99,
    "bandwidth_hz": 1e6,
    "slot_s": 1e-3,
    "noise_density": 1e-10,
}

PLACEMENT_DEFAULTS: dict = {
    "nodes": 8,
    "components": 5,
    "shape": "long",  # long | wide
    "runs": 10,
    "time_budget": None,
    "measure_time": False,  # wall-clock columns emit 0.0 unless enabled
    "instance": None,  # optional path to a serialized instance
}

INTEGRATED_DEFAULTS: dict = {
    "ledger_period": 1,  # iterations between ledger records
    "dlt_enabled": True,
}

SWEEP_BLOCKS = ("learning", "placement", "radio", "power", "dlt", "integrated")


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class SweepSpec:
    param: str  # dotted "<block>.<field>"
    values: tuple = ()

    @property
    def block(self) -> str:
        return self.param.split(".", 1)[0]

    @property
    def field(self) -> str:
        return self.param.split(".", 1)[1]


@dataclass(frozen=True)
class Scenario:
    kind: str
    seed: int = 0
    output: str = "out/report.csv"
    learning: dict = field(default_factory=dict)
    placement: dict = field(default_factory=dict)
    radio: dict = field(default_factory=dict)
    power: dict = field(default_factory=dict)
    dlt: dict = field(default_factory=dict)
    integrated: dict = field(default_factory=dict)
    sweep: SweepSpec | None = None


def _check_block(name: str, block: dict, defaults: dict, errors: list[str]) -> dict:
    if not isinstance(block, dict):
        errors.append(f"{name}: must be a mapping")
        return dict(defaults)
    merged = dict(defaults)
    for key, value in block.items():
        if key not in defaults:
            errors.append(f"{name}.{key}: unknown field")
            continue
        merged[key] = value
    return merged


def _check_dataclass_block(name: str, block: dict, cls, errors: list[str]) -> dict:
    """Validate a block against a frozen config dataclass field by field."""
    if not isinstance(block, dict):
        errors.append(f"{name}: must be a mapping")
        return {}
    known = {f.name for f in dataclasses.fields(cls)}
    clean = {}
    ok = True
    for key, value in block.items():
        if key not in known:
            errors.append(f"{name}.{key}: unknown field")
            ok = False
        else:
            clean[key] = value
    if ok:
        try:
            cls(**clean)
        except (ValueError, TypeError) as exc:
            # attribute the error to the field it names when possible
            msg = str(exc)
            culprit = next((k for k in clean if msg.startswith(k) or f"'{k}'" in msg), None)
            where = f"{name}.{culprit}" if culprit else name
            errors.append(f"{where}: {msg}")
    return clean


def _validate_learning(block: dict, errors: list[str]) -> None:
    from .learning.runner import VARIANTS

    if block["variant"] not in VARIANTS:
        errors.append(f"learning.variant: must be one of {', '.join(VARIANTS)}")
    if not isinstance(block["workers"], int) or block["workers"] < 2:
        errors.append("learning.workers: must be an integer >= 2")
    if block["topology"] not in ("chain", "bipartite"):
        errors.append("learning.topology: must be chain or bipartite")
    for key in ("dim", "samples", "iters"):
        if not isinstance(block[key], int) or block[key] < 1:
            errors.append(f"learning.{key}: must be a positive integer")
    for key in ("rho", "bandwidth_hz", "slot_s", "noise_density"):
        if not block[key] > 0:
            errors.append(f"learning.{key}: must be > 0")
    if block["quantizer_bits"] is not None and not (
        isinstance(block["quantizer_bits"], int) and 1 <= block["quantizer_bits"] <= 32
    ):
        errors.append("learning.quantizer_bits: must be an integer in 1..32")
    if block["tau_coh"] is not None and not (isinstance(block["tau_coh"], int) and block["tau_coh"] >= 1):
        errors.append("learning.tau_coh: must be a positive integer")


def _validate_placement(block: dict, errors: list[str]) -> None:
    if block["shape"] not in ("long", "wide"):
        errors.append("placement.shape: must be long or wide")
    for key in ("nodes", "components", "runs"):
        if not isinstance(block[key], int) or block[key] < 1:
            errors.append(f"placement.{key}: must be a positive integer")
    if block["time_budget"] is not None and not block["time_budget"] > 0:
        errors.append("placement.time_budget: must be > 0")


def parse_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    """Load and validate a scenario file.

    Raises ParseError for malformed files or unknown keys, ValidationError
    (carrying the full list of dotted field paths) for bad values.
    """
    path = Path(path)
    try:
        raw = load_yaml(path.read_text())
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: scenario must be a mapping")

    allowed = {"seed", "kind", "output", "sweep", "learning", "placement", "radio", "power", "dlt", "integrated"}
    for key in raw:
        if key not in allowed:
            raise ParseError(f"{path}: unknown top-level key {key!r}")

    errors: list[str] = []
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ParseError(f"{path}: kind must be one of {', '.join(KINDS)}, got {kind!r}")

    seed = raw.get("seed", 0) if seed_override is None else seed_override
    if not isinstance(seed, int) or seed < 0:
        errors.append("seed: must be a non-negative integer")
        seed = 0
    output = raw.get("output", "out/report.csv")
    if not isinstance(output, str) or not output:
        errors.append("output: must be a non-empty path")
        output = "out/report.csv"

    learning = _check_block("learning", raw.get("learning", {}), LEARNING_DEFAULTS, errors)
    placement = _check_block("placement", raw.get("placement", {}), PLACEMENT_DEFAULTS, errors)
    radio = _check_dataclass_block("radio", raw.get("radio", {}), RadioConfig, errors)
    power = _check_dataclass_block("power", raw.get("power", {}), PowerProfile, errors)
    dlt = _check_dataclass_block("dlt", raw.get("dlt", {}), DltConfig, errors)
    integrated = _check_block("integrated", raw.get("integrated", {}), INTEGRATED_DEFAULTS, errors)

    if not errors:
        _validate_learning(learning, errors)
        _validate_placement(placement, errors)

    sweep = None
    if "sweep" in raw:
        sw = raw["sweep"]
        if not isinstance(sw, dict) or set(sw) != {"param", "values"}:
            errors.append("sweep: must be a mapping with exactly 'param' and 'values'")
        else:
            param, values = sw["param"], sw["values"]
            if not isinstance(param, str) or "." not in param:
                errors.append("sweep.param: must be a dotted '<block>.<field>' path")
            else:
                block, fname = param.split(".", 1)
                if block not in SWEEP_BLOCKS:
                    errors.append(f"sweep.param: unknown block {block!r}")
                elif not _sweep_field_exists(block, fname):
                    errors.append(f"sweep.param: no field {fname!r} in block {block!r}")
            if not isinstance(values, list) or not values:
                errors.append("sweep.values: must be a non-empty list")
            if not errors:
                sweep = SweepSpec(param=param, values=tuple(values))

    if errors:
        raise ValidationError(errors)
    return Scenario(
        kind=kind,
        seed=seed,
        output=output,
        learning=learning,
        placement=placement,
        radio=radio,
        power=power,
        dlt=dlt,
        integrated=integrated,
        sweep=sweep,
    )


def _sweep_field_exists(block: str, fname: str) -> bool:
    if block == "learning":
        return fname in LEARNING_DEFAULTS
    if block == "placement":
        return fname in PLACEMENT_DEFAULTS
    if block == "integrated":
        return fname in INTEGRATED_DEFAULTS
    cls = {"radio": RadioConfig, "power": PowerProfile, "dlt": DltConfig}[block]
    return fname in {f.name for f in dataclasses.fields(cls)}


def apply_sweep_value(scenario: Scenario, value) -> Scenario:
    """Scenario copy with the swept field set to `value` (sweep cleared)."""
    assert scenario.sweep is not None
    block_name = scenario.sweep.block
    block = dict(getattr(scenario, block_name))
    block[scenario.sweep.field] = value
    return dataclasses.replace(scenario, **{block_name: block, "sweep": None})
