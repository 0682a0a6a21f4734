"""Scenario files: a YAML schema describing one experiment run.

A scenario selects exactly one experiment kind and carries the config blocks
that kind needs.  Top-level keys:

    seed      integer RNG seed (default 0)
    kind      learning | placement | radio-dlt | integrated
    output    path of the CSV report (directories are created)
    sweep     optional {param: "<block>.<field>", values: [...]} over what
              the kind reads (KIND_READS)
    learning / placement / radio / power / dlt / integrated   config blocks,
              only those the kind reads (KIND_READS)

Parsing builds and validates only the blocks the kind reads (a point's other
blocks are None), and expands a sweep into one validated Point per value
(one point without a sweep).  The base of the swept block runs nowhere, so
it is checked by the one-field rules only; the rules that read several
fields (the variant rules, say) run at each point, against its own value of
the swept field.  The base record of a radio, power or dlt sweep makes its
points (`sweep_point`): itself with the swept fields replaced (`derive`),
which runs the one-field rules on those fields alone; RadioConfig's
`radio.t` point also sets the fields `nprach_period_fields(radio, t)`
derives from t.  A point prices a ledger exactly when it has a dlt block,
`dlt: {}` (the defaults) included, and must carry its payloads through its
radio queues; an integrated scenario none of whose points prices one may not
set radio, power or dlt.  A placement instance file is loaded, and so
checked, at parse time, and its point runs the loaded instance.  Two sweep
values may not name the same report file (`point_path`).  Golden examples
live in scenarios/.  Errors name the field by its dotted path (e.g.
"radio.K"), after the value's index for a sweep point
("sweep.values[1]: radio.t").
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .core import is_int, is_number, load_yaml
from .learning import TRAITS, CensorSchedule, CommEnergyModel, QuantizerConfig, Setting, message_energy
from .placement import load_instance
from .radio import DltConfig, PowerProfile, RadioConfig, UnstableConfig
from .radio.model import _BLOCK_MESSAGES, _block_message_latency

KINDS = ("learning", "placement", "radio-dlt", "integrated")
BLOCKS = ("learning", "placement", "radio", "power", "dlt", "integrated")

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
    "quantizer_bits": 2,
    "censor_xi0": 0.1,
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
    "instance": None,  # optional path to a serialized instance; a parsed block holds its (app, net)
}

INTEGRATED_DEFAULTS: dict = {
    "ledger_period": 1,  # iterations between ledger records
}

# What each kind reads, and so may set and sweep: whole blocks, or single
# fields.  Any other block or field a scenario sets is rejected.
KIND_READS = {
    "learning": ("learning",),
    "placement": ("placement",),
    "radio-dlt": ("radio", "power", "dlt"),
    "integrated": ("learning", "placement.nodes", "radio", "power", "dlt", "integrated"),
}

# Learning fields that only the variants with a trait (learning.TRAITS) read;
# a scenario setting one for another variant is rejected, not ignored.
VARIANT_FIELDS = {
    "topology": "graph",
    "mean_degree": "graph",
    "tau_coh": "rechains",
    "quantizer_bits": "quantizes",
    "censor_xi0": "censors",
    "censor_alpha": "censors",
}


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
class Point:
    """One concrete run: each block its kind reads as the run uses it, None
    for the others (dlt also None without a ledger).  Every point shares the
    objects of the unswept blocks."""

    seed: int
    learning: dict | None
    placement: dict | None
    radio: RadioConfig | None
    power: PowerProfile | None
    dlt: DltConfig | None
    integrated: dict | None
    value: object = None  # the swept field's value at this point


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: what it runs and where it writes, and its points."""

    kind: str
    seed: int
    output: str
    sweep: SweepSpec | None
    points: tuple[Point, ...]


def _validate_learning(block: dict, given: dict, errors: list[str], swept: bool = False) -> None:
    """The learning rules; the base of a swept block is checked by the
    one-field rules only, and the rules that read several fields run at the
    points, each of which has its own value of the swept field."""
    before = len(errors)
    variant = block["variant"]
    if variant not in TRAITS:
        errors.append(f"learning.variant: must be one of {', '.join(TRAITS)}")
    if not is_int(block["workers"], 2):
        errors.append("learning.workers: must be an integer >= 2")
    if block["topology"] not in ("chain", "bipartite"):
        errors.append("learning.topology: must be chain or bipartite")
    for key in ("dim", "samples", "iters"):
        if not is_int(block[key], 1):
            errors.append(f"learning.{key}: must be a positive integer")
    for key in ("rho", "mean_degree", "bandwidth_hz", "slot_s", "noise_density"):
        if not (is_number(block[key]) and block[key] > 0):
            errors.append(f"learning.{key}: must be > 0")
    for key in ("noise", "reg", "censor_xi0"):
        if not (is_number(block[key]) and block[key] >= 0):
            errors.append(f"learning.{key}: must be >= 0")
    if not (is_int(block["quantizer_bits"], 1) and block["quantizer_bits"] <= 32):
        errors.append("learning.quantizer_bits: must be an integer in 1..32")
    if block["tau_coh"] is not None and not is_int(block["tau_coh"], 1):
        errors.append("learning.tau_coh: must be a positive integer")
    if not (is_number(block["censor_alpha"]) and 0 < block["censor_alpha"] <= 1):
        errors.append("learning.censor_alpha: must be in (0, 1]")
    if swept or variant not in TRAITS:  # the rules below read several fields, some the variant's
        return
    traits = TRAITS[variant]
    # Gaussian designs: the stacked system has full column rank almost surely
    # exactly when it has at least `dim` rows
    workers, samples, dim = (block[k] for k in ("workers", "samples", "dim"))
    if is_number(block["reg"]) and block["reg"] == 0 and all(is_int(v, 1) for v in (workers, samples, dim)) \
            and workers * samples < dim:
        errors.append("learning.reg: must be > 0 when workers * samples < dim (rank-deficient system)")
    if traits.rechains and is_int(workers, 2) and workers % 2:
        errors.append(f"learning.workers: {variant} re-chains an even number of workers")
    if traits.rechains and block["tau_coh"] is None:
        errors.append(f"learning.tau_coh: {variant} needs a re-chaining interval")
    for key in given:
        if key in VARIANT_FIELDS and not getattr(traits, VARIANT_FIELDS[key]):
            errors.append(f"learning.{key}: not used by variant {variant}")
    if "mean_degree" in given and traits.graph and block["topology"] != "bipartite":
        errors.append("learning.mean_degree: only a bipartite topology uses it")
    # one bit has the levels -R and +R only, none near zero: every coordinate
    # but the largest is sent about R off, and the error grows each message
    if traits.quantizes and block["quantizer_bits"] == 1 and is_int(dim, 2):
        errors.append(f"learning.quantizer_bits: 1 bit diverges at dim >= 2 (dim {dim}); use 2 or more")
    if len(errors) == before:
        _check_message_energy(block, traits, errors)


def learning_setting(block: dict) -> Setting:
    """What a valid learning block sets for its own point of a stacked run
    (`learning.run_points`)."""
    traits = TRAITS[block["variant"]]
    return Setting(
        rho=block["rho"],
        quantizer=QuantizerConfig(bits=block["quantizer_bits"]) if traits.quantizes else None,
        censor=CensorSchedule(xi0=block["censor_xi0"], alpha=block["censor_alpha"]) if traits.censors else None,
        energy_model=CommEnergyModel(block["bandwidth_hz"], block["slot_s"], block["noise_density"]),
        iters=block["iters"],
    )


def _check_message_energy(block: dict, traits, errors: list[str]) -> None:
    """A valid block whose messages cost more energy than a float holds.

    A message costs more the more senders split the band, so the run's
    dearest message is one of its largest group: all workers of a server,
    the ceil(workers / 2) heads or tails of either topology otherwise.
    """
    senders = block["workers"] if traits.server else math.ceil(block["workers"] / 2)
    setting = learning_setting(block)
    payload = setting.payload_bits(block["dim"])
    try:  # the run's channel gains are all 1
        joules = message_energy(payload, setting.energy_model.share(senders), 1.0)
    except OverflowError:
        joules = math.inf
    if not math.isfinite(joules):
        errors.append(f"learning.bandwidth_hz: too narrow for {payload}-bit messages from {senders} senders "
                      "at once (the energy overflows)")


def _validate_placement(block: dict, given: dict, errors: list[str], swept: bool = False) -> None:
    """The placement rules; the base of a swept block needs only 2
    components, and the points check the minimum of their shape."""
    if block["shape"] not in ("long", "wide"):
        errors.append("placement.shape: must be long or wide")
    elif not is_int(block["components"], 2 if swept or block["shape"] == "long" else 3):
        errors.append(f"placement.components: too few for a {block['shape']} application")
    if not is_int(block["nodes"], 2):
        errors.append("placement.nodes: must be an integer >= 2")
    if not is_int(block["runs"], 1):
        errors.append("placement.runs: must be a positive integer")
    if block["time_budget"] is not None and not (is_number(block["time_budget"]) and block["time_budget"] > 0):
        errors.append("placement.time_budget: must be > 0")
    if not isinstance(block["measure_time"], bool):
        errors.append("placement.measure_time: must be true or false")
    if block["instance"] is not None:
        if not (isinstance(block["instance"], str) and Path(block["instance"]).is_file()):
            errors.append("placement.instance: must name an existing instance file")
        else:
            try:  # the run uses the instance loaded here
                block["instance"] = load_instance(block["instance"])
            except KeyError as exc:
                errors.append(f"placement.instance: missing field {exc}")
            except (OSError, yaml.YAMLError, AttributeError, TypeError, ValueError) as exc:
                errors.append(f"placement.instance: {exc}")
        # the instance file fixes the application and the network, and is one run
        errors.extend(f"placement.{key}: not read next to placement.instance"
                      for key in ("nodes", "components", "shape", "runs") if key in given)


def _validate_integrated(block: dict, given: dict, errors: list[str], swept: bool = False) -> None:
    if not is_int(block["ledger_period"], 1):
        errors.append("integrated.ledger_period: must be a positive integer")


# blocks kept as checked dicts: their defaults and validator
_DICT_BLOCKS = {
    "learning": (LEARNING_DEFAULTS, _validate_learning),
    "placement": (PLACEMENT_DEFAULTS, _validate_placement),
    "integrated": (INTEGRATED_DEFAULTS, _validate_integrated),
}
_CONFIG_CLASSES = {"radio": RadioConfig, "power": PowerProfile, "dlt": DltConfig}
_FIELDS = {name: set(defaults) for name, (defaults, _) in _DICT_BLOCKS.items()} | {
    name: {f.name for f in dataclasses.fields(cls)} for name, cls in _CONFIG_CLASSES.items()
}


def _given(name: str, block, errors: list[str]) -> dict:
    """The known fields a scenario block sets; unknown names are errors."""
    if not isinstance(block, dict):
        errors.append(f"{name}: must be a mapping")
        return {}
    for key in block:
        if key not in _FIELDS[name]:
            errors.append(f"{name}.{key}: unknown field")
    return {key: value for key, value in block.items() if key in _FIELDS[name]}


def _build(name: str, given: dict, errors: list[str], swept: bool = False):
    """Block `name` as a run uses it, from the fields the scenario sets.

    A config class's error is put on the field its message starts with.
    `swept` marks the base of a block a sweep sets a field of: no point runs
    it, so it is checked by the one-field rules only, and the rules that
    read several fields run at the points.
    """
    if name in _DICT_BLOCKS:
        defaults, validate = _DICT_BLOCKS[name]
        block = {**defaults, **given}
        validate(block, given, errors, swept)
        return block
    cls = _CONFIG_CLASSES[name]
    try:
        return cls.swept_base(**given) if swept else cls(**given)
    except ValueError as exc:
        msg = str(exc)
        culprit = next((k for k in given if msg.startswith(f"{k} ")), None)
        errors.append(f"{name}.{culprit}: {msg}" if culprit else f"{name}: {msg}")
        return None


def _parse_sweep(sw, kind: str, errors: list[str]) -> SweepSpec | None:
    if not isinstance(sw, dict) or set(sw) != {"param", "values"}:
        errors.append("sweep: must be a mapping with exactly 'param' and 'values'")
        return None
    param, values = sw["param"], sw["values"]
    before = len(errors)
    if not isinstance(param, str) or "." not in param:
        errors.append("sweep.param: must be a dotted '<block>.<field>' path")
    else:
        block, fname = param.split(".", 1)
        if block not in BLOCKS:
            errors.append(f"sweep.param: unknown block {block!r}")
        elif fname not in _FIELDS[block]:
            errors.append(f"sweep.param: no field {fname!r} in block {block!r}")
        elif block not in KIND_READS[kind] and param not in KIND_READS[kind]:
            errors.append(f"sweep.param: kind {kind} does not read {param}")
    if not isinstance(values, list) or not values:
        errors.append("sweep.values: must be a non-empty list")
    return SweepSpec(param=param, values=tuple(values)) if len(errors) == before else None


def _check_reads(kind: str, raw: dict, given: dict, errors: list[str]) -> None:
    """Blocks and fields the scenario sets that its kind does not read.  An
    unread field is dropped from `given`, so that its block is built from
    the fields the kind reads and the field's own rules never run."""
    reads = KIND_READS[kind]
    for name in BLOCKS:
        if name not in raw or name in reads:
            continue
        fields = [r.split(".", 1)[1] for r in reads if r.startswith(f"{name}.")]
        if fields:
            errors.extend(f"{name}.{key}: not read by kind {kind}" for key in given[name] if key not in fields)
            given[name] = {key: value for key, value in given[name].items() if key in fields}
        else:
            errors.append(f"{name}: not read by kind {kind}")


def _check_ledger_off(raw: dict, sweep: SweepSpec | None, points: tuple[Point, ...], errors: list[str]) -> None:
    """The ledger blocks an integrated scenario sets although none of its
    points prices a ledger (none has a dlt block)."""
    if any(point.dlt is not None for point in points):
        return
    ledger_blocks = ("radio", "power", "dlt")
    why = "not read without a ledger (no dlt block)"
    errors.extend(f"{name}: {why}" for name in ledger_blocks if name in raw)
    if sweep is not None and sweep.block in ledger_blocks:
        errors.append(f"sweep.param: {sweep.param} {why}")


def _check_ledger(point: Point, errors: list[str]) -> None:
    """Ledger payloads the point's radio queues cannot carry, found by the
    kernels its run prices them with."""
    if point.dlt is None:
        return
    for name in _BLOCK_MESSAGES:
        try:
            _block_message_latency(point.radio, point.dlt, name)
        except UnstableConfig as exc:
            errors.append(f"dlt.{name}: {exc}")
        except ArithmeticError:  # e.g. bits**2 beyond the float range
            errors.append(f"dlt.{name}: queue latency out of float range")


def point_path(output: str, sweep: SweepSpec | None, value) -> Path:
    """Where a point of a learning, placement or integrated scenario writes
    its report: `output`, with the swept field and the point's value added
    to its stem when the scenario sweeps."""
    base = Path(output)
    if sweep is None:
        return base
    return base.with_name(f"{base.stem}_{sweep.param.replace('.', '_')}_{value}{base.suffix}")


def _check_paths(output: str, sweep: SweepSpec, errors: list[str]) -> None:
    """Sweep values whose reports would overwrite an earlier value's, or
    could not be named."""
    first: dict[Path, int] = {}
    for i, value in enumerate(sweep.values):
        try:
            path = point_path(output, sweep, value)
        except ValueError:  # a path separator in the value
            errors.append(f"sweep.values[{i}]: {value!r} cannot be part of a file name")
            continue
        j = first.setdefault(path, i)
        if j != i:
            errors.append(f"sweep.values[{i}]: writes the same file as sweep.values[{j}]")


def _expand(seed: int, given: dict, base: dict, blocks: dict, sweep: SweepSpec | None,
            errors: list[str]) -> tuple[Point, ...]:
    """One point per sweep value, each validated; the base alone without a
    sweep.  A radio, power or dlt point is made by the swept block's base
    record in `blocks`, a dict block's is built afresh."""
    if sweep is None:
        point = Point(seed=seed, **base)
        _check_ledger(point, errors)
        return (point,)
    name, field = sweep.block, sweep.field
    points = []
    for i, value in enumerate(sweep.values):
        found: list[str] = []
        if name in _DICT_BLOCKS:
            swept = _build(name, {**given[name], field: value}, found)
        else:
            try:
                swept = blocks[name].sweep_point(field, value)
            except ValueError as exc:
                found.append(f"{sweep.param}: {exc}")
        if not found:
            points.append(Point(seed=seed, value=value, **{**base, name: swept}))
            _check_ledger(points[-1], found)
        errors.extend(f"sweep.values[{i}]: {e}" for e in found)
    return tuple(points)


def parse_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    """Load and validate a scenario file and expand it into its points.

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

    allowed = {"seed", "kind", "output", "sweep", *BLOCKS}
    for key in raw:
        if key not in allowed:
            raise ParseError(f"{path}: unknown top-level key {key!r}")

    errors: list[str] = []
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ParseError(f"{path}: kind must be one of {', '.join(KINDS)}, got {kind!r}")

    seed = raw.get("seed", 0) if seed_override is None else seed_override
    if not is_int(seed, 0, math.inf):  # a seed of any size
        errors.append("seed: must be a non-negative integer")
        seed = 0
    output = raw.get("output", "out/report.csv")
    if not isinstance(output, str) or not output:
        errors.append("output: must be a non-empty path")
        output = "out/report.csv"

    names = dict.fromkeys(r.split(".", 1)[0] for r in KIND_READS[kind])  # the blocks it reads, in BLOCKS order
    given = {name: _given(name, raw.get(name, {}), errors) for name in names}
    _check_reads(kind, raw, given, errors)
    sweep = _parse_sweep(raw["sweep"], kind, errors) if "sweep" in raw else None
    if sweep is not None and kind != "radio-dlt":  # radio-dlt writes one row per value
        _check_paths(output, sweep, errors)
    blocks = {name: _build(name, given[name], errors, swept=sweep is not None and sweep.block == name)
              for name in names}
    if errors:
        raise ValidationError(errors)
    # without a dlt block no ledger round (a dlt sweep derives its points from
    # the defaults); an empty block is one at DltConfig's defaults
    base = {**dict.fromkeys(BLOCKS), **blocks, "dlt": blocks["dlt"] if "dlt" in raw else None}
    points = _expand(seed, given, base, blocks, sweep, errors)
    if kind == "integrated":
        _check_ledger_off(raw, sweep, points, errors)
    if errors:
        raise ValidationError(errors)
    return Scenario(kind=kind, seed=seed, output=output, sweep=sweep, points=points)
