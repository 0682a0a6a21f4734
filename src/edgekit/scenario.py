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

Every block is one checked record (`core.Record`, BLOCKS): each field
declares its default and its one-field rule, and a short method per record
holds the rules that read several fields.  Parsing builds only the blocks
the kind reads (a point's other blocks are None) from the fields the
scenario sets, and reports every bad field as `<block>.<field>: <rule>`
(`<block>: <rule>` for a rule of the whole block).  A sweep expands into one
checked Point per value: the swept block's base is checked by the one-field
rules only, and makes each point (`sweep_point`), which checks its own
value and then the rules that read several fields.  A point's errors follow
the value's index ("sweep.values[1]: radio.t: ..."), a rule of the whole
block put on the swept field.

A point prices a ledger exactly when it has a dlt block, `dlt: {}` (the
defaults) included, and must carry its payloads through its radio queues,
whose prices its radio record keeps for the run; an integrated scenario
none of whose points prices one may not set radio, power or dlt.  A
placement record loads its instance file, and holds the load.  Two sweep
values may not name the same report file (`point_path`).  Golden examples
live in scenarios/.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import yaml

from .core import (
    BOOL, COUNT, NONNEGATIVE, PATH, POSITIVE, UNIT, FieldErrors, Record, checked, choice, count, is_int, load_yaml,
    optional,
)
from .learning import TRAITS, CensorSchedule, CommEnergyModel, QuantizerConfig, Setting, message_energy
from .placement import load_instance
from .radio import DltConfig, PowerProfile, RadioConfig, UnstableConfig
from .radio.model import _BLOCK_MESSAGES

KINDS = ("learning", "placement", "radio-dlt", "integrated")

# What each kind reads, and so may set and sweep: whole blocks, or single
# fields.  Any other block or field a scenario sets is rejected.
KIND_READS = {
    "learning": ("learning",),
    "placement": ("placement",),
    "radio-dlt": ("radio", "power", "dlt"),
    "integrated": ("learning", "placement.nodes", "radio", "power", "dlt", "integrated"),
}

class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


# A learning field with a `trait` is read only by the variants with that trait
# (learning.TRAITS); a scenario setting it for another variant is rejected,
# not ignored.
@dataclass(frozen=True, init=False)
class LearningConfig(Record):
    variant: str = checked("gadmm", choice(TRAITS))
    workers: int = checked(10, count(2))
    dim: int = checked(5, COUNT)
    samples: int = checked(20, COUNT)
    noise: float = checked(0.1, NONNEGATIVE)
    reg: float = checked(1e-3, NONNEGATIVE)
    topology: str = checked("chain", choice(("chain", "bipartite")), trait="graph")
    mean_degree: float = checked(3.0, POSITIVE, trait="graph")
    tau_coh: int | None = checked(None, optional(COUNT), trait="rechains")  # iterations between re-chaining
    rho: float = checked(1.0, POSITIVE)
    iters: int = checked(500, COUNT)
    quantizer_bits: int = checked(2, count(1, 32), trait="quantizes")
    censor_xi0: float = checked(0.1, NONNEGATIVE, trait="censors")
    censor_alpha: float = checked(0.99, UNIT, trait="censors")
    bandwidth_hz: float = checked(1e6, POSITIVE)
    slot_s: float = checked(1e-3, POSITIVE)
    noise_density: float = checked(1e-10, POSITIVE)

    def _joint(self) -> list:
        """The variant rules and the rank rule; then, if they pass, a message
        whose energy overflows."""
        variant, traits, errors = self.variant, TRAITS[self.variant], []
        # Gaussian designs: the stacked system has full column rank almost surely
        # exactly when it has at least `dim` rows
        if self.reg == 0 and self.workers * self.samples < self.dim:
            errors.append(("reg", "must be > 0 when workers * samples < dim (rank-deficient system)"))
        if traits.rechains and self.workers % 2:
            errors.append(("workers", f"{variant} re-chains an even number of workers"))
        if traits.rechains and self.tau_coh is None:
            errors.append(("tau_coh", f"{variant} needs a re-chaining interval"))
        errors += [(f.name, f"not used by variant {variant}") for f in fields(self)
                   if "trait" in f.metadata and f.name in self._given and not getattr(traits, f.metadata["trait"])]
        if "mean_degree" in self._given and traits.graph and self.topology != "bipartite":
            errors.append(("mean_degree", "only a bipartite topology uses it"))
        # one bit has the levels -R and +R only, none near zero: every coordinate
        # but the largest is sent about R off, and the error grows each message
        if traits.quantizes and self.quantizer_bits == 1 and self.dim >= 2:
            errors.append(("quantizer_bits", f"1 bit diverges at dim >= 2 (dim {self.dim}); use 2 or more"))
        if errors:
            return errors
        # a message costs more the more senders split the band, so the run's
        # dearest message is one of its largest group: all workers of a server,
        # the ceil(workers / 2) heads or tails of either topology otherwise
        senders = self.workers if traits.server else math.ceil(self.workers / 2)
        setting = learning_setting(self)
        payload = setting.payload_bits(self.dim)
        try:  # the run's channel gains are all 1
            joules = message_energy(payload, setting.energy_model.share(senders), 1.0)
        except OverflowError:
            joules = math.inf
        return [] if math.isfinite(joules) else [
            ("bandwidth_hz", f"too narrow for {payload}-bit messages from {senders} senders at once "
                             "(the energy overflows)")]


def learning_setting(block: LearningConfig) -> Setting:
    """What a valid learning block sets for its own point of a stacked run
    (`learning.run_points`)."""
    traits = TRAITS[block.variant]
    return Setting(
        rho=block.rho,
        quantizer=QuantizerConfig(bits=block.quantizer_bits) if traits.quantizes else None,
        censor=CensorSchedule(xi0=block.censor_xi0, alpha=block.censor_alpha) if traits.censors else None,
        energy_model=CommEnergyModel(block.bandwidth_hz, block.slot_s, block.noise_density),
        iters=block.iters,
    )


@dataclass(frozen=True, init=False)
class PlacementConfig(Record):
    nodes: int = checked(8, count(2))
    components: int = checked(5, count(2))  # a wide application needs 3
    shape: str = checked("long", choice(("long", "wide")))
    runs: int = checked(10, COUNT)
    time_budget: float | None = checked(None, optional(POSITIVE))
    measure_time: bool = checked(False, BOOL)  # wall-clock columns emit 0.0 unless enabled
    # a serialized instance's path; a checked record holds the loaded (app, net)
    instance: object = checked(None, optional(PATH))

    def _joint(self) -> list:
        errors = []
        if self.shape == "wide" and self.components < 3:
            errors.append(("components", "too few for a wide application"))
        if isinstance(self.instance, str):
            try:  # the run uses the instance loaded here
                vars(self)["instance"] = load_instance(self.instance)
            except KeyError as exc:
                errors.append(("instance", f"missing field {exc}"))
            except (OSError, yaml.YAMLError, AttributeError, TypeError, ValueError) as exc:
                errors.append(("instance", str(exc)))
        if self.instance is not None:  # the file fixes the application and the network, and is one run
            errors += [(name, "not read next to placement.instance")
                       for name in ("nodes", "components", "shape", "runs") if name in self._given]
        return errors


@dataclass(frozen=True, init=False)
class IntegratedConfig(Record):
    ledger_period: int = checked(1, COUNT)  # iterations between ledger records


# Each block's record, in the order of a Point's blocks.
BLOCKS = {"learning": LearningConfig, "placement": PlacementConfig, "radio": RadioConfig, "power": PowerProfile,
          "dlt": DltConfig, "integrated": IntegratedConfig}


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


class Point(NamedTuple):
    """One concrete run: each block its kind reads as the run uses it, None
    for the others (dlt also None without a ledger).  Every point shares the
    records of the unswept blocks.  The block fields are BLOCKS, in order, so
    `_expand` builds a sweep point positionally."""

    seed: int
    learning: LearningConfig | None
    placement: PlacementConfig | None
    radio: RadioConfig | None
    power: PowerProfile | None
    dlt: DltConfig | None
    integrated: IntegratedConfig | None
    value: object = None  # the swept field's value at this point


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: what it runs and where it writes, and its points."""

    kind: str
    seed: int
    output: str
    sweep: SweepSpec | None
    points: tuple[Point, ...]


def _given(name: str, block, errors: list[str]) -> dict:
    """The known fields a scenario block sets; unknown names are errors."""
    if not isinstance(block, dict):
        errors.append(f"{name}: must be a mapping")
        return {}
    known = BLOCKS[name].rules()
    errors.extend(f"{name}.{key}: unknown field" for key in block if key not in known)
    return {key: value for key, value in block.items() if key in known}


def _build(name: str, given: dict, errors: list[str], swept: bool = False) -> Record | None:
    """Block `name`'s record, from the fields the scenario sets; each error
    goes on its own field.  `swept` marks the base of a block a sweep sets a
    field of: no point runs it, so it is checked by the one-field rules
    only, and the rules that read several fields run at the points."""
    cls = BLOCKS[name]
    try:
        return cls.swept_base(**given) if swept else cls(**given)
    except FieldErrors as exc:
        errors.extend(f"{name}.{field}: {rule}" if field else f"{name}: {rule}" for field, rule in exc.errors)
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
        elif fname not in BLOCKS[block].rules():
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
    kernels its run prices them with.  The prices stay on the radio record,
    and the run reads them (`RadioConfig.payload_latency`)."""
    if point.dlt is None:
        return
    for name, kernel in _BLOCK_MESSAGES.items():
        try:
            point.radio.payload_latency(kernel, getattr(point.dlt, name))
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


def _expand(seed: int, base: dict, blocks: dict, sweep: SweepSpec | None, errors: list[str]) -> tuple[Point, ...]:
    """One point per sweep value, each checked; the base alone without a
    sweep.  A point's swept block is made by its base record in `blocks`,
    and an error of the whole block is put on the swept field."""
    if sweep is None:
        point = Point(seed, *base.values())
        _check_ledger(point, errors)
        return (point,)
    name, field = sweep.block, sweep.field
    blocks_at, at = list(base.values()), list(BLOCKS).index(name)  # a Point's blocks, in BLOCKS order
    points = []
    for i, value in enumerate(sweep.values):
        found: list[str] = []
        try:
            blocks_at[at] = blocks[name].sweep_point(field, value)
        except FieldErrors as exc:
            found = [f"{name}.{own or field}: {rule}" for own, rule in exc.errors]
        else:
            points.append(Point(seed, *blocks_at, value))
            _check_ledger(points[-1], found)
        if found:
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
    points = _expand(seed, base, blocks, sweep, errors)
    if kind == "integrated":
        _check_ledger_off(raw, sweep, points, errors)
    if errors:
        raise ValidationError(errors)
    return Scenario(kind=kind, seed=seed, output=output, sweep=sweep, points=points)
