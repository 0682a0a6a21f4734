"""Checked config records, seeded randomness, a strictly ordered sum, and
the YAML loader for scenario and instance files.

Every config block is a frozen `Record` whose fields declare their default
and one-field rule: a count, a number > 0, >= 0 or in (0, 1], a choice, a
bool, a path, or any of these `optional`.

The random generator is numpy's PCG64 (O'Neill's permuted congruential
generator, 128-bit state).  PCG64 has a published state-transition function
and reference implementations in most languages, so streams are reproducible
bit-for-bit across platforms from the same 64-bit seed.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import sys
from pathlib import Path

import numpy as np
import yaml

__all__ = [
    "is_int", "is_number", "shown", "FieldErrors", "Record", "checked", "count", "choice", "optional",
    "COUNT", "POSITIVE", "NONNEGATIVE", "UNIT", "BOOL", "PATH",
    "make_rng", "child_rng", "NonConvergence", "sequential_sum", "load_yaml",
]

# libyaml's parser when PyYAML was built with it (5x faster on the golden
# scenarios), else the pure-Python one; both build the same safe objects.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
FLOAT_MAX = sys.float_info.max


# is_int and is_number let an int or a float skip the ABC checks (several times
# dearer, on every radio config field), and compare ints of any size exactly.
def is_int(value, least: int, most: float = FLOAT_MAX) -> bool:
    """`value` is an integer in [least, most] (YAML's true and false are not)."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        return False
    return least <= value <= most


def is_number(value) -> bool:
    """`value` is a real number in the float range (YAML's true and false are not)."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        return False
    return -FLOAT_MAX <= value <= FLOAT_MAX


def shown(value) -> str:
    """repr(value), or an integer beyond the float range by its length."""
    if is_int(value, -math.inf, math.inf) and not is_number(value):
        return f"a {len(str(abs(value)))}-digit integer"
    return repr(value)


# One-field rules: each takes a value and returns None, or the rule it breaks.
def count(least: int, most: int | None = None):
    """An integer >= least (and <= most); one beyond the float range is not."""
    def rule(value):
        if is_int(value, least, FLOAT_MAX if most is None else most):
            return None
        if most is not None:
            return f"must be an integer in {least}..{most}, got {shown(value)}"
        within = " in the float range" if is_int(value, least, math.inf) else ""
        return f"must be an integer >= {least}{within}, got {shown(value)}"
    return rule


def _number(strict: bool, most: float = FLOAT_MAX):
    """A finite number, > 0 if `strict` else >= 0, and <= most (1 or the
    float range)."""
    def rule(value):
        if type(value) is float and (0.0 < value <= most if strict else 0.0 <= value <= most):
            return None  # the common case, in one test
        if not is_number(value):
            return f"must be a finite number, got {shown(value)}"
        if value < 0 or strict and value == 0:
            return "must be > 0" if strict else "must be >= 0"
        return "must be in (0, 1]" if value > most else None
    return rule


def choice(options):
    """One of `options`."""
    return lambda value: None if isinstance(value, str) and value in options else \
        f"must be one of {', '.join(options)}, got {shown(value)}"


def optional(rule):
    """None, or a value `rule` accepts."""
    return lambda value: None if value is None else rule(value)


COUNT = count(1)
POSITIVE = _number(strict=True)
NONNEGATIVE = _number(strict=False)
UNIT = _number(strict=True, most=1.0)  # in (0, 1]
BOOL = lambda value: None if isinstance(value, bool) else f"must be true or false, got {shown(value)}"
PATH = lambda value: None if isinstance(value, str) and Path(value).is_file() else "must name an existing file"


class FieldErrors(ValueError):
    """Every rule a record breaks, as (field, rule) pairs in field order; the
    field is None for a rule of the whole record (an unstable queue, say)."""

    def __init__(self, errors: list[tuple[str | None, str]]):
        super().__init__("; ".join(rule if name is None else f"{name}: {rule}" for name, rule in errors))
        self.errors = errors


def checked(default, rule, **metadata):
    """A record field: its default, its one-field rule, and what else the
    rules that read several fields read of it (`metadata`)."""
    return dataclasses.field(default=default, metadata={"rule": rule, **metadata})


@functools.cache
def _schema(cls) -> tuple[dict, dict, dict]:
    """Record class `cls`'s defaults, one-field rules and field places."""
    fields = dataclasses.fields(cls)
    return ({f.name: f.default for f in fields}, {f.name: f.metadata["rule"] for f in fields},
            {f.name: i for i, f in enumerate(fields)})


class Record:
    """A frozen config record, a `dataclass(frozen=True, init=False)` of
    `checked` fields (whose defaults pass their rules), with one check
    routine: the one-field rules on the fields it is given, every error
    collected, then, if all pass, the rules that read several fields
    (`_joint`), which may read the given names (`_given`).

    The base of a sweep, which no point runs, is checked by the one-field
    rules only (`swept_base`); a point it makes (`sweep_point`, `derive`)
    checks the fields it replaces, then the rules that read several.  So a
    point fails exactly where the same record built whole fails.
    """

    __slots__ = ("__dict__", "_given")

    def __init__(self, **given):
        self._set(given)

    def _set(self, given: dict, joint: bool = True) -> None:
        defaults, rules, _ = _schema(type(self))
        if not rules.keys() >= given.keys():
            raise TypeError(f"{type(self).__name__} has no field {min(given.keys() - rules.keys())!r}")
        values = vars(self)
        values.update(defaults)
        values.update(given)
        object.__setattr__(self, "_given", frozenset(given))
        self._check(given, joint)

    def _check(self, names, joint: bool = True) -> None:
        _, rules, places = _schema(type(self))
        values = vars(self)
        errors = [(name, error) for name in names if (error := rules[name](values[name])) is not None]
        if errors:
            raise FieldErrors(sorted(errors, key=lambda error: places[error[0]]))  # in field order
        if joint and (errors := self._joint()):
            raise FieldErrors(errors)

    def _joint(self) -> list[tuple[str | None, str]]:
        """The errors of the rules that read several fields; a rule may also
        raise FieldErrors, as a queue kernel's UnstableConfig does."""
        return []

    @classmethod
    def rules(cls) -> dict:
        """Each field's one-field rule, in field order."""
        return _schema(cls)[1]

    @classmethod
    def swept_base(cls, **given):
        """The record with the fields `given`, checked by the one-field rules only."""
        record = object.__new__(cls)
        record._set(given, joint=False)
        return record

    def derive(self, replaced: dict):
        """This record, which passed the one-field rules, with the fields
        `replaced` set and checked; nothing kept beside the fields is copied."""
        record = object.__new__(type(self))
        values = vars(record)
        values.update(vars(self))
        values.update(replaced)
        object.__setattr__(record, "_given", self._given.union(replaced))
        record._check(replaced)
        return record

    def sweep_point(self, name: str, value):
        """The point at one value of a sweep over field `name` of this base."""
        return self.derive({name: value})

    def __getstate__(self):  # a copy keeps no price or load its checks computed
        return vars(self), self._given

    def __setstate__(self, state) -> None:
        vars(self).update(state[0])
        object.__setattr__(self, "_given", state[1])


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def child_rng(seed: int, *keys: int) -> np.random.Generator:
    """Derive an independent stream from (seed, keys).

    Used wherever a sub-step (e.g. a re-chaining event at iteration k) must be
    deterministic in the parent seed and the step index alone.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in keys))
    return np.random.Generator(np.random.PCG64(ss))


class NonConvergence(RuntimeError):
    def __init__(self, max_iter: int, last_value: float):
        super().__init__(f"no fixed point after {max_iter} iterations (last x={last_value})")
        self.max_iter = max_iter
        self.last_value = last_value


def sequential_sum(values):
    """The values added one after the other from int 0, as builtin sum()
    adds floats up to Python 3.11: from 3.12 sum() compensates the rounding
    of a float sum, so its last bits would depend on the Python version.
    Like sum(), an empty sum is the int 0."""
    total = 0
    for value in values:
        total += value
    return total


def load_yaml(text: str):
    """Parse one YAML document into plain Python objects (safe tags only).

    Raises yaml.YAMLError for malformed input.
    """
    return yaml.load(text, Loader=YAML_LOADER)
