"""Checks for integer and finite-number fields, seeded randomness, a
strictly ordered sum, and the YAML loader for scenario and instance files.

The random generator is numpy's PCG64 (O'Neill's permuted congruential
generator, 128-bit state).  PCG64 has a published state-transition function
and reference implementations in most languages, so streams are reproducible
bit-for-bit across platforms from the same 64-bit seed.
"""
from __future__ import annotations

import numbers
import sys

import numpy as np
import yaml

__all__ = [
    "is_int",
    "is_number",
    "make_rng",
    "child_rng",
    "NonConvergence",
    "sequential_sum",
    "load_yaml",
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
