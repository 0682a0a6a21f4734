import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from edgekit.core import child_rng, is_int, is_number, make_rng, sequential_sum
from edgekit.learning.runner import VARIANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "edgekit"
TRACING = SRC.parent.parent / "benchmarks" / "tracing.py"


@pytest.mark.parametrize("value, integer, number", [
    (3, True, True),
    (np.int64(3), True, True),
    (0, False, True),  # below the least integer asked for (1)
    (2.5, False, True),
    (True, False, False),
    (math.nan, False, False),
    (-math.inf, False, False),
    ("3", False, False),
    pytest.param(10**400, False, False, id="1e400-False-False"),  # an int beyond the float range
])
def test_field_checks(value, integer, number):
    assert is_int(value, 1) == integer
    assert is_number(value) == number


class TestRng:
    def test_same_seed_same_draws(self):
        r1, r2 = make_rng(42), make_rng(42)
        assert [r1.random() for _ in range(3)] == [r2.random() for _ in range(3)]

    def test_adjacent_seeds_differ(self):
        assert make_rng(7).random() != make_rng(8).random()

    def test_sample_mean(self):
        rng = make_rng(0)
        draws = rng.random(100_000)
        assert 0.49 <= draws.mean() <= 0.51

    def test_child_streams_independent_of_each_other(self):
        a = child_rng(5, 1).random(4)
        b = child_rng(5, 2).random(4)
        assert not np.allclose(a, b)
        again = child_rng(5, 1).random(4)
        assert np.array_equal(a, again)


def test_sequential_sum_adds_in_order():
    # compensated summation (builtin sum from Python 3.12) gives 1.0
    assert sequential_sum([1e16, 1.0, -1e16]) == 0.0
    assert sequential_sum([]) == 0 and type(sequential_sum([])) is int
    assert sequential_sum(x for x in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3


def _src_nodes(root: Path = SRC):
    """(where, node) for every syntax node of every module under `root`."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield f"{path.relative_to(SRC)}:{getattr(node, 'lineno', 0)}", node


def test_no_builtin_sum_in_src():
    # builtin sum() of floats rounds differently from Python 3.12 on, so a
    # reported float adds with sequential_sum instead
    calls = [
        where for where, node in _src_nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []


def test_no_loop_over_attempts_in_radio():
    # a reservation term is O(1) in N_rmax (radio.model.expected_attempts):
    # a range over it, iterated in place or bound to a name first, costs
    # N_rmax steps per point, and N_rmax may be 10**8
    def reads_n_rmax(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "N_rmax" or isinstance(n, ast.Name) and n.id == "N_rmax"
                   for n in ast.walk(node))

    ranges = [
        where for where, node in _src_nodes(SRC / "radio")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range"
        and any(map(reads_n_rmax, node.args))
    ]
    assert ranges == []


def test_variant_names_only_in_the_variant_table():
    # every variant decision reads learning.runner.TRAITS: a variant name
    # spelled anywhere else in src/ would be a decision made a second time
    nodes = list(_src_nodes())
    allowed = set()
    for _, node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) \
                and "TRAITS" in {getattr(target, "id", None) for target in node.targets}:
            allowed |= {id(key) for key in node.value.keys}
        if isinstance(node, ast.ClassDef) and node.name == "LearningConfig":  # the default variant
            allowed |= {id(stmt.value.args[0]) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "variant"}
    assert len(allowed) == len(VARIANTS) + 1
    spelled = [
        where for where, node in nodes
        if isinstance(node, ast.Constant) and node.value in VARIANTS and id(node) not in allowed
    ]
    assert spelled == []


def test_no_import_inside_a_function():
    # a module's imports sit at its top, where a reader finds what it uses
    imports = sorted({
        f"{where.rsplit(':', 1)[0]}:{inner.lineno}" for where, node in _src_nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))
    })
    assert imports == []


def test_no_numpy_in_radio():
    # numpy's SIMD exp and power may round differently from libm on some
    # CPUs, so the radio model stays on math and its bits on the host's libm
    imports = [
        where for where, node in _src_nodes(SRC / "radio")
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy")
    ]
    assert imports == []


def _traced_targets() -> list[tuple[str, str, str]]:
    """benchmarks/tracing.py's TARGETS, (span, module, attribute) each, read
    from its source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in benchmarks/tracing.py")


@pytest.mark.parametrize("span, module, attribute", _traced_targets())
def test_traced_function_exists(span, module, attribute):
    # the benchmark's tracer rebinds each target, and a target renamed or
    # inlined away would make its per-layer numbers read 0 without an error
    assert callable(getattr(importlib.import_module(module), attribute, None)), f"{span}: no {module}.{attribute}"
