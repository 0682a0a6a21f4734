import ast
import math
from pathlib import Path

import numpy as np
import pytest

from edgekit.core import (
    NonConvergence,
    child_rng,
    fixed_point,
    is_int,
    is_number,
    make_rng,
    sequential_sum,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "edgekit"


@pytest.mark.parametrize("value, integer, number", [
    (3, True, True),
    (np.int64(3), True, True),
    (0, False, True),  # below the least integer asked for (1)
    (2.5, False, True),
    (True, False, False),
    (math.nan, False, False),
    (-math.inf, False, False),
    ("3", False, False),
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


class TestFixedPoint:
    def test_contraction_to_zero(self):
        assert abs(fixed_point(lambda x: 0.5 * x, 1.0, tol=1e-12)) < 1e-11

    def test_dottie_number(self):
        assert fixed_point(math.cos, 1.0) == pytest.approx(0.7390851332151607, abs=1e-8)

    def test_non_convergence(self):
        with pytest.raises(NonConvergence):
            fixed_point(lambda x: x + 1, 0.0, max_iter=100)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            fixed_point(lambda x: x, 0.0, tol=0.0)
        with pytest.raises(ValueError):
            fixed_point(lambda x: x, 0.0, max_iter=0)


def test_sequential_sum_adds_in_order():
    # compensated summation (builtin sum from Python 3.12) gives 1.0
    assert sequential_sum([1e16, 1.0, -1e16]) == 0.0
    assert sequential_sum([]) == 0 and type(sequential_sum([])) is int
    assert sequential_sum(x for x in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3


def test_no_builtin_sum_in_src():
    # builtin sum() of floats rounds differently from Python 3.12 on, so a
    # reported float adds with sequential_sum instead
    calls = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []
