"""Golden snapshot: the four committed scenarios reproduce out/*.csv byte for byte.

The CSVs are written with repr(), so this fails on any last-ulp change in a
reported number, not only on a wrong one.
"""
import dataclasses
from pathlib import Path

import pytest

from edgekit.pipeline import run_scenario
from edgekit.scenario import parse_scenario

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["learning", "placement", "radio", "integrated"])
def test_golden_scenario_reproduces_committed_csv(name, tmp_path):
    scenario = parse_scenario(ROOT / "scenarios" / f"{name}.yaml")
    golden = Path(scenario.output)
    scenario = dataclasses.replace(scenario, output=str(tmp_path / golden.name))
    written = run_scenario(scenario)
    assert written
    for path in written:
        expected = ROOT / golden.parent / path.name
        assert path.read_bytes() == expected.read_bytes(), f"{path.name} differs from {expected}"
