"""Each experiment script in scripts/ runs to exit 0 on small arguments.

The scripts are only reached through their argparse front ends, so this is
what catches a renamed option or a library call the scripts fell behind on.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgekit

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(edgekit.__file__).resolve().parent.parent

SMALL_RUNS = {
    "run_learning_comparison.py": (
        ["--workers", "4", "--dim", "2", "--samples", "5", "--seeds", "1", "--iters", "300", "--target", "1e-2"],
        "Joules to objective error",
    ),
}


def test_every_script_has_a_small_run():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SMALL_RUNS)


@pytest.mark.parametrize("script", sorted(SMALL_RUNS))
def test_script_exits_zero(script):
    args, expected = SMALL_RUNS[script]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
