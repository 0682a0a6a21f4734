"""Golden snapshot: the four committed scenarios reproduce out/*.csv byte for byte.

The CSVs are written with repr(), so this fails on any last-ulp change in a
reported number, not only on a wrong one.  The README's scenario commands
name committed scenarios of their subcommand's kind, and its table of what
each kind reads is `scenario.KIND_READS`.
"""
import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import edgekit
from edgekit.cli import _KIND_OF_COMMAND, main
from edgekit.pipeline import run_scenario
from edgekit.scenario import KIND_READS, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(edgekit.__file__).resolve().parent.parent


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


# Writes the golden learning and integrated scenarios' reports into argv[1].
GOLDEN_LEARNING_RUN = """
import dataclasses, sys
from pathlib import Path
from edgekit.pipeline import run_scenario
from edgekit.scenario import parse_scenario
for name in ("learning", "integrated"):
    scenario = parse_scenario(Path(sys.argv[2]) / "scenarios" / f"{name}.yaml")
    run_scenario(dataclasses.replace(scenario, output=str(Path(sys.argv[1]) / Path(scenario.output).name)))
"""


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the learning goldens hold only under the BLAS kernel that recorded them")
@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_learning_goldens_hold_under_other_blas_kernels(kernel, tmp_path):
    """The committed learning and integrated reports, byte for byte, with
    OpenBLAS forced onto another x86 kernel (set on the child process only)."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", GOLDEN_LEARNING_RUN, str(tmp_path), str(ROOT)],
                          capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    for name in ("learning.csv", "integrated.csv", "integrated_summary.csv"):
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes(), f"{name} differs under {kernel}"


def _dense_sweep_scenario(tmp_path, radio_update: dict, dlt_update: dict, param: str, values: list) -> Path:
    """The golden radio scenario swept over 300 values of `param`."""
    doc = yaml.safe_load((ROOT / "scenarios" / "radio.yaml").read_text())
    doc["radio"].update(radio_update)
    doc["dlt"].update(dlt_update)
    doc["output"] = str(tmp_path / "dense.csv")
    doc["sweep"] = {"param": param, "values": values}
    path = tmp_path / "dense.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


# 300 NPRACH periods, 0.04 s to 2.56 s, and 300 sensing rates, 0.01 to 10
# (at 10 the ledger's block body loads the uplink queue to 0.96)
PERIODS = ("radio.t", [round(0.04 * 64.0 ** (i / 299), 6) for i in range(300)])
SENSING_RATES = ("radio.lambda_s", [round(0.01 * 1000.0 ** (i / 299), 6) for i in range(300)])

# sha256 of each 300-row CSV.  Like out/radio.csv, they pin every reported
# float to the last bit, but at 300 points instead of seven.  The second
# prices non-default ledger payloads; the third sweeps one field, which its
# points derive from the checked base without the fields radio.t moves.
DENSE_SWEEPS = {
    "golden": ({}, {}, PERIODS, "24342eed555045692b82996dbab175054f22574892002aa09e406d566300e5b5"),
    "light-load-payloads": (
        {"lambda_u": 0.7, "lambda_d": 1.2, "lambda_s": 2.5, "lambda_b": 3.5},
        {"new_block_bits": 512.0, "get_block_bits": 2048.0, "trans_block_bits": 6000.0},
        PERIODS,
        "a772133cc006932cd3c9b5c672425e366d753e3cba95deda4dbe2d924862bb4b",
    ),
    "sensing-rate": ({}, {}, SENSING_RATES, "71d8c4eb76c0c77ecb8c9da52ad1848e4c5ad41d7089895898764ab2ed775b8e"),
}


@pytest.mark.parametrize("name", sorted(DENSE_SWEEPS))
def test_dense_radio_sweep_digest_pinned(name, tmp_path, capsys):
    radio_update, dlt_update, (param, values), digest = DENSE_SWEEPS[name]
    scenario = _dense_sweep_scenario(tmp_path, radio_update, dlt_update, param, values)
    assert main(["radio", "--scenario", str(scenario)]) == 0
    assert capsys.readouterr().out.split() == [str(tmp_path / "dense.csv")]
    data = (tmp_path / "dense.csv").read_bytes()
    assert len(data.splitlines()) == 301
    assert hashlib.sha256(data).hexdigest() == digest


# Learning sweeps of several points, one CSV per point: the benchmark's
# ggadmm shape over rho, cq-ggadmm over its quantizer and its censoring,
# d-gadmm across its re-chains, ps-admm, and points of unequal lengths.
BIPARTITE = {"workers": 8, "dim": 4, "samples": 15, "topology": "bipartite", "mean_degree": 3.0, "iters": 150}
LEARNING_SWEEPS = {
    "ggadmm-rho": (
        {"variant": "ggadmm", **BIPARTITE}, "learning.rho", [0.6, 1.1, 1.9],
        "8acd52a3dcae3235744208f39006b4e6406e51b5573d72b30adddf9167657fa9",
    ),
    "cq-ggadmm-bits": (
        {"variant": "cq-ggadmm", **BIPARTITE, "censor_xi0": 0.05}, "learning.quantizer_bits", [2, 4, 8],
        "c97ecc2c7ff2a19cad2f81723614a055ce24b9ed4815a150fe4360401c6b6bb5",
    ),
    "cq-ggadmm-xi0": (
        {"variant": "cq-ggadmm", **BIPARTITE, "quantizer_bits": 3}, "learning.censor_xi0", [0.0, 0.05, 0.3],
        "bb224e99c16bd1c141403607cc7bad1f157c877df3dfccc34e2c5b2cfb76a333",
    ),
    "d-gadmm-rho": (
        {"variant": "d-gadmm", "workers": 8, "dim": 3, "samples": 10, "tau_coh": 7, "iters": 100},
        "learning.rho", [0.5, 1.0, 2.0],
        "8138080b52508e645feb0d91c8e1a30635690cee4a7f18a1d05ad08297000f17",
    ),
    "ps-admm-rho": (
        {"variant": "ps-admm", "workers": 6, "dim": 3, "samples": 10, "iters": 120}, "learning.rho", [0.7, 1.3],
        "25e60804ccb9d0dc6f1516a57804b7c5edefa6e1b32c24a0b93576e70efb8805",
    ),
    "ggadmm-iters": (
        {"variant": "ggadmm", **BIPARTITE}, "learning.iters", [5, 40, 17],
        "bc526cbcb6b26271f6ed0194e1e2b80350e0ed49fc67f250a5423b6584332808",
    ),
}


def _sweep_files(name, tmp_path, capsys):
    """Run the sweep LEARNING_SWEEPS[name] through `edgekit learn`; returns
    each point's CSV path, after checking their names and lengths."""
    learning, param, values, _ = LEARNING_SWEEPS[name]
    doc = {"seed": 3, "kind": "learning", "output": str(tmp_path / "s.csv"), "learning": learning,
           "sweep": {"param": param, "values": values}}
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["learn", "--scenario", str(scenario)]) == 0
    paths = [Path(line) for line in capsys.readouterr().out.split()]
    field = param.replace(".", "_")
    assert [p.name for p in paths] == [f"s_{field}_{v}.csv" for v in values]
    lengths = values if param == "learning.iters" else [learning["iters"]] * len(values)
    assert [len(p.read_bytes().splitlines()) - 1 for p in paths] == lengths
    return paths


@pytest.mark.parametrize("name", sorted(LEARNING_SWEEPS))
def test_learning_sweep_digest_pinned(name, tmp_path, capsys):
    paths = _sweep_files(name, tmp_path, capsys)
    data = b"".join(p.name.encode() + b"\n" + p.read_bytes() for p in paths)
    assert hashlib.sha256(data).hexdigest() == LEARNING_SWEEPS[name][3]


# The ps-admm-rho sweep's CSVs without their joules_cum column, recorded
# while ps-admm still priced an iteration as one sum of its N messages.
PS_ADMM_SWEEP_NO_JOULES_DIGEST = "be5ecad4f76b6c04a101daf21abe9ee8277c1b9a6b8c5615018282910feedc10"


def test_ps_admm_sweep_columns_but_joules_pinned(tmp_path, capsys):
    paths = _sweep_files("ps-admm-rho", tmp_path, capsys)
    lines = [line.split(b",") for p in paths for line in p.read_bytes().splitlines()]
    assert lines[0][4] == b"joules_cum"
    data = b"\n".join(b",".join(cells[:4] + cells[5:]) for cells in lines)
    assert hashlib.sha256(data).hexdigest() == PS_ADMM_SWEEP_NO_JOULES_DIGEST


# `edgekit <command> --scenario scenarios/<file>.yaml` lines of README.md
README_COMMANDS = sorted(set(re.findall(r"^edgekit (\S+) +--scenario (scenarios/\S+\.yaml)",
                                         (ROOT / "README.md").read_text(), re.M)))


def test_readme_shows_every_golden_scenario():
    assert {path for _, path in README_COMMANDS} >= {f"scenarios/{name}.yaml" for name in
                                                     ("learning", "placement", "radio", "integrated")}


@pytest.mark.parametrize("command, path", README_COMMANDS)
def test_readme_command_names_a_scenario_of_its_kind(command, path):
    # parsed, not run: nothing is written under out/
    assert parse_scenario(ROOT / path).kind == _KIND_OF_COMMAND[command]


def test_readme_reads_table_is_kind_reads():
    # the rows under "| kind | reads and may sweep |": a block reads as
    # `<block>.*`, a single field as itself
    table = (ROOT / "README.md").read_text().split("| kind | reads and may sweep |\n|---|---|\n", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", table.split("\n\n", 1)[0], re.M)
    documented = {kind: tuple(re.findall(r"`([^`]+)`", cell)) for kind, cell in rows}
    assert documented == {kind: tuple(r if "." in r else f"{r}.*" for r in reads) for kind, reads in KIND_READS.items()}
