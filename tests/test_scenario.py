import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from edgekit import core, pipeline
from edgekit.cli import build_parser, main
from edgekit.placement import load_instance
from edgekit.radio import DltConfig, PowerProfile, RadioConfig, nprach_period_fields
from edgekit.pipeline import run_learning_block, run_scenario
from edgekit.scenario import BLOCKS, KIND_READS, ParseError, Point, ValidationError, _check_ledger, parse_scenario

from oracles import swept_fields, write_csv_module

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios"
SRC = GOLDEN.parent / "src"


def write(tmp_path, text, name="s.yaml"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return p


class TestParsing:
    def test_minimal_learning_scenario_applies_defaults(self, tmp_path):
        p = write(tmp_path, """
            kind: learning
        """)
        s = parse_scenario(p)
        assert s.kind == "learning"
        assert s.seed == 0
        learning = s.points[0].learning
        assert learning["variant"] == "gadmm"
        assert learning["workers"] == 10

    def test_negative_preamble_count_names_field(self, tmp_path):
        p = write(tmp_path, """
            kind: radio-dlt
            radio:
              K: -3
        """)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(p)
        assert any("radio.K" in e for e in exc.value.errors)

    def test_unknown_top_level_key(self, tmp_path):
        p = write(tmp_path, """
            kind: learning
            flavor: vanilla
        """)
        with pytest.raises(ParseError, match="flavor"):
            parse_scenario(p)

    def test_unknown_block_field_named(self, tmp_path):
        p = write(tmp_path, """
            kind: learning
            learning:
              wrokers: 4
        """)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(p)
        assert any("learning.wrokers" in e for e in exc.value.errors)

    def test_missing_or_bad_kind(self, tmp_path):
        with pytest.raises(ParseError, match="kind"):
            parse_scenario(write(tmp_path, "seed: 1\n"))
        with pytest.raises(ParseError, match="kind"):
            parse_scenario(write(tmp_path, "kind: sorcery\n"))

    def test_sweep_param_must_exist(self, tmp_path):
        p = write(tmp_path, """
            kind: radio-dlt
            sweep:
              param: radio.nope
              values: [1, 2]
        """)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(p)
        assert any("sweep.param" in e for e in exc.value.errors)

    def test_sweep_parses(self, tmp_path):
        p = write(tmp_path, """
            kind: radio-dlt
            sweep:
              param: radio.t
              values: [0.1, 0.2]
        """)
        s = parse_scenario(p)
        assert s.sweep.block == "radio"
        assert s.sweep.field == "t"
        assert s.sweep.values == (0.1, 0.2)
        assert [point.value for point in s.points] == [0.1, 0.2]
        first, swept = s.points
        assert swept.radio.t == 0.2
        # radio.t moves the fields derived from it, at fixed arrivals per second
        assert swept.radio == replace(RadioConfig(), **nprach_period_fields(RadioConfig(), 0.2))
        assert swept.power is first.power and swept.learning is first.learning is None

    def test_scenario_is_its_points(self, tmp_path):
        # the base of a G sweep breaks the joint queue rules, which run at the points only
        p = write(tmp_path, """
            kind: radio-dlt
            radio: {G: 200.0}
            sweep: {param: radio.G, values: [1.0, 2.0]}
        """)
        s = parse_scenario(p)
        assert not any(hasattr(s, name) for name in BLOCKS)
        assert [point.radio.G for point in s.points] == [1.0, 2.0]
        for point in s.points:
            assert point.radio == RadioConfig(**vars(point.radio))

    def test_unread_blocks_are_not_checked(self, tmp_path, capsys):
        p = write(tmp_path, """
            kind: learning
            radio: {K: 0}
            placement: {runs: 0}
        """)
        assert main(["learn", "--scenario", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: placement: not read by kind learning\n"
            "error: radio: not read by kind learning\n"
        )

    def test_unread_fields_are_not_checked(self, tmp_path, capsys):
        # an integrated scenario reads placement.nodes alone
        p = write(tmp_path, """
            kind: integrated
            placement: {nodes: 10, runs: 0, shape: tall}
        """)
        assert main(["integrated", "--scenario", str(p)]) == 1
        assert capsys.readouterr().err == (
            "error: placement.runs: not read by kind integrated\n"
            "error: placement.shape: not read by kind integrated\n"
        )

    def test_seed_override(self, tmp_path):
        p = write(tmp_path, "kind: learning\nseed: 5\n")
        assert parse_scenario(p).seed == 5
        assert parse_scenario(p, seed_override=9).seed == 9
        # a seed is any non-negative integer, where a count ends at the float range
        assert parse_scenario(write(tmp_path, f"kind: learning\nseed: 1{'0' * 400}\n")).seed == 10**400

    def test_negative_payload_size_names_field(self, tmp_path):
        p = write(tmp_path, """
            kind: radio-dlt
            dlt:
              get_block_bits: -1
        """)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(p)
        assert exc.value.errors == ["dlt.get_block_bits: get_block_bits must be > 0"]

    @pytest.mark.parametrize("value", ["'4096'", "[1, 2]", ".nan"])
    def test_non_numeric_payload_size_names_field(self, tmp_path, value):
        p = write(tmp_path, f"""
            kind: radio-dlt
            dlt:
              trans_block_bits: {value}
        """)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(p)
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith("dlt.trans_block_bits: trans_block_bits must be")


class TestYamlLoader:
    def test_libyaml_loader_used_when_available(self):
        assert core.YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.yaml")))
    def test_golden_files_load_alike_under_both_loaders(self, name, monkeypatch):
        path = GOLDEN / name
        load = load_instance if name == "placement_instance.yaml" else parse_scenario
        fast = load(path)
        monkeypatch.setattr(core, "YAML_LOADER", yaml.SafeLoader)
        assert load(path) == fast

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    @pytest.mark.parametrize("text", ["kind: [learning\n", "kind: learning\n  seed: 1\n", "a: b: c\n"])
    def test_malformed_yaml_is_a_parse_error(self, tmp_path, capsys, monkeypatch, loader, text):
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML built without libyaml")
        monkeypatch.setattr(core, "YAML_LOADER", getattr(yaml, loader))
        p = tmp_path / "s.yaml"
        p.write_text(text)
        with pytest.raises(ParseError, match="not valid YAML"):
            parse_scenario(p)
        assert main(["learn", "--scenario", str(p)]) == 1
        assert "not valid YAML" in capsys.readouterr().err
        with pytest.raises(yaml.YAMLError):
            load_instance(p)


class TestGoldenScenarios:
    @pytest.mark.parametrize("name,kind", [
        ("learning.yaml", "learning"),
        ("placement.yaml", "placement"),
        ("radio.yaml", "radio-dlt"),
        ("integrated.yaml", "integrated"),
    ])
    def test_golden_files_parse(self, name, kind):
        s = parse_scenario(GOLDEN / name)
        assert s.kind == kind

    def test_points_hold_only_the_blocks_their_kind_reads(self):
        for name in ("learning.yaml", "placement.yaml", "radio.yaml", "integrated.yaml"):
            s = parse_scenario(GOLDEN / name)
            reads = {r.split(".", 1)[0] for r in KIND_READS[s.kind]}
            for point in s.points:
                assert {b for b in BLOCKS if getattr(point, b) is None} == set(BLOCKS) - reads, name


class TestRunScenario:
    def test_learning_csv_schema_and_determinism(self, tmp_path):
        p = write(tmp_path, f"""
            kind: learning
            seed: 2
            output: {tmp_path}/learn.csv
            learning:
              workers: 4
              dim: 3
              iters: 20
        """)
        first = run_scenario(parse_scenario(p))[0].read_bytes()
        again = run_scenario(parse_scenario(p))[0].read_bytes()
        assert first == again
        header = first.decode().splitlines()[0]
        assert header == "iter,objective,objective_error,bits_cum,joules_cum,censored_cum"
        assert len(first.decode().splitlines()) == 21

    def test_placement_csv_schema(self, tmp_path):
        p = write(tmp_path, f"""
            kind: placement
            seed: 1
            output: {tmp_path}/place.csv
            placement:
              nodes: 6
              components: 4
              runs: 3
        """)
        lines = run_scenario(parse_scenario(p))[0].read_text().splitlines()
        assert lines[0] == "seed,E_opt,E_heur,ratio,t_opt_ms,t_heur_ms"
        assert len(lines) == 4
        for line in lines[1:]:
            seed, e_opt, e_heur, ratio, t_opt, t_heur = line.split(",")
            assert float(e_opt) <= float(e_heur) + 1e-9
            assert t_opt == "0.0" and t_heur == "0.0"  # measure_time off

    def test_radio_sweep_one_row_per_value(self, tmp_path):
        p = write(tmp_path, f"""
            kind: radio-dlt
            output: {tmp_path}/radio.csv
            sweep:
              param: dlt.M
              values: [1, 2, 4]
        """)
        lines = run_scenario(parse_scenario(p))[0].read_text().splitlines()
        assert lines[0].startswith("dlt.M,L_total,E_total,latency_sync_up")
        assert len(lines) == 4

    def test_empty_dlt_block_prices_the_default_ledger(self, tmp_path):
        def rows(block):
            p = write(tmp_path, f"kind: radio-dlt\noutput: {tmp_path}/radio.csv\n{block}")
            return [line.split(",") for line in run_scenario(parse_scenario(p))[0].read_text().splitlines()]

        empty = rows("dlt: {}\n")
        assert empty == rows("dlt: {M: 5}\n")  # DltConfig's default miner count
        assert empty != rows("")  # no block: no ledger round
        header, values = empty
        assert float(values[header.index("latency_block_exchange")]) > 0

    def test_learning_sweep_writes_one_csv_per_point(self, tmp_path):
        p = write(tmp_path, f"""
            kind: learning
            output: {tmp_path}/sweep.csv
            learning:
              workers: 4
              dim: 2
              iters: 5
            sweep:
              param: learning.rho
              values: [0.5, 1.0]
        """)
        paths = run_scenario(parse_scenario(p))
        assert [p.name for p in paths] == ["sweep_learning_rho_0.5.csv", "sweep_learning_rho_1.0.csv"]

    def test_instance_file_used_when_given(self, tmp_path):
        p = write(tmp_path, f"""
            kind: placement
            output: {tmp_path}/inst.csv
            placement:
              instance: {GOLDEN / 'placement_instance.yaml'}
        """)
        lines = run_scenario(parse_scenario(p))[0].read_text().splitlines()
        assert len(lines) == 2

    def test_instance_loaded_once_at_parse_time(self, tmp_path):
        inst = tmp_path / "inst.yaml"
        shutil.copy(GOLDEN / "placement_instance.yaml", inst)
        p = write(tmp_path, f"""
            kind: placement
            output: {tmp_path}/inst.csv
            placement:
              instance: {inst}
        """)
        expected = run_scenario(parse_scenario(p))[0].read_bytes()
        scenario = parse_scenario(p)
        assert scenario.points[0].placement["instance"][1].links[0] == (1, 2, 0.2)
        inst.unlink()  # the run reads no file
        assert run_scenario(scenario)[0].read_bytes() == expected


_cells = st.one_of(
    st.floats(),
    st.integers(),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
)


class TestCsvWriter:
    @settings(max_examples=200)
    @given(
        header=st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]*", fullmatch=True), min_size=1, max_size=6),
        rows=st.lists(st.lists(_cells, max_size=6), max_size=5),
    )
    @example(header=["param", "L_total"], rows=[])
    @example(
        header=["a", "b", "c", "d"],
        rows=[[-0.0, 5e-324, 1e308, 2**53 + 1], [True, np.int64(-7), np.float64(0.1), 2**64]],
    )
    def test_same_bytes_as_csv_module(self, header, rows):
        with tempfile.TemporaryDirectory() as tmp:
            ours = pipeline._write(Path(tmp) / "ours.csv", pipeline._csv_text(header, rows)).read_bytes()
            theirs = write_csv_module(Path(tmp) / "theirs.csv", header, rows).read_bytes()
        assert ours == theirs


class TestIntegrated:
    def scenario(self, tmp_path, dlt=True, ledger_period=5):
        dlt_block = """
            dlt:
              M: 3
              lambda_0: 10.0
              P_c: 0.2
        """ if dlt else ""
        return write(tmp_path, f"""
            kind: integrated
            seed: 4
            output: {tmp_path}/integrated.csv
            learning:
              variant: gadmm
              workers: 4
              dim: 3
              iters: 40
            placement:
              nodes: 10
            integrated:
              ledger_period: {ledger_period}
            {dlt_block}
        """)

    def reports(self, tmp_path, **kwargs):
        """The integrated CSV's rows and the summary row, as strings."""
        paths = run_scenario(parse_scenario(self.scenario(tmp_path, **kwargs)))
        rows, summary = ([line.split(",") for line in path.read_text().splitlines()[1:]] for path in paths)
        return rows, summary[0]

    def test_grand_total_identity(self, tmp_path):
        rows, summary = self.reports(tmp_path)
        placement, learning, ledger, records, total = map(float, summary)
        ledger_rows = [row for row in rows if row[4:] != ["0.0", "0.0"]]
        assert [int(row[0]) for row in ledger_rows] == list(range(5, 41, 5))
        assert records == len(ledger_rows) == 40 // 5
        assert len({tuple(row[4:]) for row in ledger_rows}) == 1  # one priced record
        assert ledger == pytest.approx(sum(float(row[5]) for row in ledger_rows))
        assert learning == float(rows[-1][3])
        assert 0 < placement < float("inf")  # a feasible assignment
        assert total == pytest.approx(placement + learning + ledger)

    def test_dlt_disabled_totals_are_placement_plus_learning(self, tmp_path):
        rows, summary = self.reports(tmp_path, dlt=False)
        assert all(row[4:] == ["0.0", "0.0"] for row in rows)
        placement, learning, ledger, records, total = summary
        assert (ledger, records) == ("0", "0")
        assert float(total) == pytest.approx(float(placement) + float(learning))

    def test_empty_dlt_block_prices_the_default_ledger(self, tmp_path):
        p = write(tmp_path, f"""
            kind: integrated
            output: {tmp_path}/integrated.csv
            learning: {{variant: gadmm, workers: 4, dim: 3, iters: 10}}
            placement: {{nodes: 10}}
            dlt: {{}}
        """)
        assert main(["integrated", "--scenario", str(p)]) == 0
        summary = (tmp_path / "integrated_summary.csv").read_text().splitlines()[1].split(",")
        assert float(summary[2]) > 0 and int(summary[3]) == 10  # ledger energy, one record per iteration
        assert parse_scenario(p).points[0].dlt == DltConfig()

    def test_placement_does_not_alter_learning_math(self, tmp_path):
        rows, _ = self.reports(tmp_path)
        s = parse_scenario(self.scenario(tmp_path))
        standalone, = run_learning_block([s.points[0].learning], s.seed)
        assert [float(row[1]) for row in rows] == standalone.objective
        assert [float(row[2]) for row in rows] == standalone.objective_error

    def test_csv_outputs(self, tmp_path):
        s = parse_scenario(self.scenario(tmp_path))
        paths = run_scenario(s)
        assert [p.name for p in paths] == ["integrated.csv", "integrated_summary.csv"]
        summary = paths[1].read_text().splitlines()
        assert summary[0] == "placement_energy,learning_energy,ledger_energy,ledger_records,grand_total_energy"
        vals = [float(x) for x in summary[1].split(",")]
        assert vals[0] + vals[1] + vals[2] == pytest.approx(vals[4])


class TestCli:
    def test_successful_run_exits_zero(self, tmp_path, capsys):
        p = write(tmp_path, f"""
            kind: learning
            output: {tmp_path}/out.csv
            learning:
              workers: 4
              dim: 2
              iters: 5
        """)
        assert main(["learn", "--scenario", str(p)]) == 0
        assert str(tmp_path / "out.csv") in capsys.readouterr().out

    def test_validation_error_exits_one(self, tmp_path, capsys):
        p = write(tmp_path, "kind: radio-dlt\nradio:\n  K: -1\n")
        assert main(["radio", "--scenario", str(p)]) == 1
        assert "radio.K" in capsys.readouterr().err

    @pytest.mark.parametrize("command, kind, field", [
        # exited 1 with an OverflowError traceback and no dotted path
        ("learn", "learning", "learning.rho"),
        ("radio", "radio-dlt", "radio.lambda_s"),
        ("radio", "radio-dlt", "radio.N_rmax"),
        ("learn", "learning", "learning.workers"),
        # exited 2 at run time
        ("radio", "radio-dlt", "radio.K"),
        ("place", "placement", "placement.nodes"),
    ])
    def test_integer_beyond_the_float_range_exits_one(self, tmp_path, capsys, command, kind, field):
        block, name = field.split(".")
        p = write(tmp_path, f"kind: {kind}\noutput: {tmp_path}/out/r.csv\n{block}:\n  {name}: 1{'0' * 400}\n")
        assert main([command, "--scenario", str(p)]) == 1
        assert f"error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_kind_mismatch_exits_one(self, tmp_path, capsys):
        p = write(tmp_path, "kind: learning\n")
        assert main(["place", "--scenario", str(p)]) == 1

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["learn", "--scenario", str(tmp_path / "nope.yaml")]) == 1

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        # infeasible placement: single tiny node cannot host the components
        inst = tmp_path / "inst.yaml"
        inst.write_text(textwrap.dedent("""
            application:
              components:
              - {id: 1, R_t: 5, O_t: 1.0, S_t: 1}
              edges: []
            network:
              nodes:
              - {id: 1, P_n: 1.0, R_n: 2, C_n: 1.0}
              links: []
        """))
        p = write(tmp_path, f"""
            kind: placement
            output: {tmp_path}/out.csv
            placement:
              instance: {inst}
        """)
        assert main(["place", "--scenario", str(p)]) == 2
        assert "Infeasible" in capsys.readouterr().err

    def test_reservation_underflow_exits_two(self, tmp_path, capsys):
        # a valid config whose arrival rate drives P_rr to 0.0: a runtime failure
        p = write(tmp_path, f"""
            kind: radio-dlt
            output: {tmp_path}/out/radio.csv
            radio:
              lambda_u: 1.0e+300
        """)
        assert main(["radio", "--scenario", str(p)]) == 2
        assert "P_rr must be in (0, 1]" in capsys.readouterr().err

    def test_overflowing_contention_rate_exits_one_before_writing(self, tmp_path, capsys):
        # ran the reservation fixed point to its 100 000-step limit and exited 2
        p = write(tmp_path, f"""
            kind: radio-dlt
            output: {tmp_path}/out/radio.csv
            radio: {{lambda_u: 1.0e+308, lambda_d: 0.0, N_rmax: 2}}
        """)
        assert main(["radio", "--scenario", str(p)]) == 1
        assert "radio.lambda_u: lambda_u makes the largest contention rate" in capsys.readouterr().err
        swept = write(tmp_path, f"""
            kind: radio-dlt
            output: {tmp_path}/out/radio.csv
            radio: {{lambda_u: 1.0e+306, lambda_d: 0.0}}
            sweep: {{param: radio.t, values: [0.32, 32.0]}}
        """)
        assert main(["radio", "--scenario", str(swept)]) == 1
        assert "sweep.values[1]: radio.t: lambda_u makes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_payload_size_exits_one_before_writing(self, tmp_path, capsys):
        p = write(tmp_path, f"""
            kind: radio-dlt
            output: {tmp_path}/out/radio.csv
            dlt:
              get_block_bits: -1
            sweep:
              param: radio.t
              values: [0.08, 0.16]
        """)
        assert main(["radio", "--scenario", str(p)]) == 1
        assert "dlt.get_block_bits" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_count_beyond_the_float_range_names_the_range(self, tmp_path, capsys):
        # echoed all 401 digits after "must be an integer >= 1"
        p = write(tmp_path, f"kind: radio-dlt\noutput: {tmp_path}/out/r.csv\nradio:\n  K: 1{'0' * 400}\n")
        assert main(["radio", "--scenario", str(p)]) == 1
        error = "radio.K: K must be an integer >= 1 in the float range, got a 401-digit integer"
        assert capsys.readouterr().err == f"error: {error}\n"

    DIVERGING = """
        kind: learning
        seed: 1
        output: %s/out/r.csv
        learning: {variant: cq-ggadmm, workers: 8, dim: 4, samples: 15, topology: bipartite,
                   mean_degree: 3.0, iters: 2000, quantizer_bits: 1, censor_xi0: 0.05, rho: 2.0}
    """

    def test_non_finite_report_exits_two_before_writing(self, tmp_path, capsys):
        # a diverging 1-bit run: exited 0 and wrote 1021 rows holding inf or nan
        p = write(tmp_path, self.DIVERGING % tmp_path)
        with np.errstate(all="ignore"):
            assert main(["learn", "--scenario", str(p)]) == 2
        error = f"FloatingPointError: {tmp_path}/out/r.csv: row 980, objective is inf, not a finite number"
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_report_prints_its_error_alone(self, tmp_path):
        # the same run as a command, with Python's default warning filters: it
        # printed eleven numpy RuntimeWarnings ahead of its error line
        p = write(tmp_path, self.DIVERGING % tmp_path)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-m", "edgekit.cli", "learn", "--scenario", str(p)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        error = f"FloatingPointError: {tmp_path}/out/r.csv: row 980, objective is inf, not a finite number"
        assert proc.stderr == f"error: {error}\n"
        # the run itself, called directly, warns as numpy does by default
        with pytest.warns(RuntimeWarning):
            run_learning_block([parse_scenario(p).points[0].learning], seed=1)

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_seed_override_flag(self, tmp_path):
        p = write(tmp_path, f"""
            kind: learning
            seed: 1
            output: {tmp_path}/a.csv
            learning:
              workers: 4
              dim: 2
              iters: 5
        """)
        main(["learn", "--scenario", str(p)])
        a = (tmp_path / "a.csv").read_bytes()
        main(["learn", "--scenario", str(p), "--seed", "99"])
        b = (tmp_path / "a.csv").read_bytes()
        assert a != b


# Scenarios that exited 0 with a field ignored, or exited 2 (some after
# writing a CSV): each must exit 1 naming the dotted path before it writes.
REJECTED = {
    "sweep-value-type": ("learn", """
        kind: learning
        learning: {workers: 4, dim: 2, iters: 5}
        sweep: {param: learning.workers, values: [4, "many"]}
    """, "sweep.values[1]: learning.workers"),
    "sweep-unstable-uplink": ("radio", """
        kind: radio-dlt
        sweep: {param: radio.l1, values: [512.0, 1.0e+9]}
    """, "sweep.values[1]: radio.l1"),
    "sweep-period-below-unit": ("radio", """
        kind: radio-dlt
        sweep: {param: radio.t, values: [0.32, 0.001]}
    """, "sweep.values[1]: radio.t"),
    "sweep-zero-nodes": ("place", """
        kind: placement
        placement: {runs: 1}
        sweep: {param: placement.nodes, values: [6, 0]}
    """, "sweep.values[1]: placement.nodes"),
    "d-gadmm-without-tau": ("learn", """
        kind: learning
        learning: {variant: d-gadmm, workers: 4, dim: 2, iters: 5}
    """, "learning.tau_coh"),
    "d-gadmm-odd-workers": ("learn", """
        kind: learning
        learning: {variant: d-gadmm, workers: 5, tau_coh: 2, dim: 2, iters: 5}
    """, "learning.workers"),
    "gadmm-quantizer": ("learn", """
        kind: learning
        learning: {variant: gadmm, workers: 4, quantizer_bits: 3}
    """, "learning.quantizer_bits"),
    "gadmm-censor": ("learn", """
        kind: learning
        learning: {variant: gadmm, workers: 4, censor_xi0: 0.2}
    """, "learning.censor_xi0"),
    "gadmm-bipartite": ("learn", """
        kind: learning
        learning: {variant: gadmm, workers: 4, topology: bipartite}
    """, "learning.topology"),
    "sweep-unread-block": ("radio", """
        kind: radio-dlt
        sweep: {param: learning.rho, values: [1.0]}
    """, "sweep.param"),
    "integrated-sweep-unread-field": ("integrated", """
        kind: integrated
        sweep: {param: placement.runs, values: [1, 2]}
    """, "sweep.param"),
    "zero-hash-payload": ("radio", "kind: radio-dlt\ndlt: {new_block_bits: 0}\n", "dlt.new_block_bits"),
    "zero-request-payload": ("radio", "kind: radio-dlt\ndlt: {get_block_bits: 0}\n", "dlt.get_block_bits"),
    "zero-block-payload": ("radio", "kind: radio-dlt\ndlt: {trans_block_bits: 0}\n", "dlt.trans_block_bits"),
    "zero-uplink-packet": ("radio", "kind: radio-dlt\nradio: {l1: 0}\n", "radio.l1"),
    # ran before, since no downlink arrivals means no downlink queue term
    "zero-downlink-packet": ("radio", "kind: radio-dlt\nradio: {m1: 0, lambda_d: 0}\n", "radio.m1"),
    "zero-period": ("radio", "kind: radio-dlt\nradio: {t: 0}\n", "radio.t"),
    "missing-instance": ("place", "kind: placement\nplacement: {instance: no/such/instance.yaml}\n", "placement.instance"),
    "unstable-block-payload": ("radio", "kind: radio-dlt\ndlt: {trans_block_bits: 1.0e+9}\n", "dlt.trans_block_bits"),
    "unstable-request-payload": ("radio", "kind: radio-dlt\ndlt: {get_block_bits: 1.0e+9}\n", "dlt.get_block_bits"),
    "sweep-unstable-payload": ("radio", """
        kind: radio-dlt
        sweep: {param: dlt.new_block_bits, values: [256, 1.0e+9]}
    """, "sweep.values[1]: dlt.new_block_bits"),
    "integrated-unstable-payload": ("integrated", """
        kind: integrated
        learning: {workers: 4, dim: 2, iters: 5}
        dlt: {M: 3, trans_block_bits: 1.0e+9}
    """, "dlt.trans_block_bits"),
    "rank-deficient-learning": ("learn", """
        kind: learning
        learning: {workers: 2, samples: 2, dim: 5, reg: 0, iters: 5}
    """, "learning.reg"),
    # exited 2 with an OverflowError from pricing the first message
    "narrow-learning-band": ("learn", """
        kind: learning
        learning: {workers: 4, dim: 2, bandwidth_hz: 1.5}
    """, "learning.bandwidth_hz"),
    "sweep-narrow-learning-band": ("learn", """
        kind: learning
        learning: {variant: cq-ggadmm, topology: bipartite, workers: 5, dim: 2, iters: 5}
        sweep: {param: learning.bandwidth_hz, values: [1.0e+6, 0.5]}
    """, "sweep.values[1]: learning.bandwidth_hz"),
    "unread-block": ("learn", """
        kind: learning
        learning: {workers: 4, dim: 2, iters: 5}
        radio: {K: 12}
    """, "radio"),
    "integrated-unread-placement-field": ("integrated", """
        kind: integrated
        learning: {workers: 4, dim: 2, iters: 5}
        placement: {nodes: 6, runs: 2}
    """, "placement.runs"),
    "instance-with-generator-field": ("place", """
        kind: placement
        placement: {instance: scenarios/placement_instance.yaml, shape: wide}
    """, "placement.shape"),
    "instance-with-runs": ("place", """
        kind: placement
        placement: {instance: scenarios/placement_instance.yaml, runs: 5}
    """, "placement.runs"),
    "nan-instance": ("place", "kind: placement\nplacement: {instance: $TMP/nan-link.yaml}\n", "placement.instance"),
    "instance-missing-key": ("place", "kind: placement\nplacement: {instance: $TMP/no-link-energy.yaml}\n",
                             "placement.instance"),
    # ran before with true read as 1.0 and 1
    "bool-link-instance": ("place", "kind: placement\nplacement: {instance: $TMP/bool-link.yaml}\n",
                           "placement.instance"),
    "bool-instance": ("place", "kind: placement\nplacement: {instance: $TMP/bool-fields.yaml}\n",
                      "placement.instance"),
    "ledger-off-blocks": ("integrated", """
        kind: integrated
        learning: {workers: 4, dim: 2, iters: 5}
        radio: {K: 12}
    """, "radio"),
    "ledger-less-blocks": ("integrated", """
        kind: integrated
        learning: {workers: 4, dim: 2, iters: 5}
        power: {P_t: 5.0}
    """, "power"),
    "ledger-off-sweep": ("integrated", """
        kind: integrated
        learning: {workers: 4, dim: 2, iters: 5}
        sweep: {param: power.P_t, values: [0.1, 0.3]}
    """, "sweep.param"),
    # f * G * s1 >= 1: exited 2 with UnstableConfig, or with a ledger blamed
    # dlt.trans_block_bits
    "unstable-batch-uplink": ("radio", "kind: radio-dlt\nradio: {G: 200}\n", "radio"),
    "unstable-batch-uplink-with-ledger": ("radio", "kind: radio-dlt\nradio: {G: 200}\ndlt: {M: 3}\n", "radio"),
    "sweep-unstable-batch-uplink": ("radio", """
        kind: radio-dlt
        sweep: {param: radio.G, values: [1.0, 200.0]}
    """, "sweep.values[1]: radio.G"),
    # exited 2 with a ZeroDivisionError
    "zero-batch-moment": ("radio", "kind: radio-dlt\nradio: {f1: 0}\n", "radio.f1"),
    "zero-batch-moment-next-to-f": ("radio", "kind: radio-dlt\nradio: {f: 0.5, f1: 0}\n", "radio.f1"),
    # ran, writing nan or inf rows
    "nan-uplink-rate": ("radio", "kind: radio-dlt\nradio: {lambda_s: .nan}\n", "radio.lambda_s"),
    "inf-sync-latency": ("radio", "kind: radio-dlt\nradio: {L_sync: .inf}\n", "radio.L_sync"),
    "nan-transmit-power": ("radio", "kind: radio-dlt\npower: {P_t: .nan}\n", "power.P_t"),
    "inf-miner-power": ("radio", "kind: radio-dlt\ndlt: {M: 3, P_c: .inf}\n", "dlt.P_c"),
    # ran with true as 1 and 2.5 preambles; N_rmax 2.5 exited 2 with a TypeError
    "bool-preambles": ("radio", "kind: radio-dlt\nradio: {K: true}\n", "radio.K"),
    "bool-miners": ("radio", "kind: radio-dlt\ndlt: {M: true}\n", "dlt.M"),
    "fractional-preambles": ("radio", "kind: radio-dlt\nradio: {K: 2.5}\n", "radio.K"),
    "fractional-attempts": ("radio", "kind: radio-dlt\nradio: {N_rmax: 2.5}\n", "radio.N_rmax"),
    # a positive hash rate from two negative factors: exited 2 pricing the race
    # R_u**2 and bits**2 overflow: exited 2, and with a traceback
    "overflowing-uplink-rate": ("radio", "kind: radio-dlt\nradio: {R_u: 1.0e+200}\n", "radio"),
    "overflowing-block-payload": ("radio", "kind: radio-dlt\ndlt: {trans_block_bits: 1.0e+200}\n",
                                  "dlt.trans_block_bits"),
    # ran a point at t = 1.0
    "sweep-bool-period": ("radio", """
        kind: radio-dlt
        sweep: {param: radio.t, values: [0.32, true]}
    """, "sweep.values[1]: radio.t"),
    # exited 2 with "P_rr must be in (0, 1]": no reservation ever succeeds
    "zero-delivery-probability": ("radio", "kind: radio-dlt\nradio: {p_d: 0}\n", "radio.p_d"),
    "sweep-zero-delivery-probability": ("radio", """
        kind: radio-dlt
        sweep: {param: radio.p_d, values: [1.0, 0]}
    """, "sweep.values[1]: radio.p_d"),
    # ran with more than the whole resource
    "data-fraction-above-one": ("radio", "kind: radio-dlt\nradio: {f: 1.5}\n", "radio.f"),
    "uplink-share-above-one": ("radio", "kind: radio-dlt\nradio: {w: 2}\n", "radio.w"),
    "downlink-share-above-one": ("integrated", """
        kind: integrated
        learning: {workers: 4, dim: 2, iters: 5}
        radio: {y: 1.01}
    """, "radio.y"),
    "sweep-uplink-share-above-one": ("radio", """
        kind: radio-dlt
        sweep: {param: radio.w, values: [0.5, 1.5]}
    """, "sweep.values[1]: radio.w"),
    "negative-hash-factors": ("radio", "kind: radio-dlt\ndlt: {lambda_0: -10, P_c: -0.2}\n", "dlt.lambda_0"),
}
# Instance files the REJECTED scenarios name as $TMP/<name>: the golden
# instance with one mistake each.
_INSTANCE = (GOLDEN / "placement_instance.yaml").read_text()
BAD_INSTANCES = {
    "nan-link.yaml": _INSTANCE.replace("T_l: 0.2", "T_l: .nan", 1),
    "no-link-energy.yaml": _INSTANCE.replace("    T_l: 0.2\n", "", 1),
    "bool-link.yaml": _INSTANCE.replace("T_l: 0.2", "T_l: true", 1),
    "bool-fields.yaml": _INSTANCE.replace("T_l: 0.2", "T_l: true", 1).replace("R_t: 4", "R_t: true", 1),
}


class TestOnePath:
    def scenario(self, tmp_path, text):
        p = tmp_path / "s.yaml"
        p.write_text(textwrap.dedent(text).replace("$TMP", str(tmp_path)) + f"output: {tmp_path}/out/r.csv\n")
        return p

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_static_mistake_exits_one_before_writing(self, tmp_path, capsys, name):
        command, text, where = REJECTED[name]
        for file_name, instance in BAD_INSTANCES.items():
            (tmp_path / file_name).write_text(instance)
        assert main([command, "--scenario", str(self.scenario(tmp_path, text))]) == 1
        assert f"error: {where}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integrated_sweep_writes_reports_per_point(self, tmp_path, capsys):
        p = self.scenario(tmp_path, """
            kind: integrated
            learning: {workers: 4, dim: 2, iters: 10}
            dlt: {M: 3}
            sweep: {param: integrated.ledger_period, values: [1, 5]}
        """)
        assert main(["integrated", "--scenario", str(p)]) == 0
        names = [Path(line).name for line in capsys.readouterr().out.split()]
        assert names == [
            "r_integrated_ledger_period_1.csv", "r_integrated_ledger_period_1_summary.csv",
            "r_integrated_ledger_period_5.csv", "r_integrated_ledger_period_5_summary.csv",
        ]
        records = [(tmp_path / "out" / n).read_text().splitlines()[1].split(",")[3] for n in names[1::2]]
        assert records == ["10", "2"]

    def test_swept_power_field_reaches_the_breakdown(self, tmp_path):
        p = self.scenario(tmp_path, """
            kind: radio-dlt
            sweep: {param: power.P_t, values: [0.1, 0.5]}
        """)
        rows = [line.split(",") for line in run_scenario(parse_scenario(p))[0].read_text().splitlines()[1:]]
        assert rows[0][1] == rows[1][1]  # L_total
        assert float(rows[0][2]) < float(rows[1][2])  # E_total

    def test_runtime_failure_at_a_later_point_writes_nothing(self, tmp_path, capsys):
        # two small nodes host two components, never twenty
        text = """
            kind: placement
            placement: {nodes: 2, runs: 1}
            sweep: {param: placement.components, values: %s}
        """
        assert main(["place", "--scenario", str(self.scenario(tmp_path, text % "[2]"))]) == 0
        shutil.rmtree(tmp_path / "out")
        assert main(["place", "--scenario", str(self.scenario(tmp_path, text % "[2, 20]"))]) == 2
        assert "Infeasible" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    VARIANT_SWEEP = """
        kind: learning
        learning: {workers: 4, dim: 2, samples: 5, iters: 5, %s}
        sweep: {param: learning.variant, values: %s}
    """

    def test_variant_sweep_checks_each_point_as_its_variant(self, tmp_path, capsys):
        # exited 1 with "learning.topology: not used by variant gadmm", the
        # default variant, which no point runs
        p = self.scenario(tmp_path, self.VARIANT_SWEEP % ("topology: bipartite", "[ggadmm, c-ggadmm, cq-ggadmm]"))
        assert main(["learn", "--scenario", str(p)]) == 0
        assert [Path(line).name for line in capsys.readouterr().out.split()] == [
            "r_learning_variant_ggadmm.csv", "r_learning_variant_c-ggadmm.csv", "r_learning_variant_cq-ggadmm.csv",
        ]

    @pytest.mark.parametrize("field, values, error", [
        ("topology: bipartite", "[ps-admm, ggadmm]", "sweep.values[0]: learning.topology: not used by variant ps-admm"),
        ("tau_coh: 20", "[gadmm, d-gadmm]", "sweep.values[0]: learning.tau_coh: not used by variant gadmm"),
    ], ids=["ps-admm-topology", "gadmm-tau_coh"])
    def test_variant_sweep_point_rejects_a_field_its_variant_ignores(self, tmp_path, capsys, field, values, error):
        p = self.scenario(tmp_path, self.VARIANT_SWEEP % (field, values))
        assert main(["learn", "--scenario", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()

    WORKERS_SWEEP = """
        kind: learning
        learning: {variant: d-gadmm, tau_coh: 2, workers: 5, dim: 2, samples: 5, iters: 5}
        sweep: {param: learning.workers, values: %s}
    """

    def test_cross_field_rules_skip_the_swept_base(self, tmp_path, capsys):
        # exited 1 with "learning.workers: d-gadmm re-chains an even number of
        # workers" and "placement.components: too few for a wide application",
        # both about a base value that no point runs
        p = self.scenario(tmp_path, self.WORKERS_SWEEP % "[4, 6]")
        assert main(["learn", "--scenario", str(p)]) == 0
        assert [Path(line).name for line in capsys.readouterr().out.split()] == [
            "r_learning_workers_4.csv", "r_learning_workers_6.csv",
        ]
        shutil.rmtree(tmp_path / "out")
        p = self.scenario(tmp_path, """
            kind: placement
            placement: {shape: wide, components: 2, nodes: 6, runs: 1}
            sweep: {param: placement.components, values: [3, 4]}
        """)
        assert main(["place", "--scenario", str(p)]) == 0
        assert [Path(line).name for line in capsys.readouterr().out.split()] == [
            "r_placement_components_3.csv", "r_placement_components_4.csv",
        ]
        # exited 1 with "radio: uplink transmission queue is unstable", the
        # queue of the base's G, which no point runs
        p = self.scenario(tmp_path, """
            kind: radio-dlt
            radio: {G: 200.0}
            sweep: {param: radio.G, values: [1.0, 2.0]}
        """)
        assert main(["radio", "--scenario", str(p)]) == 0
        assert [line.split(",")[0] for line in (tmp_path / "out" / "r.csv").read_text().splitlines()] == [
            "radio.G", "1.0", "2.0",
        ]

    def test_cross_field_rule_rejects_a_swept_point(self, tmp_path, capsys):
        p = self.scenario(tmp_path, self.WORKERS_SWEEP % "[4, 5]")
        assert main(["learn", "--scenario", str(p)]) == 1
        error = "sweep.values[1]: learning.workers: d-gadmm re-chains an even number of workers"
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text", [
        ("learn", "kind: learning\nlearning: {iters: 5}\nsweep: {param: learning.rho, values: [0.5, 1.0, 0.5]}\n"),
        ("place", "kind: placement\nplacement: {runs: 1}\nsweep: {param: placement.nodes, values: [5, 6, 5]}\n"),
        ("integrated", "kind: integrated\nlearning: {iters: 5}\n"
                       "sweep: {param: integrated.ledger_period, values: [1, 2, 1]}\n"),
    ], ids=["learning", "placement", "integrated"])
    def test_repeated_sweep_value_exits_one_before_writing(self, tmp_path, capsys, command, text):
        # exited 0 and kept only the last run of each repeated file
        assert main([command, "--scenario", str(self.scenario(tmp_path, text))]) == 1
        assert capsys.readouterr().err == "error: sweep.values[2]: writes the same file as sweep.values[0]\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_value_that_names_no_file_exits_one(self, tmp_path, capsys):
        # exited 2 from the report path, after the run
        text = "kind: placement\nsweep: {param: placement.instance, values: [scenarios/placement_instance.yaml]}\n"
        assert main(["place", "--scenario", str(self.scenario(tmp_path, text))]) == 1
        error = "sweep.values[0]: 'scenarios/placement_instance.yaml' cannot be part of a file name"
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_radio_sweep_may_repeat_a_value(self, tmp_path):
        text = "kind: radio-dlt\nsweep: {param: power.P_t, values: [0.1, 0.1]}\n"
        rows = run_scenario(parse_scenario(self.scenario(tmp_path, text)))[0].read_text().splitlines()
        assert len(rows) == 3 and rows[1] == rows[2]

    @pytest.mark.parametrize("param, values, runs", [
        ("learning.rho", [0.5, 1.0, 2.0], [3]),
        ("learning.iters", [5, 9], [2]),
        ("learning.workers", [4, 6], [1, 1]),
    ], ids=["rho", "iters", "workers"])
    def test_learning_sweep_stacks_the_fields_problems_do_not_read(self, tmp_path, monkeypatch, param, values, runs):
        calls = []
        run_points = pipeline.L.run_points

        def counting(variant, problems, topology, points, **kwargs):
            calls.append(len(points))
            return run_points(variant, problems, topology, points, **kwargs)

        monkeypatch.setattr(pipeline.L, "run_points", counting)
        text = (f"kind: learning\nlearning: {{workers: 4, dim: 2, iters: 5}}\n"
                f"sweep: {{param: {param}, values: {values}}}\n")
        assert len(run_scenario(parse_scenario(self.scenario(tmp_path, text)))) == len(values)
        assert calls == runs

    def test_points_share_unswept_blocks(self, tmp_path):
        s = parse_scenario(self.scenario(tmp_path, """
            kind: integrated
            dlt: {M: 3}
            sweep: {param: learning.rho, values: [0.5, 1.0]}
        """))
        first, second = s.points
        assert second.radio is first.radio and second.power is first.power and second.dlt is first.dlt
        assert second.placement is first.placement and second.integrated is first.integrated
        assert [point.learning["rho"] for point in s.points] == [0.5, 1.0]


# A small valid scenario of each kind, and sweeps it may run.
VALID = {
    "learning": ("learn", {"learning": {"workers": 4, "dim": 2, "samples": 5, "iters": 5}}),
    "placement": ("place", {"placement": {"nodes": 5, "components": 3, "runs": 1}}),
    "radio-dlt": ("radio", {"radio": {"tau": 0.0256, "lambda_s": 5.0, "lambda_b": 5.0}, "dlt": {"M": 5}}),
    "integrated": ("integrated", {
        "learning": {"workers": 4, "dim": 2, "iters": 5}, "placement": {"nodes": 6},
        "dlt": {"M": 3}, "integrated": {"ledger_period": 2},
    }),
}
# param -> (good values, bad values)
SWEEPS = {
    "learning": {"learning.rho": ([0.5, 1.0], [0, "x"]), "learning.workers": ([2, 4], [1, 2.5])},
    "placement": {"placement.nodes": ([5, 6], [0, "x"]), "placement.shape": (["long"], ["round"])},
    "radio-dlt": {"radio.t": ([0.08, 0.16], [0.001, "x"]), "power.P_t": ([0.1, 0.3], [-1]),
                  "dlt.M": ([1, 3], [0])},
    "integrated": {"learning.rho": ([0.5], [0]), "integrated.ledger_period": ([1, 3], [0]),
                   "placement.nodes": ([6, 7], [1])},
}
# (block, field, value) that no kind accepts
MISTAKES = [
    (None, "seed", -1), (None, "seed", "x"),
    ("learning", "workers", 1), ("learning", "dim", 0), ("learning", "iters", "x"),
    ("learning", "rho", 0), ("learning", "noise", -0.1), ("learning", "variant", "sgd"),
    ("learning", "topology", "ring"), ("learning", "tau_coh", 0), ("learning", "quantizer_bits", 3),
    ("learning", "censor_alpha", 1.5), ("learning", "wrokers", 4),
    ("placement", "nodes", 1), ("placement", "components", 1), ("placement", "shape", "round"),
    ("placement", "runs", 0), ("placement", "time_budget", 0), ("placement", "measure_time", "yes"),
    ("radio", "K", 0), ("radio", "l1", 0), ("radio", "m1", 0), ("radio", "t", 0), ("radio", "p_d", 2),
    ("radio", "l1", 1.0e9), ("radio", "R_u", "x"), ("radio", "tau", -1),
    ("power", "P_e", 0), ("power", "P_t", -1),
    ("dlt", "M", 0), ("dlt", "new_block_bits", 0), ("dlt", "lambda_0", 0),
    ("integrated", "ledger_period", 0),
    # a payload no radio queue carries; an instance next to generator fields
    ("dlt", "trans_block_bits", 1.0e9), ("placement", "instance", "scenarios/placement_instance.yaml"),
]


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(sorted(VALID)))
    command, blocks = VALID[kind]
    doc = {"kind": kind, **{name: dict(block) for name, block in blocks.items()}}
    mistakes = draw(st.lists(st.sampled_from(MISTAKES), max_size=2))
    for block, name, value in mistakes:
        (doc if block is None else doc.setdefault(block, {}))[name] = value
    bad = bool(mistakes)
    if draw(st.booleans()):
        param, (good, wrong) = draw(st.sampled_from(sorted(SWEEPS[kind].items())))
        values = draw(st.lists(st.sampled_from(good + wrong), min_size=1, max_size=3))
        doc["sweep"] = {"param": param, "values": values}
        # a value may not name the report file of an earlier one (radio-dlt writes rows)
        repeated = kind != "radio-dlt" and len({str(v) for v in values}) < len(values)
        bad = bad or repeated or any(v in wrong for v in values)
    return command, doc, bad


class TestStaticMistakes:
    @settings(max_examples=80)
    @given(case=scenarios())
    def test_mistakes_exit_one_and_write_nothing(self, case):
        command, doc, bad = case
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            doc = {**doc, "output": str(out / "r.csv")}
            path = Path(tmp) / "s.yaml"
            path.write_text(yaml.safe_dump(doc))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--scenario", str(path)])
            assert code == (1 if bad else 0)
            assert out.exists() == (code == 0)


# Bad values of a radio-dlt sweep over a radio, power or dlt field, and the
# full stderr of each, recorded while every point was built whole; only
# t-beyond-float-range was not, as that stderr then echoed all 401 digits.
BAD_SWEPT_VALUES = {
    "t-below-unit": ({}, "radio.t", [0.32, 0.001],
                     "sweep.values[1]: radio.t: NPRACH period must exceed the NPRACH unit length"),
    "t-not-a-number": ({}, "radio.t", ["x", 0.32], "sweep.values[0]: radio.t: t must be a finite number, got 'x'"),
    "t-bool": ({}, "radio.t", [True], "sweep.values[0]: radio.t: t must be a finite number, got True"),
    "t-beyond-float-range": ({}, "radio.t", [10**400],
                             "sweep.values[0]: radio.t: t must be a finite number, got a 401-digit integer"),
    "t-huge-rate": ({}, "radio.t", [1.0e+308], "sweep.values[0]: radio.t: lambda_u must be a finite number, got inf"),
    "t-downlink-unstable": ({}, "radio.t", [0.32, 1000.0],
                            "sweep.values[1]: radio.t: downlink reception queue is unstable"),
    "K-zero": ({}, "radio.K", [0, 2.5, True],
               "sweep.values[0]: radio.K: K must be an integer >= 1, got 0\n"
               "sweep.values[1]: radio.K: K must be an integer >= 1, got 2.5\n"
               "sweep.values[2]: radio.K: K must be an integer >= 1, got True"),
    "p_d-range": ({}, "radio.p_d", [1.5, 0.0],
                  "sweep.values[0]: radio.p_d: p_d must be in (0, 1]\nsweep.values[1]: radio.p_d: p_d must be > 0"),
    "w-range": ({}, "radio.w", [1.0, 1.5, -0.5],
                "sweep.values[1]: radio.w: w must be in (0, 1]\nsweep.values[2]: radio.w: w must be > 0"),
    "f-nan": ({}, "radio.f", [float("nan")], "sweep.values[0]: radio.f: f must be a finite number, got nan"),
    "lambda_u-overflow": ({}, "radio.lambda_u", [1.0e+308],
                          "sweep.values[0]: radio.lambda_u: lambda_u makes the largest contention rate "
                          "(lambda_u + lambda_d) * N_rmax overflow"),
    "lambda_d-overflow": ({"lambda_u": 0.0}, "radio.lambda_d", [1.0e+308],
                          "sweep.values[0]: radio.lambda_d: lambda_d makes the largest contention rate "
                          "(lambda_u + lambda_d) * N_rmax overflow"),
    "l1-uplink": ({}, "radio.l1", [512.0, 1.0e+9], "sweep.values[1]: radio.l1: uplink transmission queue is unstable"),
    "G-uplink": ({}, "radio.G", [200.0], "sweep.values[0]: radio.G: uplink transmission queue is unstable"),
    "m1-downlink": ({}, "radio.m1", [1.0e+9], "sweep.values[0]: radio.m1: downlink reception queue is unstable"),
    "R_u-float-range": ({}, "radio.R_u", [1.0e+200], "sweep.values[0]: radio.R_u: queue latency out of float range"),
    "P_e-range": ({}, "power.P_e", [2.0, 0.0],
                  "sweep.values[0]: power.P_e: P_e must be in (0, 1]\nsweep.values[1]: power.P_e: P_e must be > 0"),
    "P_t-negative": ({}, "power.P_t", [-1.0], "sweep.values[0]: power.P_t: P_t must be >= 0"),
    "M-zero": ({}, "dlt.M", [0, 3, "x"],
               "sweep.values[0]: dlt.M: M must be an integer >= 1, got 0\n"
               "sweep.values[2]: dlt.M: M must be an integer >= 1, got 'x'"),
    "trans-block-unstable": ({}, "dlt.trans_block_bits", [1.0e+9],
                             "sweep.values[0]: dlt.trans_block_bits: uplink transmission queue is unstable"),
    "get-block-float-range": ({}, "dlt.get_block_bits", [1.0e+200],
                              "sweep.values[0]: dlt.get_block_bits: queue latency out of float range"),
}

# Valid values of each radio, power and dlt field, for a base block, and
# values that break one of the rules of some field, for a sweep.
_RADIO_VALUES = {
    "K": st.integers(1, 96), "N_rmax": st.integers(1, 12), "tau": st.floats(0.001, 0.05),
    "t": st.floats(0.06, 3.0), "d": st.floats(0.05, 1.0), "lambda_u": st.floats(0.0, 5.0),
    "lambda_d": st.floats(0.0, 5.0), "lambda_s": st.floats(0.0, 10.0), "lambda_b": st.floats(0.0, 10.0),
    "p_d": st.floats(0.05, 1.0), "Q": st.floats(0.0, 5.0), "f": st.floats(0.05, 1.0), "u": st.floats(0.001, 0.05),
    "w": st.floats(0.1, 1.0), "y": st.floats(0.1, 1.0), "G": st.floats(0.1, 20.0),
    "R_u": st.floats(1e4, 3e5), "R_d": st.floats(1e4, 3e5), "l1": st.floats(64.0, 4096.0),
    "l2": st.floats(0.0, 1e7), "m1": st.floats(64.0, 4096.0), "m2": st.floats(0.0, 1e7),
    "f1": st.floats(0.5, 2.0), "L_sync": st.floats(0.0, 1.0),
}
_POWER_VALUES = {name: st.floats(0.0, 1.0) for name in ("P_I", "P_c", "P_l", "P_t", "E_s_up", "E_s_down")} | {
    "P_e": st.floats(0.05, 1.0),
}
_DLT_VALUES = {"M": st.integers(1, 20), "lambda_0": st.floats(0.1, 50.0), "P_c": st.floats(0.01, 1.0)} | {
    name: st.floats(1.0, 4096.0) for name in ("new_block_bits", "get_block_bits", "trans_block_bits")
}
_BLOCK_VALUES = {"radio": _RADIO_VALUES, "power": _POWER_VALUES, "dlt": _DLT_VALUES}
_BAD_VALUES = st.sampled_from([0, -1.0, 0.0, 1.5, 2.5, 1.0e9, 1.0e200, 1.0e308, float("inf"), float("nan"),
                               True, "x", 10**400, 0.001, 1000.0])


@st.composite
def derived_sweeps(draw):
    """A radio-dlt scenario with a valid base block and a sweep of one of its
    fields, some of whose values may break a rule."""
    block, field = draw(st.sampled_from([(block, field) for block, values in _BLOCK_VALUES.items()
                                         for field in values]))
    values = _BLOCK_VALUES[block]
    base = draw(st.fixed_dictionaries({}, optional=values))
    swept = draw(st.lists(st.one_of(values[field], _BAD_VALUES), min_size=1, max_size=4))
    doc = {"kind": "radio-dlt", block: base, "sweep": {"param": f"{block}.{field}", "values": swept}}
    return doc  # no dlt block, so a ledger only at the points of a dlt sweep, on the default radio


class TestDerivedPoints:
    @pytest.mark.parametrize("name", sorted(BAD_SWEPT_VALUES))
    def test_bad_swept_value_stderr(self, tmp_path, capsys, name):
        radio, param, values, stderr = BAD_SWEPT_VALUES[name]
        doc = {"kind": "radio-dlt", "output": f"{tmp_path}/out/r.csv", "radio": radio, "dlt": {},
               "sweep": {"param": param, "values": values}}
        p = tmp_path / "s.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["radio", "--scenario", str(p)]) == 1
        assert capsys.readouterr().err == "".join(f"error: {line}\n" for line in stderr.split("\n"))
        assert not (tmp_path / "out").exists()

    @settings(max_examples=200, deadline=None)
    @given(doc=derived_sweeps())
    @example(doc={"kind": "radio-dlt", "radio": {"tau": 0.0256, "lambda_s": 5.0},
                  "sweep": {"param": "radio.t", "values": [0.04, 0.32, 2.56]}})
    @example(doc={"kind": "radio-dlt", "radio": {"lambda_u": 0.0},
                  "sweep": {"param": "radio.t", "values": [0.08, 0.001, 1000.0, 1.0e+308, "x"]}})
    def test_point_equals_the_block_built_whole(self, doc):
        block, field = doc["sweep"]["param"].split(".")
        cls = {"radio": RadioConfig, "power": PowerProfile, "dlt": DltConfig}[block]
        try:
            cls(**doc[block])
        except ValueError:
            assume(False)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.yaml"
            path.write_text(yaml.safe_dump(doc))
            values = core.load_yaml(path.read_text())["sweep"]["values"]
            expected, errors = [], []
            for i, value in enumerate(values):
                try:
                    fields = swept_fields(doc["sweep"]["param"], value, RadioConfig(**doc.get("radio", {})))
                    expected.append(cls(**{**doc[block], **fields}))
                except ValueError as exc:
                    errors.append(f"sweep.values[{i}]: {block}.{field}: {exc}")
                    continue
                if block == "dlt":  # payloads the default radio's queues cannot carry
                    found = []
                    _check_ledger(Point(0, {}, {}, RadioConfig(), PowerProfile(), expected[-1], {}), found)
                    errors += [f"sweep.values[{i}]: {e}" for e in found]
            try:
                points = parse_scenario(path).points
            except ValidationError as exc:
                assert exc.errors == errors
                return
        assert not errors
        derived = [getattr(point, block) for point in points]
        assert [type(config) for config in derived] == [cls] * len(values)
        assert [vars(config) for config in derived] == [vars(config) for config in expected]
        assert derived == expected
