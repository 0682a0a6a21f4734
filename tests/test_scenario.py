import textwrap
from pathlib import Path

import pytest
import yaml

from edgekit import core
from edgekit.cli import main
from edgekit.placement import load_instance
from edgekit.pipeline import run_integrated, run_scenario
from edgekit.scenario import ParseError, ValidationError, apply_sweep_value, parse_scenario

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios"


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
        assert s.learning["variant"] == "gadmm"
        assert s.learning["workers"] == 10

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
        swept = apply_sweep_value(s, 0.2)
        assert swept.radio["t"] == 0.2 and swept.sweep is None

    def test_seed_override(self, tmp_path):
        p = write(tmp_path, "kind: learning\nseed: 5\n")
        assert parse_scenario(p).seed == 5
        assert parse_scenario(p, seed_override=9).seed == 9

    def test_negative_payload_size_names_field(self, tmp_path):
        p = write(tmp_path, """
            kind: radio-dlt
            dlt:
              get_block_bits: -1
        """)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(p)
        assert exc.value.errors == ["dlt.get_block_bits: get_block_bits must be >= 0"]

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

    def test_grand_total_identity(self, tmp_path):
        report = run_integrated(parse_scenario(self.scenario(tmp_path)))
        expect = (
            report.assignment.total_energy
            + report.trace.joules_cum[-1]
            + sum(r.energy_j for r in report.dlt_records)
        )
        assert report.grand_total_energy == pytest.approx(expect)
        assert len(report.dlt_records) == 40 // 5
        assert report.assignment.feasible

    def test_dlt_disabled_totals_are_placement_plus_learning(self, tmp_path):
        report = run_integrated(parse_scenario(self.scenario(tmp_path, dlt=False)))
        assert report.dlt_records == []
        assert report.grand_total_energy == pytest.approx(
            report.assignment.total_energy + report.trace.joules_cum[-1]
        )

    def test_placement_does_not_alter_learning_math(self, tmp_path):
        from edgekit.pipeline import run_learning_block

        s = parse_scenario(self.scenario(tmp_path))
        report = run_integrated(s)
        standalone = run_learning_block(s.learning, s.seed)
        assert report.trace.objective == standalone.objective

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
