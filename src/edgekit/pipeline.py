"""Scenario execution: runs the experiment a Scenario describes and writes
deterministic CSV reports.

CSV schemas (fixed per kind):

    learning    iter, objective, objective_error, bits_cum, joules_cum, censored_cum
    placement   seed, E_opt, E_heur, ratio, t_opt_ms, t_heur_ms
    radio-dlt   <swept param>, L_total, E_total, then latency_<term> and
                energy_<term> columns for every named breakdown term
    integrated  iter, objective, objective_error, joules_cum, dlt_latency_s,
                dlt_energy_j   (plus a *_summary.csv with the grand totals)

Numbers are written with repr(), the shortest decimal that round-trips, so
reruns with the same seed produce byte-identical files.  Wall-clock columns
in the placement report emit 0.0 unless `placement.measure_time` is set,
keeping the default output a pure function of (scenario, seed).
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import learning as L
from . import placement as P
from . import radio as R
from .core import make_rng
from .scenario import Scenario, apply_sweep_value


def _fmt(x) -> str:
    if type(x) is float:
        return repr(x)
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
    return path


def _sweep_path(base: Path, param: str, value) -> Path:
    tag = f"{param.replace('.', '_')}_{value}"
    return base.with_name(f"{base.stem}_{tag}{base.suffix}")


def make_problems(cfg: dict, seed: int) -> list:
    """Synthetic local least-squares problems, one per worker.

    Each worker observes `samples` rows of a standard-normal design with its
    own random linear model plus observation noise, so workers genuinely
    disagree and consensus is non-trivial.
    """
    rng = make_rng(seed)
    problems = []
    for _ in range(cfg["workers"]):
        A = rng.standard_normal((cfg["samples"], cfg["dim"]))
        x = rng.standard_normal(cfg["dim"])
        b = A @ x + cfg["noise"] * rng.standard_normal(cfg["samples"])
        problems.append(L.LocalProblem(A=A, b=b, reg=cfg["reg"]))
    return problems


def run_learning_block(cfg: dict, seed: int) -> L.TrainingTrace:
    problems = make_problems(cfg, seed)
    variant = cfg["variant"]
    topology = None
    if variant != "ps-admm":
        kind = "chain" if variant in ("gadmm", "d-gadmm") else cfg["topology"]
        tau = cfg["tau_coh"] if variant == "d-gadmm" else math.inf
        topology = L.build_topology(
            cfg["workers"], kind=kind, seed=seed, tau_coh=tau if tau else math.inf,
            mean_degree=cfg["mean_degree"],
        )
    quantizer = None
    if variant == "cq-ggadmm":
        bits = cfg["quantizer_bits"] or 2
        quantizer = L.QuantizerConfig(bits=bits)
    censor = None
    if variant in ("c-ggadmm", "cq-ggadmm"):
        xi0 = cfg["censor_xi0"] if cfg["censor_xi0"] is not None else 0.1
        censor = L.CensorSchedule(xi0=xi0, alpha=cfg["censor_alpha"])
    energy = L.CommEnergyModel(
        bandwidth_hz=cfg["bandwidth_hz"], slot_s=cfg["slot_s"], noise_density=cfg["noise_density"]
    )
    return L.run(
        variant, problems, topology, rho=cfg["rho"], quantizer=quantizer,
        censor=censor, energy_model=energy, iters=cfg["iters"], seed=seed,
    )


def _learning_rows(trace: L.TrainingTrace) -> list[list]:
    return [
        [k + 1, trace.objective[k], trace.objective_error[k], trace.bits_cum[k],
         trace.joules_cum[k], trace.censored_cum[k]]
        for k in range(len(trace))
    ]


LEARNING_HEADER = ["iter", "objective", "objective_error", "bits_cum", "joules_cum", "censored_cum"]
PLACEMENT_HEADER = ["seed", "E_opt", "E_heur", "ratio", "t_opt_ms", "t_heur_ms"]
INTEGRATED_HEADER = ["iter", "objective", "objective_error", "joules_cum", "dlt_latency_s", "dlt_energy_j"]
SUMMARY_HEADER = ["placement_energy", "learning_energy", "ledger_energy", "ledger_records", "grand_total_energy"]


def run_placement_block(cfg: dict, seed: int) -> list[list]:
    """One row per instance seed: optimal vs heuristic energy and wall time."""
    rows = []
    for i in range(cfg["runs"]):
        if cfg["instance"]:
            app, net = P.load_instance(cfg["instance"])
            row_seed = seed
        else:
            row_seed = seed + i
            net = P.generate_network(cfg["nodes"], seed=row_seed)
            app = _feasible_application(cfg, net, row_seed)
        t0 = time.perf_counter()
        opt = P.solve_optimal(app, net, time_budget=cfg["time_budget"])
        t_opt = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        heur = P.solve_heuristic(app, net)
        t_heur = (time.perf_counter() - t0) * 1e3
        if not cfg["measure_time"]:
            t_opt = t_heur = 0.0
        ratio = opt.total_energy / heur.total_energy if heur.total_energy > 0 else 1.0
        rows.append([row_seed, opt.total_energy, heur.total_energy, ratio, t_opt, t_heur])
        if cfg["instance"]:
            break
    return rows


def _feasible_application(cfg: dict, net: P.NetGraph, seed: int) -> P.AppGraph:
    """Draw an application that admits at least one feasible assignment."""
    for attempt in range(100):
        app = P.generate_application(cfg["shape"], cfg["components"], seed=seed + 1000 * (attempt + 1))
        try:
            P.solve_heuristic(app, net)
            return app
        except P.Infeasible:
            continue
    raise P.Infeasible(f"no feasible application found for seed {seed}")


def run_radio_block(scenario: Scenario) -> tuple[list[str], list[list]]:
    """One row per sweep value (or a single row without a sweep).

    Sweeping "radio.t" re-derives the data resource shares from the control
    overhead and keeps the arrival density per second fixed (per-period
    arrivals scale with t), so the report reflects the real trade-off of the
    access period rather than a bare parameter substitution.
    """
    terms = R.LatencyEnergyBreakdown.TERMS
    header = ["param", "L_total", "E_total"]
    header += [f"latency_{t}" for t in terms] + [f"energy_{t}" for t in terms]
    base = R.RadioConfig(**scenario.radio)
    power = R.PowerProfile(**scenario.power)
    dlt = R.DltConfig(**scenario.dlt) if scenario.dlt else None
    points: list[tuple[float | int, R.RadioConfig]] = [(0, base)]
    if scenario.sweep is not None:
        header[0] = scenario.sweep.param
        if scenario.sweep.param == "radio.t":
            aps = base.lambda_a / base.t
            points = [
                (v, base.with_nprach_period(float(v), arrivals_per_second=aps))
                for v in scenario.sweep.values
            ]
        else:
            points = [
                (v, R.RadioConfig(**apply_sweep_value(scenario, v).radio))
                for v in scenario.sweep.values
            ]
    rows = []
    for value, radio in points:
        b = R.full_breakdown(radio, power, dlt)
        row = [value, b.total_latency, b.total_energy]
        row += [b.latency.get(t, 0.0) for t in terms] + [b.energy.get(t, 0.0) for t in terms]
        rows.append(row)
    return header, rows


@dataclass
class DltRecord:
    iteration: int
    latency_s: float
    energy_j: float


@dataclass
class IntegratedReport:
    """Joint accounting of one placed, ledger-backed training run."""

    assignment: P.Assignment
    trace: L.TrainingTrace
    dlt_records: list[DltRecord] = field(default_factory=list)

    @property
    def placement_energy(self) -> float:
        return self.assignment.total_energy

    @property
    def learning_energy(self) -> float:
        return self.trace.joules_cum[-1] if len(self.trace) else 0.0

    @property
    def ledger_energy(self) -> float:
        return sum(r.energy_j for r in self.dlt_records)

    @property
    def grand_total_energy(self) -> float:
        return self.placement_energy + self.learning_energy + self.ledger_energy


def run_integrated(scenario: Scenario) -> IntegratedReport:
    """Place the learning sub-tasks, train over the placed workers, and price
    one ledger record per model-publishing step.

    The application graph mirrors the learning roles: one data-processing
    source component, one training component per tail worker, and one
    aggregation component per head worker, wired along the worker topology.
    """
    cfg = scenario.learning
    seed = scenario.seed
    variant = cfg["variant"]
    kind = "chain" if variant in ("gadmm", "d-gadmm", "ps-admm") else cfg["topology"]
    tau = cfg["tau_coh"] if variant == "d-gadmm" else math.inf
    topology = L.build_topology(
        cfg["workers"], kind=kind, seed=seed, tau_coh=tau if tau else math.inf,
        mean_degree=cfg["mean_degree"],
    )

    app = _learning_app_graph(topology, seed)
    net = P.generate_network(scenario.placement["nodes"], seed=seed)
    assignment = P.solve_heuristic(app, net)

    trace = run_learning_block(cfg, seed)

    records: list[DltRecord] = []
    icfg = scenario.integrated
    if icfg["dlt_enabled"] and scenario.dlt:
        radio = R.RadioConfig(**scenario.radio)
        power = R.PowerProfile(**scenario.power)
        dlt = R.DltConfig(**scenario.dlt)
        b = R.full_breakdown(radio, power, dlt)
        period = icfg["ledger_period"]
        for k in range(len(trace)):
            if (k + 1) % period == 0:
                records.append(DltRecord(iteration=k + 1, latency_s=b.total_latency, energy_j=b.total_energy))
    return IntegratedReport(assignment=assignment, trace=trace, dlt_records=records)


def _learning_app_graph(topology: L.Topology, seed: int) -> P.AppGraph:
    """Application whose components are the learning sub-tasks."""
    rng = make_rng(seed)
    n = topology.n
    source = 1
    comp_of_worker = {w: w + 1 for w in range(1, n + 1)}  # ids 2..n+1

    def draw(cid):
        return P.AppComponent(
            id=cid,
            resources=int(rng.integers(1, 4)),
            output=float(rng.uniform(0.5, 1.5)),
            compute=float(rng.choice([1, 2])),
        )

    comps = [draw(source)] + [draw(comp_of_worker[w]) for w in range(1, n + 1)]
    # data processing feeds every training (tail) component; each model
    # exchange edge points from the tail's training component into the
    # adjacent head's aggregation component
    edges = [(source, comp_of_worker[t]) for t in sorted(topology.tails)]
    for u, v in topology.edges:
        head, tail = (u, v) if u in topology.heads else (v, u)
        edges.append((comp_of_worker[tail], comp_of_worker[head]))
    return P.AppGraph(components=tuple(comps), edges=tuple(edges), shape="custom")


def run_scenario(scenario: Scenario) -> list[Path]:
    """Execute the scenario and return the written CSV paths."""
    out = Path(scenario.output)
    written: list[Path] = []

    if scenario.kind == "learning":
        points = [(None, scenario)]
        if scenario.sweep is not None:
            points = [(v, apply_sweep_value(scenario, v)) for v in scenario.sweep.values]
        for value, s in points:
            trace = run_learning_block(s.learning, s.seed)
            path = out if value is None else _sweep_path(out, scenario.sweep.param, value)
            written.append(_write_csv(path, LEARNING_HEADER, _learning_rows(trace)))
        return written

    if scenario.kind == "placement":
        points = [(None, scenario)]
        if scenario.sweep is not None:
            points = [(v, apply_sweep_value(scenario, v)) for v in scenario.sweep.values]
        for value, s in points:
            rows = run_placement_block(s.placement, s.seed)
            path = out if value is None else _sweep_path(out, scenario.sweep.param, value)
            written.append(_write_csv(path, PLACEMENT_HEADER, rows))
        return written

    if scenario.kind == "radio-dlt":
        header, rows = run_radio_block(scenario)
        written.append(_write_csv(out, header, rows))
        return written

    if scenario.kind == "integrated":
        report = run_integrated(scenario)
        by_iter = {r.iteration: r for r in report.dlt_records}
        rows = []
        for k in range(len(report.trace)):
            rec = by_iter.get(k + 1)
            rows.append([
                k + 1,
                report.trace.objective[k],
                report.trace.objective_error[k],
                report.trace.joules_cum[k],
                rec.latency_s if rec else 0.0,
                rec.energy_j if rec else 0.0,
            ])
        written.append(_write_csv(out, INTEGRATED_HEADER, rows))
        summary = out.with_name(f"{out.stem}_summary{out.suffix}")
        written.append(_write_csv(summary, SUMMARY_HEADER, [[
            report.placement_energy,
            report.learning_energy,
            report.ledger_energy,
            len(report.dlt_records),
            report.grand_total_energy,
        ]]))
        return written

    raise ValueError(f"unknown scenario kind {scenario.kind!r}")
