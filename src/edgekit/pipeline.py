"""Scenario execution: runs every point of a parsed Scenario and writes
deterministic CSV reports.

`scenario.parse_scenario` has already expanded any sweep into validated
points.  `run_scenario` sends each point through its kind's block function
and writes the CSVs only after every point has computed, so a runtime
failure (such as an infeasible placement) leaves no file.  radio-dlt writes
one row per point to `output`; the other kinds write their reports for each
point, named by `scenario.point_path`.

CSV schemas (fixed per kind):

    learning    iter, objective, objective_error, bits_cum, joules_cum, censored_cum
    placement   seed, E_opt, E_heur, ratio, t_opt_ms, t_heur_ms
    radio-dlt   <swept param>, L_total, E_total, then latency_<term> and
                energy_<term> columns for every named breakdown term
    integrated  iter, objective, objective_error, joules_cum, dlt_latency_s,
                dlt_energy_j   (the ledger record on every ledger_period-th
                row, zeros elsewhere and without a dlt block; plus a
                *_summary.csv with the grand totals)

Numbers are written with repr(), the shortest decimal that round-trips, so
reruns with the same seed produce byte-identical files.  Wall-clock columns
in the placement report emit 0.0 unless `placement.measure_time` is set,
keeping the default output a pure function of (scenario, seed).

A report is rewritten in place, as UTF-8 (`_write`): opened without
truncating, written from its first byte, and cut to length only if the old
file was longer.  An identical rerun keeps the file's inode and mode and
makes no truncate call; a symlinked output updates its target.  This gives
up ext4's flush on replace-via-truncate, and with it crash consistency: a
power loss before writeback can leave old bytes in a rerun's report.
Neither this nor the truncating write is atomic.
"""
from __future__ import annotations

import contextlib
import math
import os
import time
from pathlib import Path

import numpy as np

from . import learning as L
from . import placement as P
from . import radio as R
from .core import make_rng, sequential_sum
from .scenario import LearningConfig, PlacementConfig, Point, Scenario, learning_setting, point_path


def _fmt(x) -> str:
    """A cell that is not a float: an integer (a bool as 0 or 1) or another
    real number."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


_PLAIN = frozenset({float, int})  # cells written by repr alone: repr(int) is str(int)


def _csv_text(header: list[str], rows: list[list]) -> str:
    """The header and rows as comma-separated lines ending in CRLF, the
    bytes csv.writer writes: no header or cell holds a comma, a quote or a
    line break, so none is quoted.  A row of plain floats and ints is
    written by repr; any other row cell by cell."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) if _PLAIN.issuperset(map(type, row))
              else ",".join([repr(x) if type(x) is float else _fmt(x) for x in row]) for row in rows]
    lines.append("")  # the last line's CRLF, joined in without a second copy of the text
    return "\r\n".join(lines)


# open(path, "w") without O_TRUNC: the report is rewritten in place
_REWRITE = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write(path: Path, text: str) -> Path:
    """Write report `text` to `path` in place, as UTF-8 whatever the
    locale, creating its directories: the bytes go from offset 0 of the
    file as it is (a new one has mode 0o666 under the umask), and the file
    is cut to their length only if it was longer.  A rerun's same-size
    report truncates nothing; a non-regular output such as /dev/null is
    never truncated.

    Not crash-safe: ext4 flushes a file truncated to zero and rewritten at
    its close, and this write does not truncate, so the new bytes wait for
    normal writeback (about 30 s).  A power loss before then can leave old
    bytes under the new length, or a whole old report of the same size.  A
    write that raises cuts the file to the bytes it wrote, so no old tail
    survives an error; a process killed mid-write can leave one.  Neither
    this nor a truncating write replaces the file atomically."""
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode()
    fd = os.open(path, _REWRITE, 0o666)
    done = 0
    try:
        while done < len(data):
            done += os.write(fd, data[done:])
    except BaseException:
        with contextlib.suppress(OSError):  # e.g. /dev/null: the write's own error is the one to raise
            os.ftruncate(fd, done)
        raise
    else:
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return path


def _check_finite(path: Path, text: str) -> None:
    """Raise FloatingPointError, naming the file, the row and the column,
    if a cell below the header of report `text` is inf or nan.  Cells are
    reprs of floats and integers, and of those only inf, -inf and nan hold
    the letter n."""
    if text.find("n", text.index("\r\n")) < 0:
        return
    lines = text.split("\r\n")
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], 1):
        for column, cell in zip(header, line.split(",")):
            if "n" in cell:
                raise FloatingPointError(f"{path}: row {i}, {column} is {cell}, not a finite number")


def make_problems(cfg: LearningConfig, seed: int) -> list:
    """Synthetic local least-squares problems, one per worker.

    Each worker observes `samples` rows of a standard-normal design with its
    own random linear model plus observation noise, so workers genuinely
    disagree and consensus is non-trivial.
    """
    rng = make_rng(seed)
    problems = []
    for _ in range(cfg.workers):
        A = rng.standard_normal((cfg.samples, cfg.dim))
        x = rng.standard_normal(cfg.dim)
        b = A @ x + cfg.noise * rng.standard_normal(cfg.samples)
        problems.append(L.LocalProblem(A=A, b=b, reg=cfg.reg))
    return problems


def _topology(cfg: LearningConfig, seed: int) -> L.Topology:
    """The workers' topology: the block's kind for a variant that runs on a
    graph, else a chain, re-chained every tau_coh iterations if it re-chains."""
    traits = L.TRAITS[cfg.variant]
    kind = cfg.topology if traits.graph else "chain"
    tau = cfg.tau_coh if traits.rechains else math.inf
    return L.build_topology(cfg.workers, kind=kind, seed=seed, tau_coh=tau, mean_degree=cfg.mean_degree)


# Learning fields that neither the problems nor the topology read: the points
# of a sweep over one of them run as one stacked run (`learning.run_points`).
STACKED_FIELDS = frozenset({
    "rho", "censor_xi0", "censor_alpha", "quantizer_bits", "bandwidth_hz", "slot_s", "noise_density", "iters",
})


def run_learning_block(cfgs: list[LearningConfig], seed: int,
                       topology: L.Topology | None = None) -> list[L.TrainingTrace]:
    """Train at each of the learning blocks `cfgs`, which differ only in
    STACKED_FIELDS, as one stacked run on the first block's synthetic
    problems and on `topology`, by default its `_topology` (which a
    parameter server does not read); return each block's trace."""
    cfg = cfgs[0]
    if topology is None:
        topology = _topology(cfg, seed)
    return L.run_points(
        cfg.variant, make_problems(cfg, seed), topology, [learning_setting(c) for c in cfgs], seed=seed,
    )


def _learning_runs(scenario: Scenario) -> list[tuple[L.TrainingTrace, L.Topology]]:
    """Each point's training trace and the topology it trained on (that a
    parameter server ignores), for the learning and the integrated kind.  Points
    that share their learning block (no sweep, or an integrated sweep
    outside `learning`) share one run.  Otherwise the points run as one
    stacked run unless the sweep sets a learning field outside
    STACKED_FIELDS, which gives each point its own problems or topology,
    and so its own run."""
    sweep, points = scenario.sweep, scenario.points
    shared = sweep is None or sweep.block != "learning"
    if shared:
        groups = [points[:1]]
    else:
        groups = [[point] for point in points] if sweep.field not in STACKED_FIELDS else [points]
    runs = []
    for group in groups:
        topology = _topology(group[0].learning, group[0].seed)
        runs += [(trace, topology)
                 for trace in run_learning_block([point.learning for point in group], group[0].seed, topology)]
    return runs * len(points) if shared else runs


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


def _timed(fn, *args, **kwargs):
    """fn's result and its wall time in ms."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - t0) * 1e3


def run_placement_block(cfg: PlacementConfig, seed: int) -> list[list]:
    """One row per instance seed (one row for an instance file): optimal vs
    heuristic energy and wall time."""
    rows = []
    for i in range(1 if cfg.instance else cfg.runs):
        if cfg.instance:
            app, net = cfg.instance
            row_seed = seed
            heur, t_heur = _timed(P.solve_heuristic, app, net)
        else:
            row_seed = seed + i
            net = P.generate_network(cfg.nodes, seed=row_seed)
            app, heur, t_heur = _feasible_application(cfg, net, row_seed)
        opt, t_opt = _timed(P.solve_optimal, app, net, time_budget=cfg.time_budget)
        if not cfg.measure_time:
            t_opt = t_heur = 0.0
        ratio = opt.total_energy / heur.total_energy if heur.total_energy > 0 else 1.0
        rows.append([row_seed, opt.total_energy, heur.total_energy, ratio, t_opt, t_heur])
    return rows


def _feasible_application(cfg: PlacementConfig, net: P.NetGraph, seed: int) -> tuple[P.AppGraph, P.Assignment, float]:
    """Draw an application that admits at least one feasible assignment.

    Returns it with the heuristic assignment that proved it feasible and
    that solve's wall time (ms).
    """
    for attempt in range(100):
        app = P.generate_application(cfg.shape, cfg.components, seed=seed + 1000 * (attempt + 1))
        try:
            heur, t_heur = _timed(P.solve_heuristic, app, net)
        except P.Infeasible:
            continue
        return app, heur, t_heur
    raise P.Infeasible(f"no feasible application found for seed {seed}")


RADIO_TERMS = R.LatencyEnergyBreakdown.TERMS
RADIO_COLUMNS = (
    ["L_total", "E_total"] + [f"latency_{t}" for t in RADIO_TERMS] + [f"energy_{t}" for t in RADIO_TERMS]
)
_ABSENT = (0.0,) * len(RADIO_TERMS)  # the cell of a term a breakdown does not have


def run_radio_block(point: Point, param) -> list:
    """The point's radio-dlt row: `param` in its parameter column, then
    RADIO_COLUMNS."""
    b = R.full_breakdown(point.radio, point.power, point.dlt)
    return [param, b.total_latency, b.total_energy,
            *map(b.latency.get, RADIO_TERMS, _ABSENT), *map(b.energy.get, RADIO_TERMS, _ABSENT)]


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
            compute=float(rng.integers(1, 3)),
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


def _integrated_reports(point: Point, trace: L.TrainingTrace,
                        topology: L.Topology) -> list[tuple[str, list[str], list[list]]]:
    """Place the learning sub-tasks, report the point's training `trace`,
    and price one ledger record every `ledger_period` iterations (none
    without a dlt block).

    The application graph mirrors the learning roles: one data-processing
    source component, one training component per tail worker, and one
    aggregation component per head worker, wired along the worker
    `topology` the training ran on.  The placement prices that graph alone:
    training does not read where its workers are placed.  Every record is
    the point's one `full_breakdown`.
    """
    app = _learning_app_graph(topology, point.seed)
    net = P.generate_network(point.placement.nodes, seed=point.seed)
    placement_energy = P.solve_heuristic(app, net).total_energy

    period = point.integrated.ledger_period
    record, records = (0.0, 0.0), 0
    if point.dlt is not None:
        b = R.full_breakdown(point.radio, point.power, point.dlt)
        record, records = (b.total_latency, b.total_energy), len(trace) // period
    rows = [
        [k + 1, trace.objective[k], trace.objective_error[k], trace.joules_cum[k],
         *(record if (k + 1) % period == 0 else (0.0, 0.0))]
        for k in range(len(trace))
    ]
    learning_energy = trace.joules_cum[-1]
    ledger_energy = sequential_sum([record[1]] * records)  # record by record; an int 0 (written 0) without a ledger
    summary = [placement_energy, learning_energy, ledger_energy, records,
               placement_energy + learning_energy + ledger_energy]
    return [("", INTEGRATED_HEADER, rows), ("_summary", SUMMARY_HEADER, [summary])]


# Each kind's block function, over all of a scenario's points: radio-dlt's
# gives each point's row, the others give (file-name suffix, header, rows)
# for each of each point's reports.
_RUN_POINTS = {
    "learning": lambda s: [[("", LEARNING_HEADER, _learning_rows(trace))] for trace, _ in _learning_runs(s)],
    "placement": lambda s: [[("", PLACEMENT_HEADER, run_placement_block(p.placement, p.seed))] for p in s.points],
    "radio-dlt": lambda s: [run_radio_block(p, p.value if s.sweep else 0) for p in s.points],
    "integrated": lambda s: [_integrated_reports(point, *run) for point, run in zip(s.points, _learning_runs(s))],
}


def run_scenario(scenario: Scenario) -> list[Path]:
    """Run every point, check that every report is finite, then write the
    CSVs; return the written paths.  numpy's overflow and invalid-value
    warnings are off while the points run: the finiteness check names the
    first cell they would have warned about."""
    sweep = scenario.sweep
    with np.errstate(over="ignore", invalid="ignore"):
        results = _RUN_POINTS[scenario.kind](scenario)
    if scenario.kind == "radio-dlt":
        reports = [(Path(scenario.output), [sweep.param if sweep else "param", *RADIO_COLUMNS], results)]
    else:
        reports = []
        for point, point_reports in zip(scenario.points, results):
            path = point_path(scenario.output, sweep, point.value)
            reports += [(path.with_name(f"{path.stem}{suffix}{path.suffix}"), header, rows)
                        for suffix, header, rows in point_reports]
    texts = [(path, _csv_text(header, rows)) for path, header, rows in reports]
    for path, text in texts:
        _check_finite(path, text)
    return [_write(path, text) for path, text in texts]
