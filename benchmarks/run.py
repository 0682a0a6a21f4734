"""edgekit benchmark: one workload, one process, one thread, closed loop.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from its `src/`.  The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it repeat every metric by name and unit, with the tail
percentile, the error rate and the environment.  End-to-end times are
scaled to a nominal host by a speed reference timed before every op
(reference.py); the unscaled values are printed too.  A full record (and,
when traced, every span) is written under .bench_out/ in the checkout.

See README.md in this directory for the workloads and the metrics.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported (here or in a
# set-up probe, which inherits the environment).
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Modules that import numpy (reference, tracing, workloads) are imported
# inside functions: a set-up probe runs this file and times `import edgekit`,
# numpy included, in a fresh interpreter.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"
WORKLOADS = ("train", "scenarios")
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported
LAYERS = ("learning", "placement", "radio", "scenario", "pipeline", "cli")
TRAIN_VARIANTS = ("ps-admm", "gadmm", "d-gadmm", "ggadmm", "c-ggadmm", "cq-ggadmm")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_edgekit():
    sys.path.insert(0, str(SRC))
    import edgekit

    if Path(edgekit.__file__).resolve().parent != SRC / "edgekit":
        raise RuntimeError(f"imported edgekit from {edgekit.__file__}, not from {SRC}")
    import workloads  # noqa: F401  (edgekit.cli and the workload helpers)


def setup_probe(args) -> None:
    """Child mode: time `import edgekit` and building the inputs, print JSON."""
    t0 = time.perf_counter()
    import_edgekit()
    t1 = time.perf_counter()
    import workloads

    tmp = TMP / f"probe-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        workloads.BUILDERS[args.workload](args.seed, ROOT, tmp)
        t2 = time.perf_counter()
    finally:
        shutil.rmtree(tmp)
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


class SetupProbes:
    """Fresh processes that each time `import edgekit` plus building the
    inputs.  They run between passes of the timed loop (outside its timing),
    spread over `span` seconds, so their median does not rest on one stretch
    of load on a shared machine."""

    def __init__(self, args, span: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.span = span
        self.samples: list[dict] = []

    def run_one(self) -> None:
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        self.samples.append(json.loads(proc.stdout.splitlines()[-1]))

    def maybe(self, elapsed: float) -> None:
        if len(self.samples) < SETUP_PROBES and elapsed >= len(self.samples) * self.span / SETUP_PROBES:
            self.run_one()

    def finish(self) -> list[dict]:
        while len(self.samples) < SETUP_PROBES:
            self.run_one()
        return self.samples


@dataclass
class Phase:
    pass_len: int  # ops per pass over the workload
    latencies: list[float] = field(default_factory=list)  # seconds, run() only
    walls: list[float] = field(default_factory=list)  # seconds, run() and check()
    refs: list[float] = field(default_factory=list)  # seconds, reference.measure() before each op
    kinds: list[str] = field(default_factory=list)
    pass_walls: list[float] = field(default_factory=list)  # seconds, checks and speed reference included
    failed: int = 0
    counts: list[dict] = field(default_factory=list)  # from the first pass's ops

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def scale(self) -> float:
        """Factor from this run's wall times to times on the nominal host."""
        import reference

        return reference.scale(self.refs)

    @property
    def ops_per_s(self) -> float:
        """Ops completed per second of op time, checks included, on the
        nominal host."""
        return self.attempted / sum(self.walls) / self.scale

    def per_op_means(self) -> list[float]:
        """Each op of the pass at its mean latency over the run's passes.

        A shared machine switches between a fast and a slow mode, for a few
        seconds to a minute at a time, and the share of each mode in a run
        varies.  A minimum or a median over repeats jumps with that share
        (to the slow mode when a whole run is slow, between the modes when
        they are near even); a mean moves in proportion to it."""
        return [statistics.fmean(self.latencies[j::self.pass_len]) for j in range(self.pass_len)]


def timed_loop(workload, seconds=None, n_ops=None, tracer=None, probes=None) -> Phase:
    """Closed loop with one client: each op starts when the previous ends.

    Runs whole passes over the workload's ops, so every run has the same op
    mix: `n_ops` ops, or as many passes as take about `seconds`.  The host
    speed reference runs before each op, outside its timing.
    """
    import reference

    ops = workload.ops
    phase = Phase(len(ops))
    start = time.perf_counter()
    i = 0
    while True:
        if i % phase.pass_len == 0:
            now = time.perf_counter()
            if i > 0:
                phase.pass_walls.append(now - pass_start)
                if n_ops is not None:
                    done = i >= n_ops
                else:  # stop at the pass boundary nearest to `seconds`
                    elapsed = now - start
                    done = elapsed + elapsed / len(phase.pass_walls) / 2 >= seconds
                if done:
                    break
            if probes is not None:
                probes.maybe(now - start)
            pass_start = time.perf_counter()
        op = ops[i % phase.pass_len]
        if tracer is not None:
            tracer.op = i
        phase.refs.append(reference.measure())
        t0 = time.perf_counter()
        try:
            out = op.run()
            t1 = time.perf_counter()
            ok = bool(op.check(out))
        except Exception:
            t1 = time.perf_counter()
            ok = False
            print(f"op {i} ({op.kind}) raised:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            if not ok:
                print(f"op {i} ({op.kind}) failed its check", file=sys.stderr)
            elif i < phase.pass_len and op.count is not None:
                phase.counts.append(op.count(out))
        phase.walls.append(time.perf_counter() - t0)
        phase.latencies.append(t1 - t0)
        phase.kinds.append(op.kind)
        phase.failed += not ok
        i += 1
    if tracer is not None:
        tracer.op = -1
    return phase


def end_to_end(phase: Phase, setup: list[dict], tail_pct: int) -> tuple[dict, list[str]]:
    import reference

    per_op = phase.per_op_means()
    n = phase.attempted
    tail = statistics.quantiles(phase.latencies, n=100, method="inclusive")[tail_pct - 1]
    metrics = {
        "setup_s": (statistics.median(s["import_s"] + s["inputs_s"] for s in setup) * phase.scale, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_ms_p50": (statistics.median(per_op) * phase.scale * 1e3, "ms"),
        "op_ms_tail": (tail * phase.scale * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    passes = len(phase.pass_walls)
    beyond = sum(x > tail for x in phase.latencies)
    k = phase.scale
    notes = [
        f"times on the nominal host: wall times x {k:.4f}, as the speed reference took "
        f"{statistics.fmean(phase.refs) * 1e3:.3f} ms on average over {len(phase.refs)} runs "
        f"(nominal {reference.NOMINAL_S * 1e3} ms); unscaled setup_s {metrics['setup_s'][0] / k}, "
        f"ops_per_s {metrics['ops_per_s'][0] * k}, op_ms_p50 {metrics['op_ms_p50'][0] / k}, op_ms_tail {metrics['op_ms_tail'][0] / k}",
        f"setup_s: median of {len(setup)} fresh processes",
        f"ops_per_s: {n} ops in {passes} passes of {phase.pass_len} ops, {sum(phase.walls):.3f} s of op time",
        f"op_ms_p50: median over the {phase.pass_len} ops of a pass, each op at its mean of {passes} runs",
        f"op_ms_tail: p{tail_pct} of all {n} timed ops, {beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: run longer)"),
        f"error_rate = {phase.failed / n} ({phase.failed} failed of {n} attempted)",
    ]
    return metrics, notes


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(tracer, untraced: Phase, traced: Phase, setup: list[dict]) -> dict:
    """Layer metrics from the traced phase (plus set-up spans); 0 where the
    workload never calls that layer."""
    spans = tracer.spans
    own = tracer.self_times()

    def of(name):
        return [s for s in spans if s.name == name]

    def ms(name):
        return _mean(s.duration for s in of(name)) * 1e3

    m = {
        "setup.import_s": (statistics.median(s["import_s"] for s in setup), "s"),
        "setup.inputs_s": (statistics.median(s["inputs_s"] for s in setup), "s"),
    }
    runs = of("learning.run")
    for v in TRAIN_VARIANTS:
        mine = [s for s in runs if s.attrs.get("variant") == v]
        iters = sum(s.attrs["iters"] for s in mine)
        m[f"learning.run.us_per_iter.{v}"] = (sum(s.duration for s in mine) / iters * 1e6 if iters else 0.0, "us/iter")
        first = [s for s in mine if 0 <= s.op < traced.pass_len]
        sent = sum(s.attrs["workers"] * s.attrs["iters"] for s in first)
        censored = sum(s.attrs["censored"] for s in first)
        m[f"learning.run.iters.{v}"] = (_mean(s.attrs["iters"] for s in first), "count")
        m[f"learning.run.transmit_ratio.{v}"] = (1.0 - censored / sent if sent else 0.0, "ratio")
    m["learning.build_topology.ms"] = (ms("learning.build_topology"), "ms")

    m["placement.solve_optimal.ms"] = (ms("placement.solve_optimal"), "ms")
    m["placement.solve_heuristic.ms"] = (ms("placement.solve_heuristic"), "ms")
    m["placement.path_energy.ms"] = (ms("placement.path_energy"), "ms")
    m["placement.generate_network.ms"] = (ms("placement.generate_network"), "ms")
    m["placement.evaluate_assignment.us"] = (ms("placement.evaluate_assignment") * 1e3, "us")
    # Each solve_optimal of the first pass against the solve_heuristic that
    # follows it in the same op, on the same instance (the placement
    # scenario's rows).
    ratios, opt = [], None
    for s in spans:
        if not 0 <= s.op < traced.pass_len or not s.attrs:  # no attrs: the call raised
            continue
        if s.name == "placement.solve_optimal":
            opt = s
        elif s.name == "placement.solve_heuristic" and opt is not None and s.op == opt.op:
            heur_energy = s.attrs["total_energy"]
            ratios.append(opt.attrs["total_energy"] / heur_energy if heur_energy > 0 else 1.0)
            opt = None
    m["placement.opt_heur_ratio"] = (_mean(ratios), "ratio")

    m["radio.reservation_probability.us"] = (ms("radio.reservation_probability") * 1e3, "us")
    m["radio.full_breakdown.us"] = (ms("radio.full_breakdown") * 1e3, "us")
    m["radio.full_breakdown.calls"] = (sum(0 <= s.op < traced.pass_len for s in of("radio.full_breakdown")), "count")

    m["scenario.parse_scenario.ms"] = (ms("scenario.parse_scenario"), "ms")
    m["pipeline.run_scenario.self_ms"] = (
        _mean(own[i] for i, s in enumerate(spans) if s.name == "pipeline.run_scenario") * 1e3, "ms")
    m["pipeline.csv_bytes"] = (sum(c.get("pipeline.csv_bytes", 0) for c in traced.counts), "bytes")
    m["cli.main.ms"] = (ms("cli.main"), "ms")

    in_loop = [i for i, s in enumerate(spans) if s.op >= 0]
    n = traced.attempted
    for layer in LAYERS:
        total = sum(own[i] for i in in_loop if spans[i].name.split(".", 1)[0] == layer)
        m[f"self.{layer}.ms_per_op"] = (total / n * 1e3, "ms")
    outside = sum(traced.walls) - sum(spans[i].duration for i in in_loop if spans[i].parent < 0)
    m["self.bench.ms_per_op"] = (outside / n * 1e3, "ms")
    # the same ops, untraced then traced
    m["trace.overhead_ratio"] = (traced.ops_per_s / untraced.ops_per_s, "ratio")
    return m


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ[k] for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgekit" / "__init__.py").is_file():
        print(f"error: no edgekit package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0

    import_edgekit()
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    tmp = TMP / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        if tracer is not None:
            tracer.install()
        workload = workloads.BUILDERS[args.workload](args.seed, ROOT, tmp)
        if tracer is not None:
            tracer.uninstall()
        os.chdir(tmp)  # scenario outputs land in the temporary directory
        for warm in {op.kind: op for op in reversed(workload.ops)}.values():
            try:  # the first op of each kind, untimed
                warm.check(warm.run())
            except Exception:
                pass  # the timed loop runs this op again and reports the failure
        if tracer is None:
            probes = SetupProbes(args, args.seconds)
            phase = timed_loop(workload, seconds=args.seconds, probes=probes)
            metrics, notes = end_to_end(phase, probes.finish(), workload.tail_pct)
            attempted, failed = phase.attempted, phase.failed
        else:
            probes = SetupProbes(args, args.seconds / 2)
            untraced = timed_loop(workload, seconds=args.seconds / 2, probes=probes)
            tracer.install()
            try:
                phase = timed_loop(workload, n_ops=untraced.attempted, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, untraced, phase, probes.finish())
            attempted = untraced.attempted + phase.attempted
            failed = untraced.failed + phase.failed
            notes = [
                f"{untraced.attempted} ops untraced in {sum(untraced.pass_walls):.3f} s, "
                f"the same ops traced in {sum(phase.pass_walls):.3f} s",
                f"error_rate = {failed / attempted} ({failed} failed of {attempted} attempted)",
            ]
    finally:
        os.chdir(cwd)
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "pass_walls_s": phase.pass_walls,
        "op_kinds": phase.kinds[:phase.pass_len],
        "latencies_s": phase.latencies,
        "walls_s": phase.walls,
        "refs_s": phase.refs,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.jsonl")

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for k, (v, u) in metrics.items():
        print(f"{k} = {v} {u}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
