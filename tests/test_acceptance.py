"""Acceptance suite: ten checks covering convergence, energy ordering,
solver optimality, oracle agreement, curve shape, and determinism.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output).  Tolerances are part of the contract; do not loosen them.
"""
import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from edgekit.core import make_rng
from edgekit.learning import (
    CensorSchedule,
    LocalProblem,
    QuantizerConfig,
    build_topology,
    run,
)
from edgekit.placement import (
    Infeasible,
    generate_application,
    generate_network,
    solve_heuristic,
    solve_optimal,
)
from edgekit.radio import RadioConfig, full_breakdown, reservation_probability
from edgekit.pipeline import run_scenario
from edgekit.scenario import parse_scenario

from conftest import synthetic_problems
from oracles import brute_force_optimal, monte_carlo_reservation, pow_latency_oracle

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios"


def report(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def scalar_chain_problems(n, seed):
    rng = make_rng(seed)
    targets = np.sort(rng.standard_normal(n) * 3.0)
    return [LocalProblem.scalar_quadratic(a) for a in targets]


def test_criterion_1_learning_convergence():
    problems = synthetic_problems(18, 14, 20, noise=0.1, reg=1e-3, seed=0)
    topo = build_topology(18, kind="bipartite", seed=0, mean_degree=5.0)
    trace = run("ggadmm", problems, topo, rho=1.0, iters=3000, seed=0, stop_error=1e-4)
    iters = trace.iterations_to(1e-4)
    report(1, iters is not None and iters <= 3000,
           f"ggadmm reached objective error < 1e-4 in {iters} iterations (limit 3000)")


def test_criterion_2_energy_ordering():
    wins = 0
    detail = []
    for seed in range(10):
        problems = synthetic_problems(18, 14, 20, noise=0.1, reg=1e-3, seed=seed)
        topo = build_topology(18, kind="bipartite", seed=seed, mean_degree=5.0)
        joules = {}
        for variant in ("ps-admm", "ggadmm", "c-ggadmm", "cq-ggadmm"):
            censor = CensorSchedule(xi0=0.1, alpha=0.99) if variant in ("c-ggadmm", "cq-ggadmm") else None
            quant = QuantizerConfig(bits=2) if variant == "cq-ggadmm" else None
            trace = run(variant, problems, None if variant == "ps-admm" else topo,
                        rho=1.0, quantizer=quant, censor=censor, iters=3000, seed=seed,
                        stop_error=1e-3)
            joules[variant] = trace.joules_to(1e-3)
        if all(v is not None for v in joules.values()) and (
            joules["cq-ggadmm"] < joules["c-ggadmm"] <= joules["ggadmm"] < joules["ps-admm"]
        ):
            wins += 1
        detail.append(tuple(joules.values()))
    report(2, wins >= 8, f"energy ordering cq < c <= gg < ps held on {wins}/10 seeds (need >= 8)")


def test_criterion_3_dynamic_rechaining_speedup():
    iters_dyn, iters_static = [], []
    for seed in range(10):
        problems = scalar_chain_problems(16, seed)
        static = run("gadmm", problems, build_topology(16, kind="chain", seed=seed),
                     iters=6000, seed=seed, stop_error=1e-3)
        dyn = run("d-gadmm", problems, build_topology(16, kind="chain", seed=seed, tau_coh=20),
                  iters=6000, seed=seed, stop_error=1e-3)
        s, d = static.iterations_to(1e-3), dyn.iterations_to(1e-3)
        assert s is not None and d is not None
        iters_static.append(s)
        iters_dyn.append(d)
    mean_d, mean_s = np.mean(iters_dyn), np.mean(iters_static)
    report(3, mean_d <= mean_s,
           f"d-gadmm mean iterations-to-1e-3 {mean_d:.1f} <= static gadmm {mean_s:.1f}")


def test_criterion_4_exact_solver_matches_brute_force():
    rng = make_rng(42)
    checked = 0
    mismatches = 0
    seed = 0
    while checked < 200:
        seed += 1
        m = int(rng.integers(3, 6))
        n = int(rng.integers(2, 6))
        shape = "long" if n < 3 or rng.random() < 0.5 else "wide"
        net = generate_network(m, seed=seed)
        app = generate_application(shape, n, seed=seed + 10_000)
        try:
            exact = solve_optimal(app, net)
        except Infeasible:
            continue
        brute = brute_force_optimal(app, net)
        if abs(exact.total_energy - brute.total_energy) > 1e-9:
            mismatches += 1
        checked += 1
    report(4, mismatches == 0,
           f"exact solver matched brute force on {checked - mismatches}/200 instances (tol 1e-9)")


def test_criterion_5_heuristic_dominance_and_gap():
    rng = make_rng(7)
    ratios = []
    dominated = True
    seed = 0
    while len(ratios) < 100:
        seed += 1
        m = int(rng.integers(5, 11))
        n = int(rng.integers(3, 9))
        shape = "long" if rng.random() < 0.5 else "wide"
        if shape == "wide" and n < 3:
            shape = "long"
        net = generate_network(m, seed=seed)
        app = generate_application(shape, n, seed=seed + 20_000)
        try:
            opt = solve_optimal(app, net)
            heur = solve_heuristic(app, net)
        except Infeasible:
            continue
        if opt.total_energy > heur.total_energy + 1e-9:
            dominated = False
        ratios.append(opt.total_energy / heur.total_energy)
    ratios = np.array(ratios)
    med = float(np.median(ratios))
    dist = ", ".join(f"p{p}={np.percentile(ratios, p):.3f}" for p in (0, 25, 50, 75, 100))
    report(5, dominated and 0.5 <= med <= 1.0,
           f"optimal <= heuristic on all 100 instances; median ratio {med:.3f} in [0.5, 1.0]; {dist}")


def test_criterion_6_runtime_scaling():
    net = generate_network(15, seed=7)
    app = generate_application("long", 12, seed=104)
    net.path_energy  # warm the shared all-pairs cache so both timings are solver-only
    t_heur = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        heur = solve_heuristic(app, net)
        t_heur = min(t_heur, time.perf_counter() - t0)
    t0 = time.perf_counter()
    exact = solve_optimal(app, net, time_budget=60.0)
    t_exact = time.perf_counter() - t0
    if exact.status == "time_budget_exceeded":
        ok = t_heur <= 1.0
        detail = (f"heuristic {t_heur*1e3:.1f} ms <= 1 s; exact hit the 60 s budget "
                  f"with reported gap {exact.gap:.3f}")
    else:
        ok = t_heur <= 1.0 and t_exact >= 10.0 * t_heur
        detail = (f"heuristic {t_heur*1e3:.1f} ms <= 1 s; exact {t_exact*1e3:.1f} ms "
                  f">= 10x heuristic ({t_exact/t_heur:.1f}x)")
    assert heur.feasible
    report(6, ok, detail)


def test_criterion_7_drift_approximation_accuracy():
    worst = 0.0
    for p_d in (0.9, 1.0):
        for lam_a in (1.0, 5.0, 10.0):
            cfg = RadioConfig(K=48, p_d=p_d, lambda_u=lam_a / 2, lambda_d=lam_a / 2, N_rmax=10)
            p_closed, _ = reservation_probability(cfg)
            p_mc = monte_carlo_reservation(cfg, periods=100_000, seed=11)
            worst = max(worst, abs(p_closed - p_mc))
    report(7, worst <= 0.02,
           f"drift approximation within {worst:.4f} of Monte-Carlo across the grid (tol 0.02)")


def test_criterion_8_pow_race():
    worst_sigmas = 0.0
    trials = 100_000
    for M in (1, 5, 20):
        for lam_c in (0.5, 2.0):
            mean = 1.0 / (lam_c * M)
            sigma = mean / math.sqrt(trials)  # min of M exponentials is exponential
            mc = pow_latency_oracle(M, lam_c, trials=trials, seed=M * 1000 + int(lam_c * 10))
            worst_sigmas = max(worst_sigmas, abs(mc - mean) / sigma)
    report(8, worst_sigmas <= 3.0,
           f"mining-race oracle within {worst_sigmas:.2f} sigma of 1/(lambda_c*M) (limit 3)")


def test_criterion_9_latency_shape():
    # the golden radio scenario: t from 0.04 to 2.56 s at 10 arrivals per second
    points = parse_scenario(GOLDEN / "radio.yaml").points
    ts = [point.value for point in points]
    lats = [full_breakdown(point.radio, point.power, point.dlt).total_latency for point in points]
    i = int(np.argmin(lats))
    ok = 0 < i < len(lats) - 1 and lats[0] > lats[i] < lats[-1]
    report(9, ok,
           f"E2E latency over t in [0.04, 2.56] has interior minimum at t={ts[i]:.2f} s "
           f"(curve {['%.2f' % v for v in lats]})")


def test_criterion_10_determinism(tmp_path):
    identical = True
    checked = []
    for name in ("learning.yaml", "placement.yaml", "radio.yaml", "integrated.yaml"):
        s = parse_scenario(GOLDEN / name)
        s = dataclasses.replace(s, output=str(tmp_path / name.replace(".yaml", ".csv")))
        first = [p.read_bytes() for p in run_scenario(s)]
        second = [p.read_bytes() for p in run_scenario(s)]
        same = first == second
        identical = identical and same
        checked.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    report(10, identical, f"reruns byte-identical for every scenario kind ({', '.join(checked)})")
