#!/usr/bin/env python3
"""Compare communication energy of the learning variants at a fixed accuracy.

For each seed, every variant trains on the same worker problems and we record
how many Joules (and bits) it needs to first reach the target objective
error.  Censored + quantized transmission should come out cheapest, the
parameter-server baseline most expensive.
"""
import argparse

import numpy as np

from edgekit.learning import CensorSchedule, QuantizerConfig, build_topology, run
from edgekit.pipeline import make_problems
from edgekit.scenario import LearningConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=10)
    ap.add_argument("--dim", type=int, default=5)
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--iters", type=int, default=3000)
    ap.add_argument("--target", type=float, default=1e-3)
    ap.add_argument("--rho", type=float, default=1.0)
    args = ap.parse_args()

    variants = ["ps-admm", "ggadmm", "c-ggadmm", "cq-ggadmm"]
    joules = {v: [] for v in variants}
    for seed in range(args.seeds):
        cfg = LearningConfig(workers=args.workers, dim=args.dim, samples=args.samples, noise=0.1, reg=1e-3)
        problems = make_problems(cfg, seed)
        topo = build_topology(args.workers, kind="bipartite", seed=seed, mean_degree=5.0)
        for v in variants:
            censor = CensorSchedule(xi0=0.1, alpha=0.99) if v.startswith(("c-", "cq")) else None
            quant = QuantizerConfig(bits=2) if v == "cq-ggadmm" else None
            trace = run(
                v, problems, None if v == "ps-admm" else topo, rho=args.rho,
                quantizer=quant, censor=censor, iters=args.iters, seed=seed,
                stop_error=args.target,
            )
            j = trace.joules_to(args.target)
            joules[v].append(j if j is not None else float("nan"))

    print(f"Joules to objective error < {args.target} (mean over {args.seeds} seeds)")
    for v in variants:
        vals = np.array(joules[v])
        print(f"  {v:10s}  {np.nanmean(vals):.3e}")


if __name__ == "__main__":
    main()
