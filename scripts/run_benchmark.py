#!/usr/bin/env python3
"""Benchmark sweep driver: Sinkhorn vs Screenkhorn on Gaussian point clouds.

Sweeps eta x budget x trial on Euclidean distance costs between two seeded
Gaussian samples, writes one CSV row per trial, and prints per-cell means.
Edit the constants below to change the sweep; pass --quick for a small
smoke-sized run (useful when touching the solver).
"""

import sys
import time
from collections import defaultdict

import numpy as np

from screenkhorn import ExperimentConfig, SolverConfig, run_experiment

N = 1000
M = 1000
ETAS = (0.5, 1.0)
BUDGETS = (0.1, 0.25, 0.5, 0.75, 0.99)
TRIALS = 30
SEED = 0
PG_TOL = 1e-6
OUT = "benchmark_results.csv"

QUICK = dict(n=200, m=200, etas=(1.0,), budgets=(0.1, 0.5, 0.99), trials=5)


def main():
    quick = "--quick" in sys.argv[1:]
    n, m = (QUICK["n"], QUICK["m"]) if quick else (N, M)
    etas = QUICK["etas"] if quick else ETAS
    budgets = QUICK["budgets"] if quick else BUDGETS
    trials = QUICK["trials"] if quick else TRIALS

    cfg = ExperimentConfig(
        n=n,
        m=m,
        eta_list=etas,
        budget_list=budgets,
        trials=trials,
        seed=SEED,
        normalize_cost=True,
        output_path=OUT,
    )
    print(f"sweep: n={n} m={m} etas={etas} budgets={budgets} trials={trials}")
    t0 = time.perf_counter()
    rows, _ = run_experiment(
        cfg,
        solver_config=SolverConfig(pg_tolerance=PG_TOL),
        progress=print,
    )
    print(f"done in {time.perf_counter() - t0:.1f}s, wrote {len(rows)} rows to {OUT}")

    cells = defaultdict(list)
    for r in rows:
        if r.converged:
            cells[(r.eta, r.budget)].append(r)
    print(f"\n{'eta':>6} {'budget':>7} {'speedup':>8} {'row_viol':>9} "
          f"{'col_viol':>9} {'rel_div':>8} {'conv':>5}")
    for eta in etas:
        for budget in budgets:
            got = cells[(eta, budget)]
            if not got:
                print(f"{eta:6.2f} {budget:7.2f} {'all failed':>8}")
                continue
            mean = lambda attr: float(np.mean([getattr(r, attr) for r in got]))
            print(f"{eta:6.2f} {budget:7.2f} {mean('speedup'):8.3f} "
                  f"{mean('row_violation'):9.4f} {mean('col_violation'):9.4f} "
                  f"{mean('rel_divergence'):8.4f} {len(got):3d}/{trials}")


if __name__ == "__main__":
    main()
