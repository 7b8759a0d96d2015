#!/usr/bin/env python3
"""Paired benchmark: the screened solve against plain Sinkhorn on seeded
Gaussian clouds, with every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload kernel-bound --seed 1 --seconds 40 --trace 0

A run builds its instances from --seed, sets up (import once; one instance
and one discarded warm-up pair, SETUP_REPEATS times), then solves instance
after instance for --seconds, and at least until the workload's answer set
is complete. It uses one process and one BLAS thread. Each pair times both
public calls back to back, alternating which goes first:

    screenkhorn(C, eta, mu, nu, n_b, m_b, SolverConfig(pg_tolerance=1e-6),
                materialize_plan=False)
    sinkhorn(mu, nu, gibbs_kernel(C, eta))

Outside the clock, every pair is checked: the baseline's marginals and the
screened marginals are recomputed from the returned potentials, and the
library's certificates run on the pair. A pair that raises, does not
converge on either side, or fails a certificate counts as failed. A
returned output that disagrees with its recomputation makes the run
incorrect.

--trace 0 reports the end-to-end metrics. --trace 1 wraps the pipeline's
stages (see tracing.py) and reports per-stage metrics instead. The last line
of stdout is one JSON object with keys correct, attempted, failed, metrics;
the lines above it give every metric with its unit, the host, and the names
of failing certificates. A full record, spans included, is written to
.perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    n: int  # n = m, uniform measures on both sides
    eta: float
    budget: float  # decimation factor, n_b = m_b = round(budget * n)
    answer_instances: int  # instances 1..k give the answer and count metrics


WORKLOADS = {
    # criterion 8's gated cell: 0 L-BFGS-B iterations and 3 Sinkhorn sweeps,
    # so the kernel and fixed per-call overhead dominate both solves
    "kernel-bound": Workload(1000, 1.0, 0.1, 64),
    # 990 x 990 active block: cost per evaluation and build_problem dominate;
    # the col-marginal-mass certificate fails here on every instance
    "full-budget": Workload(1000, 1.0, 0.99, 48),
    # 128 MB per n x m array, beyond L3
    "large-n": Workload(4000, 1.0, 0.1, 12),
}

END_TO_END = {
    "screen_ms_p50": "ms",
    "screen_ms_p90": "ms",
    "sinkhorn_ms_p50": "ms",
    "sinkhorn_ms_p90": "ms",
    "row_violation": "l1",
    "col_violation": "l1",
    "rel_divergence": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "core.gibbs_kernel.ms": "ms",
    "core.gibbs_kernel.mb_computed": "MB",
    "core.sinkhorn.iterations": "count",
    "core.sinkhorn.ms": "ms",
    "screening.ratio_vectors.calls": "count",
    "screening.ratio_vectors.ms": "ms",
    "screening.active_sets.ms": "ms",
    "screening.active_frac": "share",
    "screened.build_problem.ms": "ms",
    "screened.objective.calls": "count",
    "screened.objective.ms": "ms",
    "screened.gradient.calls": "count",
    "screened.gradient.ms": "ms",
    "screened.at_bound_frac": "share",
    "solver.minimize.ms": "ms",
    "solver.minimize.self_ms": "ms",
    "solver.restricted_sinkhorn.ms": "ms",
    "solver.lbfgsb_iterations": "count",
    "solver.evaluations": "count",
    "solver.zero_iter_frac": "share",
    "algorithm.screenkhorn.self_ms": "ms",
    "bench.pairwise_euclidean.ms": "ms",
    "bench.generate_gaussian_pair.ms": "ms",
    "diagnostics.certify_outcome.ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def l3_size() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            if (idx / "level").read_text().strip() == "3":
                return (idx / "size").read_text().strip()
        except OSError:
            break
    return "unknown"


def host_info(np, scipy) -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "l3": l3_size(),
        "openblas": "unknown",
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if blas.get("openblas configuration"):
        info["openblas"] = blas["openblas configuration"]
    lib = next(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*"), None)
    if lib is not None:
        import ctypes

        try:
            handle = ctypes.CDLL(str(lib))
            get = handle.scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            info["openblas_threads"] = str(get())
        except (OSError, AttributeError):
            pass
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "screenkhorn" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2

    # one BLAS thread: on a 2-vCPU VM a second OpenBLAS thread made the
    # screened solve slower and its run-to-run spread three times wider
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    t_import = perf_counter()
    import numpy as np
    import scipy

    import screenkhorn

    import_s = perf_counter() - t_import
    if Path(screenkhorn.__file__).resolve().parent != SRC / "screenkhorn":
        print(f"perfbench: imported {screenkhorn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from pairs import Bench

    bench = Bench(wl, args.seed, args.trace == 1)
    setup_s = import_s + bench.setup(SETUP_REPEATS)
    bench.run(args.seconds)

    host = host_info(np, scipy)
    summary = bench.summary()
    if args.trace:
        metrics = bench.layer_metrics(summary)
        units = PER_LAYER
    else:
        metrics = bench.end_to_end_metrics(summary)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        units = END_TO_END

    correct = not bench.problems and all(metrics.get(k) is not None for k in units)
    failed = sum(1 for p in bench.pairs if p.failures)
    report(args, wl, host, bench, summary, metrics, units, failed)
    write_record(args, host, bench, summary, metrics)
    result = {
        "correct": correct,
        "attempted": len(bench.pairs),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def report(args, wl, host, bench, summary, metrics, units, failed: int) -> None:
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(
        f"workload {args.workload}: n=m={wl.n} eta={wl.eta} budget={wl.budget} "
        f"(n_b=m_b={bench.n_b}) seed={args.seed} trace={args.trace} "
        f"instances={bench.instances} pairs={len(bench.pairs)} "
        f"answer_instances={wl.answer_instances}"
    )
    for name, unit in units.items():
        print(f"  {name} = {metrics.get(name)} {unit}")
    timed = summary["screen_ms"]
    if timed and summary["sinkhorn_ms"]:
        speedup = statistics.median(summary["sinkhorn_ms"]) / statistics.median(timed)
        print(f"  speedup = {speedup:.4f} (sinkhorn_ms_p50 / screen_ms_p50, "
              f"{len(timed)} screened and {len(summary['sinkhorn_ms'])} baseline samples)")
    print(f"  fail_frac = {failed / len(bench.pairs)} share ({failed} of {len(bench.pairs)} pairs)")
    for reason, count in sorted(summary["failure_counts"].items()):
        print(f"  failing: {reason} x{count}")
    for problem in bench.problems[:20]:
        print(f"  INCORRECT: {problem}")
    print("  answer: " + json.dumps(summary["answer"]))
    print("  " + reference_check(args, summary["answer"]))


def reference_check(args, answer) -> str:
    """Compare this run's answer summary with the stored one for its seed."""
    if not REFERENCE.is_file():
        return "reference: none stored"
    ref = json.loads(REFERENCE.read_text())
    stored = ref["workloads"].get(args.workload)
    if args.seed != ref["seed"] or stored is None:
        return f"reference: stored for seed {ref['seed']} only"
    diffs = [
        f"{k} {stored[k]} -> {answer.get(k)}"
        for k in stored
        if answer.get(k) is None
        or abs(answer[k] - stored[k]) > 1e-9 * max(abs(stored[k]), 1e-300)
    ]
    return "reference: matches" if not diffs else "reference: differs: " + "; ".join(diffs)


def write_record(args, host, bench, summary, metrics) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "args": vars(args),
        "host": host,
        "metrics": metrics,
        "answer": summary["answer"],
        "failure_counts": summary["failure_counts"],
        "problems": bench.problems,
        "pairs": [p.__dict__ for p in bench.pairs],
        "spans": bench.tracer.spans if bench.tracer else [],
    }
    path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
