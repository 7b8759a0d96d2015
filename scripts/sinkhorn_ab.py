#!/usr/bin/env python3
"""Interleaved in-process timings of this checkout's sinkhorn loop against a
parent checkout's and against tests/oracle.py::reference_sinkhorn (two whole
products per iteration).

Run from the root of the change's checkout, with the parent commit checked
out in another directory:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 scripts/sinkhorn_ab.py --parent ../parent --out ab.json

The instance is seed 11's Gaussian clouds, a normalized cost, eta 1 and
uniform weights, at n = m = 1000 and 4000. For each BLAS setting
(OPENBLAS_NUM_THREADS unset, then set to 1) the script runs itself once more
in a fresh interpreter, since OpenBLAS reads the variable at load. There the
parent's package is loaded beside this one, and each round times the three
loops on the same kernel, in an order that rotates from round to round:

- prebuilt: one kernel, built before the first round;
- fresh: a new kernel built, outside the clock, before every timed loop.

Only the loop is timed, not the kernel. The JSON holds, per setting, n and
kernel, each loop's runs, median and quartiles in ms, the change's median
over the parent's and over the reference's, and every loop's iterations,
which must agree.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETTINGS = {"default": None, "one": "1"}
SIZES = (1000, 4000)
ROUNDS = {1000: 100, 4000: 40}
LOOPS = ("change", "parent", "reference")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="parent commit checkout")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--setting", choices=SETTINGS, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.parent / "src" / "screenkhorn" / "__init__.py").is_file():
        p.error(f"no src/screenkhorn under {args.parent}")
    return args


def load_parent(checkout: Path):
    """The parent checkout's package, imported as parent_screenkhorn."""
    package = checkout.resolve() / "src" / "screenkhorn"
    spec = importlib.util.spec_from_file_location(
        "parent_screenkhorn", package / "__init__.py",
        submodule_search_locations=[str(package)],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def measure(parent_checkout: Path) -> dict:
    """Every (n, kernel) cell of one BLAS setting, in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    from oracle import reference_sinkhorn
    from screenkhorn import (
        DiscreteMeasure, generate_gaussian_pair, gibbs_kernel, pairwise_euclidean,
        sinkhorn,
    )

    loops = {
        "change": sinkhorn,
        "parent": load_parent(parent_checkout).sinkhorn,
        "reference": reference_sinkhorn,
    }
    cells = {}
    for n in SIZES:
        x, y = generate_gaussian_pair(n, n, 11)
        C = pairwise_euclidean(x, y, True)
        mu = DiscreteMeasure(np.full(n, 1.0 / n))
        for kernel in ("prebuilt", "fresh"):
            K = gibbs_kernel(C, 1.0)
            times = {name: [] for name in LOOPS}
            iterations = {name: set() for name in LOOPS}
            for r in range(ROUNDS[n]):
                for name in LOOPS[r % 3:] + LOOPS[:r % 3]:
                    if kernel == "fresh":
                        del K
                        K = gibbs_kernel(C, 1.0)
                    t0 = time.perf_counter()
                    solution = loops[name](mu, mu, K)
                    times[name].append((time.perf_counter() - t0) * 1e3)
                    iterations[name].add(solution.iterations)
            del K
            medians = {name: statistics.median(times[name]) for name in LOOPS}
            cells[f"n={n} {kernel}"] = {
                "ms": {name: spread(times[name]) for name in LOOPS},
                "change_over_parent": medians["change"] / medians["parent"],
                "change_over_reference": medians["change"] / medians["reference"],
                "iterations": {name: sorted(iterations[name]) for name in LOOPS},
            }
            print(f"{cells[f'n={n} {kernel}']['iterations']} n={n} {kernel}: "
                  + ", ".join(f"{name} {medians[name]:.2f} ms" for name in LOOPS),
                  file=sys.stderr, flush=True)
    return cells


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setting is not None:
        print(json.dumps(measure(args.parent)))
        return 0
    record = {
        "host": {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "python": platform.python_version()},
        "instance": "generate_gaussian_pair(n, n, 11), normalized cost, eta 1, "
                    "uniform weights",
        "rounds": ROUNDS,
        "blas_threads": {},
    }
    for setting, threads in SETTINGS.items():
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        print(f"OPENBLAS_NUM_THREADS={threads or 'unset'}", file=sys.stderr, flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--parent", str(args.parent), "--out", str(args.out),
             "--setting", setting],
            env=env, stdout=subprocess.PIPE, text=True, check=True,
        )
        record["blas_threads"][setting] = json.loads(proc.stdout)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
